// Round-trip property tests for the sweep wire formats: serialize -> parse ->
// serialize must be the identity (both on values and on bytes), and malformed input
// must come back as a Status error, never a crash.
#include "src/harness/sweep_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/harness/experiment.h"

namespace alert {
namespace {

SweepSpec ExampleSpec() {
  SweepSpec spec;
  spec.cells.push_back(SweepCellSpec{TaskId::kImageClassification, PlatformId::kCpu1,
                                     ContentionType::kNone, GoalMode::kMinimizeEnergy});
  spec.cells.push_back(SweepCellSpec{TaskId::kSentencePrediction, PlatformId::kCpu2,
                                     ContentionType::kMemory,
                                     GoalMode::kMaximizeAccuracy});
  spec.schemes = {SchemeId::kAlert, SchemeId::kSysOnly, SchemeId::kOracle};
  spec.seeds = {1, 20200715};
  spec.num_inputs = 120;
  spec.grid_indices = {0, 7, 35};
  spec.contention_scale = 1.25;
  spec.profile_noise_sigma = 0.1;
  return spec;
}

TEST(SweepSpecSerdeTest, RoundTripIsIdentity) {
  const SweepSpec spec = ExampleSpec();
  const std::string text = SerializeSweepSpec(spec);
  SweepSpec parsed;
  const serde::Status s = ParseSweepSpec(text, &parsed);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(SerializeSweepSpec(parsed), text);  // byte-stable second generation
}

TEST(SweepSpecSerdeTest, ContentionWindowSurvives) {
  SweepSpec spec = ExampleSpec();
  spec.contention_window = std::make_pair(46, 119);
  SweepSpec parsed;
  ASSERT_TRUE(ParseSweepSpec(SerializeSweepSpec(spec), &parsed).ok);
  EXPECT_EQ(parsed, spec);
}

TEST(SweepSpecSerdeTest, MalformedSpecsAreStatusErrors) {
  SweepSpec out;
  EXPECT_FALSE(ParseSweepSpec("", &out).ok);
  EXPECT_FALSE(ParseSweepSpec("bogus v=1\nend\n", &out).ok);
  EXPECT_FALSE(ParseSweepSpec("sweep-spec v=99\nend\n", &out).ok);  // bad version
  const std::string good = SerializeSweepSpec(ExampleSpec());
  // Truncation (missing 'end') is detected.
  EXPECT_FALSE(ParseSweepSpec(good.substr(0, good.size() - 4), &out).ok);
  // An unknown record tag is rejected.
  std::string unknown = good;
  unknown.insert(unknown.find("end\n"), "mystery field=1\n");
  EXPECT_FALSE(ParseSweepSpec(unknown, &out).ok);
  // Out-of-range enum values are rejected.
  std::string bad_scheme = good;
  bad_scheme.replace(bad_scheme.find("scheme id=0"), 11, "scheme id=99");
  EXPECT_FALSE(ParseSweepSpec(bad_scheme, &out).ok);
  // Semantic validation runs after parsing: duplicate seeds are rejected.
  std::string dup_seed = good;
  dup_seed.insert(dup_seed.find("end\n"), "seed value=1\n");
  EXPECT_FALSE(ParseSweepSpec(dup_seed, &out).ok);
  // Grid indices outside the 36-setting grid are rejected.
  std::string bad_grid = good;
  bad_grid.insert(bad_grid.find("end\n"), "grid setting=36\n");
  EXPECT_FALSE(ParseSweepSpec(bad_grid, &out).ok);
}

TEST(SweepSpecSerdeTest, ModeWithoutValidGoalsIsAStatusError) {
  // The Table 3 grid gives min-latency goals no accuracy goal, so every one of them
  // fails Goals::Valid(); the spec must be refused here, naming the mode, instead of
  // aborting a worker inside the schedulers.
  SweepSpec spec = ExampleSpec();
  spec.cells[1].mode = GoalMode::kMinimizeLatency;
  SweepSpec out;
  const serde::Status s = ParseSweepSpec(SerializeSweepSpec(spec), &out);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("MinimizeLatency"), std::string::npos) << s.message;
}

TEST(SweepUnitSerdeTest, RoundTripBothKinds) {
  SweepUnit unit;
  unit.id = 41;
  unit.cell = SweepCellSpec{TaskId::kSentencePrediction, PlatformId::kGpu,
                            ContentionType::kCompute, GoalMode::kMaximizeAccuracy};
  unit.seed = 987654321098765ull;
  unit.grid_index = 35;
  unit.num_inputs = 300;

  unit.kind = SweepUnitKind::kStaticOracle;
  SweepUnit parsed;
  ASSERT_TRUE(ParseSweepUnit(SerializeSweepUnit(unit), &parsed).ok);
  EXPECT_EQ(parsed, unit);

  unit.kind = SweepUnitKind::kScheme;
  unit.scheme = SchemeId::kNoCoord;
  ASSERT_TRUE(ParseSweepUnit(SerializeSweepUnit(unit), &parsed).ok);
  EXPECT_EQ(parsed, unit);
  EXPECT_EQ(SerializeSweepUnit(parsed), SerializeSweepUnit(unit));
}

TEST(SweepUnitSerdeTest, MalformedUnitsAreStatusErrors) {
  SweepUnit out;
  EXPECT_FALSE(ParseSweepUnit("", &out).ok);
  EXPECT_FALSE(ParseSweepUnit("result unit=1", &out).ok);  // wrong tag
  // Missing scheme on a scheme-kind unit.
  EXPECT_FALSE(
      ParseSweepUnit(
          "unit id=1 task=0 platform=1 contention=0 mode=0 seed=1 grid=0 kind=1 "
          "inputs=30",
          &out)
          .ok);
  // Unknown field.
  EXPECT_FALSE(
      ParseSweepUnit(
          "unit id=1 task=0 platform=1 contention=0 mode=0 seed=1 grid=0 kind=0 "
          "inputs=30 extra=1",
          &out)
          .ok);
  // Out-of-range platform.
  EXPECT_FALSE(
      ParseSweepUnit(
          "unit id=1 task=0 platform=9 contention=0 mode=0 seed=1 grid=0 kind=0 "
          "inputs=30",
          &out)
          .ok);
  // Non-positive inputs.
  EXPECT_FALSE(
      ParseSweepUnit(
          "unit id=1 task=0 platform=1 contention=0 mode=0 seed=1 grid=0 kind=0 "
          "inputs=0",
          &out)
          .ok);
}

TEST(SweepResultSerdeTest, RoundTripAllShapes) {
  SweepUnitResult usable;
  usable.unit_id = 3;
  usable.usable = true;
  usable.metric = 0.83769326123830135;
  SweepUnitResult violated;
  violated.unit_id = 4;
  SweepUnitResult skipped;
  skipped.unit_id = 5;
  skipped.skipped = true;
  for (const SweepUnitResult& result : {usable, violated, skipped}) {
    SweepUnitResult parsed;
    ASSERT_TRUE(ParseSweepUnitResult(SerializeSweepUnitResult(result), &parsed).ok);
    EXPECT_EQ(parsed, result);
  }
}

TEST(SweepResultSerdeTest, MalformedResultsAreStatusErrors) {
  SweepUnitResult out;
  EXPECT_FALSE(ParseSweepUnitResult("result unit=1 skipped=0 usable=1", &out).ok)
      << "usable result must carry a metric";
  EXPECT_FALSE(
      ParseSweepUnitResult("result unit=1 skipped=1 usable=1 metric=1", &out).ok)
      << "skipped and usable are mutually exclusive";
  EXPECT_FALSE(
      ParseSweepUnitResult("result unit=1 skipped=0 usable=1 metric=nan", &out).ok)
      << "NaN metrics must not reach the merge plane";
  EXPECT_FALSE(
      ParseSweepUnitResult("result unit=-2 skipped=0 usable=0", &out).ok);
}

TEST(SweepCheckpointSerdeTest, RoundTripIsIdentity) {
  SweepCheckpoint checkpoint;
  checkpoint.plan_fingerprint = 13678292389700777394ull;
  SweepUnitResult r;
  r.unit_id = 0;
  r.usable = true;
  r.metric = 0.83769326123830135;
  checkpoint.results.push_back(r);
  r = SweepUnitResult{};
  r.unit_id = 7;
  r.skipped = true;
  checkpoint.results.push_back(r);
  r = SweepUnitResult{};
  r.unit_id = 3;  // out of id order on purpose: checkpoints record merge order
  checkpoint.results.push_back(r);

  const std::string text = SerializeSweepCheckpoint(checkpoint);
  SweepCheckpoint parsed;
  const serde::Status s = ParseSweepCheckpoint(text, &parsed);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(parsed, checkpoint);
  EXPECT_EQ(SerializeSweepCheckpoint(parsed), text);  // byte-stable
}

TEST(SweepCheckpointSerdeTest, EmptyCheckpointRoundTrips) {
  // A dispatch checkpointed before any result merged: legal, resumes to nothing.
  SweepCheckpoint checkpoint;
  checkpoint.plan_fingerprint = 1;
  SweepCheckpoint parsed;
  ASSERT_TRUE(
      ParseSweepCheckpoint(SerializeSweepCheckpoint(checkpoint), &parsed).ok);
  EXPECT_EQ(parsed, checkpoint);
}

TEST(SweepCheckpointSerdeTest, CorruptAndTruncatedFilesAreStatusErrors) {
  // Resume must never silently restart from zero: every corruption shape a killed
  // box can leave behind (or an operator can cause) before the torn tail is a loud
  // parse error.  Truncation inside the last record is the one recoverable shape;
  // SweepCheckpointJournalTest covers it at every byte offset.
  SweepCheckpoint checkpoint;
  checkpoint.plan_fingerprint = 42;
  checkpoint.results.push_back(SweepUnitResult{.unit_id = 0});
  checkpoint.results.push_back(SweepUnitResult{.unit_id = 1});
  const std::string good = SerializeSweepCheckpoint(checkpoint);

  SweepCheckpoint out;
  EXPECT_FALSE(ParseSweepCheckpoint("", &out).ok) << "empty file";
  // A header cut short: no complete line at all.
  EXPECT_FALSE(ParseSweepCheckpoint(good.substr(0, good.find('\n')), &out).ok);
  // A whole, terminated line appended after the records that does not verify.
  EXPECT_FALSE(
      ParseSweepCheckpoint(good + "result unit=9 skipped=0 usable=0\n", &out).ok);
  // Wrong version.
  std::string wrong_version = good;
  wrong_version.replace(wrong_version.find("v=2"), 3, "v=9");
  EXPECT_FALSE(ParseSweepCheckpoint(wrong_version, &out).ok);
  // A corrupted result line (bit-rot inside the body).
  std::string corrupt = good;
  corrupt.replace(corrupt.find("unit=1"), 6, "unit=x");
  EXPECT_FALSE(ParseSweepCheckpoint(corrupt, &out).ok);
  // Not a checkpoint at all.
  EXPECT_FALSE(ParseSweepCheckpoint("shard-results v=1\nend\n", &out).ok);
}

// --- the append-only checkpoint journal ---------------------------------------------

SweepCheckpoint ExampleCheckpoint() {
  SweepCheckpoint checkpoint;
  checkpoint.plan_fingerprint = 13678292389700777394ull;
  checkpoint.results.push_back(
      SweepUnitResult{.unit_id = 4, .usable = true, .metric = 0.83769326123830135});
  checkpoint.results.push_back(SweepUnitResult{.unit_id = 0, .skipped = true});
  checkpoint.results.push_back(SweepUnitResult{.unit_id = 9});
  checkpoint.results.push_back(
      SweepUnitResult{.unit_id = 2, .usable = true, .metric = 1.2500000000000002});
  return checkpoint;
}

TEST(SweepCheckpointJournalTest, TruncatingInsideTheLastRecordParsesToTheOthers) {
  // A dispatcher killed mid-append leaves a prefix of its last record: every such
  // prefix — including the whole record without its '\n' — is a torn tail that is
  // dropped, and every record before it survives.
  const SweepCheckpoint full = ExampleCheckpoint();
  const std::string text = SerializeSweepCheckpoint(full);
  SweepCheckpoint others = full;
  others.results.pop_back();
  const size_t last_record = text.rfind('\n', text.size() - 2) + 1;
  for (size_t cut = last_record; cut < text.size(); ++cut) {
    SweepCheckpoint parsed;
    const serde::Status s = ParseSweepCheckpoint(text.substr(0, cut), &parsed);
    ASSERT_TRUE(s.ok) << "cut at byte " << cut << ": " << s.message;
    EXPECT_EQ(parsed, others) << "cut at byte " << cut;
  }
  SweepCheckpoint parsed;
  ASSERT_TRUE(ParseSweepCheckpoint(text, &parsed).ok);
  EXPECT_EQ(parsed, full);
}

TEST(SweepCheckpointJournalTest, FlippingAnyByteBeforeTheLastRecordIsRefused) {
  // Only the tail may be torn: a changed byte anywhere in the header or a complete
  // earlier record — a digit of a metric, a key, a checksum, a line break — must
  // fail the checksum or the grammar, never parse to different results.
  const std::string text = SerializeSweepCheckpoint(ExampleCheckpoint());
  const size_t last_record = text.rfind('\n', text.size() - 2) + 1;
  for (size_t i = 0; i < last_record; ++i) {
    for (const unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^ mask);
      SweepCheckpoint parsed;
      EXPECT_FALSE(ParseSweepCheckpoint(flipped, &parsed).ok)
          << "byte " << i << " ^ " << static_cast<int>(mask) << " parsed";
    }
  }
}

TEST(SweepCheckpointJournalTest, ADifferingDuplicateIsRefused) {
  SweepCheckpoint checkpoint = ExampleCheckpoint();
  SweepCheckpoint parsed;
  // Recording a unit twice with the same payload is harmless (first-wins merge).
  checkpoint.results.push_back(checkpoint.results.front());
  ASSERT_TRUE(ParseSweepCheckpoint(SerializeSweepCheckpoint(checkpoint), &parsed).ok);
  EXPECT_EQ(parsed, ExampleCheckpoint());
  // A different payload for a recorded unit is a determinism violation.
  checkpoint.results.back().metric = 0.5;
  const serde::Status s =
      ParseSweepCheckpoint(SerializeSweepCheckpoint(checkpoint), &parsed);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("recorded twice"), std::string::npos) << s.message;
}

TEST(SweepCheckpointJournalTest, TheV1WholeFileGrammarIsRefused) {
  const std::string v1 =
      "sweep-checkpoint v=1 plan=42 units=1\n"
      "result unit=0 skipped=0 usable=0\n"
      "end\n";
  SweepCheckpoint parsed;
  const serde::Status s = ParseSweepCheckpoint(v1, &parsed);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("v=1"), std::string::npos) << s.message;
}

TEST(SweepCheckpointJournalTest, AppendsReadBackAsOneCheckpoint) {
  // Open writes the base, each Flush appends the buffered records, and records
  // still buffered when the journal goes away are lost — a crash, not a rewrite.
  const std::string path = ::testing::TempDir() + "/sweep_io_journal.ckpt";
  SweepCheckpoint base = ExampleCheckpoint();
  const SweepUnitResult appended{.unit_id = 7, .usable = true, .metric = 3.0};
  const SweepUnitResult lost{.unit_id = 8};
  {
    SweepCheckpointJournal journal;
    ASSERT_TRUE(journal.Open(path, base).ok);
    journal.Add(appended);
    EXPECT_EQ(journal.pending(), 1);
    ASSERT_TRUE(journal.Flush().ok);
    EXPECT_EQ(journal.pending(), 0);
    journal.Add(lost);
  }
  std::string text;
  ASSERT_TRUE(serde::ReadFile(path, &text).ok);
  SweepCheckpoint parsed;
  ASSERT_TRUE(ParseSweepCheckpoint(text, &parsed).ok);
  base.results.push_back(appended);
  EXPECT_EQ(parsed, base);
  EXPECT_EQ(text, SerializeSweepCheckpoint(base));  // the journal is the compacted form
  std::remove(path.c_str());
}

TEST(LoadSweepResultsTest, AppendsAndRefusesForeignPlansAndTruncationWhenWholeIsRequired) {
  // One loader serves sweep_merge (a finished file is whole) and a dispatcher resume
  // (a killed dispatcher's torn last record is dropped).  Both refuse a file written
  // for another plan, and every refusal names the file.
  const std::string path = ::testing::TempDir() + "/sweep_io_load.results";
  const SweepCheckpoint file = ExampleCheckpoint();
  const uint64_t plan = file.plan_fingerprint;
  const std::string text = SerializeSweepCheckpoint(file);
  ASSERT_TRUE(serde::WriteFile(path, text).ok);
  std::vector<SweepUnitResult> loaded = {SweepUnitResult{.unit_id = 5}};
  serde::Status s = LoadSweepResults(path, plan, /*require_whole=*/true, &loaded);
  ASSERT_TRUE(s.ok) << s.message;
  std::vector<SweepUnitResult> want = {SweepUnitResult{.unit_id = 5}};
  want.insert(want.end(), file.results.begin(), file.results.end());
  EXPECT_EQ(loaded, want);  // appended after what was there

  s = LoadSweepResults(path, plan + 1, /*require_whole=*/false, &loaded);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("different plan"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find(path), std::string::npos) << s.message;
  EXPECT_EQ(loaded, want);  // a refused file adds nothing

  ASSERT_TRUE(serde::WriteFile(path, text.substr(0, text.size() - 3)).ok);
  s = LoadSweepResults(path, plan, /*require_whole=*/true, &loaded);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("truncated"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find(path), std::string::npos) << s.message;
  loaded.clear();
  ASSERT_TRUE(LoadSweepResults(path, plan, /*require_whole=*/false, &loaded).ok);
  want.assign(file.results.begin(), file.results.end() - 1);
  EXPECT_EQ(loaded, want);
  std::remove(path.c_str());
}

TEST(ProfileSnapshotSerdeTest, RoundTripFromARealConfigSpace) {
  ExperimentOptions options;
  options.num_inputs = 10;
  options.seed = 3;
  const Experiment experiment(TaskId::kImageClassification, PlatformId::kCpu1,
                              ContentionType::kNone, options);
  const ProfileSnapshot snapshot =
      CaptureProfileSnapshot(experiment.stack(DnnSetChoice::kBoth).space());
  ASSERT_GT(snapshot.num_models, 0);
  ASSERT_GT(snapshot.num_powers, 0);
  ASSERT_EQ(snapshot.profile_latency.size(),
            static_cast<size_t>(snapshot.num_models * snapshot.num_powers));

  const std::string text = SerializeProfileSnapshot(snapshot);
  ProfileSnapshot parsed;
  const serde::Status s = ParseProfileSnapshot(text, &parsed);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(parsed, snapshot);
  EXPECT_EQ(SerializeProfileSnapshot(parsed), text);
}

TEST(ProfileSnapshotSerdeTest, MissingCellsAndDuplicatesAreStatusErrors) {
  ProfileSnapshot snapshot;
  snapshot.num_models = 1;
  snapshot.num_powers = 1;
  snapshot.caps = {10.0};
  snapshot.candidates = {Candidate{.model_index = 0, .stage_limit = -1}};
  snapshot.candidate_accuracy = {0.9};
  snapshot.profile_latency = {0.01};
  snapshot.inference_power = {8.0};
  const std::string good = SerializeProfileSnapshot(snapshot);
  ProfileSnapshot out;
  ASSERT_TRUE(ParseProfileSnapshot(good, &out).ok);

  // Drop the profile line: the parser reports the missing cell.
  std::string missing = good;
  const size_t at = missing.find("profile ");
  missing.erase(at, missing.find('\n', at) - at + 1);
  const serde::Status s = ParseProfileSnapshot(missing, &out);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("missing profile"), std::string::npos);

  // Duplicate the cap line: rejected.
  std::string dup = good;
  const size_t cap_at = dup.find("cap ");
  const std::string cap_line = dup.substr(cap_at, dup.find('\n', cap_at) - cap_at + 1);
  dup.insert(cap_at, cap_line);
  EXPECT_FALSE(ParseProfileSnapshot(dup, &out).ok);
}

TEST(ProfileSnapshotSerdeTest, ImplausibleHeaderCountsAreStatusErrorsNotBadAlloc) {
  ProfileSnapshot out;
  const serde::Status s = ParseProfileSnapshot(
      "profile-snapshot v=1 models=2000000000 powers=2000000000 candidates=1\nend\n",
      &out);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("implausibly large"), std::string::npos);
}

}  // namespace
}  // namespace alert
