// Tests for the persistent sweep unit-result cache (src/harness/sweep_cache.h):
// content-fingerprint stability across plan edits, strict cache-file parsing,
// cached-run equivalence with the uncached runner (cold, warm, and incremental
// after a spec edit), skip synthesis from a cached infeasible static oracle,
// dispatcher preseeding, and the accumulator's conflict diagnostics (which must
// name the unit and both payloads).
#include "src/harness/sweep_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/harness/dispatch.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

namespace alert {
namespace {

// A small three-setting plan: grid 4's static oracle is infeasible for this cell at
// 12 inputs (exercises the skip path); grids 14/21 are feasible.
SweepSpec TestSpec() {
  SweepSpec spec;
  spec.cells.push_back(SweepCellSpec{TaskId::kImageClassification, PlatformId::kCpu1,
                                     ContentionType::kNone, GoalMode::kMinimizeEnergy});
  spec.schemes = {SchemeId::kAlert, SchemeId::kNoCoord};
  spec.seeds = {1};
  spec.num_inputs = 12;
  spec.grid_indices = {4, 14, 21};
  return spec;
}

std::string TempPath(const char* name) {
  // Hermetic across repeated runs: drop whatever a previous invocation left behind.
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

void ExpectSameResults(const std::vector<SweepUnitResult>& a,
                       const std::vector<SweepUnitResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "unit " << a[i].unit_id;
  }
}

// --- fingerprints -------------------------------------------------------------------

TEST(SweepUnitFingerprintTest, StableAcrossPlanEditsThatKeepTheUnit) {
  // Adding a grid setting reshuffles ids and the plan fingerprint; units whose
  // content is unchanged must keep their fingerprint — that is what makes a re-run
  // after a spec edit incremental.
  const SweepPlan before = BuildSweepPlan(TestSpec());
  SweepSpec edited = TestSpec();
  edited.grid_indices = {4, 7, 14, 21};  // new setting 7 lands in the middle
  const SweepPlan after = BuildSweepPlan(edited);
  ASSERT_NE(PlanFingerprint(before), PlanFingerprint(after));

  int matched = 0;
  for (const SweepUnit& old_unit : before.units) {
    for (const SweepUnit& new_unit : after.units) {
      if (new_unit.cell == old_unit.cell && new_unit.seed == old_unit.seed &&
          new_unit.grid_index == old_unit.grid_index &&
          new_unit.kind == old_unit.kind && new_unit.scheme == old_unit.scheme) {
        EXPECT_EQ(SweepUnitFingerprint(before.spec, old_unit),
                  SweepUnitFingerprint(edited, new_unit));
        ++matched;
      }
    }
  }
  EXPECT_EQ(matched, static_cast<int>(before.units.size()));
}

TEST(SweepUnitFingerprintTest, DistinctUnitsAndKnobsSeparate) {
  const SweepPlan plan = BuildSweepPlan(TestSpec());
  // All units in one plan are distinct content.
  for (size_t i = 0; i < plan.units.size(); ++i) {
    for (size_t j = i + 1; j < plan.units.size(); ++j) {
      EXPECT_NE(SweepUnitFingerprint(plan.spec, plan.units[i]),
                SweepUnitFingerprint(plan.spec, plan.units[j]))
          << "units " << i << " and " << j;
    }
  }
  // Spec knobs the execution depends on must change the fingerprint.
  const SweepUnit& unit = plan.units.front();
  const uint64_t base = SweepUnitFingerprint(plan.spec, unit);
  SweepSpec knobs = plan.spec;
  knobs.contention_scale = 2.0;
  EXPECT_NE(SweepUnitFingerprint(knobs, unit), base);
  knobs = plan.spec;
  knobs.profile_noise_sigma = 0.05;
  EXPECT_NE(SweepUnitFingerprint(knobs, unit), base);
  knobs = plan.spec;
  knobs.contention_window = std::make_pair(2, 6);
  EXPECT_NE(SweepUnitFingerprint(knobs, unit), base);
  SweepUnit inputs_changed = unit;
  inputs_changed.num_inputs = 99;
  EXPECT_NE(SweepUnitFingerprint(plan.spec, inputs_changed), base);
}

TEST(SweepUnitFingerprintTest, IndependentOfUnitId) {
  const SweepPlan plan = BuildSweepPlan(TestSpec());
  SweepUnit renumbered = plan.units.front();
  renumbered.id = 12345;
  EXPECT_EQ(SweepUnitFingerprint(plan.spec, renumbered),
            SweepUnitFingerprint(plan.spec, plan.units.front()));
}

// --- cache file ---------------------------------------------------------------------

TEST(SweepResultCacheTest, RecordSaveLoadRoundTrip) {
  const std::string path = TempPath("sweep_cache_roundtrip.cache");
  SweepResultCache cache;
  ASSERT_TRUE(SweepResultCache::Open(path, SweepCacheMode::kReadWrite, &cache).ok);
  EXPECT_EQ(cache.size(), 0u);

  SweepUnitResult result;
  result.unit_id = 3;
  result.usable = true;
  result.metric = 1.0 / 3.0;
  ASSERT_TRUE(cache.Record(111, 999, result).ok);
  SweepUnitResult skipped;
  skipped.unit_id = 4;
  skipped.skipped = true;
  ASSERT_TRUE(cache.Record(222, 999, skipped).ok);
  EXPECT_EQ(cache.newly_recorded(), 2u);
  ASSERT_TRUE(cache.Save().ok);

  SweepResultCache reloaded;
  ASSERT_TRUE(SweepResultCache::Open(path, SweepCacheMode::kRead, &reloaded).ok);
  EXPECT_EQ(reloaded.size(), 2u);
  SweepUnitResult out;
  ASSERT_TRUE(reloaded.Lookup(111, &out));
  EXPECT_EQ(out.unit_id, -1);  // position is the caller's business
  EXPECT_TRUE(out.usable);
  EXPECT_EQ(out.metric, 1.0 / 3.0);  // exact double round trip
  ASSERT_TRUE(reloaded.Lookup(222, &out));
  EXPECT_TRUE(out.skipped);
  EXPECT_FALSE(reloaded.Lookup(333, &out));
}

TEST(SweepResultCacheTest, FailedSaveLeavesThePreviousFileWhole) {
  const std::string dir = ::testing::TempDir() + "/sweep_cache_failed_save";
  std::filesystem::remove_all(dir);
  SweepUnitResult result;
  result.unit_id = 0;
  result.usable = true;
  result.metric = 0.5;
  SweepResultCache cache;
  ASSERT_TRUE(OpenSweepResultCacheDir(dir, SweepCacheMode::kReadWrite, &cache).ok);
  ASSERT_TRUE(cache.Record(1, 9, result).ok);
  ASSERT_TRUE(cache.Save().ok);
  std::string before;
  ASSERT_TRUE(serde::ReadFile(dir + "/units.cache", &before).ok);

  // A directory where Save writes its temporary copy makes that write fail.
  SweepResultCache reopened;
  ASSERT_TRUE(OpenSweepResultCacheDir(dir, SweepCacheMode::kReadWrite, &reopened).ok);
  ASSERT_TRUE(reopened.Record(2, 9, result).ok);
  ASSERT_TRUE(std::filesystem::create_directory(dir + "/units.cache.tmp"));
  EXPECT_FALSE(reopened.Save().ok);
  std::string after;
  ASSERT_TRUE(serde::ReadFile(dir + "/units.cache", &after).ok);
  EXPECT_EQ(after, before);
  std::filesystem::remove_all(dir);
}

TEST(SweepResultCacheTest, ReadModeNeverWrites) {
  const std::string path = TempPath("sweep_cache_readonly.cache");
  SweepResultCache cache;
  ASSERT_TRUE(SweepResultCache::Open(path, SweepCacheMode::kRead, &cache).ok);
  SweepUnitResult result;
  result.unit_id = 0;
  ASSERT_TRUE(cache.Record(1, 2, result).ok);  // silently ignored
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.Save().ok);  // no-op: no file appears
  std::string contents;
  EXPECT_FALSE(serde::ReadFile(path, &contents).ok);
}

TEST(SweepResultCacheTest, ConflictingRecordIsAnErrorNamingBothPayloads) {
  SweepResultCache cache;
  ASSERT_TRUE(SweepResultCache::Open(TempPath("sweep_cache_conflict.cache"),
                                     SweepCacheMode::kReadWrite, &cache)
                  .ok);
  SweepUnitResult result;
  result.unit_id = 0;
  result.usable = true;
  result.metric = 1.25;
  ASSERT_TRUE(cache.Record(42, 1, result).ok);
  ASSERT_TRUE(cache.Record(42, 1, result).ok);  // identical re-record: no-op
  result.metric = 2.5;
  const serde::Status s = cache.Record(42, 1, result);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("42"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find("1.25"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find("2.5"), std::string::npos) << s.message;
}

TEST(SweepResultCacheTest, MalformedFilesAreLoudErrors) {
  const auto expect_bad = [](const char* name, const std::string& contents,
                             const char* needle) {
    const std::string path = TempPath(name);
    ASSERT_TRUE(serde::WriteFile(path, contents).ok);
    SweepResultCache cache;
    const serde::Status s =
        SweepResultCache::Open(path, SweepCacheMode::kRead, &cache);
    EXPECT_FALSE(s.ok) << name;
    EXPECT_NE(s.message.find(needle), std::string::npos) << s.message;
    EXPECT_EQ(cache.size(), 0u);
  };
  expect_bad("cache_no_header.cache", "entry fp=1 plan=1 skipped=0 usable=1 metric=1\n",
             "sweep-cache");
  expect_bad("cache_truncated.cache",
             "sweep-cache v=1\nentry fp=1 plan=1 skipped=0 usable=1 metric=1\n",
             "end");
  expect_bad("cache_dup.cache",
             "sweep-cache v=1\n"
             "entry fp=7 plan=1 skipped=0 usable=1 metric=1\n"
             "entry fp=7 plan=1 skipped=0 usable=1 metric=1\n"
             "end\n",
             "duplicate");
  expect_bad("cache_bad_version.cache", "sweep-cache v=9\nend\n", "version");
  expect_bad("cache_trailing.cache", "sweep-cache v=1\nend\nentry fp=1\n", "after");
}

// --- cached execution ---------------------------------------------------------------

class SweepCacheRunTest : public ::testing::Test {
 protected:
  SweepCacheRunTest() : plan_(BuildSweepPlan(TestSpec())) {
    options_.threads = 2;
  }

  SweepPlan plan_;
  SweepRunOptions options_;
};

TEST_F(SweepCacheRunTest, ColdWarmAndIncrementalRunsMatchUncached) {
  const std::vector<SweepUnitResult> reference =
      RunSweepUnits(plan_, plan_.units, options_);

  // Cold cached run: everything executes, everything is recorded.
  const std::string path = TempPath("sweep_cache_run.cache");
  SweepResultCache cache;
  ASSERT_TRUE(SweepResultCache::Open(path, SweepCacheMode::kReadWrite, &cache).ok);
  SweepCacheRunStats cold;
  ExpectSameResults(RunSweepUnitsCached(plan_, plan_.units, options_, &cache, &cold),
                    reference);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.executed, plan_.units.size());
  EXPECT_EQ(cold.recorded, plan_.units.size());
  ASSERT_TRUE(cache.Save().ok);

  // Warm re-run: zero executions, identical results.
  SweepResultCache warm_cache;
  ASSERT_TRUE(SweepResultCache::Open(path, SweepCacheMode::kRead, &warm_cache).ok);
  SweepCacheRunStats warm;
  ExpectSameResults(
      RunSweepUnitsCached(plan_, plan_.units, options_, &warm_cache, &warm), reference);
  EXPECT_EQ(warm.hits, plan_.units.size());
  EXPECT_EQ(warm.executed, 0u);

  // Spec edit (one new grid setting): only the new setting's units execute, and the
  // merged cells equal a cold uncached run of the edited plan.
  SweepSpec edited = TestSpec();
  edited.grid_indices = {4, 7, 14, 21};
  const SweepPlan edited_plan = BuildSweepPlan(edited);
  SweepResultCache incr_cache;
  ASSERT_TRUE(SweepResultCache::Open(path, SweepCacheMode::kRead, &incr_cache).ok);
  SweepCacheRunStats incremental;
  const std::vector<SweepUnitResult> incremental_results = RunSweepUnitsCached(
      edited_plan, edited_plan.units, options_, &incr_cache, &incremental);
  const size_t new_units = edited_plan.units.size() - plan_.units.size();
  EXPECT_EQ(incremental.hits, plan_.units.size());
  EXPECT_EQ(incremental.executed + incremental.synthesized, new_units);
  ExpectSameResults(incremental_results,
                    RunSweepUnits(edited_plan, edited_plan.units, options_));

  std::vector<CellResult> incremental_cells;
  ASSERT_TRUE(
      MergeSweepResults(edited_plan, incremental_results, &incremental_cells).ok);
  std::vector<CellResult> cold_cells;
  ASSERT_TRUE(MergeSweepResults(edited_plan,
                                RunSweepUnits(edited_plan, edited_plan.units, options_),
                                &cold_cells)
                  .ok);
  EXPECT_EQ(SweepAggregateCsv(edited_plan, incremental_cells),
            SweepAggregateCsv(edited_plan, cold_cells));
}

TEST_F(SweepCacheRunTest, CachedStaticInfeasibilitySynthesizesSchemeSkips) {
  // Warm the cache with ONLY the static-oracle units; grid 4's static is infeasible.
  std::vector<SweepUnit> statics;
  for (const SweepUnit& unit : plan_.units) {
    if (unit.kind == SweepUnitKind::kStaticOracle) {
      statics.push_back(unit);
    }
  }
  const std::string path = TempPath("sweep_cache_synth.cache");
  SweepResultCache cache;
  ASSERT_TRUE(SweepResultCache::Open(path, SweepCacheMode::kReadWrite, &cache).ok);
  SweepCacheRunStats prime;
  const auto static_results =
      RunSweepUnitsCached(plan_, statics, options_, &cache, &prime);
  ASSERT_FALSE(static_results.front().usable);  // grid 4 is infeasible

  // Full run against that cache: statics hit; the infeasible setting's scheme units
  // are synthesized as skipped (never executed), the rest execute — and the whole
  // result vector still matches the uncached monolithic run exactly.
  SweepCacheRunStats stats;
  ExpectSameResults(RunSweepUnitsCached(plan_, plan_.units, options_, &cache, &stats),
                    RunSweepUnits(plan_, plan_.units, options_));
  EXPECT_EQ(stats.hits, statics.size());
  EXPECT_EQ(stats.synthesized, plan_.spec.schemes.size());  // grid 4's scheme units
  EXPECT_EQ(stats.executed,
            plan_.units.size() - statics.size() - stats.synthesized);
}

// --- dispatcher preseeding ----------------------------------------------------------

TEST_F(SweepCacheRunTest, DispatchWithPreseededResultsNeverAssignsThemAndMerges) {
  const std::vector<SweepUnitResult> reference =
      RunSweepUnits(plan_, plan_.units, options_);
  std::vector<CellResult> want;
  ASSERT_TRUE(MergeSweepResults(plan_, reference, &want).ok);

  // Preseed the first half of the units, dispatch the rest over worker threads.
  DispatchOptions dispatch_options;
  dispatch_options.num_workers = 2;
  std::vector<bool> preseeded(plan_.units.size(), false);
  for (size_t i = 0; i < plan_.units.size() / 2; ++i) {
    dispatch_options.preseeded_results.push_back(reference[i]);
    preseeded[i] = true;
  }
  bool assigned_preseeded_unit = false;
  dispatch_options.on_assign = [&](int, int, std::span<const int> unit_ids) {
    for (const int id : unit_ids) {
      if (preseeded[static_cast<size_t>(id)]) {
        assigned_preseeded_unit = true;
      }
    }
  };

  InProcessTransport transport;
  std::vector<CellResult> got;
  DispatchStats stats;
  ASSERT_TRUE(DispatchSweep(plan_, transport, dispatch_options, &got, &stats).ok);
  EXPECT_FALSE(assigned_preseeded_unit);
  EXPECT_EQ(stats.preseeded, static_cast<int>(plan_.units.size() / 2));
  EXPECT_EQ(SweepAggregateCsv(plan_, got), SweepAggregateCsv(plan_, want));
}

TEST_F(SweepCacheRunTest, FullyPreseededDispatchLaunchesNoWorker) {
  const std::vector<SweepUnitResult> reference =
      RunSweepUnits(plan_, plan_.units, options_);
  std::vector<CellResult> want;
  ASSERT_TRUE(MergeSweepResults(plan_, reference, &want).ok);

  DispatchOptions dispatch_options;
  dispatch_options.num_workers = 2;
  dispatch_options.preseeded_results = reference;
  InProcessTransport transport;
  std::vector<CellResult> got;
  DispatchStats stats;
  ASSERT_TRUE(DispatchSweep(plan_, transport, dispatch_options, &got, &stats).ok);
  EXPECT_EQ(stats.workers_launched, 0);
  EXPECT_EQ(stats.preseeded, static_cast<int>(plan_.units.size()));
  EXPECT_EQ(SweepAggregateCsv(plan_, got), SweepAggregateCsv(plan_, want));
}

TEST_F(SweepCacheRunTest, ConflictingPreseedFailsBeforeAnyWork) {
  std::vector<SweepUnitResult> bad(2);
  bad[0].unit_id = 0;
  bad[0].usable = true;
  bad[0].metric = 1.0;
  bad[1] = bad[0];
  bad[1].metric = 2.0;  // same unit, different payload
  DispatchOptions dispatch_options;
  dispatch_options.num_workers = 1;
  dispatch_options.preseeded_results = bad;
  InProcessTransport transport;
  std::vector<CellResult> out;
  DispatchStats stats;
  const serde::Status s = DispatchSweep(plan_, transport, dispatch_options, &out, &stats);
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(stats.workers_launched, 0);
}

// --- accumulator conflict diagnostics -----------------------------------------------

TEST_F(SweepCacheRunTest, ConflictErrorNamesTheUnitAndBothValues) {
  SweepMergeAccumulator accumulator(plan_);
  SweepUnitResult first;
  first.unit_id = 5;
  first.usable = true;
  first.metric = 1.25;
  ASSERT_TRUE(accumulator.Add(first).ok);

  SweepUnitResult conflicting = first;
  conflicting.metric = 3.75;
  const serde::Status s = accumulator.Add(conflicting);
  ASSERT_FALSE(s.ok);
  // The operator must see which unit disagreed and both payloads, not just "they
  // conflicted".
  EXPECT_NE(s.message.find("unit id 5"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find("1.25"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find("3.75"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find("recorded"), std::string::npos) << s.message;
  EXPECT_NE(s.message.find("incoming"), std::string::npos) << s.message;
}

TEST_F(SweepCacheRunTest, StrictMergeNamesIdenticalDuplicates) {
  std::vector<SweepUnitResult> results = RunSweepUnits(plan_, plan_.units, options_);
  results.push_back(results.front());  // identical duplicate
  std::vector<CellResult> cells;
  const serde::Status s = MergeSweepResults(plan_, results, &cells);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.message.find("duplicate result for unit id 0"), std::string::npos)
      << s.message;
  EXPECT_NE(s.message.find("identical"), std::string::npos) << s.message;
}

}  // namespace
}  // namespace alert
