// Shard-equivalence: running a plan as K shards (through the full serialize -> parse
// results pipeline) and merging must reproduce the monolithic sweep's aggregate CSV
// byte for byte, for every K and both partition strategies.  This is the contract that
// makes multi-process / multi-machine sweeps trustworthy.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

namespace alert {
namespace {

// Small but representative: two schemes, two seeds, six settings including the 0.4x
// deadline column (statically infeasible -> exercises the skip/drop path).
SweepSpec ToySpec() {
  SweepSpec spec;
  spec.cells.push_back(SweepCellSpec{TaskId::kImageClassification, PlatformId::kCpu1,
                                     ContentionType::kNone, GoalMode::kMinimizeEnergy});
  spec.schemes = {SchemeId::kAlert, SchemeId::kSysOnly};
  spec.seeds = {1, 2};
  spec.num_inputs = 40;
  spec.grid_indices = {0, 7, 14, 21, 28, 35};
  return spec;
}

class SweepEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    plan_ = new SweepPlan(BuildSweepPlan(ToySpec()));
    monolithic_cells_ = new std::vector<CellResult>(RunSweep(*plan_));
    monolithic_csv_ =
        new std::string(SweepAggregateCsv(*plan_, *monolithic_cells_));
  }
  static void TearDownTestSuite() {
    delete plan_;
    delete monolithic_cells_;
    delete monolithic_csv_;
    plan_ = nullptr;
    monolithic_cells_ = nullptr;
    monolithic_csv_ = nullptr;
  }

  // Runs each shard separately, round-trips its results through the text format (as
  // the sweep_shard CLI would), then merges — the library-level replica of the
  // sweep_shard | sweep_merge pipeline.
  static std::string RunShardedCsv(int num_shards, ShardStrategy strategy) {
    const uint64_t fingerprint = PlanFingerprint(*plan_);
    std::vector<SweepUnitResult> merged_results;
    const auto shards = PartitionPlan(*plan_, num_shards, strategy);
    for (size_t i = 0; i < shards.size(); ++i) {
      SweepCheckpoint shard;
      shard.plan_fingerprint = fingerprint;
      shard.results = RunSweepUnits(*plan_, shards[i]);

      SweepCheckpoint parsed;
      const serde::Status s =
          ParseSweepCheckpoint(SerializeSweepCheckpoint(shard), &parsed);
      EXPECT_TRUE(s.ok) << s.message;
      EXPECT_EQ(parsed, shard);
      merged_results.insert(merged_results.end(), parsed.results.begin(),
                            parsed.results.end());
    }
    std::vector<CellResult> cells;
    const serde::Status merged = MergeSweepResults(*plan_, merged_results, &cells);
    EXPECT_TRUE(merged.ok) << merged.message;
    return SweepAggregateCsv(*plan_, cells);
  }

  static SweepPlan* plan_;
  static std::vector<CellResult>* monolithic_cells_;
  static std::string* monolithic_csv_;
};

SweepPlan* SweepEquivalenceTest::plan_ = nullptr;
std::vector<CellResult>* SweepEquivalenceTest::monolithic_cells_ = nullptr;
std::string* SweepEquivalenceTest::monolithic_csv_ = nullptr;

TEST_F(SweepEquivalenceTest, MonolithicSweepIsCoherent) {
  ASSERT_EQ(monolithic_cells_->size(), 2u);  // one cell x two seeds
  for (const CellResult& cell : *monolithic_cells_) {
    EXPECT_EQ(cell.total_settings, 6);
    ASSERT_EQ(cell.schemes.size(), 2u);
    for (const SchemeCellStats& stats : cell.schemes) {
      EXPECT_EQ(stats.usable_settings + cell.skipped_settings, 6);
    }
  }
  // The CSV carries one row per (cell, scheme) plus two header lines.
  EXPECT_EQ(static_cast<int>(std::count(monolithic_csv_->begin(),
                                        monolithic_csv_->end(), '\n')),
            2 + 2 * 2);
}

TEST_F(SweepEquivalenceTest, RoundRobinShardsMergeByteIdentically) {
  for (const int k : {1, 2, 3, 4, 7}) {
    EXPECT_EQ(RunShardedCsv(k, ShardStrategy::kRoundRobin), *monolithic_csv_)
        << "K=" << k;
  }
}

TEST_F(SweepEquivalenceTest, CostWeightedShardsMergeByteIdentically) {
  for (const int k : {2, 4}) {
    EXPECT_EQ(RunShardedCsv(k, ShardStrategy::kCostWeighted), *monolithic_csv_)
        << "K=" << k;
  }
}

TEST_F(SweepEquivalenceTest, MoreShardsThanUnitsStillMerges) {
  const int k = static_cast<int>(plan_->units.size()) + 5;
  EXPECT_EQ(RunShardedCsv(k, ShardStrategy::kRoundRobin), *monolithic_csv_);
}

TEST_F(SweepEquivalenceTest, MergeRejectsIncompleteAndDuplicateResultSets) {
  const std::vector<SweepUnitResult> full = RunSweepUnits(*plan_, plan_->units);
  std::vector<CellResult> cells;

  std::vector<SweepUnitResult> missing(full.begin(), full.end() - 1);
  serde::Status s = MergeSweepResults(*plan_, missing, &cells);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("missing"), std::string::npos);

  std::vector<SweepUnitResult> duplicated = full;
  duplicated.push_back(full.front());
  s = MergeSweepResults(*plan_, duplicated, &cells);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("duplicate"), std::string::npos);

  std::vector<SweepUnitResult> unknown = full;
  unknown.back().unit_id = static_cast<int>(plan_->units.size());
  s = MergeSweepResults(*plan_, unknown, &cells);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("unknown"), std::string::npos);
}

TEST_F(SweepEquivalenceTest, ThreadCountDoesNotChangeResults) {
  SweepRunOptions serial;
  serial.threads = 1;
  const std::vector<SweepUnitResult> one_thread =
      RunSweepUnits(*plan_, plan_->units, serial);
  SweepRunOptions wide;
  wide.threads = 8;
  const std::vector<SweepUnitResult> eight_threads =
      RunSweepUnits(*plan_, plan_->units, wide);
  EXPECT_EQ(one_thread, eight_threads);
}

}  // namespace
}  // namespace alert
