// Replay-row sharing in the sweep runner.  RunSweepUnits runs the static-oracle
// searches of one replay row (the settings of a cell and seed that share a deadline)
// as one FindStaticOracles call.  That must not change any unit's result, however a
// plan is sliced, and must not change the streaming order.  The golden files pin the
// full-row results: they were generated by the per-setting runner, which replayed the
// trace once per setting, so they check the shared replays against the old ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/dispatch.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

namespace alert {
namespace {

// Both goal modes of one cell (in key order, so plan order is streaming order), two
// schemes, the full grid: 216 units in 12 replay rows of 18.
SweepSpec RowSpec() {
  SweepSpec spec;
  spec.cells = {{TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kNone,
                 GoalMode::kMinimizeEnergy},
                {TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kNone,
                 GoalMode::kMaximizeAccuracy}};
  spec.schemes = {SchemeId::kAlert, SchemeId::kSysOnly};
  spec.seeds = {1};
  spec.num_inputs = 30;
  return spec;
}

// Runs `units` at one thread; returns the results and the streamed (id, unit_ms).
std::vector<SweepUnitResult> RunStreamed(const SweepPlan& plan,
                                         std::span<const SweepUnit> units,
                                         std::vector<std::pair<int, double>>* streamed) {
  SweepRunOptions options;
  options.threads = 1;
  options.on_result = [streamed](const SweepUnitResult& result, double unit_ms) {
    streamed->emplace_back(result.unit_id, unit_ms);
  };
  return RunSweepUnits(plan, units, options);
}

TEST(SweepRowsTest, SlicesCutMidRowGiveTheWholePlanResultsInTheSameOrder) {
  const SweepPlan plan = BuildSweepPlan(RowSpec());
  const int per_setting = 1 + static_cast<int>(plan.spec.schemes.size());
  std::vector<std::pair<int, double>> whole_stream;
  const std::vector<SweepUnitResult> whole = RunStreamed(plan, plan.units, &whole_stream);

  // Streaming order: setting groups in plan order, each static unit first.
  ASSERT_EQ(whole_stream.size(), plan.units.size());
  for (size_t i = 0; i < whole_stream.size(); ++i) {
    EXPECT_EQ(whole_stream[i].first, static_cast<int>(i));
  }
  // A row's static units each report an equal share of the row's shared search.
  std::map<SweepReplayRow, std::vector<double>> static_ms;
  for (const auto& [id, ms] : whole_stream) {
    const SweepUnit& unit = plan.units[static_cast<size_t>(id)];
    if (unit.kind == SweepUnitKind::kStaticOracle) {
      static_ms[ReplayRowOf(unit)].push_back(ms);
    }
  }
  ASSERT_EQ(static_ms.size(), 12u);
  for (const auto& [row, ms] : static_ms) {
    ASSERT_EQ(ms.size(), 6u);
    EXPECT_GT(ms.front(), 0.0);
    EXPECT_TRUE(std::all_of(ms.begin(), ms.end(),
                            [&](double v) { return v == ms.front(); }));
  }

  // Slice widths coprime to the 18-unit row: every slice boundary but the plan's
  // own ends falls inside a row, and most inside a setting.
  for (const size_t width : {7u, 25u}) {
    for (size_t start = 0; start < plan.units.size(); start += width) {
      const size_t len = std::min(width, plan.units.size() - start);
      const std::span<const SweepUnit> slice =
          std::span<const SweepUnit>(plan.units).subspan(start, len);
      std::vector<std::pair<int, double>> stream;
      const std::vector<SweepUnitResult> got = RunStreamed(plan, slice, &stream);
      ASSERT_EQ(got.size(), len);
      ASSERT_EQ(stream.size(), len);
      for (size_t k = 0; k < len; ++k) {
        const size_t id = start + k;
        EXPECT_EQ(stream[k].first, static_cast<int>(id)) << "width " << width;
        const size_t static_id = id - id % static_cast<size_t>(per_setting);
        if (whole[id].skipped && static_id < start) {
          // The slice lacks this setting's static unit, so nothing told it to skip:
          // the scheme runs, and the merge drops the setting anyway.
          EXPECT_FALSE(got[k].skipped) << "unit " << id;
        } else {
          EXPECT_EQ(got[k], whole[id]) << "unit " << id << ", width " << width;
        }
      }
    }
  }
}

std::string TestData(const std::string& name) {
  std::string text;
  const serde::Status s =
      serde::ReadFile(std::string(ALERT_TESTDATA_DIR) + "/" + name, &text);
  EXPECT_TRUE(s.ok) << s.message;
  return text;
}

// The full 36-setting grid, a min-energy and a max-accuracy cell, all 10 schemes,
// two seeds, 60 inputs: 1584 units in 24 full replay rows.
class SweepGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SweepSpec spec;
    const serde::Status s = ParseSweepSpec(TestData("sweep_full_rows.spec"), &spec);
    ASSERT_TRUE(s.ok) << s.message;
    plan_ = BuildSweepPlan(spec);
    golden_csv_ = TestData("sweep_full_rows.golden.csv");
    ASSERT_TRUE(ParseSweepCheckpoint(TestData("sweep_full_rows.golden.results"),
                                     &golden_results_)
                    .ok);
    ASSERT_EQ(golden_results_.plan_fingerprint, PlanFingerprint(plan_));
    ASSERT_EQ(golden_results_.results.size(), plan_.units.size());
  }

  SweepPlan plan_;
  std::string golden_csv_;
  SweepCheckpoint golden_results_;
};

TEST_F(SweepGoldenTest, InProcessSweepReproducesTheGoldenByteForByte) {
  SweepRunOptions options;
  options.threads = 2;
  EXPECT_EQ(SweepAggregateCsv(plan_, RunSweep(plan_, options)), golden_csv_);

  SweepCheckpoint results;
  results.plan_fingerprint = PlanFingerprint(plan_);
  results.results = RunSweepUnits(plan_, plan_.units, options);
  EXPECT_EQ(SerializeSweepCheckpoint(results),
            TestData("sweep_full_rows.golden.results"));
}

TEST_F(SweepGoldenTest, DispatchWithRowCuttingLeasesReproducesTheGolden) {
  // Cold leases of at most 8 units and the retry leases after worker 0 dies both cut
  // replay rows (66 units each here); warm leases close on row boundaries.
  InProcessTransport::Options in_options;
  in_options.fail_after = {{0, 40}};
  InProcessTransport transport(in_options);
  DispatchOptions options;
  options.num_workers = 3;
  options.max_lease_units = 8;
  std::map<int, SweepUnitResult> delivered;
  options.on_result = [&](int, const SweepUnitResult& result, bool newly) {
    if (newly) {
      delivered[result.unit_id] = result;
    }
  };
  std::vector<CellResult> cells;
  DispatchStats stats;
  const serde::Status s = DispatchSweep(plan_, transport, options, &cells, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(SweepAggregateCsv(plan_, cells), golden_csv_);
  EXPECT_GE(stats.retry_assignments, 1);

  ASSERT_EQ(delivered.size(), plan_.units.size());
  for (const SweepUnitResult& want : golden_results_.results) {
    const SweepUnitResult& got = delivered.at(want.unit_id);
    if (want.skipped && !got.skipped) {
      // Its setting's static unit went out in another lease, so the scheme ran
      // instead of being skipped; the merge drops the setting either way.
      continue;
    }
    EXPECT_EQ(SerializeSweepUnitResult(got), SerializeSweepUnitResult(want));
  }
}

}  // namespace
}  // namespace alert
