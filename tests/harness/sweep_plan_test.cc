// Plan enumeration and partitioning: stable deterministic order, exhaustive disjoint
// shards under both strategies, and a sane cost model.
#include "src/harness/sweep_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/harness/constraint_grid.h"

namespace alert {
namespace {

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.cells.push_back(SweepCellSpec{TaskId::kImageClassification, PlatformId::kCpu1,
                                     ContentionType::kNone, GoalMode::kMinimizeEnergy});
  spec.cells.push_back(SweepCellSpec{TaskId::kSentencePrediction, PlatformId::kCpu2,
                                     ContentionType::kMemory,
                                     GoalMode::kMaximizeAccuracy});
  spec.schemes = {SchemeId::kAlert, SchemeId::kSysOnly, SchemeId::kAppOnly};
  spec.seeds = {1, 2};
  spec.num_inputs = 50;
  spec.grid_indices = {3, 17, 30};
  return spec;
}

TEST(SweepPlanTest, EnumeratesTheFullCrossProductInStableOrder) {
  const SweepPlan plan = BuildSweepPlan(SmallSpec());
  // cells x seeds x settings x (static + schemes).
  EXPECT_EQ(plan.units.size(), 2u * 2u * 3u * (1u + 3u));
  for (size_t i = 0; i < plan.units.size(); ++i) {
    EXPECT_EQ(plan.units[i].id, static_cast<int>(i));
  }
  // The nesting order is cells -> seeds -> settings -> (static, schemes...).
  const SweepUnit& first = plan.units[0];
  EXPECT_EQ(first.kind, SweepUnitKind::kStaticOracle);
  EXPECT_EQ(first.cell, SmallSpec().cells[0]);
  EXPECT_EQ(first.seed, 1u);
  EXPECT_EQ(first.grid_index, 3);
  const SweepUnit& second = plan.units[1];
  EXPECT_EQ(second.kind, SweepUnitKind::kScheme);
  EXPECT_EQ(second.scheme, SchemeId::kAlert);
  // Second setting starts right after the first block.
  EXPECT_EQ(plan.units[4].kind, SweepUnitKind::kStaticOracle);
  EXPECT_EQ(plan.units[4].grid_index, 17);
  // Second half of the plan is the second cell.
  EXPECT_EQ(plan.units[plan.units.size() / 2].cell, SmallSpec().cells[1]);

  // Enumeration is deterministic: building twice gives identical units.
  const SweepPlan again = BuildSweepPlan(SmallSpec());
  EXPECT_EQ(plan.units, again.units);
}

TEST(SweepPlanTest, EmptyGridSubsetMeansTheFullGrid) {
  SweepSpec spec = SmallSpec();
  spec.cells.resize(1);
  spec.grid_indices.clear();
  const SweepPlan plan = BuildSweepPlan(spec);
  EXPECT_EQ(plan.grid_indices.size(), 36u);
  EXPECT_EQ(plan.units.size(), 36u * 2u * 4u);
}

TEST(SweepPlanTest, GridSubsetIsCanonicalized) {
  SweepSpec spec = SmallSpec();
  spec.grid_indices = {30, 3, 17, 3};
  const SweepPlan plan = BuildSweepPlan(spec);
  EXPECT_EQ(plan.grid_indices, (std::vector<int>{3, 17, 30}));
  EXPECT_EQ(plan.units, BuildSweepPlan(SmallSpec()).units);
}

TEST(SweepPlanTest, ValidateRejectsBadSpecs) {
  EXPECT_FALSE(ValidateSweepSpec(SweepSpec{}).ok);  // no cells/schemes

  SweepSpec dup_cell = SmallSpec();
  dup_cell.cells.push_back(dup_cell.cells[0]);
  EXPECT_FALSE(ValidateSweepSpec(dup_cell).ok);

  SweepSpec bad_grid = SmallSpec();
  bad_grid.grid_indices = {36};
  EXPECT_FALSE(ValidateSweepSpec(bad_grid).ok);

  SweepSpec qa = SmallSpec();
  qa.cells[0].task = TaskId::kQuestionAnswering;
  EXPECT_FALSE(ValidateSweepSpec(qa).ok);

  SweepSpec no_inputs = SmallSpec();
  no_inputs.num_inputs = 0;
  EXPECT_FALSE(ValidateSweepSpec(no_inputs).ok);

  // A platform the task's models cannot run on must be a Status error, not an
  // ALERT_CHECK abort deep inside BuildConstraintGrid (the anytime image network has
  // no embedded-board profile).
  SweepSpec unsupported = SmallSpec();
  unsupported.cells[0].platform = PlatformId::kEmbedded;
  const serde::Status s = ValidateSweepSpec(unsupported);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("Embedded"), std::string::npos);

  EXPECT_TRUE(ValidateSweepSpec(SmallSpec()).ok);
}

TEST(SweepPlanTest, CostModelOrdersUnitsSensibly) {
  const SweepPlan plan = BuildSweepPlan(SmallSpec());
  double static_cost = 0.0;
  double alert_cost = 0.0;
  double app_only_cost = 0.0;
  for (const SweepUnit& unit : plan.units) {
    const double cost = SweepUnitCost(unit);
    EXPECT_GT(cost, 0.0);
    if (unit.cell != SmallSpec().cells[0] || unit.seed != 1 || unit.grid_index != 3) {
      continue;
    }
    if (unit.kind == SweepUnitKind::kStaticOracle) {
      static_cost = cost;
    } else if (unit.scheme == SchemeId::kAlert) {
      alert_cost = cost;
    } else if (unit.scheme == SchemeId::kAppOnly) {
      app_only_cost = cost;
    }
  }
  // The exhaustive static search and the full ALERT scoring pass both scan the whole
  // kBoth configuration space; the fixed-candidate baseline is far cheaper.
  EXPECT_EQ(static_cost, alert_cost);
  EXPECT_GT(alert_cost, 10.0 * app_only_cost);
}

void ExpectExhaustiveAndDisjoint(const SweepPlan& plan,
                                 const std::vector<std::vector<SweepUnit>>& shards) {
  std::set<int> seen;
  for (const auto& shard : shards) {
    for (size_t i = 0; i < shard.size(); ++i) {
      EXPECT_TRUE(seen.insert(shard[i].id).second) << "unit in two shards";
      EXPECT_EQ(shard[i], plan.units[static_cast<size_t>(shard[i].id)]);
      if (i > 0) {
        EXPECT_LT(shard[i - 1].id, shard[i].id) << "shard not in plan order";
      }
    }
  }
  EXPECT_EQ(seen.size(), plan.units.size());
}

TEST(SweepPlanTest, RoundRobinPartitionIsExhaustiveAndBalancedByCount) {
  const SweepPlan plan = BuildSweepPlan(SmallSpec());
  for (const int k : {1, 2, 3, 7, 48, 100}) {
    const auto shards = PartitionPlan(plan, k, ShardStrategy::kRoundRobin);
    ASSERT_EQ(shards.size(), static_cast<size_t>(k));
    ExpectExhaustiveAndDisjoint(plan, shards);
    size_t max_units = 0;
    size_t min_units = plan.units.size();
    for (const auto& shard : shards) {
      max_units = std::max(max_units, shard.size());
      min_units = std::min(min_units, shard.size());
    }
    EXPECT_LE(max_units - min_units, 1u) << "round-robin must balance unit counts";
  }
}

TEST(SweepPlanTest, CostWeightedPartitionBalancesCost) {
  const SweepPlan plan = BuildSweepPlan(SmallSpec());
  double total = 0.0;
  double heaviest = 0.0;
  for (const SweepUnit& unit : plan.units) {
    total += SweepUnitCost(unit);
    heaviest = std::max(heaviest, SweepUnitCost(unit));
  }
  for (const int k : {2, 3, 7}) {
    const auto shards = PartitionPlan(plan, k, ShardStrategy::kCostWeighted);
    ExpectExhaustiveAndDisjoint(plan, shards);
    double max_load = 0.0;
    for (const auto& shard : shards) {
      double load = 0.0;
      for (const SweepUnit& unit : shard) {
        load += SweepUnitCost(unit);
      }
      max_load = std::max(max_load, load);
    }
    // LPT guarantee: no shard exceeds a perfect split by more than one unit.
    EXPECT_LE(max_load, total / k + heaviest);
    // And it beats round-robin's worst shard (or ties) on this heterogeneous plan.
    double rr_max_load = 0.0;
    for (const auto& shard : PartitionPlan(plan, k, ShardStrategy::kRoundRobin)) {
      double load = 0.0;
      for (const SweepUnit& unit : shard) {
        load += SweepUnitCost(unit);
      }
      rr_max_load = std::max(rr_max_load, load);
    }
    EXPECT_LE(max_load, rr_max_load + 1e-9);
  }
}

TEST(SweepPlanTest, PartitionsAreDeterministic) {
  const SweepPlan plan = BuildSweepPlan(SmallSpec());
  for (const ShardStrategy strategy :
       {ShardStrategy::kRoundRobin, ShardStrategy::kCostWeighted}) {
    EXPECT_EQ(PartitionPlan(plan, 5, strategy), PartitionPlan(plan, 5, strategy));
  }
}

TEST(SweepPlanTest, ReplayRowsAreTheSettingsThatShareACellSeedAndDeadline) {
  SweepSpec spec = SmallSpec();
  spec.grid_indices.clear();
  const SweepPlan plan = BuildSweepPlan(spec);
  std::vector<double> deadline;
  for (const SweepUnit& unit : plan.units) {
    deadline.push_back(BuildConstraintGrid(unit.cell.mode, unit.cell.task,
                                           unit.cell.platform)[static_cast<size_t>(
                                               unit.grid_index)]
                           .deadline);
  }
  for (const SweepUnit& a : plan.units) {
    for (const SweepUnit& b : plan.units) {
      const bool same_row =
          a.cell == b.cell && a.seed == b.seed &&
          deadline[static_cast<size_t>(a.id)] == deadline[static_cast<size_t>(b.id)];
      ASSERT_EQ(ReplayRowOf(a) == ReplayRowOf(b), same_row)
          << "units " << a.id << " and " << b.id;
    }
  }
}

}  // namespace
}  // namespace alert
