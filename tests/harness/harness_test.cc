#include <algorithm>
#include <gtest/gtest.h>

#include "src/harness/constraint_grid.h"
#include "src/harness/evaluation.h"
#include "src/harness/schemes.h"
#include "src/harness/static_oracle.h"

namespace alert {
namespace {

// --- Constraint grid ---

TEST(ConstraintGridTest, BaseDeadlineMatchesAnytimeLatency) {
  EXPECT_NEAR(BaseDeadline(TaskId::kImageClassification, PlatformId::kCpu1), 0.064, 1e-9);
  EXPECT_NEAR(BaseDeadline(TaskId::kSentencePrediction, PlatformId::kCpu1), 0.012, 1e-9);
}

TEST(ConstraintGridTest, GridHas36Settings) {
  for (GoalMode mode : {GoalMode::kMinimizeEnergy, GoalMode::kMaximizeAccuracy}) {
    const auto grid =
        BuildConstraintGrid(mode, TaskId::kImageClassification, PlatformId::kCpu1);
    EXPECT_EQ(grid.size(), 36u);
    for (const Goals& g : grid) {
      EXPECT_TRUE(g.Valid());
      EXPECT_EQ(g.mode, mode);
    }
  }
}

TEST(ConstraintGridTest, DeadlinesSpanPointFourToTwo) {
  const auto& mults = DeadlineMultipliers();
  EXPECT_DOUBLE_EQ(mults.front(), 0.4);
  EXPECT_DOUBLE_EQ(mults.back(), 2.0);
  const auto grid = BuildConstraintGrid(GoalMode::kMinimizeEnergy,
                                        TaskId::kImageClassification, PlatformId::kCpu1);
  const double base = BaseDeadline(TaskId::kImageClassification, PlatformId::kCpu1);
  double lo = 1e9;
  double hi = 0.0;
  for (const Goals& g : grid) {
    lo = std::min(lo, g.deadline);
    hi = std::max(hi, g.deadline);
  }
  EXPECT_NEAR(lo, 0.4 * base, 1e-12);
  EXPECT_NEAR(hi, 2.0 * base, 1e-12);
}

TEST(ConstraintGridTest, AccuracyGoalsAchievableByFamilies) {
  for (TaskId task : {TaskId::kImageClassification, TaskId::kSentencePrediction}) {
    const auto set = BuildEvaluationSet(task, DnnSetChoice::kBoth);
    double best = 0.0;
    for (const auto& m : set) {
      best = std::max(best, m.accuracy);
    }
    for (double goal : AccuracyGoalsFor(task)) {
      EXPECT_LT(goal, best) << TaskName(task);
    }
  }
}

TEST(ConstraintGridTest, EnergyBudgetsScaleWithDeadline) {
  const auto grid = BuildConstraintGrid(GoalMode::kMaximizeAccuracy,
                                        TaskId::kImageClassification, PlatformId::kCpu1);
  // Budgets within a deadline group are increasing; across deadlines they scale.
  for (size_t i = 0; i + 1 < grid.size(); ++i) {
    if (grid[i].deadline == grid[i + 1].deadline) {
      EXPECT_LT(grid[i].energy_budget, grid[i + 1].energy_budget);
    }
  }
}

// --- Scheme factory ---

TEST(SchemesTest, NamesAreUnique) {
  std::vector<std::string_view> names;
  for (int i = 0; i <= static_cast<int>(SchemeId::kOracle); ++i) {
    names.push_back(SchemeName(static_cast<SchemeId>(i)));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(SchemesTest, DnnSetAssignments) {
  EXPECT_EQ(SchemeDnnSet(SchemeId::kAlert), DnnSetChoice::kBoth);
  EXPECT_EQ(SchemeDnnSet(SchemeId::kAlertAny), DnnSetChoice::kAnytimeOnly);
  EXPECT_EQ(SchemeDnnSet(SchemeId::kAlertTrad), DnnSetChoice::kTraditionalOnly);
  EXPECT_EQ(SchemeDnnSet(SchemeId::kAppOnly), DnnSetChoice::kAnytimeOnly);
  EXPECT_EQ(SchemeDnnSet(SchemeId::kNoCoord), DnnSetChoice::kAnytimeOnly);
  EXPECT_EQ(SchemeDnnSet(SchemeId::kSysOnly), DnnSetChoice::kBoth);
}

TEST(SchemesTest, FactoryBuildsEveryScheme) {
  ExperimentOptions o;
  o.num_inputs = 40;
  o.seed = 2;
  Experiment ex(TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kNone, o);
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.08;
  goals.accuracy_goal = 0.9;
  for (int i = 0; i <= static_cast<int>(SchemeId::kOracle); ++i) {
    const SchemeId id = static_cast<SchemeId>(i);
    auto s = MakeScheduler(id, ex, goals);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), SchemeName(id));
    // And it can actually run.
    const RunResult r = ex.Run(ex.stack(SchemeDnnSet(id)), *s, goals);
    EXPECT_EQ(r.num_inputs, 40);
  }
}

// --- Static oracle ---

TEST(StaticOracleTest, FindsAdmissibleConfigOnEasySetting) {
  ExperimentOptions o;
  o.num_inputs = 100;
  o.seed = 4;
  Experiment ex(TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kNone, o);
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.12;
  goals.accuracy_goal = 0.88;
  const auto result = FindStaticOracle(ex, ex.stack(DnnSetChoice::kBoth), goals);
  EXPECT_TRUE(result.feasible);
  EXPECT_FALSE(SettingViolated(goals, result.result));
  EXPECT_GE(result.result.avg_accuracy, 0.85);
}

TEST(StaticOracleTest, NoConfigBeatsTheStaticOracle) {
  ExperimentOptions o;
  o.num_inputs = 80;
  o.seed = 6;
  Experiment ex(TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kNone, o);
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.1;
  goals.accuracy_goal = 0.9;
  const Stack& stack = ex.stack(DnnSetChoice::kBoth);
  const auto best = FindStaticOracle(ex, stack, goals);
  ASSERT_TRUE(best.feasible);
  for (int ci = 0; ci < stack.space().num_candidates(); ++ci) {
    for (int pi = 0; pi < stack.space().num_powers(); ++pi) {
      const RunResult r =
          ex.RunStatic(stack, Configuration{stack.space().candidate(ci), pi}, goals);
      if (!SettingViolated(goals, r)) {
        EXPECT_GE(r.avg_energy, best.result.avg_energy - 1e-9);
      }
    }
  }
}

TEST(StaticOracleTest, InfeasibleSettingIsFlagged) {
  ExperimentOptions o;
  o.num_inputs = 60;
  o.seed = 8;
  Experiment ex(TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kNone, o);
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.0005;  // impossible
  goals.accuracy_goal = 0.95;
  const auto result = FindStaticOracle(ex, ex.stack(DnnSetChoice::kBoth), goals);
  EXPECT_FALSE(result.feasible);
}

// --- Evaluation ---

TEST(EvaluationTest, MetricSelection) {
  RunResult r;
  r.avg_energy = 2.0;
  r.avg_error = 0.1;
  r.avg_perplexity = 150.0;
  EXPECT_EQ(MetricValue(GoalMode::kMinimizeEnergy, TaskId::kImageClassification, r), 2.0);
  EXPECT_EQ(MetricValue(GoalMode::kMaximizeAccuracy, TaskId::kImageClassification, r), 0.1);
  EXPECT_EQ(MetricValue(GoalMode::kMaximizeAccuracy, TaskId::kSentencePrediction, r),
            150.0);
}

TEST(EvaluationTest, CellEvaluationProducesCoherentStats) {
  CellSpec spec;
  spec.task = TaskId::kImageClassification;
  spec.platform = PlatformId::kCpu1;
  spec.contention = ContentionType::kNone;
  spec.mode = GoalMode::kMinimizeEnergy;
  spec.options.num_inputs = 120;
  spec.options.seed = 21;
  const SchemeId schemes[] = {SchemeId::kAlert, SchemeId::kOracle};
  const CellResult cell = EvaluateCell(spec, schemes);
  EXPECT_EQ(cell.total_settings, 36);
  ASSERT_EQ(cell.schemes.size(), 2u);
  for (const auto& s : cell.schemes) {
    EXPECT_EQ(s.usable_settings + cell.skipped_settings, 36);
    EXPECT_LE(s.violated_settings, s.usable_settings);
    EXPECT_EQ(s.normalized_values.size(),
              static_cast<size_t>(s.usable_settings - s.violated_settings));
    for (double v : s.normalized_values) {
      EXPECT_GT(v, 0.0);
    }
  }
  // The oracle never violates and never loses to the static oracle.
  const auto* oracle = cell.Find(SchemeId::kOracle);
  ASSERT_NE(oracle, nullptr);
  EXPECT_EQ(oracle->violated_settings, 0);
  EXPECT_LE(oracle->mean_normalized, 1.0 + 1e-9);
}

TEST(EvaluationTest, FindReturnsNullForMissingScheme) {
  CellResult cell;
  EXPECT_EQ(cell.Find(SchemeId::kAlert), nullptr);
}

}  // namespace
}  // namespace alert
