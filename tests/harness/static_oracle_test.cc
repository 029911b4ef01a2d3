// Row-shared static-oracle search: FindStaticOracles replays each configuration once
// for all goals of a deadline row.  Every result must equal a brute-force search that
// replays the trace separately for each goal, with the admissibility rule, objective
// and tie-break order written out here independently of the library.
#include "src/harness/static_oracle.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/core/decision_engine.h"
#include "src/harness/constraint_grid.h"

namespace alert {
namespace {

// One search per goal, one replay per (goal, configuration).
StaticOracleResult BruteForceStaticOracle(const Experiment& ex, const Stack& stack,
                                          const Goals& goals) {
  StaticOracleResult best;
  bool have_any = false;
  double best_objective = std::numeric_limits<double>::infinity();
  double best_violation = std::numeric_limits<double>::infinity();
  const ConfigSpace& space = stack.space();
  for (int ci = 0; ci < space.num_candidates(); ++ci) {
    for (int pi = 0; pi < space.num_powers(); ++pi) {
      const Configuration config{space.candidate(ci), pi};
      const RunResult r = ex.RunStatic(stack, config, goals);
      const bool admissible = !SettingViolated(goals, r);
      const double objective =
          GoalObjective(goals.mode, r.avg_energy, r.avg_error, r.avg_latency);
      bool better = false;
      if (admissible) {
        better = !best.feasible || objective < best_objective;
      } else if (!best.feasible) {
        better = !have_any || r.violation_fraction < best_violation ||
                 (r.violation_fraction == best_violation && objective < best_objective);
      }
      if (better) {
        best.config = config;
        best.result = r;
        best.feasible = admissible;
        best_objective = objective;
        best_violation = r.violation_fraction;
        have_any = true;
      }
    }
  }
  return best;
}

void ExpectSameOracle(const StaticOracleResult& got, const StaticOracleResult& want) {
  EXPECT_EQ(got.config.candidate, want.config.candidate);
  EXPECT_EQ(got.config.power_index, want.config.power_index);
  EXPECT_EQ(got.feasible, want.feasible);
  const RunResult& a = got.result;
  const RunResult& b = want.result;
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.num_inputs, b.num_inputs);
  EXPECT_EQ(a.avg_energy, b.avg_energy);
  EXPECT_EQ(a.avg_accuracy, b.avg_accuracy);
  EXPECT_EQ(a.avg_error, b.avg_error);
  EXPECT_EQ(a.avg_perplexity, b.avg_perplexity);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.violation_fraction, b.violation_fraction);
  EXPECT_EQ(a.deadline_miss_fraction, b.deadline_miss_fraction);
  EXPECT_TRUE(a.records.empty());
  EXPECT_TRUE(b.records.empty());
}

struct RowCase {
  TaskId task;
  PlatformId platform;
  ContentionType contention;
  GoalMode mode;
};

// The row-shared search equals the per-goal brute force on every goal of `row`;
// returns whether any goal had an admissible configuration.
bool CheckRow(const Experiment& ex, const std::vector<Goals>& row) {
  const Stack& stack = ex.stack(DnnSetChoice::kBoth);
  const std::vector<StaticOracleResult> shared = FindStaticOracles(ex, stack, row);
  EXPECT_EQ(shared.size(), row.size());
  bool any_feasible = false;
  for (size_t g = 0; g < row.size() && g < shared.size(); ++g) {
    SCOPED_TRACE("goal " + std::to_string(g) + " of the row");
    ExpectSameOracle(shared[g], BruteForceStaticOracle(ex, stack, row[g]));
    any_feasible = any_feasible || shared[g].feasible;
  }
  return any_feasible;
}

// Every deadline row of the cell's grid, then the first row with an impossible
// deadline, where nothing is admissible and every goal takes the least-violating
// fallback.
void CheckEveryRow(const RowCase& c) {
  SCOPED_TRACE("mode " + std::to_string(static_cast<int>(c.mode)));
  ExperimentOptions options;
  options.num_inputs = 30;
  options.seed = 3;
  const Experiment ex(c.task, c.platform, c.contention, options);
  const std::vector<Goals> grid = BuildConstraintGrid(c.mode, c.task, c.platform);
  const size_t per_row = grid.size() / DeadlineMultipliers().size();
  ASSERT_EQ(per_row, 6u);
  for (size_t start = 0; start < grid.size(); start += per_row) {
    SCOPED_TRACE("row starting at setting " + std::to_string(start));
    const std::vector<Goals> row(grid.begin() + static_cast<long>(start),
                                 grid.begin() + static_cast<long>(start + per_row));
    for (const Goals& g : row) {
      EXPECT_EQ(g.deadline, row.front().deadline);  // the grid is deadline-major
    }
    CheckRow(ex, row);
  }
  std::vector<Goals> impossible(grid.begin(), grid.begin() + static_cast<long>(per_row));
  for (Goals& g : impossible) {
    g.deadline = 0.0005;
  }
  EXPECT_FALSE(CheckRow(ex, impossible));
}

TEST(StaticOracleRowTest, RowSharedSearchEqualsPerGoalBruteForceInBothModes) {
  CheckEveryRow({TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kMemory,
                 GoalMode::kMinimizeEnergy});
  CheckEveryRow({TaskId::kSentencePrediction, PlatformId::kCpu2, ContentionType::kCompute,
                 GoalMode::kMaximizeAccuracy});
}

TEST(StaticOracleRowTest, SingleGoalSearchIsTheOneGoalRow) {
  ExperimentOptions options;
  options.num_inputs = 30;
  const Experiment ex(TaskId::kImageClassification, PlatformId::kCpu1,
                      ContentionType::kNone, options);
  const Stack& stack = ex.stack(DnnSetChoice::kBoth);
  const std::vector<Goals> grid = BuildConstraintGrid(
      GoalMode::kMinimizeEnergy, TaskId::kImageClassification, PlatformId::kCpu1);
  const Goals& goals = grid[20];
  ExpectSameOracle(FindStaticOracle(ex, stack, goals),
                   FindStaticOracles(ex, stack, std::vector<Goals>{goals}).front());
}

TEST(StaticOracleRowDeathTest, GoalsWithDifferentDeadlinesAreRejected) {
  ExperimentOptions options;
  options.num_inputs = 10;
  const Experiment ex(TaskId::kImageClassification, PlatformId::kCpu1,
                      ContentionType::kNone, options);
  const std::vector<Goals> grid = BuildConstraintGrid(
      GoalMode::kMinimizeEnergy, TaskId::kImageClassification, PlatformId::kCpu1);
  const std::vector<Goals> mixed = {grid[0], grid[6]};  // two deadline rows
  EXPECT_DEATH(FindStaticOracles(ex, ex.stack(DnnSetChoice::kBoth), mixed), "deadline");
}

}  // namespace
}  // namespace alert
