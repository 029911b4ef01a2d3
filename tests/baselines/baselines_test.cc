#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/baselines/app_only.h"
#include "src/baselines/no_coord.h"
#include "src/baselines/oracle.h"
#include "src/baselines/sys_only.h"
#include "src/core/decision_engine.h"
#include "src/dnn/zoo.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/experiment.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest()
      : models_(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim_(GetPlatform(PlatformId::kCpu1), models_), space_(sim_) {
    contexts_.resize(16);  // quiet contexts
  }

  Goals MinEnergyGoals(Seconds deadline, double accuracy) const {
    Goals g;
    g.mode = GoalMode::kMinimizeEnergy;
    g.deadline = deadline;
    g.accuracy_goal = accuracy;
    return g;
  }

  InferenceRequest Request(int n, Seconds deadline) const {
    InferenceRequest r;
    r.input_index = n;
    r.deadline = deadline;
    r.period = deadline;
    return r;
  }

  std::vector<DnnModel> models_;
  PlatformSimulator sim_;
  ConfigSpace space_;
  std::vector<ExecutionContext> contexts_;
};

// --- App-only ---

TEST_F(BaselinesTest, AppOnlyAlwaysRunsAnytimeAtDefaultPower) {
  AppOnlyScheduler s(space_);
  for (int n = 0; n < 5; ++n) {
    const auto d = s.Decide(Request(n, 0.05));
    EXPECT_TRUE(space_.model(d.candidate.model_index).is_anytime());
    EXPECT_EQ(d.candidate.stage_limit,
              static_cast<int>(
                  space_.model(d.candidate.model_index).anytime_stages.size()) -
                  1);
    EXPECT_EQ(d.power_index, space_.default_power_index());
  }
}

TEST_F(BaselinesTest, AppOnlyRequiresAnytimeCandidate) {
  auto trad =
      BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kTraditionalOnly);
  PlatformSimulator sim(GetPlatform(PlatformId::kCpu1), trad);
  ConfigSpace space(sim);
  EXPECT_DEATH(AppOnlyScheduler{space}, "anytime");
}

// --- Sys-only ---

TEST_F(BaselinesTest, SysOnlyFixesFastestTraditionalModel) {
  SysOnlyScheduler s(space_, MinEnergyGoals(0.08, 0.93));
  const auto d = s.Decide(Request(0, 0.08));
  EXPECT_EQ(d.candidate.model_index, space_.FastestTraditionalModel());
  // The accuracy goal is ignored: the fixed fast model sits below 0.93.
  EXPECT_LT(space_.CandidateAccuracy(d.candidate), 0.93);
}

TEST_F(BaselinesTest, SysOnlyRaisesPowerUnderSlowdown) {
  SysOnlyScheduler s(space_, MinEnergyGoals(0.02, 0.8));
  const auto calm = s.Decide(Request(0, 0.02));
  // Feed observations showing a 2x slowdown.
  for (int i = 0; i < 10; ++i) {
    const auto d = s.Decide(Request(i, 0.02));
    Measurement m;
    m.xi_anchor_time =
        2.0 * space_.ProfileLatency(d.candidate.model_index, d.power_index);
    m.xi_anchor_fraction = 1.0;
    m.latency = m.xi_anchor_time;
    m.period = m.latency;
    m.inference_power = 20.0;
    m.idle_power = 6.0;
    s.Observe(d, m);
  }
  const auto stressed = s.Decide(Request(11, 0.02));
  EXPECT_GT(stressed.power_cap, calm.power_cap);
}

TEST_F(BaselinesTest, SysOnlyPicksLowEnergyCapWhenDeadlineLoose) {
  SysOnlyScheduler s(space_, MinEnergyGoals(1.0, 0.8));
  const auto d = s.Decide(Request(0, 1.0));
  // With a loose deadline, the minimum-energy cap is at or near the bottom.
  EXPECT_LE(d.power_cap, space_.cap(2));
}

// --- No-coord ---

TEST_F(BaselinesTest, NoCoordUsesAnytimeWithStageAdaptation) {
  NoCoordScheduler s(space_, MinEnergyGoals(0.05, 0.9));
  const auto d = s.Decide(Request(0, 0.05));
  EXPECT_TRUE(space_.model(d.candidate.model_index).is_anytime());
}

TEST_F(BaselinesTest, NoCoordAppSideCutsStagesUnderSlowdown) {
  NoCoordScheduler s(space_, MinEnergyGoals(0.05, 0.9));
  const auto calm = s.Decide(Request(0, 0.05));
  for (int i = 0; i < 10; ++i) {
    const auto d = s.Decide(Request(i, 0.05));
    Measurement m;
    const DnnModel& model = space_.model(d.candidate.model_index);
    const double frac =
        model.anytime_stages[static_cast<size_t>(std::max(d.candidate.stage_limit, 0))]
            .latency_fraction;
    m.xi_anchor_time =
        2.5 * frac * space_.ProfileLatency(d.candidate.model_index, d.power_index);
    m.xi_anchor_fraction = frac;
    m.latency = m.xi_anchor_time;
    m.period = m.latency;
    m.inference_power = 20.0;
    m.idle_power = 6.0;
    s.Observe(d, m);
  }
  const auto stressed = s.Decide(Request(11, 0.05));
  EXPECT_LT(stressed.candidate.stage_limit, calm.candidate.stage_limit);
}

// --- Oracle ---

TEST_F(BaselinesTest, OracleMeetsConstraintsWithMinimalEnergy) {
  const Goals goals = MinEnergyGoals(0.08, 0.92);
  OracleScheduler oracle(space_, goals, contexts_);
  const auto d = oracle.Decide(Request(0, 0.08));
  const Measurement m = sim_.Execute(d.ToExecRequest(Request(0, 0.08)), contexts_[0]);
  EXPECT_TRUE(m.deadline_met);
  EXPECT_GE(m.accuracy, 0.92);

  // No other feasible configuration is cheaper — exhaustive check.
  for (int ci = 0; ci < space_.num_candidates(); ++ci) {
    for (int pi = 0; pi < space_.num_powers(); ++pi) {
      SchedulingDecision alt;
      alt.candidate = space_.candidate(ci);
      alt.power_index = pi;
      alt.power_cap = space_.cap(pi);
      const Measurement am = sim_.Execute(alt.ToExecRequest(Request(0, 0.08)), contexts_[0]);
      if (am.deadline_met && am.accuracy >= 0.92) {
        EXPECT_GE(am.energy, m.energy - 1e-12);
      }
    }
  }
}

TEST_F(BaselinesTest, OracleFallsBackGracefullyWhenInfeasible) {
  const Goals goals = MinEnergyGoals(0.0005, 0.99);  // impossible deadline + accuracy
  OracleScheduler oracle(space_, goals, contexts_);
  const auto d = oracle.Decide(Request(0, 0.0005));
  // Should still return something sane.
  EXPECT_GE(d.candidate.model_index, 0);
  EXPECT_LT(d.candidate.model_index, space_.num_models());
}

TEST_F(BaselinesTest, OracleBanksEnergyBudgetAcrossInputs) {
  Goals goals;
  goals.mode = GoalMode::kMaximizeAccuracy;
  goals.deadline = 0.08;
  goals.energy_budget = 1.3;
  OracleScheduler oracle(space_, goals, contexts_);
  // First input: spend below budget.
  const auto d0 = oracle.Decide(Request(0, 0.08));
  Measurement m0 = sim_.Execute(d0.ToExecRequest(Request(0, 0.08)), contexts_[0]);
  oracle.Observe(d0, m0);
  // Report an artificially cheap measurement to create surplus.
  Measurement cheap = m0;
  cheap.energy = 0.1;
  oracle.Observe(d0, cheap);
  // With banked surplus the oracle can afford configurations above the per-input
  // budget; its pick should never be worse than without banking.
  const auto d2 = oracle.Decide(Request(2, 0.08));
  const Measurement m2 = sim_.Execute(d2.ToExecRequest(Request(2, 0.08)), contexts_[2]);
  EXPECT_GE(m2.accuracy, 0.9);
}

TEST_F(BaselinesTest, OracleMaximizesAccuracyUnderBudget) {
  Goals goals;
  goals.mode = GoalMode::kMaximizeAccuracy;
  goals.deadline = 0.08;
  goals.energy_budget = 3.5;  // generous
  OracleScheduler oracle(space_, goals, contexts_);
  const auto d = oracle.Decide(Request(0, 0.08));
  const Measurement m = sim_.Execute(d.ToExecRequest(Request(0, 0.08)), contexts_[0]);
  // With a generous budget the oracle should reach the top of the accuracy range.
  EXPECT_GE(m.accuracy, 0.945);
}

// --- Oracle equivalence ---

// The specification of the Oracle's decision: one Execute per configuration, in
// candidate-major order, scored by ScoreOutcome into a BestConfigTracker with exact
// comparisons, with the deadline-first fallback and cumulative budget pacing.
// OracleScheduler must decide exactly as this does.
class ReferenceOracle final : public Scheduler {
 public:
  ReferenceOracle(const ConfigSpace& space, const Goals& goals,
                  std::span<const ExecutionContext> contexts)
      : space_(space), goals_(goals), contexts_(contexts) {}

  SchedulingDecision Decide(const InferenceRequest& request) override {
    const ExecutionContext& ctx = contexts_[static_cast<size_t>(request.input_index)];
    const PlatformSimulator& sim = space_.simulator();
    const bool min_energy = goals_.mode == GoalMode::kMinimizeEnergy;
    BestConfigTracker best(goals_.mode, /*epsilon=*/0.0);
    int fb_candidate = 0;
    int fb_power = space_.default_power_index();
    double fb_key_met = -1.0;
    double fb_acc = -1.0;
    double fb_energy = std::numeric_limits<double>::infinity();
    for (int ci = 0; ci < space_.num_candidates(); ++ci) {
      for (int pi = 0; pi < space_.num_powers(); ++pi) {
        SchedulingDecision d;
        d.candidate = space_.candidate(ci);
        d.power_index = pi;
        d.power_cap = space_.cap(pi);
        const Measurement m = sim.Execute(d.ToExecRequest(request), ctx);
        const double met = m.deadline_met ? 1.0 : 0.0;
        const bool better_fallback =
            met > fb_key_met ||
            (met == fb_key_met &&
             (min_energy ? (m.accuracy > fb_acc ||
                            (m.accuracy == fb_acc && m.energy < fb_energy))
                         : (m.energy < fb_energy ||
                            (m.energy == fb_energy && m.accuracy > fb_acc))));
        if (better_fallback) {
          fb_candidate = ci;
          fb_power = pi;
          fb_key_met = met;
          fb_acc = m.accuracy;
          fb_energy = m.energy;
        }
        const Joules allowance =
            0.98 * goals_.energy_budget * static_cast<double>(inputs_seen_ + 1) -
            energy_spent_;
        best.Consider(ci, pi,
                      ScoreOutcome(goals_, allowance, m.accuracy, m.energy, m.latency,
                                   m.deadline_met, /*slack=*/1e-12));
      }
    }
    fallback_inputs_ += best.found() ? 0 : 1;
    SchedulingDecision decision;
    const int best_candidate = best.found() ? best.candidate_index() : fb_candidate;
    const int best_power = best.found() ? best.power_index() : fb_power;
    decision.candidate = space_.candidate(best_candidate);
    decision.power_index = best_power;
    decision.power_cap = space_.cap(best_power);
    return decision;
  }

  void Observe(const SchedulingDecision&, const Measurement& m) override {
    energy_spent_ += m.energy;
    ++inputs_seen_;
  }

  std::string_view name() const override { return "Oracle"; }
  // Inputs on which nothing was feasible and the fallback decided.
  int fallback_inputs() const { return fallback_inputs_; }

 private:
  const ConfigSpace& space_;
  Goals goals_;
  std::span<const ExecutionContext> contexts_;
  Joules energy_spent_ = 0.0;
  int inputs_seen_ = 0;
  int fallback_inputs_ = 0;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Every field of two runs, doubles by bit pattern.  Returns "" when equal, otherwise
// the first difference.
std::string FirstDifference(const RunResult& a, const RunResult& b) {
  if (a.scheme != b.scheme || a.num_inputs != b.num_inputs) {
    return "scheme/num_inputs";
  }
  if (!SameBits(a.avg_energy, b.avg_energy) || !SameBits(a.avg_accuracy, b.avg_accuracy) ||
      !SameBits(a.avg_error, b.avg_error) ||
      !SameBits(a.avg_perplexity, b.avg_perplexity) ||
      !SameBits(a.avg_latency, b.avg_latency) ||
      !SameBits(a.violation_fraction, b.violation_fraction) ||
      !SameBits(a.deadline_miss_fraction, b.deadline_miss_fraction)) {
    return "aggregate";
  }
  if (a.records.size() != b.records.size()) {
    return "record count";
  }
  for (size_t n = 0; n < a.records.size(); ++n) {
    const InputRecord& x = a.records[n];
    const InputRecord& y = b.records[n];
    const Measurement& m = x.measurement;
    const Measurement& w = y.measurement;
    if (!(x.decision.candidate == y.decision.candidate) ||
        x.decision.power_index != y.decision.power_index ||
        !SameBits(x.decision.power_cap, y.decision.power_cap)) {
      return "decision of input " + std::to_string(n);
    }
    if (!SameBits(m.latency, w.latency) || !SameBits(m.period, w.period) ||
        !SameBits(m.energy, w.energy) || !SameBits(m.inference_power, w.inference_power) ||
        !SameBits(m.idle_power, w.idle_power) || !SameBits(m.accuracy, w.accuracy) ||
        m.deadline_met != w.deadline_met || m.delivered_stage != w.delivered_stage ||
        !SameBits(m.xi_anchor_time, w.xi_anchor_time) ||
        !SameBits(m.xi_anchor_fraction, w.xi_anchor_fraction) ||
        m.xi_censored != w.xi_censored || !SameBits(m.deadline, w.deadline) ||
        x.violated != y.violated) {
      return "measurement of input " + std::to_string(n);
    }
  }
  return "";
}

// The goals of grid setting `i` in `mode`; kMinimizeLatency takes the accuracy goal
// of the energy grid and the budget of the accuracy grid.
Goals GridGoals(GoalMode mode, TaskId task, PlatformId platform, size_t i) {
  const std::vector<Goals> energy_grid =
      BuildConstraintGrid(GoalMode::kMinimizeEnergy, task, platform);
  const std::vector<Goals> budget_grid =
      BuildConstraintGrid(GoalMode::kMaximizeAccuracy, task, platform);
  switch (mode) {
    case GoalMode::kMinimizeEnergy:
      return energy_grid[i];
    case GoalMode::kMaximizeAccuracy:
      return budget_grid[i];
    case GoalMode::kMinimizeLatency: {
      Goals g = energy_grid[i];
      g.mode = GoalMode::kMinimizeLatency;
      g.energy_budget = budget_grid[i].energy_budget;
      return g;
    }
  }
  return energy_grid[i];
}

// OracleScheduler replays seeded traces exactly as the per-configuration reference
// does: CPU1 and GPU, both tasks, all three goal modes, tight to loose settings, with
// Observe feeding the budget pacing.  Every decision and every RunResult field must
// be bit-equal.
TEST(OracleEquivalenceTest, DecidesExactlyAsThePerConfigurationExecuteLoop) {
  int runs = 0;
  int fallback_inputs = 0;
  for (const PlatformId platform : {PlatformId::kCpu1, PlatformId::kGpu}) {
    for (const TaskId task : {TaskId::kImageClassification, TaskId::kSentencePrediction}) {
      ExperimentOptions options;
      options.num_inputs = 120;
      options.seed = 11 + static_cast<uint64_t>(platform) * 7 + static_cast<uint64_t>(task);
      const ContentionType contention = platform == PlatformId::kGpu
                                            ? ContentionType::kCompute
                                            : ContentionType::kMemory;
      const Experiment experiment(task, platform, contention, options);
      const Stack& stack = experiment.stack(DnnSetChoice::kBoth);
      for (const GoalMode mode : {GoalMode::kMinimizeEnergy, GoalMode::kMaximizeAccuracy,
                                  GoalMode::kMinimizeLatency}) {
        for (const size_t setting : {0u, 7u, 14u, 21u, 28u, 35u}) {
          const Goals goals = GridGoals(mode, task, platform, setting);
          OracleScheduler oracle(stack.space(), goals, experiment.trace().inputs);
          ReferenceOracle reference(stack.space(), goals, experiment.trace().inputs);
          const RunResult got = experiment.Run(stack, oracle, goals, /*keep_records=*/true);
          const RunResult want =
              experiment.Run(stack, reference, goals, /*keep_records=*/true);
          EXPECT_EQ(FirstDifference(got, want), "")
              << GetPlatform(platform).name << " task " << static_cast<int>(task) << " "
              << GoalModeName(mode) << " setting " << setting;
          fallback_inputs += reference.fallback_inputs();
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 72);
  // The settings reach the infeasible corner too, where the fallback decides.
  EXPECT_GT(fallback_inputs, 0);
}

}  // namespace
}  // namespace alert
