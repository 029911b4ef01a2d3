// Experiment harness: drives one scheduler through one replayed environment trace.
//
// An Experiment fixes (task, platform, contention, #inputs, seed) and materializes:
//   * the environment trace (shared, replayed identically across schemes),
//   * one "stack" per DNN-candidate-set choice (Table 3): the owned model list, the
//     platform simulator over it, and the profiled configuration space.
//
// Run() executes the Section 3.2 loop — deadline policy, Decide, Execute, Observe —
// and aggregates the metrics the paper reports: average energy per input, average
// error (and perplexity for NLP), and the fraction of inputs violating the goals.
// RunStatic() is the same loop over one fixed configuration: both are instances of
// the one replay template at the end of this header, Run's over the virtual
// Scheduler and RunStatic's over a final static scheduler whose calls inline.
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/core/config_space.h"
#include "src/core/decision_engine.h"
#include "src/core/goals.h"
#include "src/core/scheduler.h"
#include "src/dnn/zoo.h"
#include "src/sim/simulator.h"
#include "src/workload/deadline_policy.h"
#include "src/workload/trace.h"

namespace alert {

// Warm-start profiles keyed by (task, platform, seed, candidate-set choice) — the
// payload a sweep dispatcher captures once and ships to every worker so that no
// worker ever re-profiles.  Within one sweep the spec-global knobs
// (profile_noise_sigma) are shared, so this key identifies a profile uniquely.
// Values are owned copies: a store is safe to build in one process, serialize
// (sweep_io), and rebuild in another.
class ProfileSnapshotStore {
 public:
  // Inserts or replaces the snapshot for a key.
  void Put(TaskId task, PlatformId platform, uint64_t seed, DnnSetChoice choice,
           ProfileSnapshot snapshot);
  // Borrowed pointer, valid until the next Put; nullptr when absent.
  const ProfileSnapshot* Find(TaskId task, PlatformId platform, uint64_t seed,
                              DnnSetChoice choice) const;
  size_t size() const { return snapshots_.size(); }

  // Stable iteration order (the map key order) — serialization walks this.
  using Key = std::tuple<int, int, uint64_t, int>;  // task, platform, seed, choice
  const std::map<Key, ProfileSnapshot>& entries() const { return snapshots_; }

 private:
  std::map<Key, ProfileSnapshot> snapshots_;
};

// A candidate set together with its simulator and profiled config space.
class Stack {
 public:
  // Profiles the space locally, unless `warm_start` is non-null, in which case the
  // snapshot's tables are adopted (see ConfigSpace's snapshot constructor for the
  // compatibility contract).  `warm_start` is only read during construction.
  Stack(DnnSetChoice choice, std::vector<DnnModel> models, const PlatformSpec& platform,
        double profile_noise_sigma, uint64_t seed,
        const ProfileSnapshot* warm_start = nullptr);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  DnnSetChoice choice() const { return choice_; }
  const std::vector<DnnModel>& models() const { return models_; }
  const PlatformSimulator& simulator() const { return *sim_; }
  const ConfigSpace& space() const { return *space_; }
  // The stack's shared scoring plane: built once over `space()` and scanned (read-only)
  // by every scheduler the harness constructs for this stack, including concurrent
  // ParallelFor sweep workers.
  const DecisionEngine& engine() const { return *engine_; }

 private:
  DnnSetChoice choice_;
  std::vector<DnnModel> models_;
  std::unique_ptr<PlatformSimulator> sim_;
  std::unique_ptr<ConfigSpace> space_;
  std::unique_ptr<DecisionEngine> engine_;
};

struct InputRecord {
  SchedulingDecision decision;
  Measurement measurement;
  bool violated = false;
};

struct RunResult {
  std::string scheme;
  int num_inputs = 0;
  Joules avg_energy = 0.0;       // per input period
  double avg_accuracy = 0.0;     // delivered
  double avg_error = 0.0;        // 1 - avg_accuracy
  double avg_perplexity = 0.0;   // NLP reporting scale (Fig. 10)
  Seconds avg_latency = 0.0;
  // Fraction of inputs violating a constraint: a deadline miss, a delivered accuracy
  // below the goal (energy-minimization mode), or a period energy above the budget
  // (error-minimization mode).
  double violation_fraction = 0.0;
  double deadline_miss_fraction = 0.0;
  std::vector<InputRecord> records;  // filled only when requested
};

// Whether a whole run fails its constraint setting — the Table 4 accounting unit: a
// scheme "incurs more than 10% violation of all inputs".  A per-input violation is a
// deadline miss, a delivered accuracy below the goal (energy-minimization mode), or a
// period energy above the budget (error-minimization mode).  Under this rule Sys-only
// violates most accuracy-constrained settings wholesale — its fixed fast DNN is below
// the goal on every input — matching the paper's "68% of the settings".
bool SettingViolated(const Goals& goals, const RunResult& result);

struct ExperimentOptions {
  int num_inputs = 300;
  uint64_t seed = 1;
  // Scripted contention window (Fig. 9); overrides the stochastic phase machine.
  std::optional<std::pair<int, int>> contention_window;
  double contention_scale = 1.0;
  // Systematic profiling error fed to the config spaces (robustness studies).
  double profile_noise_sigma = 0.0;
};

class Experiment {
 public:
  // RunStatic's default per-input observer.
  struct IgnoreInput {
    void operator()(const Measurement&) const {}
  };

  // `warm_start`, when non-null, supplies profile snapshots for this experiment's
  // stacks (looked up by (task, platform, options.seed, choice)); stacks with no
  // matching entry profile locally.  The store is only read during construction and
  // results are bit-identical either way — a snapshot carries the exact values local
  // profiling would produce.
  Experiment(TaskId task, PlatformId platform, ContentionType contention,
             const ExperimentOptions& options = {},
             const ProfileSnapshotStore* warm_start = nullptr);

  const EnvironmentTrace& trace() const { return trace_; }
  const PlatformSpec& platform() const { return platform_; }
  TaskId task() const { return task_; }
  ContentionType contention() const { return contention_; }
  const ExperimentOptions& options() const { return options_; }

  // The stack for a candidate-set choice (built eagerly for all three choices).
  const Stack& stack(DnnSetChoice choice) const;

  // Runs a scheduler over the trace under `goals`.
  RunResult Run(const Stack& stack, Scheduler& scheduler, const Goals& goals,
                bool keep_records = false) const;

  // Runs one fixed configuration (no adaptation) over the trace, through the same
  // replay loop as Run.  `on_input(m)` sees every input's measurement in trace
  // order, so a caller can score one replay against several goals that share its
  // deadline (FindStaticOracles).  It is a template parameter, not a
  // std::function, so the per-input call inlines.
  template <typename OnInput = IgnoreInput>
  RunResult RunStatic(const Stack& stack, const Configuration& config, const Goals& goals,
                      bool keep_records = false, const OnInput& on_input = {}) const;

  // Whether an input's measurement violates a per-input-checkable constraint.
  static bool Violates(const Goals& goals, const Measurement& m) {
    if (goals.mode == GoalMode::kMinimizeLatency) {
      // No deadline constraint: only the accuracy floor is checkable per input.
      return m.accuracy < goals.accuracy_goal - 1e-9;
    }
    if (!m.deadline_met) {
      return true;  // latency constraint
    }
    if (goals.mode == GoalMode::kMinimizeEnergy) {
      // Accuracy constraint: the delivered result (model or anytime stage) must be at
      // the goal.  A scheme that *chooses* a sub-goal configuration (e.g. Sys-only's
      // fixed fast DNN) violates on every input.
      return m.accuracy < goals.accuracy_goal - 1e-9;
    }
    return false;
  }

 private:
  // The Section 3.2 replay loop, with the deadline policy resolved once per run.
  template <typename Sched>
  RunResult Replay(const Stack& stack, Sched& scheduler, const Goals& goals,
                   bool keep_records) const;
  template <typename Sched, typename Policy>
  RunResult ReplayWith(const Stack& stack, Sched& scheduler, Policy& policy,
                       const Goals& goals, bool keep_records) const;

  TaskId task_;
  ContentionType contention_;
  const PlatformSpec& platform_;
  ExperimentOptions options_;
  EnvironmentTrace trace_;
  std::vector<std::unique_ptr<Stack>> stacks_;  // indexed by DnnSetChoice
};

namespace internal {

// A scheduler that always returns the same configuration and hands each measurement
// to `on_input`.  Final, so the replay loop's calls through it are direct.
template <typename OnInput>
class StaticScheduler final : public Scheduler {
 public:
  StaticScheduler(const ConfigSpace& space, const Configuration& config,
                  const OnInput& on_input)
      : on_input_(on_input) {
    decision_.candidate = config.candidate;
    decision_.power_index = config.power_index;
    decision_.power_cap = space.cap(config.power_index);
  }

  SchedulingDecision Decide(const InferenceRequest&) override { return decision_; }
  void Observe(const SchedulingDecision&, const Measurement& m) override {
    on_input_(m);
  }
  std::string_view name() const override { return "Static"; }

 private:
  SchedulingDecision decision_;
  const OnInput& on_input_;
};

}  // namespace internal

template <typename OnInput>
RunResult Experiment::RunStatic(const Stack& stack, const Configuration& config,
                                const Goals& goals, bool keep_records,
                                const OnInput& on_input) const {
  internal::StaticScheduler<OnInput> scheduler(stack.space(), config, on_input);
  return Replay(stack, scheduler, goals, keep_records);
}

template <typename Sched>
RunResult Experiment::Replay(const Stack& stack, Sched& scheduler, const Goals& goals,
                             bool keep_records) const {
  ALERT_CHECK(goals.Valid());
  if (trace_.has_sentences()) {
    SentenceSharedDeadlinePolicy policy(trace_, goals.deadline);
    return ReplayWith(stack, scheduler, policy, goals, keep_records);
  }
  FixedDeadlinePolicy policy(goals.deadline);
  return ReplayWith(stack, scheduler, policy, goals, keep_records);
}

template <typename Sched, typename Policy>
RunResult Experiment::ReplayWith(const Stack& stack, Sched& scheduler, Policy& policy,
                                 const Goals& goals, bool keep_records) const {
  const PlatformSimulator& sim = stack.simulator();

  RunResult result;
  result.scheme = std::string(scheduler.name());
  result.num_inputs = trace_.num_inputs();

  double sum_energy = 0.0;
  double sum_accuracy = 0.0;
  double sum_perplexity = 0.0;
  double sum_latency = 0.0;
  int violations = 0;
  int misses = 0;

  for (int n = 0; n < trace_.num_inputs(); ++n) {
    InferenceRequest request;
    request.input_index = n;
    request.deadline = policy.DeadlineFor(n);
    request.period = policy.PeriodFor(n);

    const SchedulingDecision decision = scheduler.Decide(request);
    const Measurement m =
        sim.Execute(decision.ToExecRequest(request), trace_.inputs[static_cast<size_t>(n)]);
    scheduler.Observe(decision, m);
    policy.OnCompleted(n, m.latency);

    const bool violated = Violates(goals, m);
    sum_energy += m.energy;
    sum_accuracy += m.accuracy;
    sum_perplexity += PerplexityFromAccuracy(m.accuracy);
    sum_latency += m.latency;
    violations += violated ? 1 : 0;
    misses += m.deadline_met ? 0 : 1;
    if (keep_records) {
      result.records.push_back(InputRecord{decision, m, violated});
    }
  }

  const double count = static_cast<double>(trace_.num_inputs());
  result.avg_energy = sum_energy / count;
  result.avg_accuracy = sum_accuracy / count;
  result.avg_error = 1.0 - result.avg_accuracy;
  result.avg_perplexity = sum_perplexity / count;
  result.avg_latency = sum_latency / count;
  result.violation_fraction = static_cast<double>(violations) / count;
  result.deadline_miss_fraction = static_cast<double>(misses) / count;
  return result;
}

}  // namespace alert

#endif  // SRC_HARNESS_EXPERIMENT_H_
