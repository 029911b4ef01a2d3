#include "src/harness/experiment.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/workload/deadline_policy.h"

namespace alert {
namespace {

std::unique_ptr<DeadlinePolicy> MakeDeadlinePolicy(const EnvironmentTrace& trace,
                                                   const Goals& goals) {
  if (trace.has_sentences()) {
    return std::make_unique<SentenceSharedDeadlinePolicy>(trace, goals.deadline);
  }
  return std::make_unique<FixedDeadlinePolicy>(goals.deadline);
}

}  // namespace

void ProfileSnapshotStore::Put(TaskId task, PlatformId platform, uint64_t seed,
                               DnnSetChoice choice, ProfileSnapshot snapshot) {
  snapshots_[Key{static_cast<int>(task), static_cast<int>(platform), seed,
                 static_cast<int>(choice)}] = std::move(snapshot);
}

const ProfileSnapshot* ProfileSnapshotStore::Find(TaskId task, PlatformId platform,
                                                  uint64_t seed,
                                                  DnnSetChoice choice) const {
  const auto it = snapshots_.find(Key{static_cast<int>(task), static_cast<int>(platform),
                                      seed, static_cast<int>(choice)});
  return it == snapshots_.end() ? nullptr : &it->second;
}

Stack::Stack(DnnSetChoice choice, std::vector<DnnModel> models,
             const PlatformSpec& platform, double profile_noise_sigma, uint64_t seed,
             const ProfileSnapshot* warm_start)
    : choice_(choice), models_(std::move(models)) {
  ALERT_CHECK(!models_.empty());
  sim_ = std::make_unique<PlatformSimulator>(platform, models_);
  space_ = warm_start != nullptr
               ? std::make_unique<ConfigSpace>(*sim_, *warm_start)
               : std::make_unique<ConfigSpace>(*sim_, profile_noise_sigma, seed);
  engine_ = std::make_unique<DecisionEngine>(*space_);
}

Experiment::Experiment(TaskId task, PlatformId platform, ContentionType contention,
                       const ExperimentOptions& options,
                       const ProfileSnapshotStore* warm_start)
    : task_(task), contention_(contention), platform_(GetPlatform(platform)),
      options_(options) {
  TraceOptions trace_options;
  trace_options.num_inputs = options.num_inputs;
  trace_options.seed = options.seed;
  trace_options.contention_window = options.contention_window;
  trace_options.contention_scale = options.contention_scale;
  trace_ = MakeEnvironmentTrace(task, platform, contention, trace_options);

  for (DnnSetChoice choice : {DnnSetChoice::kTraditionalOnly, DnnSetChoice::kAnytimeOnly,
                              DnnSetChoice::kBoth}) {
    const ProfileSnapshot* snapshot =
        warm_start != nullptr ? warm_start->Find(task, platform, options.seed, choice)
                              : nullptr;
    stacks_.push_back(std::make_unique<Stack>(choice, BuildEvaluationSet(task, choice),
                                              platform_, options.profile_noise_sigma,
                                              options.seed, snapshot));
  }
}

const Stack& Experiment::stack(DnnSetChoice choice) const {
  return *stacks_[static_cast<size_t>(choice)];
}

bool Experiment::Violates(const Goals& goals, const Measurement& m) {
  if (goals.mode == GoalMode::kMinimizeLatency) {
    // No deadline constraint: only the accuracy floor is checkable per input.
    return m.accuracy < goals.accuracy_goal - 1e-9;
  }
  if (!m.deadline_met) {
    return true;  // latency constraint
  }
  if (goals.mode == GoalMode::kMinimizeEnergy) {
    // Accuracy constraint: the delivered result (model or anytime stage) must be at the
    // goal.  A scheme that *chooses* a sub-goal configuration (e.g. Sys-only's fixed
    // fast DNN) violates on every input.
    return m.accuracy < goals.accuracy_goal - 1e-9;
  }
  return false;
}

bool SettingViolated(const Goals& goals, const RunResult& result) {
  // Table 4's accounting unit: a scheme fails a constraint setting when it violates on
  // more than 10% of inputs.  The energy budget is cumulative (a battery or power
  // provisioning bound), so it is judged on the achieved average energy per input.
  if (result.violation_fraction > 0.10) {
    return true;
  }
  if (goals.mode != GoalMode::kMinimizeEnergy) {
    return result.avg_energy > goals.energy_budget + 1e-9;
  }
  return false;
}

RunResult Experiment::Run(const Stack& stack, Scheduler& scheduler, const Goals& goals,
                          bool keep_records) const {
  ALERT_CHECK(goals.Valid());
  auto policy = MakeDeadlinePolicy(trace_, goals);
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
    request.deadline = policy->DeadlineFor(n);
    request.period = policy->PeriodFor(n);

    const SchedulingDecision decision = scheduler.Decide(request);
    const Measurement m =
        sim.Execute(decision.ToExecRequest(request), trace_.inputs[static_cast<size_t>(n)]);
    scheduler.Observe(decision, m);
    policy->OnCompleted(n, m.latency);

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

namespace {

// A trivial scheduler that always returns the same configuration and hands each
// measurement to an optional observer.
class StaticScheduler final : public Scheduler {
 public:
  StaticScheduler(const ConfigSpace& space, const Configuration& config,
                  const std::function<void(const Measurement&)>& on_input)
      : space_(space), config_(config), on_input_(on_input) {}

  SchedulingDecision Decide(const InferenceRequest&) override {
    SchedulingDecision d;
    d.candidate = config_.candidate;
    d.power_index = config_.power_index;
    d.power_cap = space_.cap(config_.power_index);
    return d;
  }
  void Observe(const SchedulingDecision&, const Measurement& m) override {
    if (on_input_) {
      on_input_(m);
    }
  }
  std::string_view name() const override { return "Static"; }

 private:
  const ConfigSpace& space_;
  Configuration config_;
  const std::function<void(const Measurement&)>& on_input_;
};

}  // namespace

RunResult Experiment::RunStatic(
    const Stack& stack, const Configuration& config, const Goals& goals, bool keep_records,
    const std::function<void(const Measurement&)>& on_input) const {
  StaticScheduler scheduler(stack.space(), config, on_input);
  return Run(stack, scheduler, goals, keep_records);
}

}  // namespace alert
