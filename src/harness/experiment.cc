#include "src/harness/experiment.h"

#include "src/common/check.h"

namespace alert {

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
  return Replay(stack, scheduler, goals, keep_records);
}

}  // namespace alert
