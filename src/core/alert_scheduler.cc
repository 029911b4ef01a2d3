#include "src/core/alert_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace alert {
namespace {

constexpr Seconds kMinDeadline = 1e-6;

}  // namespace

AlertScheduler::AlertScheduler(const ConfigSpace& space, const Goals& goals,
                               const AlertOptions& options)
    : AlertScheduler(std::make_unique<DecisionEngine>(space), nullptr, goals, options) {}

AlertScheduler::AlertScheduler(const DecisionEngine& engine, const Goals& goals,
                               const AlertOptions& options)
    : AlertScheduler(nullptr, &engine, goals, options) {}

AlertScheduler::AlertScheduler(std::unique_ptr<const DecisionEngine> owned,
                               const DecisionEngine* shared, const Goals& goals,
                               const AlertOptions& options)
    : owned_engine_(std::move(owned)),
      engine_(owned_engine_ != nullptr ? owned_engine_.get() : shared),
      space_(engine_->space()), goals_(goals), options_(options),
      slowdown_(options.kalman), idle_power_(options.idle_filter) {
  ALERT_CHECK(goals_.Valid());
  if (options_.wcet_window > 0) {
    wcet_window_.emplace(static_cast<size_t>(options_.wcet_window));
  }
}

BeliefState AlertScheduler::ExportBelief() const {
  BeliefState state;
  state.kalman = slowdown_.filter().state();
  state.xi_censored = slowdown_.num_censored();
  state.idle = idle_power_.state();
  state.energy_spent = energy_spent_;
  state.inputs_observed = inputs_observed_;
  return state;
}

void AlertScheduler::RestoreBelief(const BeliefState& state) {
  ALERT_CHECK(!wcet_window_.has_value());
  ALERT_CHECK(state.inputs_observed >= 0);
  slowdown_.Restore(state.kalman, state.xi_censored);
  idle_power_.Restore(state.idle);
  energy_spent_ = state.energy_spent;
  inputs_observed_ = state.inputs_observed;
}

XiBelief AlertScheduler::xi_belief() const {
  if (wcet_window_.has_value() && wcet_window_->size() > 0) {
    // Hard-guarantee variant: plan against the worst slowdown seen in the window.
    return XiBelief{wcet_window_->max(), 0.0};
  }
  XiBelief belief;
  belief.mean = slowdown_.mean();
  belief.stddev = options_.use_variance ? slowdown_.stddev() : 0.0;
  return belief;
}

DecisionInputs AlertScheduler::MakeInputs(Seconds deadline, Seconds period) const {
  DecisionInputs in;
  in.xi = xi_belief();
  in.deadline = deadline;
  in.period = period;
  if (options_.adapt_idle_power) {
    in.use_idle_ratio = true;
    in.idle_ratio = idle_power_.ratio();
  } else {
    in.fixed_idle_power = space_.platform().idle_power + space_.platform().base_power;
  }
  in.percentile = goals_.prob_threshold;
  in.stop_at_cutoff = true;
  return in;
}

AlertScheduler::ConfigEstimate AlertScheduler::Estimate(const Configuration& config,
                                                        Seconds deadline,
                                                        Seconds period) const {
  const ConfigScore score =
      engine_->Score(config.candidate, config.power_index, MakeInputs(deadline, period));
  ConfigEstimate est;
  est.prob_deadline = score.prob_deadline;
  est.expected_accuracy = score.expected_accuracy;
  est.expected_energy = score.expected_energy;
  est.expected_latency = score.expected_latency;
  return est;
}

Joules AlertScheduler::EnergyAllowance() const {
  if (!options_.pace_energy_budget) {
    return goals_.energy_budget;
  }
  // Cumulative pacing with a 2% reserve, mirroring the Oracle baseline.
  return 0.98 * goals_.energy_budget * static_cast<double>(inputs_observed_ + 1) -
         energy_spent_;
}

DecisionSnapshot AlertScheduler::Snapshot(const InferenceRequest& request) const {
  // Step 2 (Section 3.2): compensate for ALERT's own worst-case overhead so the
  // scheduler itself cannot cause a violation.
  const Seconds deadline =
      std::max(request.deadline - options_.scheduler_overhead, kMinDeadline);
  const Seconds period = request.period > 0.0 ? request.period : request.deadline;

  DecisionSnapshot snapshot;
  snapshot.engine = engine_;
  snapshot.inputs = MakeInputs(deadline, period);
  snapshot.goals = goals_;
  snapshot.allowance = EnergyAllowance();
  return snapshot;
}

SchedulingDecision MakeSchedulingDecision(const ConfigSpace& space,
                                          const DecisionEngine::Selection& selection) {
  SchedulingDecision decision;
  decision.candidate = space.candidate(selection.candidate_index);
  decision.power_index = selection.power_index;
  decision.power_cap = space.cap(selection.power_index);
  return decision;
}

SchedulingDecision DecideFromSnapshot(const DecisionSnapshot& snapshot,
                                      Watts power_limit,
                                      DecisionEngine::SelectScratch& scratch) {
  // Steps 3-4: one engine pass scores every configuration under the snapshot belief
  // and applies the goal feasibility/objective rules plus the Section 4 fallback.
  const DecisionEngine& engine = *snapshot.engine;
  const DecisionEngine::Selection sel = engine.SelectBest(
      snapshot.goals, snapshot.allowance, snapshot.inputs, power_limit, scratch);
  return MakeSchedulingDecision(engine.space(), sel);
}

SchedulingDecision AlertScheduler::Decide(const InferenceRequest& request) {
  return DecideFromSnapshot(Snapshot(request), power_limit_, scratch_);
}

void AlertScheduler::Observe(const SchedulingDecision& decision, const Measurement& m) {
  // Feed the slowdown filter with the completion anchor, normalized by the executed
  // configuration's *full-network* profile latency.
  const Seconds profile =
      space_.ProfileLatency(decision.candidate.model_index, decision.power_index);
  slowdown_.Observe(m.xi_anchor_time, m.xi_anchor_fraction, profile, m.xi_censored);
  if (wcet_window_.has_value()) {
    wcet_window_->Add(m.xi_anchor_time / (m.xi_anchor_fraction * profile));
  }

  // Idle power is only observable when the period actually had idle time.
  if (options_.adapt_idle_power && m.period > m.latency + 1e-9 &&
      m.inference_power > 0.0) {
    idle_power_.Update(m.idle_power, m.inference_power);
  }

  energy_spent_ += m.energy;
  ++inputs_observed_;
}

}  // namespace alert
