// The ALERT runtime scheduler (Section 3).
//
// Per input, ALERT:
//   1. ingests the previous measurement (Observe): one xi ratio into the adaptive
//      Kalman filter (Eq. 5) and, when the period had idle time, one idle-power ratio
//      into the Eq. 8 filter;
//   2. compensates the deadline for its own worst-case overhead (Section 3.2, step 2);
//   3. scores every candidate x power-cap configuration with the Eqs. 6/7/9/12/13
//      estimates — routed through the shared DecisionEngine scoring plane;
//   4. picks the feasible configuration that optimizes the goal, falling back to the
//      latency > accuracy > power priority hierarchy when nothing is feasible
//      (Section 4; DecisionEngine::SelectBest).
//
// The same class implements the paper's ablations: ALERT* (mean-only, Fig. 10) via
// `use_variance = false`, explicit probabilistic guarantees via `Goals::prob_threshold`
// (Eqs. 10-12), and the candidate-set variants (ALERT-Trad / ALERT-Any) by constructing
// it over a restricted model set.
#ifndef SRC_CORE_ALERT_SCHEDULER_H_
#define SRC_CORE_ALERT_SCHEDULER_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/config_space.h"
#include "src/core/decision_engine.h"
#include "src/core/estimates.h"
#include "src/core/goals.h"
#include "src/core/scheduler.h"

#include "src/estimator/idle_power_filter.h"
#include "src/estimator/sliding_window.h"
#include "src/estimator/slowdown_estimator.h"

namespace alert {

struct AlertOptions {
  // Use the variance of xi in the estimates; false reproduces ALERT*.
  bool use_variance = true;
  // Track idle power with the Eq. 8 filter; false assumes the nominal platform idle
  // draw forever (ablation).
  bool adapt_idle_power = true;
  // Treat the energy budget as cumulative and pace it: surplus banked on cheap inputs
  // can be spent on expensive ones (extension beyond the paper's per-input Eq. 4; the
  // clairvoyant Oracle baseline paces the same way).  Accuracy-maximization mode only.
  bool pace_energy_budget = false;
  // > 0 enables the near-hard-guarantee variant the paper's Section 3.6 contrasts
  // against: instead of the Gaussian belief, predictions use the *worst* slowdown
  // ratio observed in the last N inputs (an empirical WCET estimate).  Deterministic
  // and maximally conservative with respect to observed history — it still cannot
  // guarantee against a slowdown worse than any yet seen, which is exactly the paper's
  // argument for probabilistic guarantees.
  int wcet_window = 0;
  // Worst-case scheduler overhead subtracted from every deadline.
  Seconds scheduler_overhead = 0.0;
  // Kalman filter parameters (Eq. 5 defaults).
  AdaptiveKalmanParams kalman;
  IdlePowerFilterParams idle_filter;
  // Display name override (e.g. "ALERT-Any").
  std::string name = "ALERT";
};

// Everything one decision depends on, captured from a scheduler's mutable state
// (slowdown belief, idle-power model, paced energy allowance) at one instant.  A
// snapshot plus a power limit fully determines the decision — see DecideFromSnapshot —
// so callers like the multi-job coordinator can decide many times under different
// limits (proportional scaling, slack-recycling passes) without touching the
// scheduler between selections or leaving state behind.
struct DecisionSnapshot {
  const DecisionEngine* engine = nullptr;  // scoring plane the snapshot was taken on
  DecisionInputs inputs;                   // belief + deadline/period + idle model
  Goals goals;
  Joules allowance = 0.0;                  // plain or paced energy allowance
};

// The complete learned state of one ALERT instance — everything a decision reads
// beyond the (immutable) profile, goals, and options: the xi Kalman filter, the
// Eq. 8 idle-power filter, and the paced-budget ledger.  Exporting it from one
// scheduler and restoring it into a freshly constructed one (same engine family,
// same options) reproduces the original's decisions bit-for-bit — the contract the
// serving daemon's belief persistence across tenant reconnects is built on
// (src/daemon/alertd.h gives it a serde wire format).  The raw xi observation
// history and the WCET window are not captured: the former is diagnostic only, and
// restoring into a wcet_window scheduler is unsupported (checked).
struct BeliefState {
  AdaptiveKalmanFilter::State kalman;
  int xi_censored = 0;
  IdlePowerFilter::State idle;
  Joules energy_spent = 0.0;
  int inputs_observed = 0;

  friend bool operator==(const BeliefState&, const BeliefState&) = default;
};

// Expands an engine Selection into the scheduling decision the harness executes.
SchedulingDecision MakeSchedulingDecision(const ConfigSpace& space,
                                          const DecisionEngine::Selection& selection);

// The ALERT decision rule as a pure function of (snapshot, power limit): no scheduler
// state is read or written.  `scratch` avoids a per-call allocation; it is
// overwritten.  AlertScheduler::Decide is exactly
// DecideFromSnapshot(Snapshot(request), power_limit(), scratch).
SchedulingDecision DecideFromSnapshot(const DecisionSnapshot& snapshot,
                                      Watts power_limit,
                                      DecisionEngine::SelectScratch& scratch);

class AlertScheduler final : public Scheduler {
 public:
  // `space` must outlive the scheduler.  Builds a private DecisionEngine.
  AlertScheduler(const ConfigSpace& space, const Goals& goals,
                 const AlertOptions& options = {});
  // Shares an existing engine (harness sweeps, multi-job coordination); `engine` must
  // outlive the scheduler.
  AlertScheduler(const DecisionEngine& engine, const Goals& goals,
                 const AlertOptions& options = {});

  SchedulingDecision Decide(const InferenceRequest& request) override;
  void Observe(const SchedulingDecision& decision, const Measurement& m) override;
  std::string_view name() const override { return options_.name; }

  // Captures the immutable inputs of one decision (deadline compensation applied,
  // belief and allowance frozen).  Pure read of scheduler state; feed the result to
  // DecideFromSnapshot or the DecisionEngine batch API.
  DecisionSnapshot Snapshot(const InferenceRequest& request) const;

  // Dynamic goal updates (requirements change at run time, Section 1.1).
  void set_goals(const Goals& goals) { goals_ = goals; }
  const Goals& goals() const { return goals_; }

  // External power-cap limit: configurations above the limit are not considered.
  // Used by the multi-job coordinator (Section 3.6's concurrent-jobs extension) and by
  // deployments whose package budget is shared with other tenants.  Pass a huge value
  // to clear.
  void set_power_limit(Watts limit) { power_limit_ = limit; }
  Watts power_limit() const { return power_limit_; }

  // Belief persistence (see BeliefState above).  RestoreBelief requires the
  // hard-guarantee WCET window to be off (its ring buffer is not captured; checked).
  BeliefState ExportBelief() const;
  void RestoreBelief(const BeliefState& state);

  // Current belief over the global slowdown factor.
  XiBelief xi_belief() const;
  const SlowdownEstimator& slowdown_estimator() const { return slowdown_; }
  const IdlePowerFilter& idle_power_filter() const { return idle_power_; }

  // Scored estimate of one configuration under the current belief (exposed for tests
  // and the ablation benches).
  struct ConfigEstimate {
    double prob_deadline = 0.0;     // Eq. 6
    double expected_accuracy = 0.0; // Eq. 7 / 13
    Joules expected_energy = 0.0;   // Eq. 9 / 12
    Seconds expected_latency = 0.0; // E[min(run, deadline)]
  };
  ConfigEstimate Estimate(const Configuration& config, Seconds deadline,
                          Seconds period) const;

  // The scoring plane this scheduler routes candidate estimates through.
  const DecisionEngine& engine() const { return *engine_; }

 private:
  // Both public constructors delegate here; exactly one of `owned`/`shared` is set.
  AlertScheduler(std::unique_ptr<const DecisionEngine> owned,
                 const DecisionEngine* shared, const Goals& goals,
                 const AlertOptions& options);

  // The per-input energy allowance (the plain budget, or the paced balance).
  Joules EnergyAllowance() const;
  // The immutable belief/idle-power snapshot one decision scores under.
  DecisionInputs MakeInputs(Seconds deadline, Seconds period) const;

  std::unique_ptr<const DecisionEngine> owned_engine_;  // null when sharing
  const DecisionEngine* engine_;
  const ConfigSpace& space_;
  Goals goals_;
  AlertOptions options_;
  SlowdownEstimator slowdown_;
  IdlePowerFilter idle_power_;
  std::optional<SlidingWindow> wcet_window_;  // hard-guarantee variant
  Watts power_limit_ = 1e9;
  // Per-decision scratch for the fused SelectBest (avoids an allocation per input).
  DecisionEngine::SelectScratch scratch_;

  // Pacing state (pace_energy_budget).
  Joules energy_spent_ = 0.0;
  int inputs_observed_ = 0;
};

}  // namespace alert

#endif  // SRC_CORE_ALERT_SCHEDULER_H_
