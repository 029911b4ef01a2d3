#include "src/baselines/oracle.h"

#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/core/decision_engine.h"

namespace alert {

OracleScheduler::OracleScheduler(const ConfigSpace& space, const Goals& goals,
                                 std::span<const ExecutionContext> contexts)
    : space_(space), goals_(goals), contexts_(contexts),
      ladder_(static_cast<size_t>(space.num_powers())) {
  ALERT_CHECK(goals_.Valid());
}

SchedulingDecision OracleScheduler::Decide(const InferenceRequest& request) {
  ALERT_CHECK(request.input_index >= 0 &&
              request.input_index < static_cast<int>(contexts_.size()));
  const ExecutionContext& ctx = contexts_[static_cast<size_t>(request.input_index)];
  const PlatformSimulator& sim = space_.simulator();
  const GoalMode mode = goals_.mode;
  const bool min_energy = mode == GoalMode::kMinimizeEnergy;

  // Measured outcomes are scored with the same goal rules as ALERT's estimates
  // (DecisionEngine's ScoreOutcome), with exact objective comparisons.
  BestConfigTracker best(mode, /*epsilon=*/0.0);

  // Fallback (nothing feasible): meet the deadline if at all possible.  In
  // energy-minimization mode the next priority is accuracy (ALERT's hierarchy); in
  // budget mode the next priority is *cheapness* — the budget pacing is in deficit, so
  // the fallback must spend as little as possible to let the balance recover.
  int fb_candidate = 0;
  int fb_power = space_.default_power_index();
  double fb_key_met = -1.0;
  double fb_acc = -1.0;
  double fb_energy = std::numeric_limits<double>::infinity();

  // Cumulative pacing: spend within the running budget, with a 2% reserve so that
  // greedy per-input accuracy maximization cannot ride the balance to exactly zero and
  // then be forced over budget by a contention phase.
  const Joules allowance =
      0.98 * goals_.energy_budget * static_cast<double>(inputs_seen_ + 1) - energy_spent_;

  for (int ci = 0; ci < space_.num_candidates(); ++ci) {
    SchedulingDecision d;
    d.candidate = space_.candidate(ci);
    // One pass over the power ladder: ladder_[pi] is what Execute reports at cap(pi).
    sim.ExecuteLadder(d.ToExecRequest(request), ctx, ladder_);
    for (int pi = 0; pi < space_.num_powers(); ++pi) {
      const Outcome& m = ladder_[static_cast<size_t>(pi)];

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

      best.Consider(ci, pi,
                    ScoreOutcome(goals_, allowance, m.accuracy, m.energy, m.latency,
                                 m.deadline_met, /*slack=*/1e-12));
    }
  }

  SchedulingDecision decision;
  const int best_candidate = best.found() ? best.candidate_index() : fb_candidate;
  const int best_power = best.found() ? best.power_index() : fb_power;
  decision.candidate = space_.candidate(best_candidate);
  decision.power_index = best_power;
  decision.power_cap = space_.cap(best_power);
  return decision;
}

void OracleScheduler::Observe(const SchedulingDecision&, const Measurement& m) {
  energy_spent_ += m.energy;
  ++inputs_seen_;
}

}  // namespace alert
