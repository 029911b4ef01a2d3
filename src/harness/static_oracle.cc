#include "src/harness/static_oracle.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/core/decision_engine.h"

namespace alert {
namespace {

// Lower-is-better run objective, shared with the decision plane.
double Objective(const Goals& goals, const RunResult& r) {
  return GoalObjective(goals.mode, r.avg_energy, r.avg_error, r.avg_latency);
}

// The running best of one goal's search.
struct Search {
  StaticOracleResult best;
  bool have_any = false;
  double best_objective = std::numeric_limits<double>::infinity();
  double best_violation = std::numeric_limits<double>::infinity();

  void Offer(const Goals& goals, const Configuration& config, const RunResult& r) {
    // The static oracle plays by the same rules as every scheme: at most 10% of
    // inputs may violate (Table 4 caption).  Its weakness is structural, not a
    // handicap: one configuration must survive the trace's full variability, so under
    // drift or contention it either over-provisions (paying energy) or carries
    // deadline misses whose worthless q_fail results poison its own error average —
    // the effect behind the paper's 0.3-0.9 normalized error columns.
    const bool admissible = !SettingViolated(goals, r);
    const double objective = Objective(goals, r);

    bool better = false;
    if (admissible) {
      better = !best.feasible || objective < best_objective;
    } else if (!best.feasible) {
      // Nothing admissible yet: track the least-violating configuration.
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
};

}  // namespace

std::vector<StaticOracleResult> FindStaticOracles(const Experiment& experiment,
                                                  const Stack& stack,
                                                  std::span<const Goals> goals) {
  ALERT_CHECK(!goals.empty());
  for (const Goals& g : goals) {
    ALERT_CHECK(g.Valid() && g.mode == goals.front().mode &&
                g.deadline == goals.front().deadline);
  }
  const ConfigSpace& space = stack.space();
  const double count = static_cast<double>(experiment.trace().num_inputs());
  std::vector<Search> searches(goals.size());
  std::vector<int> violations(goals.size());
  const auto count_violations = [&](const Measurement& m) {
    for (size_t g = 0; g < goals.size(); ++g) {
      violations[g] += Experiment::Violates(goals[g], m) ? 1 : 0;
    }
  };

  for (int ci = 0; ci < space.num_candidates(); ++ci) {
    for (int pi = 0; pi < space.num_powers(); ++pi) {
      const Configuration config{space.candidate(ci), pi};
      std::fill(violations.begin(), violations.end(), 0);
      // One replay serves the whole row: everything but violation_fraction depends
      // only on the deadline, which the goals share.  The counter is RunStatic's
      // template observer, so it inlines into the replay loop.
      RunResult r = experiment.RunStatic(stack, config, goals.front(),
                                         /*keep_records=*/false, count_violations);
      for (size_t g = 0; g < goals.size(); ++g) {
        r.violation_fraction = static_cast<double>(violations[g]) / count;
        searches[g].Offer(goals[g], config, r);
      }
    }
  }

  std::vector<StaticOracleResult> out;
  out.reserve(searches.size());
  for (Search& search : searches) {
    ALERT_CHECK(search.have_any);
    out.push_back(std::move(search.best));
  }
  return out;
}

StaticOracleResult FindStaticOracle(const Experiment& experiment, const Stack& stack,
                                    const Goals& goals) {
  return std::move(FindStaticOracles(experiment, stack, std::span(&goals, 1)).front());
}

}  // namespace alert
