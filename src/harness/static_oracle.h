// OracleStatic (Table 3): the best single configuration for a whole trace.
//
// Represents "the best results without dynamic adaptation": an exhaustive offline sweep
// over every (candidate, power) configuration, executed against the full trace with
// perfect hindsight.  A configuration is admissible when its whole run does not violate
// the setting (SettingViolated): at most 10% of inputs may violate, the same Table 4
// allowance every adaptive scheme gets, and in the energy-budget modes the average
// energy must stay within the budget.  Among admissible configurations the one with the
// best objective wins (first in candidate-then-power order on ties).  When nothing is
// admissible the least-violating configuration is returned and flagged, so callers can
// exclude the setting from normalized averages (the paper's Fig. 6 marks such settings
// with an infinity symbol).
//
// A replay depends on the goals only through the deadline, so FindStaticOracles
// searches every goal of one deadline row with one replay per configuration; only the
// per-input violation count differs between those goals.
#ifndef SRC_HARNESS_STATIC_ORACLE_H_
#define SRC_HARNESS_STATIC_ORACLE_H_

#include <span>
#include <vector>

#include "src/harness/experiment.h"

namespace alert {

struct StaticOracleResult {
  Configuration config;
  RunResult result;
  bool feasible = false;  // some configuration was admissible
};

// One search per goal, in the order of `goals`.  The goals must share a mode and a
// deadline (ALERT_CHECKed).  Each result equals FindStaticOracle for that goal alone,
// field for field.
std::vector<StaticOracleResult> FindStaticOracles(const Experiment& experiment,
                                                  const Stack& stack,
                                                  std::span<const Goals> goals);

// The one-goal case of FindStaticOracles.
StaticOracleResult FindStaticOracle(const Experiment& experiment, const Stack& stack,
                                    const Goals& goals);

}  // namespace alert

#endif  // SRC_HARNESS_STATIC_ORACLE_H_
