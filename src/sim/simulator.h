// The inference-platform simulator: ground truth for every experiment.
//
// Substitutes for the paper's physical testbed (Table 1 machines + real DNN inference).
// Given a decision — which model, which power cap, and for anytime networks an optional
// stage limit — plus the per-input environment state, Execute() produces the true
// latency, the delivered accuracy (including deadline-miss fallbacks, Eq. 3/13), and
// the energy consumed over the input period (run-time plus idle energy, as measured for
// Fig. 3).
//
// ExecuteLadder() answers the same question for one request at every setting of the
// power ladder in one pass — the clairvoyant Oracle's per-input search.  Both run one
// copy of the outcome rules, so the ladder's entry for a setting has exactly the bits
// Execute() reports at that cap.
//
// The same object also exposes the *nominal profile* (latency at each cap with no
// contention and a unit input): this is what offline profiling would record, and what
// the controllers consume as t_prof.  The nominal latency of every model at every
// setting of `platform.PowerSettings()` is computed once, at construction, into an
// immutable table that Execute / ExecuteLadder / TrueLatency / NominalLatency read; a
// cap off the ladder falls back to the power-curve formula the table was filled with,
// so both give the same bits.  The simulator is immutable after construction, so
// concurrent sweep rows may share it.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <span>
#include <vector>

#include "src/common/ids.h"
#include "src/common/units.h"
#include "src/dnn/model.h"
#include "src/sim/execution_context.h"
#include "src/sim/platform.h"

namespace alert {

// What a scheduler asks the platform to do for one input.
struct ExecRequest {
  int model_index = 0;
  Watts power_cap = 0.0;
  Seconds deadline = 0.0;
  // Accounting period for idle energy; defaults to the deadline when <= 0 (periodic
  // sensor inputs).  The actual period extends if inference overruns.
  Seconds period = 0.0;
  // Anytime only: stop after this stage (0-based) even if time remains; -1 = no limit.
  int max_anytime_stage = -1;
  // Kill the inference at the deadline.  Anytime networks always deliver their latest
  // output at the deadline; for traditional networks this kills a job that would
  // otherwise run (uselessly) to completion.
  bool stop_at_deadline = true;
};

// What the platform reports back — everything a real deployment could measure.
struct Measurement {
  Seconds latency = 0.0;         // time until the result was delivered
  Seconds period = 0.0;          // accounting period actually used
  Joules energy = 0.0;           // inference + idle energy over the period
  Watts inference_power = 0.0;   // average draw while inference ran
  Watts idle_power = 0.0;        // average draw while inference was idle
  double accuracy = 0.0;         // delivered accuracy (q_i, stage accuracy, or q_fail)
  bool deadline_met = false;
  int delivered_stage = -1;      // anytime: delivered output index; -1 = final/none

  // Feedback anchor for the slowdown filter: the last observed completion event
  // (a stage exit or the full network) and the fraction of the full-network work it
  // corresponds to.  xi_obs = anchor_time / (anchor_fraction * t_prof).  When nothing
  // completed before the cutoff the anchor is censored (a lower bound on xi).
  Seconds xi_anchor_time = 0.0;
  double xi_anchor_fraction = 1.0;
  bool xi_censored = false;

  Seconds deadline = 0.0;
};

// The part of a Measurement a clairvoyant search compares configurations by.
struct Outcome {
  Seconds latency = 0.0;
  Joules energy = 0.0;
  double accuracy = 0.0;
  bool deadline_met = false;
};

class PlatformSimulator {
 public:
  // `platform` and `models` must outlive the simulator.
  PlatformSimulator(const PlatformSpec& platform, std::span<const DnnModel> models);

  // Runs one inference under the given environment.  Pure function of its arguments —
  // the harness replays identical contexts across schedulers.
  Measurement Execute(const ExecRequest& request, const ExecutionContext& ctx) const;

  // Execute() at every setting of the power ladder: out[s] holds the latency, energy,
  // accuracy and deadline_met that Execute() reports for `request` with
  // power_cap = platform().PowerSettings()[s], bit for bit; request.power_cap is
  // ignored.  `out` must have one entry per setting (checked, like the model index
  // and deadline > 0).
  void ExecuteLadder(const ExecRequest& request, const ExecutionContext& ctx,
                     std::span<Outcome> out) const;

  // Nominal profile latency: model under `cap`, no contention, unit input.  A table
  // lookup for a cap on the platform's power ladder, the formula otherwise.
  Seconds NominalLatency(int model_index, Watts cap) const;

  // Average package+base draw while the model runs under `cap`.
  Watts InferencePower(int model_index, Watts cap) const;

  // Package+base draw while inference-idle (plus the co-runner's share if active).
  Watts IdlePower(const ExecutionContext& ctx) const;

  // True (environment-adjusted, noise-free... including noise draws already fixed in
  // `ctx`) full-network latency for a hypothetical config; used by the clairvoyant
  // oracle baselines and by trace generation.
  Seconds TrueLatency(int model_index, Watts cap, const ExecutionContext& ctx) const;

  const PlatformSpec& platform() const { return platform_; }
  std::span<const DnnModel> models() const { return models_; }
  const DnnModel& model(int index) const;

 private:
  // ref_latency / SpeedAt(cap): the power-curve formula behind NominalLatency.
  Seconds NominalLatencyFormula(const DnnModel& m, Watts cap) const;

  const PlatformSpec& platform_;
  std::span<const DnnModel> models_;
  // The power ladder (platform.PowerSettings()), and the nominal latency of model m
  // at ladder setting s at nominal_latency_[m * caps_.size() + s].
  std::vector<Watts> caps_;
  std::vector<Seconds> nominal_latency_;
  // 1 / cap_step: maps a cap to its candidate ladder index.
  double inv_cap_step_ = 0.0;
};

}  // namespace alert

#endif  // SRC_SIM_SIMULATOR_H_
