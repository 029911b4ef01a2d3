#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace alert {
namespace {

constexpr double kTimeEps = 1e-12;

// Per-model contention response: the global multiplier's excess is scaled by the
// model's sensitivity to the active contention type.
inline double ContentionFactor(const DnnModel& m, const ExecutionContext& ctx) {
  return 1.0 + (ctx.contention_multiplier - 1.0) * m.ContentionSensitivity(ctx.contention);
}

// The true latency of a nominal one under the input's environment.  TrueLatency and
// ExecuteLadder both multiply in this order, so their bits cannot drift apart.
inline Seconds ApplyContext(Seconds nominal, double contention,
                            const ExecutionContext& ctx) {
  return nominal * contention * ctx.input_factor * ctx.noise_multiplier *
         ctx.tail_multiplier * ctx.drift_multiplier;
}

// Package draw model `m` would take with no cap.
inline Watts PowerDemand(const DnnModel& m, const PlatformSpec& platform) {
  return m.power_demand_frac * platform.curve.cap_sat;
}

// Average package+base draw of a run whose package demand is `demand` under `cap`.
inline Watts DrawUnderCap(Watts cap, Watts demand, Watts base) {
  return std::min(cap, demand) + base;
}

}  // namespace

PlatformSimulator::PlatformSimulator(const PlatformSpec& platform,
                                     std::span<const DnnModel> models)
    : platform_(platform), models_(models), caps_(platform.PowerSettings()),
      inv_cap_step_(1.0 / platform.cap_step) {
  ALERT_CHECK(!models_.empty() && !caps_.empty());
  nominal_latency_.reserve(models_.size() * caps_.size());
  for (const DnnModel& m : models_) {
    ALERT_CHECK(m.SupportsPlatform(platform_.id));
    for (const Watts cap : caps_) {
      nominal_latency_.push_back(NominalLatencyFormula(m, cap));
    }
  }
}

const DnnModel& PlatformSimulator::model(int index) const {
  ALERT_CHECK(index >= 0 && index < static_cast<int>(models_.size()));
  return models_[static_cast<size_t>(index)];
}

Seconds PlatformSimulator::NominalLatencyFormula(const DnnModel& m, Watts cap) const {
  return m.ref_latency_on(platform_.id) / platform_.curve.SpeedAt(cap);
}

Seconds PlatformSimulator::NominalLatency(int model_index, Watts cap) const {
  const DnnModel& m = model(model_index);
  // The ladder index `cap` would have, checked by exact comparison: only a cap that
  // is a ladder setting reads the table (NaN fails both tests).
  const double pos = (cap - caps_.front()) * inv_cap_step_ + 0.5;
  if (pos >= 0.0 && pos < static_cast<double>(caps_.size())) {
    const size_t s = static_cast<size_t>(pos);
    if (caps_[s] == cap) {
      return nominal_latency_[static_cast<size_t>(model_index) * caps_.size() + s];
    }
  }
  return NominalLatencyFormula(m, cap);
}

Watts PlatformSimulator::InferencePower(int model_index, Watts cap) const {
  return DrawUnderCap(cap, PowerDemand(model(model_index), platform_),
                      platform_.base_power);
}

Watts PlatformSimulator::IdlePower(const ExecutionContext& ctx) const {
  return platform_.idle_power + platform_.base_power + ctx.extra_idle_power;
}

Seconds PlatformSimulator::TrueLatency(int model_index, Watts cap,
                                       const ExecutionContext& ctx) const {
  return ApplyContext(NominalLatency(model_index, cap),
                      ContentionFactor(model(model_index), ctx), ctx);
}

namespace {

// What one inference of `m` reports when its full network takes `t_full` (Eq. 3/13,
// Fig. 3 energy accounting).  The only copy of the outcome rules: Execute applies it
// at one cap, ExecuteLadder at every setting of the power ladder.  `q_fail` is the
// task's random-guess accuracy, computed once per call by the caller.
[[gnu::always_inline]] inline Measurement ExecuteAt(const DnnModel& m,
                                                    const ExecRequest& request,
                                                    Seconds t_full,
                                                    Watts inference_power,
                                                    Watts idle_power, double q_fail) {
  const Seconds deadline = request.deadline;

  Measurement out;
  out.deadline = deadline;
  out.inference_power = inference_power;
  out.idle_power = idle_power;

  Seconds run_time = 0.0;  // how long the accelerator actually computed
  if (!m.is_anytime()) {
    // Traditional network: one output, available only at full completion (Eq. 3).
    const bool completes_by_deadline = t_full <= deadline + kTimeEps;
    if (completes_by_deadline) {
      run_time = t_full;
      out.latency = t_full;
      out.accuracy = m.accuracy;
      out.deadline_met = true;
      out.delivered_stage = -1;
      out.xi_anchor_time = t_full;
      out.xi_anchor_fraction = 1.0;
      out.xi_censored = false;
    } else if (request.stop_at_deadline) {
      // Killed at the deadline: only a random guess is available, and the observed
      // latency is a censored lower bound on the true one.
      run_time = deadline;
      out.latency = deadline;
      out.accuracy = q_fail;
      out.deadline_met = false;
      out.delivered_stage = -1;
      out.xi_anchor_time = deadline;
      out.xi_anchor_fraction = 1.0;
      out.xi_censored = true;
    } else {
      // Runs (uselessly) to completion; the result is late and worthless but the full
      // latency is observed.
      run_time = t_full;
      out.latency = t_full;
      out.accuracy = q_fail;
      out.deadline_met = false;
      out.delivered_stage = -1;
      out.xi_anchor_time = t_full;
      out.xi_anchor_fraction = 1.0;
      out.xi_censored = false;
    }
  } else {
    // Anytime network: output k is ready at latency_fraction_k * t_full (Eq. 13).
    const auto& stages = m.anytime_stages;
    const int last_allowed =
        request.max_anytime_stage < 0
            ? static_cast<int>(stages.size()) - 1
            : std::min(request.max_anytime_stage, static_cast<int>(stages.size()) - 1);
    const Seconds planned_end = stages[static_cast<size_t>(last_allowed)].latency_fraction *
                                t_full;
    const Seconds cutoff =
        request.stop_at_deadline ? std::min(planned_end, deadline) : planned_end;

    int delivered = -1;
    for (int k = 0; k <= last_allowed; ++k) {
      if (stages[static_cast<size_t>(k)].latency_fraction * t_full <= cutoff + kTimeEps) {
        delivered = k;
      }
    }
    run_time = cutoff;
    out.latency = cutoff;
    out.delivered_stage = delivered;
    if (delivered >= 0) {
      out.accuracy = stages[static_cast<size_t>(delivered)].accuracy;
      out.deadline_met = cutoff <= deadline + kTimeEps;
      const double frac = stages[static_cast<size_t>(delivered)].latency_fraction;
      out.xi_anchor_time = frac * t_full;
      out.xi_anchor_fraction = frac;
      out.xi_censored = false;
    } else {
      // Not even the first output was ready: fall back to a random guess.
      out.accuracy = q_fail;
      out.deadline_met = false;
      out.xi_anchor_time = cutoff;
      out.xi_anchor_fraction = stages.front().latency_fraction;
      out.xi_censored = true;
    }
  }

  // Energy accounting over the input period (run-time plus idle, as in Fig. 3).  The
  // period stretches if the job overran it.
  const Seconds nominal_period = request.period > 0.0 ? request.period : deadline;
  const Seconds actual_period = std::max(nominal_period, run_time);
  const Seconds idle_time = actual_period - run_time;
  out.period = actual_period;
  out.energy = out.inference_power * run_time + out.idle_power * idle_time;
  return out;
}

}  // namespace

Measurement PlatformSimulator::Execute(const ExecRequest& request,
                                       const ExecutionContext& ctx) const {
  const DnnModel& m = model(request.model_index);
  ALERT_CHECK(request.deadline > 0.0);
  return ExecuteAt(m, request, TrueLatency(request.model_index, request.power_cap, ctx),
                   InferencePower(request.model_index, request.power_cap),
                   IdlePower(ctx), TaskRandomGuessAccuracy(m.task));
}

void PlatformSimulator::ExecuteLadder(const ExecRequest& request,
                                      const ExecutionContext& ctx,
                                      std::span<Outcome> out) const {
  const DnnModel& m = model(request.model_index);
  ALERT_CHECK(request.deadline > 0.0);
  ALERT_CHECK(out.size() == caps_.size());
  const double contention = ContentionFactor(m, ctx);
  const Watts demand = PowerDemand(m, platform_);
  const Watts idle_power = IdlePower(ctx);
  const double q_fail = TaskRandomGuessAccuracy(m.task);
  const Seconds* nominal =
      nominal_latency_.data() + static_cast<size_t>(request.model_index) * caps_.size();
  for (size_t s = 0; s < caps_.size(); ++s) {
    const Measurement r =
        ExecuteAt(m, request, ApplyContext(nominal[s], contention, ctx),
                  DrawUnderCap(caps_[s], demand, platform_.base_power), idle_power,
                  q_fail);
    out[s] = Outcome{r.latency, r.energy, r.accuracy, r.deadline_met};
  }
}

}  // namespace alert
