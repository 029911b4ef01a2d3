#include "src/core/decision_engine.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "src/common/check.h"
#include "src/common/gaussian.h"
#include "src/core/decision_engine_simd.h"

namespace alert {
namespace {

// Chunk size of the fused SelectBest: 256 ConfigScores = 8 KB, comfortably inside L1
// so the select sweep reads scores the kernel just wrote without round-tripping L2.
constexpr int kSelectChunkEntries = 256;

// E[min(xi * profile, cutoff)] via the memoized CDF (mirrors ExpectedRuntime).
Seconds FastExpectedRuntime(const XiBelief& xi, Seconds profile, Seconds cutoff) {
  const double mean = xi.mean * profile;
  const double stddev = xi.stddev * profile;
  if (stddev == 0.0) {
    return std::min(mean, cutoff);
  }
  const double z = (cutoff - mean) / stddev;
  const double p_below = FastStandardNormalCdf(z);
  if (p_below <= 1e-12) {
    return cutoff;
  }
  const double mean_below = mean - stddev * StandardNormalPdf(z) / p_below;
  const double value = p_below * mean_below + (1.0 - p_below) * cutoff;
  return std::clamp(value, 0.0, cutoff);
}

}  // namespace

GoalScore ScoreOutcome(const Goals& goals, Joules allowance, double accuracy,
                       Joules energy, Seconds latency, bool deadline_ok, double slack) {
  GoalScore s;
  switch (goals.mode) {
    case GoalMode::kMinimizeEnergy:
      s.feasible = deadline_ok && accuracy >= goals.accuracy_goal - slack;
      s.objective = energy;
      s.tiebreak = -accuracy;
      break;
    case GoalMode::kMaximizeAccuracy:
      s.feasible = deadline_ok && energy <= allowance + slack;
      s.objective = accuracy;
      s.tiebreak = energy;
      break;
    case GoalMode::kMinimizeLatency:
      s.feasible = accuracy >= goals.accuracy_goal - slack && energy <= allowance + slack;
      s.objective = latency;
      s.tiebreak = energy;
      break;
  }
  return s;
}

double GoalObjective(GoalMode mode, Joules energy, double error, Seconds latency) {
  switch (mode) {
    case GoalMode::kMinimizeEnergy:
      return energy;
    case GoalMode::kMaximizeAccuracy:
      return error;
    case GoalMode::kMinimizeLatency:
      return latency;
  }
  return energy;
}

void BestConfigTracker::Consider(int candidate_index, int power_index,
                                 const GoalScore& score) {
  if (!score.feasible) {
    return;
  }
  bool better = !found();
  if (!better) {
    const double diff = score.objective - objective_;
    if (maximize_) {
      better = diff > epsilon_ ||
               (std::abs(diff) <= epsilon_ && score.tiebreak < tiebreak_);
    } else {
      better = diff < -epsilon_ ||
               (std::abs(diff) <= epsilon_ && score.tiebreak < tiebreak_);
    }
  }
  if (better) {
    candidate_index_ = candidate_index;
    power_index_ = power_index;
    objective_ = score.objective;
    tiebreak_ = score.tiebreak;
  }
}

void WarmGaussianTable() { FastStandardNormalCdf(0.0); }

DecisionEngine::DecisionEngine(const ConfigSpace& space)
    : space_(&space), num_candidates_(space.num_candidates()),
      num_powers_(space.num_powers()),
      caps_(space.caps().begin(), space.caps().end()) {
  const size_t entries = static_cast<size_t>(num_entries());
  run_profile_.resize(entries);
  full_profile_.resize(entries);
  inv_run_profile_.resize(entries);
  inv_full_profile_.resize(entries);
  inference_power_.resize(entries);
  final_accuracy_.resize(static_cast<size_t>(num_candidates_));
  q_fail_.resize(static_cast<size_t>(num_candidates_));
  stage_offset_.resize(static_cast<size_t>(num_candidates_), 0);
  stage_count_.resize(static_cast<size_t>(num_candidates_), 0);

  // Flatten each model's anytime ladder once; candidates index into it.
  std::vector<int> model_ladder_offset(static_cast<size_t>(space.num_models()), -1);
  for (int m = 0; m < space.num_models(); ++m) {
    const DnnModel& model = space.model(m);
    if (!model.is_anytime()) {
      continue;
    }
    model_ladder_offset[static_cast<size_t>(m)] = static_cast<int>(stage_frac_.size());
    for (const AnytimeStage& stage : model.anytime_stages) {
      stage_frac_.push_back(stage.latency_fraction);
      inv_stage_frac_.push_back(1.0 / stage.latency_fraction);
      stage_accuracy_.push_back(stage.accuracy);
    }
  }

  for (int ci = 0; ci < num_candidates_; ++ci) {
    const Candidate& c = space.candidate(ci);
    const DnnModel& model = space.model(c.model_index);
    final_accuracy_[static_cast<size_t>(ci)] = space.CandidateAccuracy(c);
    q_fail_[static_cast<size_t>(ci)] = TaskRandomGuessAccuracy(model.task);
    if (c.stage_limit >= 0) {
      const int last = std::min(c.stage_limit,
                                static_cast<int>(model.anytime_stages.size()) - 1);
      stage_offset_[static_cast<size_t>(ci)] =
          model_ladder_offset[static_cast<size_t>(c.model_index)];
      stage_count_[static_cast<size_t>(ci)] = last + 1;
    }
    for (int pi = 0; pi < num_powers_; ++pi) {
      const size_t e = static_cast<size_t>(entry_index(ci, pi));
      run_profile_[e] = space.CandidateProfileLatency(c, pi);
      full_profile_[e] = space.ProfileLatency(c.model_index, pi);
      inv_run_profile_[e] = 1.0 / run_profile_[e];
      inv_full_profile_[e] = 1.0 / full_profile_[e];
      inference_power_[e] = space.InferencePower(c.model_index, pi);
    }
  }

  // Vector layer: pad the per-entry tables to the compiled lane width (padding lanes
  // replicate the row's last real entry, so a full-lane load at the row edge reads
  // finite profile data and the kernel never needs a masked tail).
  const int lanes = simd::CompiledLaneWidth();
  simd_available_ = lanes > 1 && simd::RuntimeSupported();
  simd_enabled_ = simd_available_;
  if (simd_available_) {
    padded_stride_ = ((num_powers_ + lanes - 1) / lanes) * lanes;
    const size_t padded =
        static_cast<size_t>(num_candidates_) * static_cast<size_t>(padded_stride_);
    padded_run_profile_.resize(padded);
    padded_inv_run_profile_.resize(padded);
    padded_inv_full_profile_.resize(padded);
    padded_inference_power_.resize(padded);
    for (int ci = 0; ci < num_candidates_; ++ci) {
      for (int pi = 0; pi < padded_stride_; ++pi) {
        const size_t src =
            static_cast<size_t>(entry_index(ci, std::min(pi, num_powers_ - 1)));
        const size_t dst =
            static_cast<size_t>(ci) * static_cast<size_t>(padded_stride_) +
            static_cast<size_t>(pi);
        padded_run_profile_[dst] = run_profile_[src];
        padded_inv_run_profile_[dst] = inv_run_profile_[src];
        padded_inv_full_profile_[dst] = inv_full_profile_[src];
        padded_inference_power_[dst] = inference_power_[src];
      }
    }
  }
  WarmGaussianTable();
}

void DecisionEngine::set_simd_enabled(bool enabled) {
  simd_enabled_ = enabled && simd_available_;
}

DecisionEngine::ScoringContext DecisionEngine::MakeContext(const DecisionInputs& in) {
  ScoringContext ctx;
  ctx.in = in;
  ctx.inv_sigma = in.xi.stddev > 0.0 ? 1.0 / in.xi.stddev : 0.0;
  return ctx;
}

ConfigScore DecisionEngine::ScoreEntry(int entry, const DecisionInputs& in) const {
  return ScoreEntry(entry, MakeContext(in));
}

// The hot path of every decision: per entry, two table interpolations (CDF at the
// shared z of Eq. 6 and the expected-runtime truncation, pdf once) plus multiplies —
// the per-entry divisions are precomputed into inv_*_profile_ at construction and
// 1/sigma is hoisted per scoring pass.  The degenerate (ALERT*, sigma == 0) and
// percentile (Eq. 12) variants take the reference arithmetic; a whole sigma == 0
// pass never comes here, because ScoreChunk scores its rows with ScoreEntrySigma0
// directly.
//
// The vector kernel (decision_engine_simd.cc) mirrors this function operation for
// operation — change the two together and keep the equivalence suite green.
ConfigScore DecisionEngine::ScoreEntry(int entry, const ScoringContext& ctx) const {
  const DecisionInputs& in = ctx.in;
  if (in.xi.stddev == 0.0 || in.percentile > 0.0) {
    return ScoreEntryReference(entry, in);
  }
  const size_t e = static_cast<size_t>(entry);
  const size_t c = static_cast<size_t>(entry / num_powers_);
  const double mean = in.xi.mean;
  const double inv_sigma = ctx.inv_sigma;
  const Seconds deadline = in.deadline;

  ConfigScore score;
  // Eq. 6: Pr[xi * t_prof <= deadline], z = (deadline / t_prof - mean) / sigma.
  const double z = (deadline * inv_run_profile_[e] - mean) * inv_sigma;
  score.prob_deadline = FastStandardNormalCdf(z);

  const int stages = stage_count_[c];
  if (stages == 0) {
    // Eq. 7: accuracy step function of a traditional network.
    score.expected_accuracy = score.prob_deadline * final_accuracy_[c] +
                              (1.0 - score.prob_deadline) * q_fail_[c];
  } else {
    // Eq. 13: the anytime ladder delivers the last stage completed by the deadline.
    const double d_inv_full = deadline * inv_full_profile_[e];
    const size_t offset = static_cast<size_t>(stage_offset_[c]);
    double expected = 0.0;
    double p_next = 0.0;
    for (int k = stages - 1; k >= 0; --k) {
      const double z_k =
          (d_inv_full * inv_stage_frac_[offset + static_cast<size_t>(k)] - mean) *
          inv_sigma;
      const double p_k = FastStandardNormalCdf(z_k);
      expected += stage_accuracy_[offset + static_cast<size_t>(k)] * (p_k - p_next);
      p_next = p_k;
    }
    expected += q_fail_[c] * (1.0 - p_next);
    score.expected_accuracy = expected;
  }

  // Expected run time: truncated at the deadline (kill / anytime stop) or the plain
  // mean when the caller's controller lets the run complete.  The truncation reuses
  // the Eq. 6 z: E[min(t, d)] = p*E[t | t <= d] + (1-p)*d = p*mu_t - sigma_t*phi(z)
  // + (1-p)*d.
  const double mean_t = mean * run_profile_[e];
  Seconds run = 0.0;
  if (in.stop_at_cutoff) {
    const double p_below = score.prob_deadline;
    if (p_below <= 1e-12) {
      run = deadline;
    } else {
      const double stddev_t = in.xi.stddev * run_profile_[e];
      run = std::clamp(p_below * mean_t - stddev_t * FastStandardNormalPdf(z) +
                           (1.0 - p_below) * deadline,
                       0.0, deadline);
    }
  } else {
    run = mean_t;
  }
  score.expected_latency = run;

  // Eq. 9 energy over the period (the Eq. 12 percentile variant took the reference
  // path above).
  const Watts inference_power = inference_power_[e];
  const Watts idle_power =
      in.use_idle_ratio ? in.idle_ratio * inference_power : in.fixed_idle_power;
  const Seconds idle_time = std::max(0.0, in.period - run);
  score.expected_energy = inference_power * run + idle_power * idle_time;
  return score;
}

// ALERT*'s mean-only belief (sigma == 0) turns every Gaussian tail into a step
// function and every truncated expectation into a min, and makes the Eq. 12
// percentile the mean itself.  This is the one definition of that arithmetic: the
// per-entry reference and ScoreChunk's sigma == 0 row pass both call it, so the two
// cannot drift.  Each expression must stay, operand for operand, what FastNormalCdf
// and FastExpectedRuntime compute at stddev == 0: the tests hold it bit for bit to
// the estimates.h math.  Forced inline: gcc -O2 keeps it out of line otherwise, and
// a call per entry costs the row pass most of its gain.
[[gnu::always_inline]] inline ConfigScore DecisionEngine::ScoreEntrySigma0(
    size_t e, size_t c, const DecisionInputs& in) const {
  const double mean = in.xi.mean;
  const Seconds deadline = in.deadline;
  const Seconds mean_t = mean * run_profile_[e];

  ConfigScore score;
  // Eq. 6: Pr[mean * t_prof <= deadline] is 0 or 1.
  score.prob_deadline = deadline < mean_t ? 0.0 : 1.0;

  const int stages = stage_count_[c];
  if (stages == 0) {
    // Eq. 7: accuracy step function of a traditional network.
    score.expected_accuracy = score.prob_deadline * final_accuracy_[c] +
                              (1.0 - score.prob_deadline) * q_fail_[c];
  } else {
    // Eq. 13: the anytime ladder delivers the last stage completed by the deadline.
    const Seconds full_profile = full_profile_[e];
    const size_t offset = static_cast<size_t>(stage_offset_[c]);
    double expected = 0.0;
    double p_next = 0.0;
    for (int k = stages - 1; k >= 0; --k) {
      const Seconds stage_profile = stage_frac_[offset + static_cast<size_t>(k)] *
                                    full_profile;
      const double p_k = deadline < mean * stage_profile ? 0.0 : 1.0;
      expected += stage_accuracy_[offset + static_cast<size_t>(k)] * (p_k - p_next);
      p_next = p_k;
    }
    expected += q_fail_[c] * (1.0 - p_next);
    score.expected_accuracy = expected;
  }

  // Run time: the mean, stopped at the deadline when the controller kills the run.
  const Seconds run = in.stop_at_cutoff ? std::min(mean_t, deadline) : mean_t;
  score.expected_latency = run;

  // Eq. 9 energy over the period (Eq. 12 charges the same run at sigma == 0).
  const Watts inference_power = inference_power_[e];
  const Watts idle_power =
      in.use_idle_ratio ? in.idle_ratio * inference_power : in.fixed_idle_power;
  const Seconds idle_time = std::max(0.0, in.period - run);
  score.expected_energy = inference_power * run + idle_power * idle_time;
  return score;
}

ConfigScore DecisionEngine::ScoreEntryReference(int entry,
                                                const DecisionInputs& in) const {
  const size_t e = static_cast<size_t>(entry);
  const int ci = entry / num_powers_;
  const size_t c = static_cast<size_t>(ci);
  const XiBelief& xi = in.xi;
  if (xi.stddev == 0.0) {
    return ScoreEntrySigma0(e, c, in);
  }
  const Seconds run_profile = run_profile_[e];
  const double q_fail = q_fail_[c];

  ConfigScore score;
  // Eq. 6: Pr[xi * t_prof <= deadline].
  score.prob_deadline = FastNormalCdf(in.deadline, xi.mean * run_profile,
                                      xi.stddev * run_profile);

  const int stages = stage_count_[c];
  if (stages == 0) {
    // Eq. 7: accuracy step function of a traditional network.
    score.expected_accuracy = score.prob_deadline * final_accuracy_[c] +
                              (1.0 - score.prob_deadline) * q_fail;
  } else {
    // Eq. 13: the anytime ladder delivers the last stage completed by the deadline.
    const Seconds full_profile = full_profile_[e];
    const size_t offset = static_cast<size_t>(stage_offset_[c]);
    double expected = 0.0;
    double p_next = 0.0;
    for (int k = stages - 1; k >= 0; --k) {
      const Seconds stage_profile = stage_frac_[offset + static_cast<size_t>(k)] *
                                    full_profile;
      const double p_k = FastNormalCdf(in.deadline, xi.mean * stage_profile,
                                       xi.stddev * stage_profile);
      expected += stage_accuracy_[offset + static_cast<size_t>(k)] * (p_k - p_next);
      p_next = p_k;
    }
    expected += q_fail * (1.0 - p_next);
    score.expected_accuracy = expected;
  }

  // Expected run time: truncated at the deadline (kill / anytime stop) or the plain
  // mean when the caller's controller lets the run complete.
  Seconds run = 0.0;
  if (in.stop_at_cutoff) {
    run = FastExpectedRuntime(xi, run_profile, in.deadline);
  } else {
    run = xi.mean * run_profile;
  }
  score.expected_latency = run;

  // Eq. 9 / Eq. 12 energy over the period.
  Seconds charged_run = run;
  if (in.percentile > 0.0 && xi.stddev > 0.0) {
    const double t_pct = NormalQuantile(in.percentile, xi.mean * run_profile,
                                        xi.stddev * run_profile);
    charged_run = std::max(0.0, t_pct);
    if (in.stop_at_cutoff) {
      charged_run = std::min(charged_run, in.deadline);
    }
  }
  const Watts inference_power = inference_power_[e];
  const Watts idle_power =
      in.use_idle_ratio ? in.idle_ratio * inference_power : in.fixed_idle_power;
  const Seconds idle_time = std::max(0.0, in.period - charged_run);
  score.expected_energy = inference_power * charged_run + idle_power * idle_time;
  return score;
}

internal::ScoreTables DecisionEngine::KernelTables() const {
  internal::ScoreTables t;
  t.run_profile = padded_run_profile_.data();
  t.inv_run_profile = padded_inv_run_profile_.data();
  t.inv_full_profile = padded_inv_full_profile_.data();
  t.inference_power = padded_inference_power_.data();
  t.final_accuracy = final_accuracy_.data();
  t.q_fail = q_fail_.data();
  t.stage_offset = stage_offset_.data();
  t.stage_count = stage_count_.data();
  t.inv_stage_frac = inv_stage_frac_.data();
  t.stage_accuracy = stage_accuracy_.data();
  t.padded_stride = padded_stride_;
  return t;
}

internal::ScoreParams DecisionEngine::KernelParams(const ScoringContext& ctx) {
  internal::ScoreParams p;
  p.mean = ctx.in.xi.mean;
  p.sigma = ctx.in.xi.stddev;
  p.inv_sigma = ctx.inv_sigma;
  p.deadline = ctx.in.deadline;
  p.period = ctx.in.period;
  p.idle_ratio = ctx.in.idle_ratio;
  p.fixed_idle_power = ctx.in.fixed_idle_power;
  p.use_idle_ratio = ctx.in.use_idle_ratio;
  p.stop_at_cutoff = ctx.in.stop_at_cutoff;
  return p;
}

void DecisionEngine::ScoreChunk(const ScoringContext& ctx, int ci_begin, int ci_end,
                                int width, ConfigScore* out, int out_stride) const {
  // A sigma == 0 (ALERT*) pass is tested once here, not once per entry: its rows
  // are step functions of the mean, scored in one straight-line pass of the shared
  // ScoreEntrySigma0 arithmetic whatever the percentile (Eq. 12 charges the mean run
  // at sigma == 0).
  if (ctx.in.xi.stddev == 0.0) {
    for (int ci = ci_begin; ci < ci_end; ++ci) {
      ConfigScore* row = out + static_cast<ptrdiff_t>(ci - ci_begin) * out_stride;
      for (int pi = 0; pi < width; ++pi) {
        row[pi] = ScoreEntrySigma0(static_cast<size_t>(entry_index(ci, pi)),
                                   static_cast<size_t>(ci), ctx.in);
      }
    }
    return;
  }
#if defined(ALERT_SIMD_AVX2) || defined(ALERT_SIMD_NEON)
  // Eq. 12 percentile energy stays on the scalar reference arithmetic; everything
  // else takes the lane-parallel kernel.
  if (simd_enabled_ && !(ctx.in.percentile > 0.0)) {
    internal::ScoreRowsSimd(KernelTables(), KernelParams(ctx), ci_begin, ci_end,
                            width, out, out_stride);
    return;
  }
#endif
  for (int ci = ci_begin; ci < ci_end; ++ci) {
    ConfigScore* row = out + static_cast<ptrdiff_t>(ci - ci_begin) * out_stride;
    for (int pi = 0; pi < width; ++pi) {
      row[pi] = ScoreEntry(entry_index(ci, pi), ctx);
    }
  }
}

ConfigScore DecisionEngine::Score(int candidate_index, int power_index,
                                  const DecisionInputs& in) const {
  ALERT_DCHECK(candidate_index >= 0 && candidate_index < num_candidates_);
  ALERT_DCHECK(power_index >= 0 && power_index < num_powers_);
  return ScoreEntry(entry_index(candidate_index, power_index), in);
}

ConfigScore DecisionEngine::Score(const Candidate& candidate, int power_index,
                                  const DecisionInputs& in) const {
  return Score(space_->CandidateIndex(candidate), power_index, in);
}

void DecisionEngine::ScoreAll(const DecisionInputs& in,
                              std::span<ConfigScore> out) const {
  ALERT_CHECK(static_cast<int>(out.size()) == num_entries());
  const ScoringContext ctx = MakeContext(in);
  ScoreChunk(ctx, 0, num_candidates_, num_powers_, out.data(), num_powers_);
}

int DecisionEngine::MaxAllowedPower(Watts power_limit) const {
  // Caps are ascending; index 0 always remains available so the scheduler can still
  // act under an impossible limit.
  int max_pi = num_powers_ - 1;
  while (max_pi > 0 && caps_[static_cast<size_t>(max_pi)] > power_limit + 1e-9) {
    --max_pi;
  }
  return max_pi;
}

namespace {

// Pr_th pre-filter (Eqs. 10/11) plus per-goal feasibility and objective (Eqs. 1/2)
// of one scored configuration.  Shared by the fused SelectBest stream and the
// precomputed-table SelectFromScores so the two cannot drift.
inline void ConsiderFeasible(BestConfigTracker& best, const Goals& goals,
                             Joules allowance, int ci, int pi, const ConfigScore& s) {
  if (goals.prob_threshold > 0.0 && s.prob_deadline < goals.prob_threshold) {
    return;
  }
  best.Consider(ci, pi,
                ScoreOutcome(goals, allowance, s.expected_accuracy, s.expected_energy,
                             s.expected_latency, /*deadline_ok=*/true));
}

// The latency > accuracy > power fallback hierarchy (Section 4), applied when
// nothing passes feasibility.  First secure the deadline — keep only configurations
// whose completion probability is within a small margin (0.02) of the best
// achievable.  Then, in energy-minimization mode (accuracy was the unreachable
// constraint) maximize expected accuracy; in the budget modes (the energy budget was
// unreachable — possibly a pacing deficit) spend as little as possible so the
// balance can recover.
class FallbackTracker {
 public:
  FallbackTracker(GoalMode mode, double pr_floor)
      : prefer_accuracy_(mode == GoalMode::kMinimizeEnergy), pr_floor_(pr_floor) {}

  void Consider(int ci, int pi, const ConfigScore& s) {
    if (s.prob_deadline < pr_floor_) {
      return;
    }
    const bool better =
        prefer_accuracy_
            ? (s.expected_accuracy > acc_ + 1e-12 ||
               (std::abs(s.expected_accuracy - acc_) <= 1e-12 &&
                s.expected_energy < energy_))
            : (s.expected_energy < energy_ - 1e-12 ||
               (std::abs(s.expected_energy - energy_) <= 1e-12 &&
                s.expected_accuracy > acc_));
    if (better) {
      acc_ = s.expected_accuracy;
      energy_ = s.expected_energy;
      selection_.candidate_index = ci;
      selection_.power_index = pi;
    }
  }

  bool found() const { return selection_.candidate_index >= 0; }
  DecisionEngine::Selection selection() const { return selection_; }

 private:
  bool prefer_accuracy_;
  double pr_floor_;
  double acc_ = -1.0;
  Joules energy_ = std::numeric_limits<double>::infinity();
  DecisionEngine::Selection selection_;
};

// The ALERT selection rule over a precomputed score table (SelectFromScores).
// `score_at(ci, pi)` must be valid for pi in [0, max_pi].  Feasibility (Eqs. 1/2,
// plus the optional Pr_th of Eqs. 10/11): the deadline constraint is enforced
// through the expected-accuracy step function — a config unlikely to finish in time
// cannot reach the accuracy goal, and in accuracy-maximization mode it scores a poor
// objective.  Identical decision rule to the fused SelectBest by construction (same
// ConsiderFeasible / FallbackTracker, same iteration order).
template <typename ScoreAt>
DecisionEngine::Selection SelectScored(const Goals& goals, Joules allowance,
                                       int num_candidates, int max_pi,
                                       const ScoreAt& score_at) {
  BestConfigTracker best(goals.mode, 1e-12);
  double max_pr = 0.0;
  for (int ci = 0; ci < num_candidates; ++ci) {
    for (int pi = 0; pi <= max_pi; ++pi) {
      const ConfigScore& score = score_at(ci, pi);
      max_pr = std::max(max_pr, score.prob_deadline);
      ConsiderFeasible(best, goals, allowance, ci, pi, score);
    }
  }
  if (best.found()) {
    return DecisionEngine::Selection{best.candidate_index(), best.power_index(), true};
  }

  FallbackTracker fallback(goals.mode, max_pr - 0.02);
  for (int ci = 0; ci < num_candidates; ++ci) {
    for (int pi = 0; pi <= max_pi; ++pi) {
      fallback.Consider(ci, pi, score_at(ci, pi));
    }
  }
  ALERT_CHECK(fallback.found());
  return fallback.selection();
}

}  // namespace

DecisionEngine::Selection DecisionEngine::SelectBest(
    const Goals& goals, Joules allowance, const DecisionInputs& in, Watts power_limit,
    SelectScratch& scratch) const {
  const ScoringContext ctx = MakeContext(in);
  // Externally capped (shared package budget): only power indices up to the hoisted
  // bound are scored at all.
  const int max_pi = MaxAllowedPower(power_limit);
  const int width = max_pi + 1;
  const int rows_per_chunk = std::max(1, kSelectChunkEntries / width);
  scratch.chunk.resize(static_cast<size_t>(rows_per_chunk) *
                       static_cast<size_t>(width));
  ConfigScore* chunk = scratch.chunk.data();

  // Fused score+select: each cache-resident chunk of rows is scored (vector kernel
  // when active) and immediately folded into the feasibility tracker, so the full
  // score table never exists.  max_pr is collected in the same sweep for the
  // fallback floor.
  BestConfigTracker best(goals.mode, 1e-12);
  double max_pr = 0.0;
  for (int ci0 = 0; ci0 < num_candidates_; ci0 += rows_per_chunk) {
    const int rows = std::min(rows_per_chunk, num_candidates_ - ci0);
    ScoreChunk(ctx, ci0, ci0 + rows, width, chunk, width);
    for (int r = 0; r < rows; ++r) {
      const ConfigScore* row = chunk + static_cast<ptrdiff_t>(r) * width;
      for (int pi = 0; pi < width; ++pi) {
        max_pr = std::max(max_pr, row[pi].prob_deadline);
        ConsiderFeasible(best, goals, allowance, ci0 + r, pi, row[pi]);
      }
    }
  }
  if (best.found()) {
    return Selection{best.candidate_index(), best.power_index(), true};
  }

  // Nothing feasible: stream the chunks once more under the now-known completion-
  // probability floor.  Scoring is deterministic, so the rescore is bit-identical
  // and the pick matches the historical materialize-then-scan implementation.
  FallbackTracker fallback(goals.mode, max_pr - 0.02);
  for (int ci0 = 0; ci0 < num_candidates_; ci0 += rows_per_chunk) {
    const int rows = std::min(rows_per_chunk, num_candidates_ - ci0);
    ScoreChunk(ctx, ci0, ci0 + rows, width, chunk, width);
    for (int r = 0; r < rows; ++r) {
      const ConfigScore* row = chunk + static_cast<ptrdiff_t>(r) * width;
      for (int pi = 0; pi < width; ++pi) {
        fallback.Consider(ci0 + r, pi, row[pi]);
      }
    }
  }
  ALERT_CHECK(fallback.found());
  return fallback.selection();
}

namespace {

bool SameInputs(const DecisionInputs& a, const DecisionInputs& b) {
  return a.xi.mean == b.xi.mean && a.xi.stddev == b.xi.stddev &&
         a.deadline == b.deadline && a.period == b.period &&
         a.use_idle_ratio == b.use_idle_ratio && a.idle_ratio == b.idle_ratio &&
         a.fixed_idle_power == b.fixed_idle_power && a.percentile == b.percentile &&
         a.stop_at_cutoff == b.stop_at_cutoff;
}

}  // namespace

void DecisionEngine::ScoreBatch(std::span<const DecisionInputs> inputs,
                                std::span<ConfigScore> out) const {
  const size_t entries = static_cast<size_t>(num_entries());
  const size_t jobs = inputs.size();
  ALERT_CHECK(out.size() == jobs * entries);
  // One linear pass over the SoA tables per *distinct* belief snapshot: replica jobs
  // that share a belief (cold start, converged fleets, identical goals) are scored
  // once and copied — the copy is bit-identical to rescoring by construction.
  for (size_t j = 0; j < jobs; ++j) {
    std::span<ConfigScore> row = out.subspan(j * entries, entries);
    size_t twin = j;
    for (size_t i = 0; i < j; ++i) {
      if (SameInputs(inputs[i], inputs[j])) {
        twin = i;
        break;
      }
    }
    if (twin != j) {
      std::span<const ConfigScore> src = out.subspan(twin * entries, entries);
      std::copy(src.begin(), src.end(), row.begin());
      continue;
    }
    const ScoringContext ctx = MakeContext(inputs[j]);
    ScoreChunk(ctx, 0, num_candidates_, num_powers_, row.data(), num_powers_);
  }
}

DecisionEngine::Selection DecisionEngine::SelectFromScores(
    const Goals& goals, Joules allowance, std::span<const ConfigScore> scores,
    Watts power_limit) const {
  ALERT_CHECK(static_cast<int>(scores.size()) == num_entries());
  const int num_powers = num_powers_;
  return SelectScored(goals, allowance, num_candidates_, MaxAllowedPower(power_limit),
                      [scores, num_powers](int ci, int pi) -> const ConfigScore& {
                        return scores[static_cast<size_t>(ci * num_powers + pi)];
                      });
}

void DecisionEngine::SelectBestBatch(std::span<const DecisionInputs> inputs,
                                     std::span<const Goals> goals,
                                     std::span<const Joules> allowances,
                                     std::span<const Watts> limits,
                                     std::span<Selection> out,
                                     std::vector<ConfigScore>& scratch) const {
  const size_t jobs = inputs.size();
  ALERT_CHECK(goals.size() == jobs && allowances.size() == jobs &&
              limits.size() == jobs && out.size() == jobs);
  const size_t entries = static_cast<size_t>(num_entries());
  scratch.resize(jobs * entries);
  ScoreBatch(inputs, scratch);
  for (size_t j = 0; j < jobs; ++j) {
    out[j] = SelectFromScores(goals[j], allowances[j],
                              std::span<const ConfigScore>(scratch).subspan(
                                  j * entries, entries),
                              limits[j]);
  }
}

int DecisionEngine::MinEnergyPower(int candidate_index, const DecisionInputs& in) const {
  ALERT_DCHECK(candidate_index >= 0 && candidate_index < num_candidates_);
  // With stop_at_cutoff the latency estimate is truncated at the deadline, which would
  // make the deadline filter below vacuous — callers must score the untruncated mean.
  ALERT_DCHECK(!in.stop_at_cutoff);
  int best_power = -1;
  Joules best_energy = std::numeric_limits<double>::infinity();
  for (int pi = 0; pi < num_powers_; ++pi) {
    const ConfigScore score = ScoreEntry(entry_index(candidate_index, pi), in);
    if (score.expected_latency > in.deadline) {
      continue;
    }
    if (score.expected_energy < best_energy) {
      best_energy = score.expected_energy;
      best_power = pi;
    }
  }
  return best_power;
}

}  // namespace alert
