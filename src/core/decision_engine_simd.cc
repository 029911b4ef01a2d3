// The vectorized score kernel: Eqs. 6/7/9/13 over lanes of power indices within one
// candidate row, for a Gaussian belief (sigma > 0) and for ALERT*'s mean-only belief
// (sigma == 0), feeding each scored lane group to a sink — one that stores it
// (ScoreRowsSimd) or one that runs ALERT's feasible selection pass on it
// (SelectRowsSimd).  Compiled with the backend's architecture flags; empty in scalar
// builds.
//
// Equivalence discipline: the sigma > 0 pass mirrors DecisionEngine::ScoreEntry (the
// scalar fast path) and the sigma == 0 pass mirrors DecisionEngine::ScoreEntrySigma0,
// operation for operation — same multiply/add/sub order, no FMA, the same memoized
// Gaussian table, the same comparisons and boundary blends — so a lane here and the
// scalar call produce the same bits for the same entry.  The selecting sink drops
// only lane groups none of whose entries could change the scalar tracker, and sends
// every other group's entries through the scalar ConsiderFeasible in the scalar
// visit order, so it picks what the scalar pass picks.  Change the scalar arithmetic
// or rule and this kernel together, and keep tests/core/simd_equivalence_test.cc
// green.
#include "src/core/decision_engine_simd.h"

#if defined(ALERT_SIMD_AVX2) || defined(ALERT_SIMD_NEON)

#include <algorithm>
#include <cstddef>

#include "src/common/gaussian.h"
#include "src/common/gaussian_vec.h"
#include "src/common/simd_vec.h"

namespace alert::internal {
namespace {

using simd::VecD;
using simd::VecM;

static_assert(sizeof(ConfigScore) == 4 * sizeof(double),
              "the kernel stores ConfigScore as four packed doubles");

// The scalar `deadline < x ? 0.0 : 1.0` step, lane for lane (CmpLt is false in a NaN
// lane, exactly like the scalar `<`).
inline VecD StepBelow(VecD deadline, VecD x, VecD zero, VecD one) {
  return simd::Select(simd::CmpLt(deadline, x), zero, one);
}

// The per-pass constants, broadcast once.
struct PassConstants {
  explicit PassConstants(const ScoreParams& params)
      : table(GetGaussianTableView()), zero(simd::Broadcast(0.0)),
        one(simd::Broadcast(1.0)), mean(simd::Broadcast(params.mean)),
        sigma(simd::Broadcast(params.sigma)),
        inv_sigma(simd::Broadcast(params.inv_sigma)),
        deadline(simd::Broadcast(params.deadline)),
        period(simd::Broadcast(params.period)), p_floor(simd::Broadcast(1e-12)),
        params(params) {}
  GaussianTableView table;
  VecD zero, one, mean, sigma, inv_sigma, deadline, period, p_floor;
  const ScoreParams& params;
};

// One scored lane group: entries (ci, pv + j) for j in [0, valid).
struct LaneScores {
  VecD prob, acc, energy, latency;
};

// Eq. 6 over one lane group of entries.  At sigma > 0: z = (deadline / t_prof - mean)
// / sigma, CDF and PDF at the shared z from one table-index computation.  At
// sigma == 0: the step Pr[mean * t_prof <= deadline] (no PDF).
template <bool kSigma0>
inline void CompletionProb(const PassConstants& pass, const ScoreTables& t, int base,
                           VecD mean_t, VecD* prob, VecD* pdf) {
  if constexpr (kSigma0) {
    *prob = StepBelow(pass.deadline, mean_t, pass.zero, pass.one);
    *pdf = pass.zero;
  } else {
    const VecD inv_run = simd::Load(t.inv_run_profile + base);
    const VecD z = simd::Mul(simd::Sub(simd::Mul(pass.deadline, inv_run), pass.mean),
                             pass.inv_sigma);
    simd::FastCdfPdfVec(z, pass.table, prob, pdf);
  }
}

// Run time and Eq. 9 energy of one lane group.  Run time at sigma > 0:
// E[min(t, d)] = p*mu_t - sigma_t*phi(z) + (1-p)*d, clamped to [0, deadline], and
// lanes with negligible completion mass pin to the deadline; at sigma == 0:
// min(mean_t, deadline).  Either way the plain mean when the controller lets the run
// complete.  Eq. 12 charges the same run at sigma == 0.
template <bool kSigma0>
inline LaneScores Finish(const PassConstants& pass, const ScoreTables& t, int base,
                         VecD run_profile, VecD mean_t, VecD prob, VecD pdf, VecD acc) {
  VecD run = mean_t;
  if (pass.params.stop_at_cutoff) {
    if constexpr (kSigma0) {
      run = simd::Select(simd::CmpLt(pass.deadline, mean_t), pass.deadline, mean_t);
    } else {
      const VecD stddev_t = simd::Mul(pass.sigma, run_profile);
      VecD value = simd::Add(
          simd::Sub(simd::Mul(prob, mean_t), simd::Mul(stddev_t, pdf)),
          simd::Mul(simd::Sub(pass.one, prob), pass.deadline));
      value = simd::Min(simd::Max(value, pass.zero), pass.deadline);
      run = simd::Select(simd::CmpLe(prob, pass.p_floor), pass.deadline, value);
    }
  }
  const VecD inference_power = simd::Load(t.inference_power + base);
  const VecD idle_power =
      pass.params.use_idle_ratio
          ? simd::Mul(simd::Broadcast(pass.params.idle_ratio), inference_power)
          : simd::Broadcast(pass.params.fixed_idle_power);
  const VecD slack = simd::Sub(pass.period, run);
  const VecD idle_time =
      kSigma0 ? simd::Select(simd::CmpLt(pass.zero, slack), slack, pass.zero)
              : simd::Max(pass.zero, slack);
  const VecD energy = simd::Add(simd::Mul(inference_power, run),
                                simd::Mul(idle_power, idle_time));
  return LaneScores{prob, acc, energy, run};
}

// Scores rows [ci_begin, ci_end) x powers [0, width) and hands every lane group to
// `sink(ci, pv, valid, scores)` in the scalar visit order: candidate, then power
// ascending.  `sink.SkipRow(ci)`, asked before a row is scored, lets the sink drop a
// row none of whose entries it needs.
template <bool kSigma0, typename Sink>
void ScoreRows(const ScoreTables& t, const PassConstants& pass, int ci_begin,
               int ci_end, int width, Sink& sink) {
  const int groups = (width + simd::kLanes - 1) / simd::kLanes;
  for (int run_begin = ci_begin; run_begin < ci_end;) {
    if (t.stage_count[run_begin] == 0) {
      // A traditional candidate: Eq. 7's step function, row by row.
      if (!sink.SkipRow(run_begin)) {
        const int row = run_begin * t.padded_stride;
        const VecD final_accuracy = simd::Broadcast(t.final_accuracy[run_begin]);
        const VecD q_fail = simd::Broadcast(t.q_fail[run_begin]);
        for (int pv = 0; pv < width; pv += simd::kLanes) {
          const int base = row + pv;
          const VecD run_profile = simd::Load(t.run_profile + base);
          const VecD mean_t = simd::Mul(pass.mean, run_profile);
          VecD prob, pdf;
          CompletionProb<kSigma0>(pass, t, base, mean_t, &prob, &pdf);
          const VecD acc = simd::Add(simd::Mul(prob, final_accuracy),
                                     simd::Mul(simd::Sub(pass.one, prob), q_fail));
          sink(run_begin, pv, std::min(simd::kLanes, width - pv),
               Finish<kSigma0>(pass, t, base, run_profile, mean_t, prob, pdf, acc));
        }
      }
      ++run_begin;
      continue;
    }

    // A run of consecutive candidates sharing one anytime ladder: one model's
    // stage-limited candidates (same ladder offset).  Eq. 13's stage CDF p_k depends
    // only on the model's full-network profile, the stage and the belief, so the run
    // computes each p_k once per lane group, into a cache that grows as the
    // candidates' stage limits do; every candidate sums its own ladder from the
    // cached values in the scalar k order.  The cache holds every lane group of the
    // row, so the run is visited candidate-major, in the scalar order.
    const int offset = t.stage_offset[run_begin];
    int run_end = run_begin + 1;
    while (run_end < ci_end && t.stage_count[run_end] > 0 &&
           t.stage_offset[run_end] == offset) {
      ++run_end;
    }
    VecD ladder[kMaxLadderGroups][kMaxLadderStages];
    int ladder_size = 0;
    for (int ci = run_begin; ci < run_end; ++ci) {
      if (sink.SkipRow(ci)) {
        continue;
      }
      const int stages = t.stage_count[ci];
      if (stages > ladder_size) {
        for (int g = 0; g < groups; ++g) {
          const int full_base = run_begin * t.padded_stride + g * simd::kLanes;
          // full_profile (sigma == 0) or deadline / full_profile (sigma > 0).
          const VecD full_term =
              kSigma0 ? simd::Load(t.full_profile + full_base)
                      : simd::Mul(pass.deadline,
                                  simd::Load(t.inv_full_profile + full_base));
          for (int k = ladder_size; k < stages; ++k) {
            const int s = offset + k;
            if constexpr (kSigma0) {
              const VecD stage_profile =
                  simd::Mul(simd::Broadcast(t.stage_frac[s]), full_term);
              ladder[g][k] = StepBelow(pass.deadline,
                                       simd::Mul(pass.mean, stage_profile), pass.zero,
                                       pass.one);
            } else {
              const VecD z_s = simd::Mul(
                  simd::Sub(simd::Mul(full_term, simd::Broadcast(t.inv_stage_frac[s])),
                            pass.mean),
                  pass.inv_sigma);
              ladder[g][k] = simd::FastCdfVec(z_s, pass.table);
            }
          }
        }
        ladder_size = stages;
      }
      const int row = ci * t.padded_stride;
      const VecD q_fail = simd::Broadcast(t.q_fail[ci]);
      for (int g = 0; g < groups; ++g) {
        const int pv = g * simd::kLanes;
        const int base = row + pv;
        const VecD run_profile = simd::Load(t.run_profile + base);
        const VecD mean_t = simd::Mul(pass.mean, run_profile);
        VecD prob, pdf;
        CompletionProb<kSigma0>(pass, t, base, mean_t, &prob, &pdf);
        VecD expected = pass.zero;
        VecD p_next = pass.zero;
        for (int s = stages - 1; s >= 0; --s) {
          expected = simd::Add(
              expected, simd::Mul(simd::Broadcast(t.stage_accuracy[offset + s]),
                                  simd::Sub(ladder[g][s], p_next)));
          p_next = ladder[g][s];
        }
        const VecD acc =
            simd::Add(expected, simd::Mul(q_fail, simd::Sub(pass.one, p_next)));
        sink(ci, pv, std::min(simd::kLanes, width - pv),
             Finish<kSigma0>(pass, t, base, run_profile, mean_t, prob, pdf, acc));
      }
    }
    run_begin = run_end;
  }
}

// Writes `valid` entries' (prob, acc, energy, latency) lanes into the AoS output.
struct StoreSink {
  ConfigScore* out;
  int ci_begin;
  int out_stride;

  bool SkipRow(int /*ci*/) const { return false; }
  void operator()(int ci, int pv, int valid, const LaneScores& s) const {
    double p[simd::kLanes], a[simd::kLanes], e[simd::kLanes], l[simd::kLanes];
    simd::Store(p, s.prob);
    simd::Store(a, s.acc);
    simd::Store(e, s.energy);
    simd::Store(l, s.latency);
    ConfigScore* dst = out + static_cast<ptrdiff_t>(ci - ci_begin) * out_stride + pv;
    for (int j = 0; j < valid; ++j) {
      dst[j] = ConfigScore{p[j], a[j], e[j], l[j]};
    }
  }
};

// SelectBest's feasible pass over the scored lane groups.  The scalar pass visits
// every entry: max_pr = std::max(max_pr, prob), then ConsiderFeasible.  Here max_pr
// is lane-wise, updated by a strict-greater select (std::max's rule) and reduced in
// lane order at the end — the same value.  A lane is dropped when its entry cannot
// change the tracker: under Pr_th, infeasible, or worse than the current best by more
// than the tracker's 1e-12.  The compares are ordered, so a NaN lane is never
// dropped.  A group with any kept lane sends all of its valid lanes through the
// scalar ConsiderFeasible in power order: ε-ties make the tracker order-dependent,
// and a tie-broken win can move the best's objective by up to 1e-12 within the
// group.  A group with none changes nothing, so the tracker the next group sees is
// the scalar one.
template <GoalMode kMode>
class SelectSink {
 public:
  SelectSink(const ScoreTables& t, const Goals& goals, Joules allowance, int width)
      : t_(t), goals_(goals), allowance_(allowance),
        has_threshold_(goals.prob_threshold > 0.0),
        threshold_(simd::Broadcast(goals.prob_threshold)),
        accuracy_goal_(simd::Broadcast(goals.accuracy_goal)),
        energy_allowance_(simd::Broadcast(allowance)),
        epsilon_(simd::Broadcast(1e-12)), neg_epsilon_(simd::Broadcast(-1e-12)),
        zero_(simd::Broadcast(0.0)), max_pr_(zero_),
        tail_(simd::FirstLanes(width % simd::kLanes)) {}

  // Rows whose accuracy bound rules them out (RowBelowAccuracy): in the
  // accuracy-goal modes no entry is feasible; in kMaximizeAccuracy none can beat
  // the best so far.
  bool SkipRow(int ci) {
    bool skip = false;
    if constexpr (kMode == GoalMode::kMaximizeAccuracy) {
      skip = best_.found() && RowBelowAccuracy(t_.accuracy_bound[ci], best_.objective());
    } else {
      skip = RowBelowAccuracy(t_.accuracy_bound[ci], goals_.accuracy_goal);
    }
    skipped_rows_ = skipped_rows_ || skip;
    return skip;
  }

  // Forced inline, with the rare scalar visit kept out of line, so the per-group
  // filter stays in the score loop.
  [[gnu::always_inline]] void operator()(int ci, int pv, int valid,
                                         const LaneScores& s) {
    const VecD pr = valid < simd::kLanes ? simd::Select(tail_, s.prob, zero_) : s.prob;
    max_pr_ = simd::Select(simd::CmpLt(max_pr_, pr), pr, max_pr_);

    VecM drop = Infeasible(s);
    if (has_threshold_) {
      drop = simd::Or(drop, simd::CmpLt(s.prob, threshold_));
    }
    if (best_.found()) {
      const VecD best = simd::Broadcast(best_.objective());
      if constexpr (kMode == GoalMode::kMaximizeAccuracy) {
        drop = simd::Or(drop, simd::CmpLt(simd::Sub(s.acc, best), neg_epsilon_));
      } else {
        const VecD objective =
            kMode == GoalMode::kMinimizeEnergy ? s.energy : s.latency;
        drop = simd::Or(drop, simd::CmpLt(epsilon_, simd::Sub(objective, best)));
      }
    }
    const int valid_bits = (1 << valid) - 1;
    if ((valid_bits & ~simd::MoveMask(drop)) != 0) {
      ConsiderGroup(ci, pv, valid, s);
    }
  }

  [[gnu::noinline]] void ConsiderGroup(int ci, int pv, int valid, const LaneScores& s) {
    double p[simd::kLanes], a[simd::kLanes], e[simd::kLanes], l[simd::kLanes];
    simd::Store(p, s.prob);
    simd::Store(a, s.acc);
    simd::Store(e, s.energy);
    simd::Store(l, s.latency);
    for (int j = 0; j < valid; ++j) {
      ConsiderFeasible<kMode>(best_, goals_, allowance_, ci, pv + j,
                              ConfigScore{p[j], a[j], e[j], l[j]});
    }
  }

  SelectPass Result() const {
    SelectPass out;
    out.candidate_index = best_.candidate_index();
    out.power_index = best_.power_index();
    out.skipped_rows = skipped_rows_;
    double lanes[simd::kLanes];
    simd::Store(lanes, max_pr_);
    for (const double pr : lanes) {
      out.max_pr = out.max_pr < pr ? pr : out.max_pr;
    }
    return out;
  }

 private:
  // Lanes that certainly fail ScoreOutcomeFor<kMode>'s constraint.
  VecM Infeasible(const LaneScores& s) const {
    if constexpr (kMode == GoalMode::kMinimizeEnergy) {
      return simd::CmpLt(s.acc, accuracy_goal_);
    } else if constexpr (kMode == GoalMode::kMaximizeAccuracy) {
      return simd::CmpLt(energy_allowance_, s.energy);
    } else {
      return simd::Or(simd::CmpLt(s.acc, accuracy_goal_),
                      simd::CmpLt(energy_allowance_, s.energy));
    }
  }

  const ScoreTables& t_;
  const Goals& goals_;
  Joules allowance_;
  bool has_threshold_;
  VecD threshold_, accuracy_goal_, energy_allowance_, epsilon_, neg_epsilon_, zero_;
  VecD max_pr_;
  VecM tail_;  // the valid lanes of a row's last, partial group
  BestConfigTracker best_{kMode, 1e-12};
  bool skipped_rows_ = false;
};

template <bool kSigma0>
SelectPass SelectRowsFor(const ScoreTables& t, const ScoreParams& params,
                         const Goals& goals, Joules allowance, int num_candidates,
                         int width) {
  const PassConstants pass(params);
  return WithGoalMode(goals.mode, [&]<GoalMode kMode>() {
    SelectSink<kMode> sink(t, goals, allowance, width);
    ScoreRows<kSigma0>(t, pass, 0, num_candidates, width, sink);
    return sink.Result();
  });
}

}  // namespace

void ScoreRowsSimd(const ScoreTables& tables, const ScoreParams& params, int ci_begin,
                   int ci_end, int width, ConfigScore* out, int out_stride) {
  const PassConstants pass(params);
  StoreSink sink{out, ci_begin, out_stride};
  if (params.sigma == 0.0) {
    ScoreRows<true>(tables, pass, ci_begin, ci_end, width, sink);
  } else {
    ScoreRows<false>(tables, pass, ci_begin, ci_end, width, sink);
  }
}

SelectPass SelectRowsSimd(const ScoreTables& tables, const ScoreParams& params,
                          const Goals& goals, Joules allowance, int num_candidates,
                          int width) {
  if (params.sigma == 0.0) {
    return SelectRowsFor<true>(tables, params, goals, allowance, num_candidates, width);
  }
  return SelectRowsFor<false>(tables, params, goals, allowance, num_candidates, width);
}

}  // namespace alert::internal

#endif  // ALERT_SIMD_AVX2 || ALERT_SIMD_NEON
