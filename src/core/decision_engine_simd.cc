// The vectorized score kernel: Eqs. 6/7/9/13 over lanes of power indices within one
// candidate row, for a Gaussian belief (sigma > 0) and for ALERT*'s mean-only belief
// (sigma == 0).  Compiled with the backend's architecture flags; empty in scalar
// builds.
//
// Equivalence discipline: the sigma > 0 pass mirrors DecisionEngine::ScoreEntry (the
// scalar fast path) and the sigma == 0 pass mirrors DecisionEngine::ScoreEntrySigma0,
// operation for operation — same multiply/add/sub order, no FMA, the same memoized
// Gaussian table, the same comparisons and boundary blends — so a lane here and the
// scalar call produce the same bits for the same entry.  Change the scalar arithmetic
// and this kernel together, and keep tests/core/simd_equivalence_test.cc green.
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

// Writes `valid` entries' (prob, acc, energy, latency) lanes into the AoS output.
inline void StoreScores(ConfigScore* out, int valid, VecD prob, VecD acc, VecD energy,
                        VecD latency) {
  double p[simd::kLanes], a[simd::kLanes], e[simd::kLanes], l[simd::kLanes];
  simd::Store(p, prob);
  simd::Store(a, acc);
  simd::Store(e, energy);
  simd::Store(l, latency);
  for (int j = 0; j < valid; ++j) {
    out[j].prob_deadline = p[j];
    out[j].expected_accuracy = a[j];
    out[j].expected_energy = e[j];
    out[j].expected_latency = l[j];
  }
}

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

// Run time and Eq. 9 energy of one lane group, then the store.  Run time at
// sigma > 0: E[min(t, d)] = p*mu_t - sigma_t*phi(z) + (1-p)*d, clamped to
// [0, deadline], and lanes with negligible completion mass pin to the deadline; at
// sigma == 0: min(mean_t, deadline).  Either way the plain mean when the controller
// lets the run complete.  Eq. 12 charges the same run at sigma == 0.
template <bool kSigma0>
inline void FinishAndStore(const PassConstants& pass, const ScoreTables& t, int base,
                           VecD run_profile, VecD mean_t, VecD prob, VecD pdf,
                           VecD acc, ConfigScore* out, int valid) {
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
  StoreScores(out, valid, prob, acc, energy, run);
}

template <bool kSigma0>
void ScoreRows(const ScoreTables& t, const ScoreParams& params, int ci_begin,
               int ci_end, int width, ConfigScore* out, int out_stride) {
  const PassConstants pass(params);
  for (int run_begin = ci_begin; run_begin < ci_end;) {
    ConfigScore* out_begin =
        out + static_cast<ptrdiff_t>(run_begin - ci_begin) * out_stride;
    if (t.stage_count[run_begin] == 0) {
      // A traditional candidate: Eq. 7's step function, row by row.
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
        FinishAndStore<kSigma0>(pass, t, base, run_profile, mean_t, prob, pdf, acc,
                                out_begin + pv, std::min(simd::kLanes, width - pv));
      }
      ++run_begin;
      continue;
    }

    // A run of consecutive candidates sharing one anytime ladder: one model's
    // stage-limited candidates (same ladder offset).  Eq. 13's stage CDF p_k depends
    // only on the model's full-network profile, the stage and the belief, so the run
    // computes each p_k once per lane group, extending the ladder as the candidates'
    // stage limits grow; every candidate sums its own ladder from the cached values
    // in the scalar k order.
    const int offset = t.stage_offset[run_begin];
    int run_end = run_begin + 1;
    while (run_end < ci_end && t.stage_count[run_end] > 0 &&
           t.stage_offset[run_end] == offset) {
      ++run_end;
    }
    for (int pv = 0; pv < width; pv += simd::kLanes) {
      const int full_base = run_begin * t.padded_stride + pv;
      // full_profile (sigma == 0) or deadline / full_profile (sigma > 0).
      const VecD full_term =
          kSigma0
              ? simd::Load(t.full_profile + full_base)
              : simd::Mul(pass.deadline, simd::Load(t.inv_full_profile + full_base));
      VecD ladder[kMaxLadderStages];
      int ladder_size = 0;
      for (int ci = run_begin; ci < run_end; ++ci) {
        const int base = ci * t.padded_stride + pv;
        const int stages = t.stage_count[ci];
        for (; ladder_size < stages; ++ladder_size) {
          const int s = offset + ladder_size;
          if constexpr (kSigma0) {
            const VecD stage_profile =
                simd::Mul(simd::Broadcast(t.stage_frac[s]), full_term);
            ladder[ladder_size] = StepBelow(pass.deadline,
                                            simd::Mul(pass.mean, stage_profile),
                                            pass.zero, pass.one);
          } else {
            const VecD z_s = simd::Mul(
                simd::Sub(simd::Mul(full_term, simd::Broadcast(t.inv_stage_frac[s])),
                          pass.mean),
                pass.inv_sigma);
            ladder[ladder_size] = simd::FastCdfVec(z_s, pass.table);
          }
        }
        const VecD run_profile = simd::Load(t.run_profile + base);
        const VecD mean_t = simd::Mul(pass.mean, run_profile);
        VecD prob, pdf;
        CompletionProb<kSigma0>(pass, t, base, mean_t, &prob, &pdf);
        VecD expected = pass.zero;
        VecD p_next = pass.zero;
        for (int s = stages - 1; s >= 0; --s) {
          expected = simd::Add(
              expected, simd::Mul(simd::Broadcast(t.stage_accuracy[offset + s]),
                                  simd::Sub(ladder[s], p_next)));
          p_next = ladder[s];
        }
        const VecD acc = simd::Add(
            expected,
            simd::Mul(simd::Broadcast(t.q_fail[ci]), simd::Sub(pass.one, p_next)));
        FinishAndStore<kSigma0>(
            pass, t, base, run_profile, mean_t, prob, pdf, acc,
            out_begin + static_cast<ptrdiff_t>(ci - run_begin) * out_stride + pv,
            std::min(simd::kLanes, width - pv));
      }
    }
    run_begin = run_end;
  }
}

}  // namespace

void ScoreRowsSimd(const ScoreTables& tables, const ScoreParams& params, int ci_begin,
                   int ci_end, int width, ConfigScore* out, int out_stride) {
  if (params.sigma == 0.0) {
    ScoreRows<true>(tables, params, ci_begin, ci_end, width, out, out_stride);
  } else {
    ScoreRows<false>(tables, params, ci_begin, ci_end, width, out, out_stride);
  }
}

}  // namespace alert::internal

#endif  // ALERT_SIMD_AVX2 || ALERT_SIMD_NEON
