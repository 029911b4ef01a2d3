// Internal contract between DecisionEngine and its vectorized scoring kernel
// (src/core/decision_engine_simd.cc, compiled with the backend's architecture
// flags — see the dispatch contract in src/common/simd.h).
//
// The engine hands the kernel raw views of its SoA profile tables plus the
// per-pass belief constants, and the kernel scores a rectangle of rows
// [ci_begin, ci_end) x powers [0, width).  Calls must be gated on
// alert::simd::RuntimeSupported() and must not carry an Eq. 12 percentile pass with
// sigma > 0 — that one branch keeps the scalar reference arithmetic in
// decision_engine.cc.
#ifndef SRC_CORE_DECISION_ENGINE_SIMD_H_
#define SRC_CORE_DECISION_ENGINE_SIMD_H_

#include "src/core/decision_engine.h"

namespace alert::internal {

// The most anytime stages one candidate may have: the kernel caches a model's stage
// CDFs in a stack array of this many vectors.  The engine checks it at construction.
inline constexpr int kMaxLadderStages = 8;

// Raw views into the engine's vector-padded SoA tables.  The five per-entry arrays
// use `padded_stride` doubles per candidate row (padding lanes replicate the row's
// last real entry, so reading them is always safe); the per-candidate and ladder
// arrays are shared with the scalar path.
struct ScoreTables {
  const double* run_profile = nullptr;       // padded per-entry
  const double* inv_run_profile = nullptr;   // padded per-entry
  const double* full_profile = nullptr;      // padded per-entry
  const double* inv_full_profile = nullptr;  // padded per-entry
  const double* inference_power = nullptr;   // padded per-entry
  const double* final_accuracy = nullptr;    // per candidate
  const double* q_fail = nullptr;            // per candidate
  const int* stage_offset = nullptr;         // per candidate
  const int* stage_count = nullptr;          // per candidate
  const double* stage_frac = nullptr;        // flattened anytime ladders
  const double* inv_stage_frac = nullptr;
  const double* stage_accuracy = nullptr;
  int padded_stride = 0;
};

// The per-pass constants of DecisionEngine::ScoringContext, flattened.
struct ScoreParams {
  double mean = 0.0;
  double sigma = 0.0;
  double inv_sigma = 0.0;
  double deadline = 0.0;
  double period = 0.0;
  double idle_ratio = 0.0;
  double fixed_idle_power = 0.0;
  bool use_idle_ratio = false;
  bool stop_at_cutoff = false;
};

#if defined(ALERT_SIMD_AVX2) || defined(ALERT_SIMD_NEON)
// Scores entries (ci, pi) for ci in [ci_begin, ci_end), pi in [0, width) into
// out[(ci - ci_begin) * out_stride + pi].  Performs the same IEEE-754 operations in
// the same order as the scalar DecisionEngine::ScoreEntry fast path (sigma > 0) or
// DecisionEngine::ScoreEntrySigma0 (sigma == 0) — no FMA contraction, same
// memoized-table lookups, same comparisons — so results match the scalar reference
// lane for lane.
void ScoreRowsSimd(const ScoreTables& tables, const ScoreParams& params, int ci_begin,
                   int ci_end, int width, ConfigScore* out, int out_stride);
#endif

}  // namespace alert::internal

#endif  // SRC_CORE_DECISION_ENGINE_SIMD_H_
