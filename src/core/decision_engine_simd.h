// Internal contract between DecisionEngine and its vectorized kernel
// (src/core/decision_engine_simd.cc, compiled with the backend's architecture
// flags — see the dispatch contract in src/common/simd.h).
//
// The engine hands the kernel raw views of its SoA profile tables plus the
// per-pass belief constants.  The kernel walks a rectangle of rows
// [ci_begin, ci_end) x powers [0, width) one lane group at a time, in the scalar
// visit order (candidate, then power ascending), and hands every scored group to a
// sink: `ScoreRowsSimd` stores it (ScoreAll / ScoreBatch), `SelectRowsSimd` folds it
// into ALERT's selection (SelectBest's first pass) without storing it.  Calls must
// be gated on alert::simd::RuntimeSupported() and must not carry an Eq. 12
// percentile pass with sigma > 0 — that one branch keeps the scalar reference
// arithmetic in decision_engine.cc.
//
// The selection helpers below are shared by the scalar SelectBest and the kernel's
// selecting sink, so both apply one rule.
#ifndef SRC_CORE_DECISION_ENGINE_SIMD_H_
#define SRC_CORE_DECISION_ENGINE_SIMD_H_

#include "src/core/decision_engine.h"

namespace alert::internal {

// The most anytime stages one candidate may have: the kernel caches a model's stage
// CDFs in a stack array of this many vectors per lane group.  The engine checks it
// at construction.
inline constexpr int kMaxLadderStages = 8;
// The most lane groups one row may have: the ladder cache holds one set of stage
// CDFs per lane group, so an anytime run can be visited candidate-major.  Every
// platform fits at 2 lanes (NEON): the GPU's 35 power settings make 18 groups.  The
// engine checks it at construction.
inline constexpr int kMaxLadderGroups = 18;

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
  const double* accuracy_bound = nullptr;    // per candidate, see RowBelowAccuracy
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

// Pr_th pre-filter (Eqs. 10/11) plus per-goal feasibility and objective (Eqs. 1/2)
// of one scored configuration, for a goal mode resolved once per selection.  Forced
// inline, as are the tracker and goal rules it calls: the -mavx2 kernel TU calls it
// too, and an out-of-line copy compiled there could be the one the linker keeps for
// the scalar callers.
template <GoalMode kMode>
[[gnu::always_inline]] inline void ConsiderFeasible(BestConfigTracker& best,
                                                    const Goals& goals, Joules allowance,
                                                    int ci, int pi,
                                                    const ConfigScore& s) {
  if (goals.prob_threshold > 0.0 && s.prob_deadline < goals.prob_threshold) {
    return;
  }
  best.Consider(ci, pi,
                ScoreOutcomeFor<kMode>(goals, allowance, s.expected_accuracy,
                                       s.expected_energy, s.expected_latency,
                                       /*deadline_ok=*/true));
}

// Whether no entry of a candidate row can reach expected accuracy `level`.  Every
// expected accuracy (Eqs. 7/13) is a convex combination of q_fail and the
// candidate's final or stage accuracies, so it cannot exceed their max, the row's
// `bound`; the 1e-9 margin absorbs the rounding of the combination.  In the
// accuracy-goal modes such a row is infeasible; in kMaximizeAccuracy, with `level`
// the best objective so far, none of its entries can win.
inline bool RowBelowAccuracy(double bound, double level) { return bound < level - 1e-9; }

#if defined(ALERT_SIMD_AVX2) || defined(ALERT_SIMD_NEON)
// Scores entries (ci, pi) for ci in [ci_begin, ci_end), pi in [0, width) into
// out[(ci - ci_begin) * out_stride + pi].  Performs the same IEEE-754 operations in
// the same order as the scalar DecisionEngine::ScoreEntry fast path (sigma > 0) or
// DecisionEngine::ScoreEntrySigma0 (sigma == 0) — no FMA contraction, same
// memoized-table lookups, same comparisons — so results match the scalar reference
// lane for lane.
void ScoreRowsSimd(const ScoreTables& tables, const ScoreParams& params, int ci_begin,
                   int ci_end, int width, ConfigScore* out, int out_stride);

// The first (feasible) pass of SelectBest over candidates [0, num_candidates) and
// powers [0, width), fused with the scoring above.  `candidate_index` >= 0 is the
// pick the scalar pass would make over the same scores.  Otherwise `max_pr` is the
// largest completion probability of the rows it scored, and `skipped_rows` says
// whether it skipped rows that cannot meet the accuracy goal (RowBelowAccuracy)
// without scoring them; the caller folds those rows into `max_pr` before the
// fallback pass.
struct SelectPass {
  int candidate_index = -1;
  int power_index = -1;
  double max_pr = 0.0;
  bool skipped_rows = false;
};
SelectPass SelectRowsSimd(const ScoreTables& tables, const ScoreParams& params,
                          const Goals& goals, Joules allowance, int num_candidates,
                          int width);
#endif

}  // namespace alert::internal

#endif  // SRC_CORE_DECISION_ENGINE_SIMD_H_
