// DecisionEngine: the shared, cache-friendly candidate-scoring plane.
//
// ALERT's per-input loop (Section 3.2) scores every (model x anytime-stage x
// power-cap) configuration with the Eq. 6/7/9/12/13 estimates before every decision.
// Before this engine existed that logic was welded inside AlertScheduler::Decide and
// re-implemented in fragments by the baselines and the harness oracles.  The engine
// pulls it into one reusable component that every scheduler routes through.
//
// == API contract ==
//
// Construction: `DecisionEngine(space)` flattens the per-configuration profile
// constants (stage-limited t_prof, full-network t_prof, inference power, the anytime
// accuracy ladder, q_fail) into structure-of-arrays vectors indexed by the flat entry
// id `entry_index(ci, pi) = ci * num_powers() + pi`.  The engine holds a pointer to
// `space`, which must outlive it; the profile snapshot is taken at construction, so a
// ConfigSpace mutated afterwards (none currently are) would need a fresh engine.
// The SoA arrays are 64-byte aligned, and the five per-entry profile tables keep a
// vector-padded copy (rows padded to the compiled lane width) for the SIMD kernel.
//
// Scoring: `Score` / `ScoreAll` evaluate Eqs. 6/7/9/12/13 for one / all configurations
// given an immutable `DecisionInputs` snapshot (xi belief + idle-power model + deadline
// and period) in a single linear pass over the SoA vectors.  Gaussian tails come from
// the memoized table in src/common/gaussian.h (FastStandardNormalCdf, |err| < 1e-7)
// instead of per-call std::erf.  Passing xi.stddev == 0 degenerates every estimate to
// the mean-only ALERT* scheme exactly as the inline code did: Gaussian tails become
// step functions of the mean and the truncated run time a min, so a sigma == 0 pass
// is detected once per chunk and scored in one straight-line row pass of that
// arithmetic (no table lookups), bit-identical to the per-entry reference.
//
// Vector layer: when the build compiled a SIMD backend (AVX2/NEON — see the dispatch
// contract in src/common/simd.h) and the running machine supports it, scoring runs
// through the lane-parallel kernel in decision_engine_simd.cc, the sigma == 0 row
// pass included; `simd_active()` reports the live mode and `set_simd_enabled(false)`
// forces the scalar reference path (equivalence tests, benchmarks, `ALERT_SIMD=off`
// escape hatches at build and run time).  The kernel performs the identical IEEE-754
// operations in the identical order as the scalar arithmetic — no FMA contraction,
// same memoized table, same comparisons — so vector and scalar scores agree to the
// last bit on every tested platform; the scalar path remains the reference
// implementation, and only Eq. 12 percentile energy (at sigma > 0) runs scalar.  The
// kernel visits entries in the scalar order (candidate, then power ascending) and
// hands each scored lane group to a sink that stores it (ScoreAll, ScoreBatch) or
// selects from it (SelectBest).  It computes each anytime model's stage CDFs once per
// lane group, cached for all of the row's groups, and shares them across the model's
// stage-limited candidates.  Equivalence is enforced by
// tests/core/simd_equivalence_test.cc.
//
// Selection: `SelectBest` implements the full ALERT decision rule — the Pr_th
// pre-filter (Eqs. 10/11), per-goal feasibility and objective (Eqs. 1/2), and the
// latency > accuracy > power fallback hierarchy of Section 4 — without materializing
// the score table.  On the vector kernel the feasible pass runs inside the score
// loop: each lane group is tested with vector compares, a group none of whose
// entries could change the best (under Pr_th, infeasible, or worse than the best by
// more than 1e-12) is dropped, and any other group's entries go through the scalar
// rule in order.  A row whose accuracy bound (the max of q_fail and its final or
// stage accuracies) is below the accuracy goal, or in kMaximizeAccuracy below the
// best so far, is not scored at all.  On the scalar path configurations are scored
// in small cache-resident chunks that feed the same rule; `SelectScratch` holds that
// chunk (a few KB regardless of space size), which the vector path also uses for
// its fallback pass.  When nothing is feasible, a second streaming pass applies the
// fallback hierarchy under the completion-probability floor learned in the first
// (over every row, the skipped ones scored for it); scoring is deterministic, so the
// rescore is exact and every path picks what the historical materialize-then-scan
// implementation picked.  `MinEnergyPower` implements the
// system-layer rule shared by the Sys-only and No-coord baselines: cheapest power
// cap whose predicted (mean, untruncated) latency meets the deadline.
//
// Batch API (multi-job decision plane): `ScoreBatch` evaluates J belief snapshots
// over the SoA tables in one linear pass per *distinct* snapshot — per-belief
// constants are hoisted out of the entry loop, and replica jobs whose snapshots
// coincide (cold start, converged fleets) are scored once and copied.  `SelectFromScores`
// runs the complete SelectBest decision rule (including the fallback hierarchy) over
// one job's precomputed score slice: because scores are independent of the power
// limit, a coordinator can score a round once and then re-select any number of times
// under different limits (proportional scaling, slack-recycling passes) without
// rescoring; with SIMD active it skips the rows the vector SelectBest would not score
// (a scalar scan of the rest).  `SelectBestBatch` composes the two for J jobs sharing this engine's
// candidate family.  All three produce decisions bit-identical to per-job
// `SelectBest` calls, allocate nothing (caller-owned scratch; `SelectBestBatch` only
// grows its scratch vector on first use), and are `const` like the rest of the
// scoring plane.
//
// Thread-safety: every scoring/selection method is `const` and touches no mutable
// state; one engine instance may be shared by any number of threads (harness
// ParallelFor sweeps, multi-job coordination) without synchronization.
// (`set_simd_enabled` is the one non-const setter; flip it before sharing.)  The
// memoized Gaussian table is built behind a thread-safe static on first use; call
// `WarmGaussianTable()` (or score once) before timing-sensitive loops to avoid paying
// the one-time build inside them.
#ifndef SRC_CORE_DECISION_ENGINE_H_
#define SRC_CORE_DECISION_ENGINE_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/simd.h"
#include "src/core/config_space.h"
#include "src/core/estimates.h"
#include "src/core/goals.h"

namespace alert {

namespace internal {
struct ScoreTables;
struct ScoreParams;
}  // namespace internal

// Per-configuration score under one belief snapshot.
struct ConfigScore {
  double prob_deadline = 0.0;     // Eq. 6
  double expected_accuracy = 0.0; // Eq. 7 / 13
  Joules expected_energy = 0.0;   // Eq. 9 / 12
  Seconds expected_latency = 0.0; // E[min(run, deadline)] (mean run if !stop_at_cutoff)
};

// Immutable inputs of one scoring pass.
struct DecisionInputs {
  XiBelief xi;
  Seconds deadline = 0.0;
  Seconds period = 0.0;
  // Idle-power model: idle = idle_ratio * p_inf(config) when `use_idle_ratio` (the
  // Eq. 8 filter's prediction), otherwise the fixed platform draw `fixed_idle_power`.
  bool use_idle_ratio = false;
  double idle_ratio = 0.25;
  Watts fixed_idle_power = 0.0;
  // Eq. 12's Pr_th percentile for the energy estimate; 0 uses the Eq. 9 expectation.
  double percentile = 0.0;
  // Stop the run at the deadline (deadline kill / anytime stop).  False models a
  // controller that lets the run complete and plans with the untruncated mean latency
  // (the Sys-only / No-coord system layer).
  bool stop_at_cutoff = true;
};

// Goal evaluation of one outcome — estimated (ALERT) or measured (clairvoyant Oracle).
// `deadline_ok` enters feasibility in the modes where the deadline is a constraint
// (kMinimizeEnergy, kMaximizeAccuracy); ALERT passes true because its deadline term is
// already inside the expected-accuracy step function and the Pr_th pre-filter.
// `slack` relaxes the accuracy/energy constraint comparisons (the Oracle uses 1e-12).
struct GoalScore {
  bool feasible = false;
  double objective = 0.0;  // minimized, or maximized in kMaximizeAccuracy mode
  double tiebreak = 0.0;   // minimized among equal objectives
};
// Calls `f.template operator()<kMode>()` with `mode` as a compile-time constant.  The
// one goal-mode dispatcher: ScoreOutcome and ALERT's selection loops all resolve the
// mode through it, once per call.  A mode outside the enum fails Goals::Valid(), which
// every entry point checks, so reaching this with one is a caller bug and aborts.
template <typename F>
inline auto WithGoalMode(GoalMode mode, const F& f) {
  switch (mode) {
    case GoalMode::kMaximizeAccuracy:
      return f.template operator()<GoalMode::kMaximizeAccuracy>();
    case GoalMode::kMinimizeLatency:
      return f.template operator()<GoalMode::kMinimizeLatency>();
    case GoalMode::kMinimizeEnergy:
      break;
  }
  ALERT_CHECK(mode == GoalMode::kMinimizeEnergy);
  return f.template operator()<GoalMode::kMinimizeEnergy>();
}

// Defined here, inline, because it sits in the innermost loop of both deciders:
// ALERT's per-entry selection and the Oracle's per-setting search.  ScoreOutcomeFor
// takes the mode as a compile-time constant, for loops that resolve goals.mode once
// per call; ScoreOutcome is the same rule with the mode read at run time.
template <GoalMode kMode>
[[gnu::always_inline]] inline GoalScore ScoreOutcomeFor(
    const Goals& goals, Joules allowance, double accuracy, Joules energy,
    Seconds latency, bool deadline_ok, double slack = 0.0) {
  GoalScore s;
  if constexpr (kMode == GoalMode::kMinimizeEnergy) {
    s.feasible = deadline_ok && accuracy >= goals.accuracy_goal - slack;
    s.objective = energy;
    s.tiebreak = -accuracy;
  } else if constexpr (kMode == GoalMode::kMaximizeAccuracy) {
    s.feasible = deadline_ok && energy <= allowance + slack;
    s.objective = accuracy;
    s.tiebreak = energy;
  } else {
    static_assert(kMode == GoalMode::kMinimizeLatency);
    s.feasible = accuracy >= goals.accuracy_goal - slack && energy <= allowance + slack;
    s.objective = latency;
    s.tiebreak = energy;
  }
  return s;
}

inline GoalScore ScoreOutcome(const Goals& goals, Joules allowance, double accuracy,
                              Joules energy, Seconds latency, bool deadline_ok,
                              double slack = 0.0) {
  return WithGoalMode(goals.mode, [&]<GoalMode kMode>() {
    return ScoreOutcomeFor<kMode>(goals, allowance, accuracy, energy, latency,
                                  deadline_ok, slack);
  });
}

// Lower-is-better scalar objective of a whole-run result for a goal mode
// (energy / error / latency).  Used by the static oracle.
double GoalObjective(GoalMode mode, Joules energy, double error, Seconds latency);

// Tracks the best (configuration, GoalScore) seen so far.  `epsilon` is the objective
// comparison tolerance: ALERT uses 1e-12, the clairvoyant Oracle exact comparisons (0).
// Consider() is inline for the same reason as ScoreOutcome; both are forced inline
// because the -mavx2 kernel TU calls them too (see internal::ConsiderFeasible).
class BestConfigTracker {
 public:
  BestConfigTracker(GoalMode mode, double epsilon)
      : maximize_(mode == GoalMode::kMaximizeAccuracy), epsilon_(epsilon) {}

  [[gnu::always_inline]] void Consider(int candidate_index, int power_index, const GoalScore& score) {
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

  bool found() const { return candidate_index_ >= 0; }
  int candidate_index() const { return candidate_index_; }
  int power_index() const { return power_index_; }
  // The best's objective; meaningful only when found().
  double objective() const { return objective_; }

 private:
  bool maximize_;
  double epsilon_;
  int candidate_index_ = -1;
  int power_index_ = -1;
  double objective_ = 0.0;
  double tiebreak_ = 0.0;
};

// Forces construction of the memoized Gaussian table (see thread-safety note above).
void WarmGaussianTable();

class DecisionEngine {
 public:
  // `space` must outlive the engine.
  explicit DecisionEngine(const ConfigSpace& space);

  const ConfigSpace& space() const { return *space_; }
  int num_candidates() const { return num_candidates_; }
  int num_powers() const { return num_powers_; }
  int num_entries() const { return num_candidates_ * num_powers_; }
  int entry_index(int candidate_index, int power_index) const {
    return candidate_index * num_powers_ + power_index;
  }

  // True when scoring runs through the compiled vector backend (build compiled it,
  // machine supports it, nobody forced scalar).
  bool simd_active() const { return simd_enabled_; }
  // Force the scalar reference path (equivalence tests, scalar-vs-SIMD benches).
  // Enabling only sticks when a backend was compiled AND the machine supports it.
  // Not thread-safe: flip before sharing the engine across threads.
  void set_simd_enabled(bool enabled);

  // Eqs. 6/7/9/12/13 for one configuration.
  ConfigScore Score(int candidate_index, int power_index,
                    const DecisionInputs& in) const;
  // Same, resolving the candidate by value (the AlertScheduler::Estimate API).
  ConfigScore Score(const Candidate& candidate, int power_index,
                    const DecisionInputs& in) const;
  // Scores every configuration in one linear pass; `out` must have num_entries()
  // elements, indexed by entry_index().
  void ScoreAll(const DecisionInputs& in, std::span<ConfigScore> out) const;

  struct Selection {
    int candidate_index = -1;
    int power_index = -1;
    bool feasible = false;  // false => the fallback hierarchy chose
  };

  // Caller-owned scratch of SelectBest: one cache-resident chunk of scores, a few
  // KB regardless of candidate-space size, for the scalar stream and the fallback
  // pass (the vector feasible pass stores no score).  Reused across calls; grows on
  // first use only.
  struct SelectScratch {
    simd::AlignedVector<ConfigScore> chunk;
  };

  // The full ALERT decision rule as a fused score+select pass (see the contract
  // above).  Configurations whose cap exceeds `power_limit` are not
  // considered (the lowest cap always remains available).
  Selection SelectBest(const Goals& goals, Joules allowance, const DecisionInputs& in,
                       Watts power_limit, SelectScratch& scratch) const;

  // Scores `inputs.size()` belief snapshots over the SoA tables, one linear pass per
  // distinct snapshot (duplicates are copied).  `out` must have
  // inputs.size() * num_entries() elements, job-major:
  // out[j * num_entries() + entry_index(ci, pi)].  Bit-identical to per-job ScoreAll.
  void ScoreBatch(std::span<const DecisionInputs> inputs,
                  std::span<ConfigScore> out) const;

  // The full SelectBest decision rule (feasibility, objective, fallback hierarchy)
  // over one job's precomputed score slice — `scores` must have num_entries()
  // elements indexed by entry_index().  Scores do not depend on the power limit, so
  // one ScoreBatch/ScoreAll pass supports any number of re-selections under different
  // limits.  With SIMD active, rows whose accuracy bound rules them out are not
  // scanned, as in SelectBest.  Allocates nothing.
  Selection SelectFromScores(const Goals& goals, Joules allowance,
                             std::span<const ConfigScore> scores,
                             Watts power_limit) const;

  // Batched SelectBest for jobs sharing this engine's candidate family: one ScoreBatch
  // pass, then an independent SelectFromScores per job under its own goals, allowance
  // and power limit.  All spans are indexed by job; `out` must have inputs.size()
  // elements.  `scratch` is caller-owned and only grows (no per-call allocations once
  // warm); it holds the job-major score table after the call.
  void SelectBestBatch(std::span<const DecisionInputs> inputs,
                       std::span<const Goals> goals, std::span<const Joules> allowances,
                       std::span<const Watts> limits, std::span<Selection> out,
                       std::vector<ConfigScore>& scratch) const;

  // Cheapest power cap for a fixed candidate whose predicted latency meets the
  // deadline, or -1 if none does (the Sys-only / No-coord system layer; callers
  // should score with stop_at_cutoff = false).
  int MinEnergyPower(int candidate_index, const DecisionInputs& in) const;

 private:
  // Per-belief constants hoisted out of the per-entry loop (one division per scoring
  // pass instead of several per entry).
  struct ScoringContext {
    DecisionInputs in;
    double inv_sigma = 0.0;  // 1 / xi.stddev when stddev > 0
  };
  static ScoringContext MakeContext(const DecisionInputs& in);
  ConfigScore ScoreEntry(int entry, const ScoringContext& ctx) const;
  ConfigScore ScoreEntry(int entry, const DecisionInputs& in) const;
  // The pre-optimization scoring arithmetic, kept for the degenerate (stddev == 0) and
  // percentile (Eq. 12) paths; at stddev == 0 it is ScoreEntrySigma0.
  ConfigScore ScoreEntryReference(int entry, const DecisionInputs& in) const;
  // The stddev == 0 (ALERT*) score of entry `e` of candidate `c`: step functions of
  // the mean.  Shared by ScoreEntryReference and ScoreChunk's sigma == 0 row pass.
  ConfigScore ScoreEntrySigma0(size_t e, size_t c, const DecisionInputs& in) const;
  // Scores the rectangle [ci_begin, ci_end) x powers [0, width) into
  // out[(ci - ci_begin) * out_stride + pi] — the vector kernel when active (unless
  // the pass charges an Eq. 12 percentile at sigma > 0), else the scalar sigma == 0
  // row pass or per-entry loop.  The single scoring funnel of ScoreAll / ScoreBatch
  // and of SelectBest's scalar stream and fallback pass.
  void ScoreChunk(const ScoringContext& ctx, int ci_begin, int ci_end, int width,
                  ConfigScore* out, int out_stride) const;
  // Whether `ctx`'s pass runs on the vector kernel: SIMD active, and not an Eq. 12
  // percentile pass at sigma > 0.
  bool KernelScores(const ScoringContext& ctx) const;
  // Raw table/parameter views handed to the vector kernel.
  internal::ScoreTables KernelTables() const;
  static internal::ScoreParams KernelParams(const ScoringContext& ctx);
  // Largest power index whose cap passes `power_limit` (caps are ascending; index 0
  // always remains available).
  int MaxAllowedPower(Watts power_limit) const;

  const ConfigSpace* space_;
  int num_candidates_ = 0;
  int num_powers_ = 0;

  // SoA profile constants, indexed by entry_index(ci, pi); 64-byte aligned so
  // vector loads start cache-line aligned.
  simd::AlignedVector<Seconds> run_profile_;      // stage-limited profiled latency
  simd::AlignedVector<Seconds> full_profile_;     // full-network profiled latency
  simd::AlignedVector<double> inv_run_profile_;   // 1 / run_profile_
  simd::AlignedVector<double> inv_full_profile_;  // 1 / full_profile_
  simd::AlignedVector<Watts> inference_power_;

  // Per candidate.
  simd::AlignedVector<double> final_accuracy_;    // delivered accuracy on on-time completion
  simd::AlignedVector<double> q_fail_;            // Eq. 3 random-guess fallback
  // Max of q_fail and the final or stage accuracies: no expected accuracy of the
  // candidate exceeds it (internal::RowBelowAccuracy).
  simd::AlignedVector<double> accuracy_bound_;
  simd::AlignedVector<int> stage_offset_;         // into stage_frac_/stage_accuracy_
  simd::AlignedVector<int> stage_count_;          // stage_limit + 1; 0 for traditional

  // Flattened anytime ladders (per model, shared by that model's candidates).
  simd::AlignedVector<double> stage_frac_;
  simd::AlignedVector<double> inv_stage_frac_;
  simd::AlignedVector<double> stage_accuracy_;

  simd::AlignedVector<Watts> caps_;               // per power index

  // Vector-padded copies of the per-entry tables (rows of `padded_stride_` doubles,
  // padding lanes replicate the row's last entry), built only when the kernel can
  // run.  The kernel reads these; the scalar path keeps the exact entry_index layout.
  simd::AlignedVector<double> padded_run_profile_;
  simd::AlignedVector<double> padded_inv_run_profile_;
  simd::AlignedVector<double> padded_full_profile_;
  simd::AlignedVector<double> padded_inv_full_profile_;
  simd::AlignedVector<double> padded_inference_power_;
  int padded_stride_ = 0;

  bool simd_available_ = false;  // compiled backend + machine support
  bool simd_enabled_ = false;
};

}  // namespace alert

#endif  // SRC_CORE_DECISION_ENGINE_H_
