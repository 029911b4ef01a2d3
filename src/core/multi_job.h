// Coordinating concurrent inference jobs (Section 3.6's future-work extension).
//
// The paper's ALERT manages one inference job.  This coordinator runs K ALERT
// instances — one per job, each with its own goals and candidate family — under a
// single shared package power budget, on a stateless batched decision plane:
//
//   1. every job's belief is snapshotted once (AlertScheduler::Snapshot), so the round
//      is a pure function of the snapshots — no scheduler state is mutated;
//   2. jobs are grouped by candidate family and each family's engine scores all of its
//      jobs in one entry-outer ScoreBatch pass over the flattened SoA tables
//      (ParallelFor across families for large rounds);
//   3. pass 1 selects every job's unconstrained desire from the precomputed scores; if
//      the desires fit the budget they stand;
//   4. otherwise the allocation policy splits the budget.  Scores are independent of
//      the power limit, so every allocation pass is a cheap re-selection
//      (DecisionEngine::SelectFromScores) with zero rescoring:
//        * kProportional (default): each job's limit is scaled proportionally to its
//          desire — decisions bit-identical to the historical two-pass coordinator;
//        * kSlackRecycling: discrete power caps mean a job usually claims less than
//          its scaled share; the unclaimed headroom is re-offered to jobs still short
//          of their desire, iterating to a fixed point in at most four passes
//          (cf. the fast-convergent learning-aided allocation schemes of Huang et al.).
//
// Measurements feed back into each job's own filters (ObserveRound); the global-
// slowdown mechanism is untouched, exactly as the paper anticipates ("we expect the
// main idea of ALERT ... to still apply").
#ifndef SRC_CORE_MULTI_JOB_H_
#define SRC_CORE_MULTI_JOB_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/alert_scheduler.h"
#include "src/core/decision_engine.h"

namespace alert {

struct JobSpec {
  std::string name;
  const ConfigSpace* space = nullptr;  // must outlive the coordinator
  Goals goals;
  AlertOptions options;
};

// How DecideRound splits a budget the pass-1 desires exceed.
enum class AllocationPolicy : int {
  kProportional = 0,    // scale every limit by budget / desired_total
  kSlackRecycling = 1,  // re-offer unclaimed headroom, <= 4 passes to a fixed point
};

class MultiJobCoordinator {
 public:
  // Equivalent to AddJob over `jobs` in order; `jobs` may be empty.
  MultiJobCoordinator(std::vector<JobSpec> jobs, Watts total_power_budget,
                      AllocationPolicy policy = AllocationPolicy::kProportional);

  // In-place membership (tenant arrivals and departures in the serving daemon).
  // AddJob appends a job at index num_jobs(), sharing its family's engine or opening
  // a new family.  RemoveJob erases job `index`; later jobs move down one index and
  // keep their order.  No other scheduler is touched, so every surviving job keeps
  // its learned belief as is.  A family left without jobs stays (scoring it is a
  // no-op) and is reused if its space comes back.  From a membership change on, the
  // coordinator decides exactly like one freshly constructed over the same jobs with
  // their beliefs restored.
  void AddJob(JobSpec spec);
  void RemoveJob(int index);

  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  // Distinct candidate families seen so far, including any whose jobs have all left,
  // in first-appearance job order (deterministic across runs and platforms; jobs
  // over the same ConfigSpace share one scoring engine).
  int num_families() const { return static_cast<int>(families_.size()); }
  Watts total_power_budget() const { return total_power_budget_; }
  // Online budget reconfiguration (a shared package limit raised or lowered while
  // jobs run, e.g. the daemon's `limit-set` verb).  The budget is read afresh every
  // round, so the change takes effect on the next DecideRound without disturbing any
  // scheduler state.
  void set_total_power_budget(Watts budget);
  AllocationPolicy allocation_policy() const { return policy_; }
  void set_allocation_policy(AllocationPolicy policy) { policy_ = policy; }

  // Per-job goal reconfiguration (requirements change at run time, Section 1.1 —
  // the daemon's `goal-set` verb): checks the index and the goals, then updates the
  // job's scheduler goals.  The next round decides under the new goals; no other
  // job is touched.
  void SetJobGoals(int index, const Goals& goals);

  // Rounds with at least this many jobs score their families under ParallelFor.
  // Scoring results are identical either way, but the parallel dispatch spawns (and
  // heap-allocates) threads every round, which measures slower than the serial pass
  // up to K = 64 on the paper-sized config spaces — so the default keeps it off;
  // lower the threshold for much larger candidate families where per-family scoring
  // dominates the spawn cost.
  void set_parallel_scoring_threshold(int jobs) { parallel_threshold_ = jobs; }

  // Decides one configuration per job such that the sum of their power caps does not
  // exceed the shared budget.  `requests` is indexed by job.  Leaves every scheduler's
  // own power limit untouched: the round works on belief snapshots, so a direct
  // Decide() on job(i) afterwards behaves exactly as if no round had run.
  std::vector<SchedulingDecision> DecideRound(
      const std::vector<InferenceRequest>& requests);
  // Same, into a caller-owned vector: with `decisions` and the coordinator's internal
  // scratch warm from a previous round, a round performs zero heap allocations (below
  // the parallel-scoring threshold; the ParallelFor dispatch above it spawns threads).
  void DecideRoundInto(const std::vector<InferenceRequest>& requests,
                       std::vector<SchedulingDecision>* decisions);

  // Feeds each job's measurement back to its scheduler.
  void ObserveRound(const std::vector<SchedulingDecision>& decisions,
                    const std::vector<Measurement>& measurements);

  AlertScheduler& job(int index);
  const AlertScheduler& job(int index) const;
  const std::string& job_name(int index) const;

 private:
  // Jobs sharing one candidate family, batched onto one engine.
  struct Family {
    const ConfigSpace* space = nullptr;
    std::shared_ptr<const DecisionEngine> engine;
    std::vector<int> jobs;  // coordinator job indices, ascending
    // Round scratch, reused across rounds (sized on first use, job-major scores).
    std::vector<DecisionInputs> inputs;
    std::vector<ConfigScore> scores;
  };
  struct Job {
    std::string name;
    const ConfigSpace* space = nullptr;
    std::unique_ptr<AlertScheduler> scheduler;
    int family = 0;  // index into families_
    int slot = 0;    // index into families_[family].jobs
  };

  // One batched ScoreBatch pass for family `f` over the current snapshots.
  void ScoreFamily(int f);
  // One job's slice of its family's score table (valid after the round's ScoreBatch).
  std::span<const ConfigScore> JobScores(int job_index) const;
  // Re-selects job `j` from its precomputed scores under `limit`.
  DecisionEngine::Selection SelectJob(int job_index, Watts limit) const;

  std::vector<Family> families_;  // first-appearance order, never removed
  std::vector<Job> jobs_;
  Watts total_power_budget_;
  AllocationPolicy policy_;
  int parallel_threshold_ = 128;

  // Round scratch, reused across rounds.
  std::vector<DecisionSnapshot> snapshots_;
  std::vector<DecisionEngine::Selection> selections_;
  std::vector<Watts> desires_;
  std::vector<Watts> grants_;
  std::vector<Watts> claims_;  // slack-recycling: cap actually claimed per job
  std::vector<int> order_;     // slack-recycling offer order
};

}  // namespace alert

#endif  // SRC_CORE_MULTI_JOB_H_
