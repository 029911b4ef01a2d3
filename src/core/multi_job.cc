#include "src/core/multi_job.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/common/parallel.h"

namespace alert {
namespace {

constexpr Watts kUnlimited = std::numeric_limits<double>::infinity();
// Slack recycling converges to within one discrete cap step in a handful of passes;
// cap the loop so a round's cost is bounded regardless of the cap grid.
constexpr int kMaxSlackPasses = 4;

}  // namespace

MultiJobCoordinator::MultiJobCoordinator(std::vector<JobSpec> jobs,
                                         Watts total_power_budget,
                                         AllocationPolicy policy)
    : total_power_budget_(total_power_budget), policy_(policy) {
  ALERT_CHECK(total_power_budget > 0.0);
  for (JobSpec& spec : jobs) {
    AddJob(std::move(spec));
  }
}

void MultiJobCoordinator::AddJob(JobSpec spec) {
  ALERT_CHECK(spec.space != nullptr);
  // Jobs over the same candidate family share one scoring engine: the engine is
  // immutable after construction, so a whole family can be scored as one batch and
  // scanned concurrently.  Families are kept in first-appearance order so iteration
  // is deterministic across runs and platforms (a pointer-keyed map was not).
  int family = -1;
  for (size_t f = 0; f < families_.size(); ++f) {
    if (families_[f].space == spec.space) {
      family = static_cast<int>(f);
      break;
    }
  }
  if (family < 0) {
    family = static_cast<int>(families_.size());
    Family fam;
    fam.space = spec.space;
    fam.engine = std::make_shared<DecisionEngine>(*spec.space);
    if (cache_policy_.enabled()) {
      fam.cache = std::make_unique<DecisionCache>(*fam.engine, cache_policy_);
    }
    families_.push_back(std::move(fam));
  }

  Job job;
  job.name = std::move(spec.name);
  job.space = spec.space;
  job.scheduler = std::make_unique<AlertScheduler>(*families_[family].engine,
                                                   spec.goals, spec.options);
  job.family = family;
  job.slot = static_cast<int>(families_[family].jobs.size());
  families_[family].jobs.push_back(static_cast<int>(jobs_.size()));
  jobs_.push_back(std::move(job));
  InvalidateCaches();
}

void MultiJobCoordinator::RemoveJob(int index) {
  ALERT_CHECK(index >= 0 && index < num_jobs());
  const Job& removed = jobs_[static_cast<size_t>(index)];
  std::vector<int>& members = families_[static_cast<size_t>(removed.family)].jobs;
  members.erase(members.begin() + removed.slot);
  for (size_t s = static_cast<size_t>(removed.slot); s < members.size(); ++s) {
    jobs_[static_cast<size_t>(members[s])].slot = static_cast<int>(s);
  }
  jobs_.erase(jobs_.begin() + index);
  // Every later job moved down one index; member lists stay ascending.
  for (Family& family : families_) {
    for (int& j : family.jobs) {
      if (j > index) {
        --j;
      }
    }
  }
  InvalidateCaches();
}

void MultiJobCoordinator::InvalidateCaches() {
  for (Family& family : families_) {
    if (family.cache != nullptr) {
      family.cache->Invalidate();
    }
  }
}

AlertScheduler& MultiJobCoordinator::job(int index) {
  ALERT_CHECK(index >= 0 && index < num_jobs());
  return *jobs_[static_cast<size_t>(index)].scheduler;
}

const AlertScheduler& MultiJobCoordinator::job(int index) const {
  ALERT_CHECK(index >= 0 && index < num_jobs());
  return *jobs_[static_cast<size_t>(index)].scheduler;
}

const std::string& MultiJobCoordinator::job_name(int index) const {
  ALERT_CHECK(index >= 0 && index < num_jobs());
  return jobs_[static_cast<size_t>(index)].name;
}

void MultiJobCoordinator::set_total_power_budget(Watts budget) {
  ALERT_CHECK(budget > 0.0);
  total_power_budget_ = budget;
}

void MultiJobCoordinator::SetJobGoals(int index, const Goals& goals) {
  ALERT_CHECK(index >= 0 && index < num_jobs());
  ALERT_CHECK(goals.Valid());
  Job& job = jobs_[static_cast<size_t>(index)];
  const Goals old_goals = job.scheduler->goals();
  job.scheduler->set_goals(goals);
  Family& family = families_[static_cast<size_t>(job.family)];
  if (family.cache != nullptr) {
    family.cache->InvalidateGoals(old_goals);
  }
}

void MultiJobCoordinator::set_decision_cache_policy(const DecisionCachePolicy& policy) {
  cache_policy_ = policy;
  for (Family& family : families_) {
    family.cache.reset();
    if (policy.enabled()) {
      family.cache = std::make_unique<DecisionCache>(*family.engine, policy);
    }
  }
}

DecisionCacheStats MultiJobCoordinator::decision_cache_stats() const {
  DecisionCacheStats total;
  for (const Family& family : families_) {
    if (family.cache == nullptr) {
      continue;
    }
    const DecisionCacheStats& s = family.cache->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.stale += s.stale;
  }
  return total;
}

void MultiJobCoordinator::ScoreFamily(int f) {
  Family& family = families_[static_cast<size_t>(f)];
  const size_t entries = static_cast<size_t>(family.engine->num_entries());
  family.inputs.resize(family.jobs.size());
  family.scores.resize(family.jobs.size() * entries);
  for (size_t s = 0; s < family.jobs.size(); ++s) {
    family.inputs[s] = snapshots_[static_cast<size_t>(family.jobs[s])].inputs;
  }
  family.engine->ScoreBatch(family.inputs, family.scores);
}

std::span<const ConfigScore> MultiJobCoordinator::JobScores(int job_index) const {
  const Job& job = jobs_[static_cast<size_t>(job_index)];
  const Family& family = families_[static_cast<size_t>(job.family)];
  const size_t entries = static_cast<size_t>(family.engine->num_entries());
  return std::span<const ConfigScore>(family.scores)
      .subspan(static_cast<size_t>(job.slot) * entries, entries);
}

DecisionEngine::Selection MultiJobCoordinator::SelectJob(int job_index,
                                                         Watts limit) const {
  const Job& job = jobs_[static_cast<size_t>(job_index)];
  const size_t j = static_cast<size_t>(job_index);
  return families_[static_cast<size_t>(job.family)].engine->SelectFromScores(
      snapshots_[j].goals, snapshots_[j].allowance, JobScores(job_index), limit);
}

DecisionEngine::Selection MultiJobCoordinator::SelectJobCached(int job_index,
                                                               Watts limit) {
  const Job& job = jobs_[static_cast<size_t>(job_index)];
  Family& family = families_[static_cast<size_t>(job.family)];
  const DecisionSnapshot& snapshot = snapshots_[static_cast<size_t>(job_index)];
  DecisionEngine::Selection selection;
  if (family.cache->Lookup(snapshot.goals, snapshot.allowance, snapshot.inputs, limit,
                           &selection)) {
    return selection;
  }
  // First miss in this family this round: score the whole family once, then every
  // later miss (any job, any limit) re-selects from the same score table.
  if (!family_scored_[static_cast<size_t>(job.family)]) {
    ScoreFamily(job.family);
    family_scored_[static_cast<size_t>(job.family)] = 1;
  }
  selection = SelectJob(job_index, limit);
  family.cache->Insert(snapshot.goals, snapshot.allowance, snapshot.inputs, limit,
                       selection);
  return selection;
}

std::vector<SchedulingDecision> MultiJobCoordinator::DecideRound(
    const std::vector<InferenceRequest>& requests) {
  std::vector<SchedulingDecision> decisions;
  DecideRoundInto(requests, &decisions);
  return decisions;
}

void MultiJobCoordinator::DecideRoundInto(const std::vector<InferenceRequest>& requests,
                                          std::vector<SchedulingDecision>* decisions) {
  ALERT_CHECK(decisions != nullptr);
  ALERT_CHECK(requests.size() == jobs_.size());
  const size_t k = jobs_.size();
  snapshots_.resize(k);
  selections_.resize(k);
  desires_.resize(k);
  grants_.resize(k);
  decisions->resize(k);

  // Snapshot every job's belief once: the rest of the round is a pure function of the
  // snapshots, and the schedulers are not touched again until ObserveRound.
  for (size_t j = 0; j < k; ++j) {
    snapshots_[j] = jobs_[j].scheduler->Snapshot(requests[j]);
  }

  // One batched scoring pass per family; every later allocation pass re-selects from
  // these scores without rescoring (scores do not depend on the power limit).  With
  // the decision cache enabled, scoring is deferred instead: only families with at
  // least one pass-1 cache miss are scored (in parallel above the threshold, like
  // the uncached path), so a fully-hitting round scores nothing; rare later misses
  // (a constrained re-selection on a fully-hitting family) score lazily.
  const bool cached = cache_policy_.enabled();
  if (cached) {
    family_scored_.assign(families_.size(), 0);
    cache_misses_.clear();
    for (size_t j = 0; j < k; ++j) {
      const DecisionSnapshot& snapshot = snapshots_[j];
      if (!families_[static_cast<size_t>(jobs_[j].family)].cache->Lookup(
              snapshot.goals, snapshot.allowance, snapshot.inputs, kUnlimited,
              &selections_[j])) {
        cache_misses_.push_back(static_cast<int>(j));
      }
    }
    miss_families_.clear();
    for (const int j : cache_misses_) {
      const int f = jobs_[static_cast<size_t>(j)].family;
      if (!family_scored_[static_cast<size_t>(f)]) {
        family_scored_[static_cast<size_t>(f)] = 1;
        miss_families_.push_back(f);
      }
    }
    if (static_cast<int>(miss_families_.size()) > 1 &&
        static_cast<int>(k) >= parallel_threshold_) {
      ParallelFor(static_cast<int>(miss_families_.size()),
                  [this](int i) { ScoreFamily(miss_families_[static_cast<size_t>(i)]); });
    } else {
      for (const int f : miss_families_) {
        ScoreFamily(f);
      }
    }
    for (const int j : cache_misses_) {
      const DecisionSnapshot& snapshot = snapshots_[static_cast<size_t>(j)];
      selections_[static_cast<size_t>(j)] = SelectJob(j, kUnlimited);
      families_[static_cast<size_t>(jobs_[static_cast<size_t>(j)].family)]
          .cache->Insert(snapshot.goals, snapshot.allowance, snapshot.inputs,
                         kUnlimited, selections_[static_cast<size_t>(j)]);
    }
  } else if (num_families() > 1 && static_cast<int>(k) >= parallel_threshold_) {
    ParallelFor(num_families(), [this](int f) { ScoreFamily(f); });
  } else {
    for (int f = 0; f < num_families(); ++f) {
      ScoreFamily(f);
    }
  }
  const auto select = [this, cached](int j, Watts limit) {
    return cached ? SelectJobCached(j, limit) : SelectJob(j, limit);
  };

  // Pass 1: unconstrained desires (already selected above on the cached path).
  Watts desired_total = 0.0;
  for (size_t j = 0; j < k; ++j) {
    if (!cached) {
      selections_[j] = select(static_cast<int>(j), kUnlimited);
    }
    desires_[j] = jobs_[j].space->cap(selections_[j].power_index);
    desired_total += desires_[j];
  }
  if (desired_total <= total_power_budget_ + 1e-9) {
    for (size_t j = 0; j < k; ++j) {
      (*decisions)[j] = MakeSchedulingDecision(*jobs_[j].space, selections_[j]);
    }
    return;
  }

  const double scale = total_power_budget_ / desired_total;
  if (policy_ == AllocationPolicy::kProportional) {
    // Scale every job's limit proportionally to its desire and let each job re-select
    // its full (DNN, power) choice for the power it actually gets — the coordination
    // the paper's No-coord baseline lacks.
    for (size_t j = 0; j < k; ++j) {
      selections_[j] = select(static_cast<int>(j), desires_[j] * scale);
    }
  } else {
    // Slack recycling: discrete power caps make every job claim at or below its
    // scaled share, stranding the difference.  Each pass re-offers the pooled
    // headroom as whole cap step-ups — largest shortfall first (ties by job index,
    // so the outcome is deterministic) — and re-selects; a job that claims less than
    // its new grant returns the difference to the pool on the next pass.  A fixed
    // point is reached when no step-up fits the remaining headroom.
    order_.resize(k);
    claims_.resize(k);
    Watts claimed = 0.0;
    for (size_t j = 0; j < k; ++j) {
      grants_[j] = desires_[j] * scale;
      selections_[j] = select(static_cast<int>(j), grants_[j]);
      claims_[j] = jobs_[j].space->cap(selections_[j].power_index);
      claimed += claims_[j];
    }
    for (int pass = 1; pass < kMaxSlackPasses; ++pass) {
      Watts headroom = total_power_budget_ - claimed;
      if (headroom <= 1e-9) {
        break;
      }
      for (size_t j = 0; j < k; ++j) {
        order_[j] = static_cast<int>(j);
      }
      std::sort(order_.begin(), order_.end(), [this](int a, int b) {
        const Watts short_a =
            desires_[static_cast<size_t>(a)] - claims_[static_cast<size_t>(a)];
        const Watts short_b =
            desires_[static_cast<size_t>(b)] - claims_[static_cast<size_t>(b)];
        return short_a != short_b ? short_a > short_b : a < b;
      });
      bool stepped = false;
      for (size_t i = 0; i < k; ++i) {
        const size_t j = static_cast<size_t>(order_[i]);
        const int pi = selections_[j].power_index;
        const ConfigSpace& space = *jobs_[j].space;
        if (pi + 1 >= space.num_powers()) {
          continue;
        }
        const Watts next = space.cap(pi + 1);
        const Watts cost = next - claims_[j];
        if (next > desires_[j] + 1e-9 || cost > headroom + 1e-9) {
          continue;
        }
        if (grants_[j] + 1e-9 >= next) {
          // The job already holds a grant covering this step and declined it (its
          // optimum under the grant sits at the lower cap) — re-offering would debit
          // headroom for nothing and mask the fixed point.
          continue;
        }
        grants_[j] = next;
        headroom -= cost;
        stepped = true;
        // Only stepped-up jobs can change their selection; everyone else's grant —
        // and therefore deterministic selection — is unchanged, so skip their rescan.
        claimed -= claims_[j];
        selections_[j] = select(static_cast<int>(j), grants_[j]);
        claims_[j] = jobs_[j].space->cap(selections_[j].power_index);
        claimed += claims_[j];
      }
      if (!stepped) {
        break;  // fixed point: no affordable step-up remains
      }
    }
  }
  for (size_t j = 0; j < k; ++j) {
    (*decisions)[j] = MakeSchedulingDecision(*jobs_[j].space, selections_[j]);
  }
}

void MultiJobCoordinator::ObserveRound(const std::vector<SchedulingDecision>& decisions,
                                       const std::vector<Measurement>& measurements) {
  ALERT_CHECK(decisions.size() == jobs_.size());
  ALERT_CHECK(measurements.size() == jobs_.size());
  for (size_t j = 0; j < jobs_.size(); ++j) {
    jobs_[j].scheduler->Observe(decisions[j], measurements[j]);
  }
}

}  // namespace alert
