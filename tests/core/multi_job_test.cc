// Tests for the batched multi-job decision plane: bit-identical equivalence with the
// historical per-scheduler loop, the power-limit state-leak regression, allocation
// edge cases, slack recycling, the zero-allocation scoring path, and in-place
// membership (AddJob/RemoveJob) against a freshly constructed coordinator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/alert_scheduler.h"
#include "src/core/multi_job.h"
#include "src/dnn/zoo.h"
#include "src/sim/platform.h"

// Global allocation counter for the zero-allocation test.  Every other test in this
// binary runs through the same operators; they only count.
namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace alert {
namespace {

constexpr Watts kInf = std::numeric_limits<double>::infinity();

Goals AccuracyGoals(Seconds deadline) {
  Goals g;
  g.mode = GoalMode::kMaximizeAccuracy;
  g.deadline = deadline;
  g.energy_budget = 1e9;
  return g;
}

// A deterministic measurement consistent with the decision: both coordinators in an
// equivalence test observe the exact same feedback, so their beliefs stay identical.
Measurement FakeMeasurement(const SchedulingDecision& d, const ConfigSpace& space,
                            Seconds deadline, int round) {
  const Seconds profile = space.ProfileLatency(d.candidate.model_index, d.power_index);
  const double xi = 1.0 + 0.15 * std::sin(0.37 * round);
  Measurement m;
  m.latency = xi * profile;
  m.period = deadline;
  m.deadline = deadline;
  m.deadline_met = m.latency <= deadline;
  m.energy = d.power_cap * m.latency;
  m.inference_power = d.power_cap;
  m.idle_power = 0.25 * d.power_cap;
  m.accuracy = space.CandidateAccuracy(d.candidate);
  m.xi_anchor_time = xi * profile;
  m.xi_anchor_fraction = 1.0;
  m.xi_censored = false;
  return m;
}

// The pre-refactor MultiJobCoordinator::DecideRound, verbatim: stateful power limits
// and one full Decide per job per pass (including the limit it leaks behind).
std::vector<SchedulingDecision> LegacyDecideRound(
    MultiJobCoordinator& coordinator, const std::vector<InferenceRequest>& requests,
    Watts budget) {
  const int k = coordinator.num_jobs();
  std::vector<SchedulingDecision> decisions(static_cast<size_t>(k));
  Watts desired_total = 0.0;
  for (int j = 0; j < k; ++j) {
    coordinator.job(j).set_power_limit(kInf);
    decisions[static_cast<size_t>(j)] = coordinator.job(j).Decide(requests[static_cast<size_t>(j)]);
    desired_total += decisions[static_cast<size_t>(j)].power_cap;
  }
  if (desired_total <= budget + 1e-9) {
    return decisions;
  }
  const double scale = budget / desired_total;
  for (int j = 0; j < k; ++j) {
    coordinator.job(j).set_power_limit(decisions[static_cast<size_t>(j)].power_cap * scale);
    decisions[static_cast<size_t>(j)] = coordinator.job(j).Decide(requests[static_cast<size_t>(j)]);
  }
  return decisions;
}

void ExpectSameDecisions(const std::vector<SchedulingDecision>& a,
                         const std::vector<SchedulingDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].candidate.model_index, b[j].candidate.model_index) << "job " << j;
    EXPECT_EQ(a[j].candidate.stage_limit, b[j].candidate.stage_limit) << "job " << j;
    EXPECT_EQ(a[j].power_index, b[j].power_index) << "job " << j;
    EXPECT_EQ(a[j].power_cap, b[j].power_cap) << "job " << j;  // exact
  }
}

class MultiJobTest : public ::testing::Test {
 protected:
  MultiJobTest()
      : models_(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim_(GetPlatform(PlatformId::kCpu1), models_), space_(sim_) {}

  std::vector<JobSpec> SharedFamilyJobs(int k, Seconds deadline) const {
    std::vector<JobSpec> jobs;
    for (int j = 0; j < k; ++j) {
      JobSpec spec;
      spec.name = "job" + std::to_string(j);
      spec.space = &space_;
      // Staggered deadlines: distinct beliefs within one family.
      spec.goals = AccuracyGoals(deadline * (1.0 + 0.05 * (j % 5)));
      jobs.push_back(std::move(spec));
    }
    return jobs;
  }

  static std::vector<InferenceRequest> Requests(const std::vector<JobSpec>& jobs) {
    std::vector<InferenceRequest> requests;
    for (const JobSpec& spec : jobs) {
      requests.push_back(InferenceRequest{0, spec.goals.deadline, spec.goals.deadline});
    }
    return requests;
  }

  std::vector<DnnModel> models_;
  PlatformSimulator sim_;
  ConfigSpace space_;
};

// --- Bit-identical equivalence with the historical coordinator ---

TEST_F(MultiJobTest, ProportionalPolicyMatchesLegacyLoopBitForBit) {
  const Seconds deadline = 0.08;
  const Watts budget = 45.0;  // binding: four jobs would each like ~35 W
  auto jobs = SharedFamilyJobs(4, deadline);
  MultiJobCoordinator batched(jobs, budget);
  MultiJobCoordinator legacy(std::move(jobs), budget);
  const auto requests = Requests(SharedFamilyJobs(4, deadline));

  for (int round = 0; round < 40; ++round) {
    const auto batched_decisions = batched.DecideRound(requests);
    const auto legacy_decisions = LegacyDecideRound(legacy, requests, budget);
    ExpectSameDecisions(batched_decisions, legacy_decisions);

    std::vector<Measurement> measurements;
    for (size_t j = 0; j < batched_decisions.size(); ++j) {
      measurements.push_back(FakeMeasurement(batched_decisions[j], space_,
                                             requests[j].deadline, round));
    }
    batched.ObserveRound(batched_decisions, measurements);
    legacy.ObserveRound(legacy_decisions, measurements);
  }
}

TEST_F(MultiJobTest, GenerousBudgetMatchesLegacyLoopBitForBit) {
  auto jobs = SharedFamilyJobs(3, 0.08);
  MultiJobCoordinator batched(jobs, 1000.0);
  MultiJobCoordinator legacy(std::move(jobs), 1000.0);
  const auto requests = Requests(SharedFamilyJobs(3, 0.08));
  ExpectSameDecisions(batched.DecideRound(requests),
                      LegacyDecideRound(legacy, requests, 1000.0));
}

// --- The power-limit state leak (regression) ---

TEST_F(MultiJobTest, DecideRoundLeavesSchedulerPowerLimitsUntouched) {
  const Watts budget = 45.0;
  MultiJobCoordinator coordinator(SharedFamilyJobs(4, 0.08), budget);
  const auto requests = Requests(SharedFamilyJobs(4, 0.08));
  const Watts limit_before = coordinator.job(0).power_limit();

  const auto round = coordinator.DecideRound(requests);  // binding: limits scale
  ASSERT_LT(round[0].power_cap + round[1].power_cap + round[2].power_cap +
                round[3].power_cap,
            4.0 * 35.0);
  EXPECT_EQ(coordinator.job(0).power_limit(), limit_before);

  // A direct Decide on a job after a round must behave exactly like a standalone
  // scheduler with the same history — the historical coordinator corrupted this with
  // its leaked (scaled or infinite) limit.
  AlertScheduler standalone(coordinator.job(0).engine(),
                            AccuracyGoals(requests[0].deadline));
  const SchedulingDecision direct = coordinator.job(0).Decide(requests[0]);
  const SchedulingDecision expected = standalone.Decide(requests[0]);
  EXPECT_EQ(direct.candidate.model_index, expected.candidate.model_index);
  EXPECT_EQ(direct.power_index, expected.power_index);
}

// --- Allocation edge cases ---

TEST_F(MultiJobTest, SingleJobGetsItsUnconstrainedDesire) {
  MultiJobCoordinator coordinator(SharedFamilyJobs(1, 0.08), 500.0);
  const auto requests = Requests(SharedFamilyJobs(1, 0.08));
  AlertScheduler standalone(coordinator.job(0).engine(), AccuracyGoals(0.08));
  const auto round = coordinator.DecideRound(requests);
  const SchedulingDecision expected = standalone.Decide(requests[0]);
  EXPECT_EQ(round[0].power_index, expected.power_index);
  EXPECT_EQ(round[0].candidate.model_index, expected.candidate.model_index);
}

TEST_F(MultiJobTest, BudgetAboveTotalDesireLeavesDesiresAlone) {
  MultiJobCoordinator coordinator(SharedFamilyJobs(3, 0.08), 10000.0);
  const auto requests = Requests(SharedFamilyJobs(3, 0.08));
  const auto round = coordinator.DecideRound(requests);
  for (size_t j = 0; j < round.size(); ++j) {
    AlertScheduler standalone(coordinator.job(static_cast<int>(j)).engine(),
                              AccuracyGoals(requests[j].deadline));
    EXPECT_EQ(round[j].power_index, standalone.Decide(requests[j]).power_index);
  }
}

TEST_F(MultiJobTest, ZeroHeadroomBudgetPinsEveryJobToTheFloorCap) {
  // A budget below any feasible split: every job falls back to the lowest cap (the
  // documented floor exemption — the scheduler must still act).
  MultiJobCoordinator coordinator(SharedFamilyJobs(4, 0.08), 1.0);
  const auto round = coordinator.DecideRound(Requests(SharedFamilyJobs(4, 0.08)));
  for (const SchedulingDecision& d : round) {
    EXPECT_EQ(d.power_index, 0);
    EXPECT_EQ(d.power_cap, space_.cap(0));
  }
}

TEST_F(MultiJobTest, SameFamilyAndDistinctFamiliesDecideIdentically) {
  // Content-identical spaces: one coordinator shares a single family, the other gets
  // one family per job.  Decisions must match field for field.
  ConfigSpace space_b(sim_);
  ConfigSpace space_c(sim_);
  ConfigSpace space_d(sim_);
  const ConfigSpace* distinct[] = {&space_, &space_b, &space_c, &space_d};

  auto shared_jobs = SharedFamilyJobs(4, 0.08);
  std::vector<JobSpec> distinct_jobs = SharedFamilyJobs(4, 0.08);
  for (int j = 0; j < 4; ++j) {
    distinct_jobs[static_cast<size_t>(j)].space = distinct[j];
  }
  const Watts budget = 45.0;
  MultiJobCoordinator shared(std::move(shared_jobs), budget);
  MultiJobCoordinator split(std::move(distinct_jobs), budget);
  EXPECT_EQ(shared.num_families(), 1);
  EXPECT_EQ(split.num_families(), 4);

  const auto requests = Requests(SharedFamilyJobs(4, 0.08));
  ExpectSameDecisions(shared.DecideRound(requests), split.DecideRound(requests));
}

TEST_F(MultiJobTest, FamiliesAreGroupedInFirstAppearanceOrder) {
  ConfigSpace space_b(sim_);
  std::vector<JobSpec> jobs = SharedFamilyJobs(4, 0.08);
  jobs[1].space = &space_b;
  jobs[3].space = &space_b;  // families: {space_: jobs 0,2}, {space_b: jobs 1,3}
  MultiJobCoordinator coordinator(std::move(jobs), 100.0);
  EXPECT_EQ(coordinator.num_families(), 2);
}

// --- Slack recycling ---

TEST_F(MultiJobTest, SlackRecyclingNeverExceedsBudgetAndBeatsProportional) {
  // Mid-grid budget: the proportional split strands watts at the discrete cap steps.
  for (const Watts budget : {40.0, 52.0, 64.0, 76.0, 88.0}) {
    auto jobs = SharedFamilyJobs(4, 0.08);
    MultiJobCoordinator proportional(jobs, budget, AllocationPolicy::kProportional);
    MultiJobCoordinator recycling(std::move(jobs), budget,
                                  AllocationPolicy::kSlackRecycling);
    const auto requests = Requests(SharedFamilyJobs(4, 0.08));
    const auto prop = proportional.DecideRound(requests);
    const auto rec = recycling.DecideRound(requests);

    Watts prop_total = 0.0, rec_total = 0.0;
    for (size_t j = 0; j < prop.size(); ++j) {
      prop_total += prop[j].power_cap;
      rec_total += rec[j].power_cap;
    }
    if (prop_total <= budget + 1e-9) {  // floor-pinned budgets can overshoot for both
      EXPECT_LE(rec_total, budget + 1e-9) << "budget " << budget;
    }
    // Re-offering headroom can only grow the claimed total (selection under a larger
    // limit keeps the previous choice available).
    EXPECT_GE(rec_total, prop_total - 1e-9) << "budget " << budget;
  }
}

TEST_F(MultiJobTest, SlackRecyclingRecoversStrandedHeadroom) {
  // 4 jobs, 87 W: proportional shares (~21.75 W) fall between the CPU1 cap steps, so
  // the proportional split rounds every job down to 20 W and strands 7 W; slack
  // recycling turns that headroom into whole step-ups.
  const Watts budget = 87.0;
  auto jobs = SharedFamilyJobs(4, 0.08);
  MultiJobCoordinator proportional(jobs, budget, AllocationPolicy::kProportional);
  MultiJobCoordinator recycling(std::move(jobs), budget,
                                AllocationPolicy::kSlackRecycling);
  const auto requests = Requests(SharedFamilyJobs(4, 0.08));
  Watts prop_total = 0.0, rec_total = 0.0;
  for (const auto& d : proportional.DecideRound(requests)) prop_total += d.power_cap;
  for (const auto& d : recycling.DecideRound(requests)) rec_total += d.power_cap;
  EXPECT_GT(rec_total, prop_total);
  EXPECT_LE(rec_total, budget + 1e-9);
}

TEST_F(MultiJobTest, SlackRecyclingMatchesProportionalWhenBudgetIsGenerous) {
  auto jobs = SharedFamilyJobs(3, 0.08);
  MultiJobCoordinator proportional(jobs, 5000.0, AllocationPolicy::kProportional);
  MultiJobCoordinator recycling(std::move(jobs), 5000.0,
                                AllocationPolicy::kSlackRecycling);
  const auto requests = Requests(SharedFamilyJobs(3, 0.08));
  ExpectSameDecisions(proportional.DecideRound(requests),
                      recycling.DecideRound(requests));
}

TEST_F(MultiJobTest, ParallelFamilyScoringMatchesSerial) {
  ConfigSpace space_b(sim_);
  auto make_jobs = [&] {
    auto jobs = SharedFamilyJobs(12, 0.08);
    for (size_t j = 1; j < jobs.size(); j += 2) {
      jobs[j].space = &space_b;
    }
    return jobs;
  };
  const Watts budget = 130.0;
  MultiJobCoordinator parallel(make_jobs(), budget);
  parallel.set_parallel_scoring_threshold(1);  // force ParallelFor across families
  MultiJobCoordinator serial(make_jobs(), budget);
  serial.set_parallel_scoring_threshold(1 << 20);
  const auto requests = Requests(make_jobs());
  ExpectSameDecisions(parallel.DecideRound(requests), serial.DecideRound(requests));
}

// --- Zero allocations in the scoring path ---

TEST_F(MultiJobTest, WarmK64HeterogeneousRoundPerformsZeroHeapAllocations) {
  // 64 heterogeneous jobs over three interleaved candidate families, binding budget:
  // once the scratch buffers are warm, a full round — snapshots, batched scoring,
  // desires, allocation re-selection — must not touch the heap.  (ParallelFor is
  // dispatch, not scoring; it is forced off so thread spawns don't count.)
  ConfigSpace space_b(sim_);
  ConfigSpace space_c(sim_);
  auto jobs = SharedFamilyJobs(64, 0.08);
  for (size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].space = j % 3 == 1 ? &space_b : (j % 3 == 2 ? &space_c : &space_);
  }
  MultiJobCoordinator coordinator(std::move(jobs), 64.0 * 20.0);
  coordinator.set_parallel_scoring_threshold(1 << 20);  // serial: no thread spawns
  const auto requests = Requests(SharedFamilyJobs(64, 0.08));
  std::vector<SchedulingDecision> decisions;
  coordinator.DecideRoundInto(requests, &decisions);  // warm every scratch buffer

  for (const AllocationPolicy policy :
       {AllocationPolicy::kProportional, AllocationPolicy::kSlackRecycling}) {
    coordinator.set_allocation_policy(policy);
    coordinator.DecideRoundInto(requests, &decisions);  // warm the policy's scratch
    const size_t before = g_allocations.load(std::memory_order_relaxed);
    coordinator.DecideRoundInto(requests, &decisions);
    const size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "policy " << static_cast<int>(policy);
  }
}

// --- In-place membership ---

// A seeded random sequence of AddJob / RemoveJob / rounds (DecideRound then
// ObserveRound) across four candidate families.  After every step the in-place
// coordinator must decide bit-identically to a coordinator freshly constructed over
// the same specs with every job's belief transplanted by RestoreBelief (the
// reference semantics of a membership change).
TEST_F(MultiJobTest, InPlaceMembershipDecidesLikeAFreshlyBuiltCoordinator) {
  ConfigSpace space_b(sim_);  // content-identical to space_, a family of its own
  std::vector<DnnModel> models_c =
      BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kTraditionalOnly);
  PlatformSimulator sim_c(GetPlatform(PlatformId::kCpu1), models_c);
  ConfigSpace space_c(sim_c);
  std::vector<DnnModel> models_d =
      BuildEvaluationSet(TaskId::kSentencePrediction, DnnSetChoice::kBoth);
  PlatformSimulator sim_d(GetPlatform(PlatformId::kCpu1), models_d);
  ConfigSpace space_d(sim_d);
  const ConfigSpace* spaces[] = {&space_, &space_b, &space_c, &space_d};
  const Watts budget = 90.0;  // binding from about four jobs up

  for (const AllocationPolicy policy :
       {AllocationPolicy::kProportional, AllocationPolicy::kSlackRecycling}) {
    SCOPED_TRACE(testing::Message() << "policy " << static_cast<int>(policy));
    MultiJobCoordinator coordinator({}, budget, policy);
    std::vector<JobSpec> specs;  // mirrors the coordinator's jobs, in order
    Rng rng(41);
    int next_name = 0;
    int round = 0;
    int families_emptied = 0;

    for (int step = 0; step < 240; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const int k = static_cast<int>(specs.size());
      const int op = rng.UniformInt(0, 9);
      if (k == 0 || (op < 4 && k < 12)) {
        JobSpec spec;
        spec.name = "job" + std::to_string(next_name++);
        spec.space = spaces[rng.UniformInt(0, static_cast<int>(std::size(spaces)) - 1)];
        spec.goals = AccuracyGoals(0.06 + 0.02 * rng.UniformInt(0, 3));
        coordinator.AddJob(spec);
        specs.push_back(spec);
      } else if (op < 7) {
        const int index = rng.UniformInt(0, k - 1);
        const ConfigSpace* space = specs[static_cast<size_t>(index)].space;
        coordinator.RemoveJob(index);
        specs.erase(specs.begin() + index);
        families_emptied += std::none_of(specs.begin(), specs.end(),
                                         [space](const JobSpec& spec) {
                                           return spec.space == space;
                                         });
      } else {
        const auto decisions = coordinator.DecideRound(Requests(specs));
        std::vector<Measurement> measurements;
        for (size_t j = 0; j < decisions.size(); ++j) {
          measurements.push_back(FakeMeasurement(decisions[j], *specs[j].space,
                                                 specs[j].goals.deadline, round));
        }
        coordinator.ObserveRound(decisions, measurements);
        ++round;
      }
      ASSERT_EQ(coordinator.num_jobs(), static_cast<int>(specs.size()));
      for (size_t j = 0; j < specs.size(); ++j) {
        ASSERT_EQ(coordinator.job_name(static_cast<int>(j)), specs[j].name);
        ASSERT_EQ(&coordinator.job(static_cast<int>(j)).engine().space(),
                  specs[j].space);
      }

      MultiJobCoordinator fresh(specs, budget, policy);
      for (int j = 0; j < fresh.num_jobs(); ++j) {
        fresh.job(j).RestoreBelief(coordinator.job(j).ExportBelief());
      }
      const auto requests = Requests(specs);
      ExpectSameDecisions(coordinator.DecideRound(requests), fresh.DecideRound(requests));
      if (testing::Test::HasFailure()) {
        return;
      }
    }
    // The sequence must really have emptied and refilled families.
    EXPECT_GE(coordinator.num_families(), 4);
    EXPECT_GT(families_emptied, 0);
    EXPECT_GT(round, 20);
  }
}

TEST_F(MultiJobTest, EmptyCoordinatorDecidesAnEmptyRound) {
  MultiJobCoordinator coordinator({}, 50.0);
  EXPECT_EQ(coordinator.num_jobs(), 0);
  EXPECT_TRUE(coordinator.DecideRound({}).empty());
  coordinator.AddJob(SharedFamilyJobs(1, 0.08)[0]);
  coordinator.RemoveJob(0);
  EXPECT_EQ(coordinator.num_families(), 1);  // the emptied family stays
  EXPECT_TRUE(coordinator.DecideRound({}).empty());
}

}  // namespace
}  // namespace alert
