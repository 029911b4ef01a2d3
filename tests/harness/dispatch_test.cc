// Dispatcher correctness under failure: the merged aggregate must be byte-identical
// to the monolithic sweep for any worker count, kill schedule, silent straggler,
// lease revocation, steal order, or duplicate delivery — and a completed unit id
// must never be re-leased.  Also covers the cost model and cost-scaled straggler
// deadline, the pull pool's makespan against the static-shard bound on a skewed
// fleet, the incremental merge accumulator, and the warm-start (never re-profile)
// snapshot path the dispatcher ships to workers.
#include "src/harness/dispatch.h"

#include <gtest/gtest.h>
#include <poll.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

namespace alert {
namespace {

// Small but representative: two schemes and the 0.4x-deadline column (grid index 0,
// statically infeasible), so skipped settings flow through the wire protocol too.
SweepSpec ToySpec() {
  SweepSpec spec;
  spec.cells.push_back(SweepCellSpec{TaskId::kImageClassification, PlatformId::kCpu1,
                                     ContentionType::kNone, GoalMode::kMinimizeEnergy});
  spec.schemes = {SchemeId::kAlert, SchemeId::kNoCoord};
  spec.seeds = {1};
  spec.num_inputs = 30;
  spec.grid_indices = {0, 7, 14, 21, 28, 35};
  return spec;
}

class DispatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    plan_ = new SweepPlan(BuildSweepPlan(ToySpec()));
    SweepRunOptions run;
    run.threads = 2;
    monolithic_csv_ =
        new std::string(SweepAggregateCsv(*plan_, RunSweep(*plan_, run)));
  }
  static void TearDownTestSuite() {
    delete plan_;
    delete monolithic_csv_;
    plan_ = nullptr;
    monolithic_csv_ = nullptr;
  }

  // Wires the no-rerun invariant into a DispatchOptions: every id in every
  // assignment must not already have a merged result.
  struct NoRerunChecker {
    std::set<int> recorded;
    void Attach(DispatchOptions& options) {
      options.on_result = [this](int, const SweepUnitResult& result, bool newly) {
        if (newly) {
          recorded.insert(result.unit_id);
        }
      };
      options.on_assign = [this](int worker, int seq, std::span<const int> ids) {
        for (const int id : ids) {
          EXPECT_EQ(recorded.count(id), 0u)
              << "unit " << id << " reassigned (worker " << worker << ", seq " << seq
              << ") after its result was already merged";
        }
      };
    }
  };

  // Runs a dispatch over the shared plan and returns (status, csv, stats).
  static serde::Status Dispatch(Transport& transport, DispatchOptions options,
                                std::string* csv, DispatchStats* stats) {
    NoRerunChecker checker;
    checker.Attach(options);
    std::vector<CellResult> cells;
    const serde::Status s = DispatchSweep(*plan_, transport, options, &cells, stats);
    if (s.ok) {
      *csv = SweepAggregateCsv(*plan_, cells);
    }
    return s;
  }

  static SweepPlan* plan_;
  static std::string* monolithic_csv_;
};

SweepPlan* DispatchTest::plan_ = nullptr;
std::string* DispatchTest::monolithic_csv_ = nullptr;

// --- incremental merge accumulator -------------------------------------------------

TEST_F(DispatchTest, AccumulatorMergesOutOfOrderIdenticallyToBatchMerge) {
  const std::vector<SweepUnitResult> results = RunSweepUnits(*plan_, plan_->units);

  std::vector<SweepUnitResult> shuffled = results;
  std::mt19937 rng(1234);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  SweepMergeAccumulator accumulator(*plan_);
  EXPECT_FALSE(accumulator.complete());
  EXPECT_EQ(accumulator.num_expected(), plan_->units.size());
  for (const SweepUnitResult& result : shuffled) {
    bool newly = false;
    const serde::Status s = accumulator.Add(result, &newly);
    ASSERT_TRUE(s.ok) << s.message;
    EXPECT_TRUE(newly);
  }
  EXPECT_TRUE(accumulator.complete());
  EXPECT_TRUE(accumulator.MissingUnitIds().empty());

  std::vector<CellResult> incremental;
  ASSERT_TRUE(accumulator.Finalize(&incremental).ok);
  EXPECT_EQ(SweepAggregateCsv(*plan_, incremental), *monolithic_csv_);
}

TEST_F(DispatchTest, AccumulatorIsFirstWinsAndRejectsConflicts) {
  const std::vector<SweepUnitResult> results = RunSweepUnits(*plan_, plan_->units);
  SweepMergeAccumulator accumulator(*plan_);
  bool newly = false;
  ASSERT_TRUE(accumulator.Add(results[0], &newly).ok);
  EXPECT_TRUE(newly);

  // Identical redelivery: accepted, not recorded again.
  ASSERT_TRUE(accumulator.Add(results[0], &newly).ok);
  EXPECT_FALSE(newly);
  EXPECT_EQ(accumulator.num_recorded(), 1u);

  // Conflicting redelivery: a determinism violation, reported as an error.
  SweepUnitResult conflicting = results[0];
  conflicting.metric += 1.0;
  conflicting.usable = true;
  conflicting.skipped = false;
  const serde::Status conflict = accumulator.Add(conflicting, &newly);
  EXPECT_FALSE(conflict.ok);
  EXPECT_NE(conflict.message.find("conflicting"), std::string::npos);

  // Unknown ids are errors; missing units are reported by id.
  SweepUnitResult unknown;
  unknown.unit_id = static_cast<int>(plan_->units.size());
  EXPECT_FALSE(accumulator.Add(unknown, &newly).ok);
  std::vector<CellResult> cells;
  const serde::Status incomplete = accumulator.Finalize(&cells);
  EXPECT_FALSE(incomplete.ok);
  EXPECT_NE(incomplete.message.find("missing"), std::string::npos);
  EXPECT_EQ(accumulator.MissingUnitIds().size(), plan_->units.size() - 1);
  EXPECT_TRUE(accumulator.IsRecorded(results[0].unit_id));
}

// --- warm-start profile snapshots --------------------------------------------------

TEST_F(DispatchTest, WarmStartSnapshotsNeverChangeResults) {
  const ProfileSnapshotStore store = CapturePlanSnapshots(*plan_);
  // One (task, platform, seed) triple in the toy plan, three candidate-set stacks.
  EXPECT_EQ(store.size(), 3u);

  SweepRunOptions warm;
  warm.warm_start = &store;
  const std::vector<SweepUnitResult> with_snapshots =
      RunSweepUnits(*plan_, plan_->units, warm);
  const std::vector<SweepUnitResult> without = RunSweepUnits(*plan_, plan_->units);
  EXPECT_EQ(with_snapshots, without);
}

TEST_F(DispatchTest, WarmStartedExperimentReproducesTheSnapshotExactly) {
  const ProfileSnapshotStore store = CapturePlanSnapshots(*plan_);
  const SweepCellSpec& cell = plan_->spec.cells.front();
  ExperimentOptions options;
  options.num_inputs = plan_->spec.num_inputs;
  options.seed = plan_->spec.seeds.front();
  const Experiment experiment(cell.task, cell.platform, cell.contention, options,
                              &store);
  for (const DnnSetChoice choice :
       {DnnSetChoice::kTraditionalOnly, DnnSetChoice::kAnytimeOnly,
        DnnSetChoice::kBoth}) {
    const ProfileSnapshot* shipped =
        store.Find(cell.task, cell.platform, options.seed, choice);
    ASSERT_NE(shipped, nullptr);
    EXPECT_EQ(CaptureProfileSnapshot(experiment.stack(choice).space()), *shipped);
  }
}

// --- dispatch equivalence ----------------------------------------------------------

TEST_F(DispatchTest, InProcessDispatchMatchesMonolithicForAnyWorkerCount) {
  for (const int workers : {1, 2, 5}) {
    // Without the barrier, fast workers can drain the 18-unit plan before a slow
    // starter sends its first lease-request, and the lease count below would
    // measure thread timing instead of the pool.
    InProcessTransport::Options in_options;
    in_options.first_lease_barrier = workers;
    InProcessTransport transport(in_options);
    DispatchOptions options;
    options.num_workers = workers;
    std::string csv;
    DispatchStats stats;
    const serde::Status s = Dispatch(transport, options, &csv, &stats);
    ASSERT_TRUE(s.ok) << s.message;
    EXPECT_EQ(csv, *monolithic_csv_) << "workers=" << workers;
    EXPECT_EQ(stats.workers_launched, workers);
    EXPECT_EQ(stats.worker_failures, 0);
    EXPECT_GE(stats.leases_granted, workers);
  }
}

TEST_F(DispatchTest, WorkerDyingMidShardIsRetriedWithoutRerunningCompletedUnits) {
  InProcessTransport::Options in_options;
  // Worker 0 dies after its first result — mid-lease (cold leases hold two units),
  // so the dispatcher must requeue the undelivered remainder.
  in_options.fail_after = {{0, 1}};
  InProcessTransport transport(in_options);
  DispatchOptions options;
  options.num_workers = 2;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_GE(stats.worker_failures, 1);
  EXPECT_GE(stats.retry_assignments, 1);
}

TEST_F(DispatchTest, SilentWorkerTripsTheDeadlineAndItsUnitsAreRepartitioned) {
  InProcessTransport::Options in_options;
  in_options.hang_after = {{0, 0}};  // worker 0 never reports anything
  InProcessTransport transport(in_options);
  DispatchOptions options;
  options.num_workers = 2;
  options.straggler_deadline_ms = 200;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_GE(stats.stragglers, 1);
  EXPECT_GE(stats.retry_assignments, 1);
  EXPECT_EQ(stats.worker_failures, 0);  // silence is not a crash
}

TEST_F(DispatchTest, DuplicateDeliveryIsDedupedFirstWins) {
  InProcessTransport::Options in_options;
  in_options.duplicate_results = {0, 1};  // both workers double-send everything
  InProcessTransport transport(in_options);
  DispatchOptions options;
  options.num_workers = 2;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  // Every unit is redelivered once; the dispatcher stops reading the moment the
  // accumulator completes, so the very last duplicate may go unread.
  EXPECT_GE(stats.duplicate_results, static_cast<int>(plan_->units.size()) - 1);
  EXPECT_GE(stats.results_received, 2 * static_cast<int>(plan_->units.size()) - 1);
}

TEST_F(DispatchTest, RandomizedKillSchedulesAlwaysMergeByteIdentically) {
  for (const uint32_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937 rng(seed);
    InProcessTransport::Options in_options;
    const int workers = 3;
    for (int w = 0; w < workers; ++w) {
      // Each initial worker independently: die after 1..5 results, go quiet, or
      // behave; every replacement (fresh launch index) comes up clean.
      const int roll = static_cast<int>(rng() % 4);
      if (roll == 0) {
        in_options.hang_after[w] = static_cast<int>(rng() % 3);
      } else if (roll < 3) {
        in_options.fail_after[w] = 1 + static_cast<int>(rng() % 5);
      }
      if (rng() % 2 == 0) {
        in_options.duplicate_results.insert(w);
      }
    }
    InProcessTransport transport(in_options);
    DispatchOptions options;
    options.num_workers = workers;
    options.straggler_deadline_ms = 200;
    options.max_worker_launches = 32;
    std::string csv;
    DispatchStats stats;
    const serde::Status s = Dispatch(transport, options, &csv, &stats);
    ASSERT_TRUE(s.ok) << "seed=" << seed << ": " << s.message;
    EXPECT_EQ(csv, *monolithic_csv_) << "seed=" << seed;
  }
}

// --- lease economics: cost model, sizing, stealing, deadlines ----------------------

TEST(LeaseCostModelTest, LearnsAnEwmaRateAndIgnoresGarbageObservations) {
  LeaseCostModel model;
  EXPECT_FALSE(model.seeded());
  EXPECT_EQ(model.PredictMs(0, 10.0), 0.0);

  model.Observe(0, 2.0, 10.0);  // 5 ms per cost point; first sample adopted whole
  EXPECT_TRUE(model.seeded());
  EXPECT_DOUBLE_EQ(model.rate_ms(), 5.0);
  EXPECT_DOUBLE_EQ(model.PredictMs(0, 4.0), 20.0);

  model.Observe(0, 1.0, 10.0);  // a 10 ms/point sample, blended at alpha 0.3
  EXPECT_NEAR(model.rate_ms(), 0.7 * 5.0 + 0.3 * 10.0, 1e-12);
  EXPECT_NEAR(model.RateFor(0), 0.7 * 5.0 + 0.3 * 10.0, 1e-12);

  const double before = model.rate_ms();
  model.Observe(0, 0.0, 10.0);                                      // zero cost
  model.Observe(0, -1.0, 10.0);                                     // negative cost
  model.Observe(0, 2.0, 0.0);                                       // zero ms
  model.Observe(0, 2.0, std::numeric_limits<double>::quiet_NaN());  // NaN ms
  model.Observe(0, std::numeric_limits<double>::infinity(), 5.0);   // infinite cost
  EXPECT_DOUBLE_EQ(model.rate_ms(), before);
  EXPECT_EQ(model.PredictMs(0, -3.0), 0.0);  // nonsense cost predicts nothing
  EXPECT_TRUE(model.worker_rates().count(0));
  EXPECT_FALSE(model.worker_rates().count(7));  // garbage never seeded a worker
}

TEST(LeaseCostModelTest, SeededModelPredictsBeforeAnyObservation) {
  const LeaseCostModel model(3.0);
  EXPECT_TRUE(model.seeded());
  EXPECT_DOUBLE_EQ(model.PredictMs(0, 2.0), 6.0);
  const LeaseCostModel unseedable(-1.0);  // garbage seed = start unknown
  EXPECT_FALSE(unseedable.seeded());
}

TEST(LeaseCostModelTest, PerWorkerRatesDivergeAndColdWorkersUseTheFleetPrior) {
  LeaseCostModel model;
  // Worker 0 is fast (2 ms/point), worker 1 an order of magnitude slower.
  model.Observe(0, 1.0, 2.0);
  model.Observe(1, 1.0, 20.0);
  EXPECT_TRUE(model.worker_seeded(0));
  EXPECT_TRUE(model.worker_seeded(1));
  EXPECT_DOUBLE_EQ(model.RateFor(0), 2.0);
  EXPECT_DOUBLE_EQ(model.RateFor(1), 20.0);
  EXPECT_DOUBLE_EQ(model.PredictMs(0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(model.PredictMs(1, 3.0), 60.0);

  // A cold worker (no observations yet) predicts at the fleet prior — which has
  // blended both machines, so it sits strictly between them.
  EXPECT_FALSE(model.worker_seeded(2));
  const double fleet = model.RateFor(2);
  EXPECT_DOUBLE_EQ(fleet, model.rate_ms());
  EXPECT_GT(fleet, model.RateFor(0));
  EXPECT_LT(fleet, model.RateFor(1));

  // One worker's samples never contaminate another's learned rate.
  model.Observe(0, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(model.RateFor(1), 20.0);
}

TEST(PullLeaseWantsMoreTest, MaxUnitsClampBindsEvenWhenPredictionsStayZero) {
  // The satellite-2 regression: units with SweepUnitCost == 0 predict 0 ms at any
  // rate, so the "predicted time < target" branch alone would swallow an unbounded
  // plan prefix.  The clamp must bind in every branch.
  constexpr int kMax = 64;
  constexpr int kColdCap = 2;
  // Zero-cost units with a known rate: predicted_ms stays 0 forever, yet the lease
  // must stop at exactly the cap.
  for (int taken = 0; taken < kMax; ++taken) {
    EXPECT_TRUE(PullLeaseWantsMore(taken, kMax, kColdCap, /*rate_known=*/true,
                                   /*predicted_ms=*/0.0, /*target_ms=*/1000))
        << "taken=" << taken;
  }
  EXPECT_FALSE(PullLeaseWantsMore(kMax, kMax, kColdCap, true, 0.0, 1000));
  EXPECT_FALSE(PullLeaseWantsMore(kMax + 1, kMax, kColdCap, true, 0.0, 1000));
  // Cold start: the cold cap binds, and the max-units clamp still dominates it.
  EXPECT_TRUE(PullLeaseWantsMore(1, kMax, kColdCap, false, 0.0, 1000));
  EXPECT_FALSE(PullLeaseWantsMore(kColdCap, kMax, kColdCap, false, 0.0, 1000));
  EXPECT_FALSE(PullLeaseWantsMore(5, 5, /*cold_cap=*/100, false, 0.0, 1000));
  // An empty lease always takes its first unit, even one predicted over target.
  EXPECT_TRUE(PullLeaseWantsMore(0, kMax, kColdCap, true, 5000.0, 1000));
  // Known rate: stop once the prediction crosses the target.
  EXPECT_TRUE(PullLeaseWantsMore(3, kMax, kColdCap, true, 999.0, 1000));
  EXPECT_FALSE(PullLeaseWantsMore(3, kMax, kColdCap, true, 1000.0, 1000));
}

// --- row-closed leases ----------------------------------------------------------

// One cell, two schemes, the full grid: 108 units in six replay rows of 18.
SweepPlan FullRowPlan() {
  SweepSpec spec = ToySpec();
  spec.grid_indices.clear();
  return BuildSweepPlan(spec);
}

// Dispatches `plan` and returns every granted lease's unit ids, in grant order.
std::vector<std::vector<int>> GrantedLeases(const SweepPlan& plan,
                                            InProcessTransport::Options in_options,
                                            DispatchOptions options) {
  std::vector<std::vector<int>> leases;
  options.on_assign = [&](int, int, std::span<const int> ids) {
    leases.emplace_back(ids.begin(), ids.end());
  };
  InProcessTransport transport(std::move(in_options));
  std::vector<CellResult> cells;
  const serde::Status s = DispatchSweep(plan, transport, options, &cells);
  EXPECT_TRUE(s.ok) << s.message;
  return leases;
}

std::vector<int> IdRange(int first, int last) {
  std::vector<int> ids;
  for (int id = first; id <= last; ++id) {
    ids.push_back(id);
  }
  return ids;
}

TEST(RowClosedLeaseTest, WarmLeasesThatHitALimitMidRowCloseOnTheRowBoundary) {
  const SweepPlan plan = FullRowPlan();
  ASSERT_EQ(plan.units.size(), 108u);
  DispatchOptions options;
  options.num_workers = 1;
  options.initial_cost_rate_ms = 1.0;  // warm from the first lease
  options.max_lease_units = 5;
  options.target_lease_ms = 1000000;  // only the unit cap binds
  const std::vector<std::vector<int>> leases = GrantedLeases(plan, {}, options);
  ASSERT_EQ(leases.size(), 6u);
  for (size_t i = 0; i < leases.size(); ++i) {
    const int first = 18 * static_cast<int>(i);
    EXPECT_EQ(leases[i], IdRange(first, first + 17)) << "lease " << i;
  }
}

TEST(RowClosedLeaseTest, ColdLeasesStopAtTheirLimit) {
  const SweepPlan plan = FullRowPlan();
  DispatchOptions options;
  options.num_workers = 1;
  options.max_lease_units = 5;
  const std::vector<std::vector<int>> leases = GrantedLeases(plan, {}, options);
  ASSERT_GE(leases.size(), 2u);
  EXPECT_EQ(leases[0], IdRange(0, 4));  // cold: the rate is still unknown
  EXPECT_EQ(leases[1], IdRange(5, 17));  // warm by now: closes the row
}

TEST(RowClosedLeaseTest, RetryLeasesStopAtTheirLimit) {
  const SweepPlan plan = FullRowPlan();
  InProcessTransport::Options in_options;
  in_options.fail_after = {{0, 16}};  // dies with units 16 and 17 of its lease unsent
  DispatchOptions options;
  options.num_workers = 1;
  options.initial_cost_rate_ms = 1.0;
  options.max_lease_units = 5;
  options.target_lease_ms = 1000000;
  const std::vector<std::vector<int>> leases = GrantedLeases(plan, in_options, options);
  ASSERT_GE(leases.size(), 3u);
  EXPECT_EQ(leases[0], IdRange(0, 17));
  // The requeued pair plus fresh units up to the cap, although unit 20 is mid-row.
  EXPECT_EQ(leases[1], (std::vector<int>{16, 17, 18, 19, 20}));
  EXPECT_EQ(leases[2], IdRange(21, 35));
}

TEST(EffectiveLeaseDeadlineTest, StretchesForLongUnitsAndFallsBackToFlat) {
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, 4.0, 0.0), 100);     // model unknown
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, 0.0, 500.0), 100);   // scaling disabled
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, -2.0, 500.0), 100);  // scaling disabled
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, 4.0, 10.0), 100);    // flat dominates
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, 4.0, 500.0), 2000);  // stretched
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, 4.0, 25.1), 101);    // ceil, not trunc
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, 1e12, 1e12), INT_MAX);  // clamped
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, 4.0, nan), 100);
  EXPECT_EQ(EffectiveLeaseDeadlineMs(100, nan, 500.0), 100);
}

TEST_F(DispatchTest, PullLeasesBeatStaticShardsOnASkewedFleet) {
  // Worker 0 simulates a machine ~an order of magnitude slower than worker 1.
  // Static LPT cannot know that: it splits cost evenly, and whichever shard the slow
  // worker holds, it sleeps kDelayMs through every unit of it.  So the LPT
  // baseline's makespan is at least kDelayMs x the smaller shard's unit count — a
  // bound computed from the plan alone, which no machine load can shrink.  The pull
  // pool only ever exposes the slow worker to small leases, and the fast worker
  // drains the rest.
  constexpr int kDelayMs = 80;
  const std::vector<std::vector<SweepUnit>> lpt =
      PartitionPlan(*plan_, 2, ShardStrategy::kCostWeighted);
  ASSERT_EQ(lpt.size(), 2u);
  const size_t smaller_shard = std::min(lpt[0].size(), lpt[1].size());
  const double lpt_makespan_floor_ms = kDelayMs * static_cast<double>(smaller_shard);

  InProcessTransport::Options in_options;
  in_options.delay_per_result = {{0, kDelayMs}};
  InProcessTransport transport(in_options);
  DispatchOptions options;
  options.num_workers = 2;
  size_t slow_worker_units = 0;
  options.on_result = [&](int worker, const SweepUnitResult&, bool newly) {
    if (worker == 0 && newly) {
      ++slow_worker_units;
    }
  };
  std::vector<CellResult> cells;
  DispatchStats stats;
  const serde::Status s = DispatchSweep(*plan_, transport, options, &cells, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(SweepAggregateCsv(*plan_, cells), *monolithic_csv_);
  EXPECT_EQ(stats.worker_failures, 0);
  EXPECT_LT(slow_worker_units * 2, smaller_shard)
      << "the slow worker ran half a static shard or more";
  EXPECT_LT(stats.elapsed_ms, 0.65 * lpt_makespan_floor_ms)
      << "pull pool did not finish well inside the static LPT makespan floor";
}

TEST_F(DispatchTest, PerWorkerRatesTrackEachMachineOnAHeterogeneousFleet) {
  // Two machines an order of magnitude apart: the final stats must carry a learned
  // rate per machine, and the slow machine's rate must actually be much larger —
  // a single fleet-wide EWMA would report one blended number and the straggler
  // deadline / steal valuation would mis-predict both workers.
  InProcessTransport::Options in_options;
  in_options.delay_per_result = {{0, 90}, {1, 15}};
  InProcessTransport transport(in_options);
  DispatchOptions options;
  options.num_workers = 2;
  options.target_lease_ms = 120;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_TRUE(stats.cost_model_seeded);
  EXPECT_TRUE(std::isfinite(stats.cost_rate_ms));
  ASSERT_TRUE(stats.worker_cost_rates.count(0));
  ASSERT_TRUE(stats.worker_cost_rates.count(1));
  // 90 ms vs 15 ms of injected floor per unit: the learned rates must diverge by
  // well over the EWMA's smoothing slack.
  EXPECT_GT(stats.worker_cost_rates.at(0), 2.0 * stats.worker_cost_rates.at(1))
      << "per-worker rates did not separate a slow machine from a fast one";
  // The fleet prior blends both, so it sits between them.
  EXPECT_GT(stats.cost_rate_ms, stats.worker_cost_rates.at(1));
  EXPECT_LT(stats.cost_rate_ms, stats.worker_cost_rates.at(0));
}

TEST_F(DispatchTest, UnseededCostModelReportsNaNSentinelNotZero) {
  // The satellite-1 regression: a fully-preseeded dispatch (every unit merged
  // before any worker launches — the cache-hit-everything rerun) never feeds the
  // cost model, so the old `cost_rate_ms = 0.0` report was indistinguishable from a
  // genuinely instant fleet.  The sentinel is NaN plus an explicit flag.
  InProcessTransport transport;
  DispatchOptions options;
  options.num_workers = 2;
  options.preseeded_results = RunSweepUnits(*plan_, plan_->units);
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_EQ(stats.workers_launched, 0);
  EXPECT_FALSE(stats.cost_model_seeded);
  EXPECT_TRUE(std::isnan(stats.cost_rate_ms));
  EXPECT_TRUE(stats.worker_cost_rates.empty());
}

TEST_F(DispatchTest, IdleWorkerStealsFromAnOverloadedPeer) {
  // Worker 0 takes 300 ms per unit; worker 1 drains the rest of the plan and goes
  // idle long before worker 0 finishes even one unit of its two-unit warm-up lease.
  // With nothing pending, the only way worker 1 gets work — and the dispatch gets
  // its makespan back — is revoking the overloaded lease and re-granting its
  // unfinished remainder.  The straggler deadline is set high so it cannot be the
  // mechanism; any re-plan here is a steal.
  // The barrier pins the opening: worker 1 cannot finish a unit, and so cannot drain
  // the plan, until worker 0 holds its warm-up lease.
  InProcessTransport::Options in_options;
  in_options.delay_per_result = {{0, 300}};
  in_options.first_lease_barrier = 2;
  InProcessTransport transport(in_options);
  DispatchOptions options;
  options.num_workers = 2;
  options.target_lease_ms = 100;  // age/overload guards trip at a few hundred ms
  options.straggler_deadline_ms = 60000;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_GE(stats.units_stolen, 1);
  EXPECT_GE(stats.lease_revocations, 1);
  EXPECT_EQ(stats.stragglers, 0) << "re-plan must come from stealing, not deadline";
  EXPECT_EQ(stats.worker_failures, 0);
}

TEST_F(DispatchTest, CostScaledDeadlineToleratesSlowUnitsWithHeartbeatsOff) {
  // The satellite-2 regression: heartbeats off, every unit slower than the flat
  // straggler deadline.  A flat deadline declares healthy workers stragglers over
  // and over (the control run below proves the setup would trip it); the
  // cost-scaled deadline sees the seeded model predict long units and stretches,
  // so nobody is declared a straggler.  Both schedules must still merge
  // byte-identically — false straggling costs duplicate work, never correctness.
  double min_cost = std::numeric_limits<double>::infinity();
  for (const SweepUnit& unit : plan_->units) {
    min_cost = std::min(min_cost, SweepUnitCost(unit));
  }
  ASSERT_GT(min_cost, 0.0);
  constexpr int kDelayMs = 120;
  const auto run = [&](double cost_factor, DispatchStats* stats) {
    InProcessTransport::Options in_options;
    in_options.heartbeat_interval_ms = 0;  // silence between results is real
    in_options.delay_per_result = {{0, kDelayMs}, {1, kDelayMs}};
    InProcessTransport transport(in_options);
    DispatchOptions options;
    options.num_workers = 2;
    options.straggler_deadline_ms = 50;  // flat deadline < one unit's wall time
    options.straggler_cost_factor = cost_factor;
    // Seed the model so every unit is predicted to take >= 2 x kDelayMs: deadline
    // behavior is then deterministic from the first lease.
    options.initial_cost_rate_ms = 2.0 * kDelayMs / min_cost;
    std::string csv;
    const serde::Status s = Dispatch(transport, options, &csv, stats);
    ASSERT_TRUE(s.ok) << s.message;
    EXPECT_EQ(csv, *monolithic_csv_);
  };
  DispatchStats scaled;
  run(/*cost_factor=*/4.0, &scaled);
  EXPECT_EQ(scaled.stragglers, 0)
      << "cost-scaled deadline still misfires on long units";
  DispatchStats flat;
  run(/*cost_factor=*/0.0, &flat);
  EXPECT_GE(flat.stragglers, 1)
      << "control: the flat deadline was never in danger, so the scaled run "
         "proves nothing";
}

TEST_F(DispatchTest, RandomizedScheduleMatrixMergesByteIdenticallyForAllK) {
  // The satellite-4 equivalence suite: kills x silences x duplicates x skewed
  // speeds (which drive revocations and steals via the small lease target), over
  // K in {2, 4, 8}.  Whatever the schedule, the merged aggregate must be the
  // monolithic bytes.
  for (const int workers : {2, 4, 8}) {
    for (const uint32_t seed : {7u, 11u}) {
      std::mt19937 rng(1000u * static_cast<uint32_t>(workers) + seed);
      InProcessTransport::Options in_options;
      in_options.heartbeat_interval_ms = 50;
      for (int w = 0; w < workers; ++w) {
        switch (rng() % 4) {
          case 0:
            in_options.fail_after[w] = 1 + static_cast<int>(rng() % 4);
            break;
          case 1:
            in_options.hang_after[w] = static_cast<int>(rng() % 3);
            break;
          case 2:
            in_options.delay_per_result[w] = 30 + static_cast<int>(rng() % 3) * 30;
            break;
          default:
            break;  // a well-behaved worker
        }
        if (rng() % 2 == 0) {
          in_options.duplicate_results.insert(w);
        }
      }
      InProcessTransport transport(in_options);
      DispatchOptions options;
      options.num_workers = workers;
      options.enable_steal = true;
      options.target_lease_ms = 25;  // small leases: lots of grants and steals
      options.straggler_deadline_ms = 250;
      options.max_worker_launches = 64;
      std::string csv;
      DispatchStats stats;
      const serde::Status s = Dispatch(transport, options, &csv, &stats);
      ASSERT_TRUE(s.ok) << "workers=" << workers << " seed=" << seed << ": "
                        << s.message;
      EXPECT_EQ(csv, *monolithic_csv_) << "workers=" << workers << " seed=" << seed;
    }
  }
}

// --- lease pipelining ---------------------------------------------------------------

TEST_F(DispatchTest, PipelinedLeasesMergeByteIdenticallyAndActuallyPipeline) {
  // Small leases force many grants, so a draining lease nearly always has a
  // prefetch in flight.  Identical bytes, and the stats prove the mechanism ran.
  InProcessTransport transport;
  DispatchOptions options;
  options.num_workers = 2;
  options.pipeline_leases = true;
  options.max_lease_units = 2;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_GE(stats.leases_pipelined, 1) << "pipelining was enabled but never used";
  EXPECT_LE(stats.leases_pipelined, stats.leases_granted);
}

TEST_F(DispatchTest, PipeliningSurvivesKillsStealsAndRevocations) {
  // The revocation-aware part of the tentpole: a prefetch granted to a worker that
  // then dies, hangs, or gets stolen from must be requeued like any other lease —
  // and a revoked prefetch must never execute.  Same randomized matrix as the
  // equivalence suite, pipelining on.
  for (const int workers : {2, 4}) {
    for (const uint32_t seed : {21u, 22u, 23u}) {
      std::mt19937 rng(1000u * static_cast<uint32_t>(workers) + seed);
      InProcessTransport::Options in_options;
      in_options.heartbeat_interval_ms = 50;
      for (int w = 0; w < workers; ++w) {
        switch (rng() % 4) {
          case 0:
            in_options.fail_after[w] = 1 + static_cast<int>(rng() % 4);
            break;
          case 1:
            in_options.hang_after[w] = static_cast<int>(rng() % 3);
            break;
          case 2:
            in_options.delay_per_result[w] = 30 + static_cast<int>(rng() % 3) * 30;
            break;
          default:
            break;
        }
        if (rng() % 2 == 0) {
          in_options.duplicate_results.insert(w);
        }
      }
      InProcessTransport transport(in_options);
      DispatchOptions options;
      options.num_workers = workers;
      options.pipeline_leases = true;
      options.target_lease_ms = 25;
      options.straggler_deadline_ms = 250;
      options.max_worker_launches = 64;
      std::string csv;
      DispatchStats stats;
      const serde::Status s = Dispatch(transport, options, &csv, &stats);
      ASSERT_TRUE(s.ok) << "workers=" << workers << " seed=" << seed << ": "
                        << s.message;
      EXPECT_EQ(csv, *monolithic_csv_) << "workers=" << workers << " seed=" << seed;
    }
  }
}

// --- checkpointed merge accumulator ------------------------------------------------

TEST_F(DispatchTest, CompletedDispatchWritesAFinalCheckpointCoveringEveryUnit) {
  const std::string path = ::testing::TempDir() + "/dispatch_final.ckpt";
  std::remove(path.c_str());
  InProcessTransport transport;
  DispatchOptions options;
  options.num_workers = 2;
  options.checkpoint_path = path;
  options.checkpoint_every = 4;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_GE(stats.checkpoints_written, 1);

  std::string text;
  ASSERT_TRUE(serde::ReadFile(path, &text).ok);
  SweepCheckpoint checkpoint;
  ASSERT_TRUE(ParseSweepCheckpoint(text, &checkpoint).ok);
  EXPECT_EQ(checkpoint.plan_fingerprint, PlanFingerprint(*plan_));
  EXPECT_EQ(checkpoint.results.size(), plan_->units.size());
  // The checkpoint alone must reconstruct the monolithic bytes.
  SweepMergeAccumulator accumulator(*plan_);
  for (const SweepUnitResult& result : checkpoint.results) {
    bool newly = false;
    ASSERT_TRUE(accumulator.Add(result, &newly).ok);
  }
  std::vector<CellResult> cells;
  ASSERT_TRUE(accumulator.Finalize(&cells).ok);
  EXPECT_EQ(SweepAggregateCsv(*plan_, cells), *monolithic_csv_);
}

TEST_F(DispatchTest, KilledDispatcherResumesFromCheckpointByteIdentically) {
  // The tentpole's crash-resume claim, in-library: kill the dispatcher (injected
  // crash) at randomized points, resume from whatever checkpoint survived, repeat
  // until a run completes — the final CSV must be the monolithic bytes, and
  // completed units must never be re-leased across the whole crash chain.
  for (const int workers : {2, 4, 8}) {
    for (const uint32_t seed : {5u, 9u}) {
      std::mt19937 rng(100u * static_cast<uint32_t>(workers) + seed);
      const std::string path = ::testing::TempDir() + "/dispatch_resume_" +
                               std::to_string(workers) + "_" + std::to_string(seed) +
                               ".ckpt";
      std::remove(path.c_str());
      std::string csv;
      DispatchStats stats;
      int crashes = 0;
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 32) << "crash/resume chain did not converge";
        DispatchOptions options;
        options.num_workers = workers;
        options.checkpoint_path = path;
        options.checkpoint_every = 1 + static_cast<int>(rng() % 3);
        // Preseed from the surviving checkpoint, exactly like the tool does.
        std::string text;
        if (serde::ReadFile(path, &text).ok) {
          SweepCheckpoint checkpoint;
          ASSERT_TRUE(ParseSweepCheckpoint(text, &checkpoint).ok);
          ASSERT_EQ(checkpoint.plan_fingerprint, PlanFingerprint(*plan_));
          options.preseeded_results = checkpoint.results;
        }
        const size_t already = options.preseeded_results.size();
        // Crash a few results into the run, until the plan is nearly done; then
        // let one run finish.
        if (already + 6 < plan_->units.size()) {
          options.crash_after_results = 2 + static_cast<int>(rng() % 5);
        }
        InProcessTransport transport;
        const serde::Status s = Dispatch(transport, options, &csv, &stats);
        if (s.ok) {
          break;
        }
        ASSERT_NE(s.message.find("injected dispatcher crash"), std::string::npos)
            << s.message;
        ++crashes;
      }
      EXPECT_GE(crashes, 1) << "the schedule never actually crashed a dispatcher";
      EXPECT_EQ(csv, *monolithic_csv_)
          << "workers=" << workers << " seed=" << seed << " crashes=" << crashes;
      EXPECT_GT(stats.preseeded, 0);
      std::remove(path.c_str());
    }
  }
}

TEST_F(DispatchTest, CheckpointsCoexistWithFailuresStealsAndPipelining) {
  // Checkpoint writes interleave with worker kills, revocations, and prefetches;
  // the resumed run must still converge to the monolithic bytes.
  const std::string path = ::testing::TempDir() + "/dispatch_chaos.ckpt";
  std::remove(path.c_str());
  const auto run = [&](bool crash, std::string* csv, DispatchStats* stats) {
    InProcessTransport::Options in_options;
    in_options.fail_after = {{0, 2}};
    in_options.delay_per_result = {{1, 40}};
    in_options.duplicate_results = {2};
    InProcessTransport transport(in_options);
    DispatchOptions options;
    options.num_workers = 3;
    options.pipeline_leases = true;
    options.target_lease_ms = 25;
    options.straggler_deadline_ms = 250;
    options.max_worker_launches = 32;
    options.checkpoint_path = path;
    options.checkpoint_every = 2;
    if (crash) {
      options.crash_after_results = 6;
    }
    std::string text;
    if (serde::ReadFile(path, &text).ok) {
      SweepCheckpoint checkpoint;
      ASSERT_TRUE(ParseSweepCheckpoint(text, &checkpoint).ok);
      options.preseeded_results = checkpoint.results;
    }
    const serde::Status s = Dispatch(transport, options, csv, stats);
    EXPECT_EQ(s.ok, !crash) << s.message;
  };
  std::string csv;
  DispatchStats stats;
  run(/*crash=*/true, &csv, &stats);
  run(/*crash=*/false, &csv, &stats);
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_GT(stats.preseeded, 0);
  std::remove(path.c_str());
}

// --- heartbeat shutdown ordering (satellite 3) --------------------------------------

TEST_F(DispatchTest, RapidHeartbeatsNeverOutliveTheirLeaseUnderRevocationChurn) {
  // A 1 ms heartbeat against revocation churn (steals via a skewed fleet + a
  // mid-lease death): if the heartbeat thread could still write after its lease
  // closed — the pre-RAII bug when an error unwound past the manual stop — the
  // TSan lane flags the channel race and byte-identity breaks under the torn
  // writes.  Run it a few times; the interleaving is the test.
  for (int round = 0; round < 3; ++round) {
    InProcessTransport::Options in_options;
    in_options.heartbeat_interval_ms = 1;
    in_options.delay_per_result = {{0, 60}};
    in_options.fail_after = {{1, 3}};
    InProcessTransport transport(in_options);
    DispatchOptions options;
    options.num_workers = 3;
    options.target_lease_ms = 25;
    options.straggler_deadline_ms = 400;
    options.pipeline_leases = (round % 2 == 1);
    options.max_worker_launches = 32;
    std::string csv;
    DispatchStats stats;
    const serde::Status s = Dispatch(transport, options, &csv, &stats);
    ASSERT_TRUE(s.ok) << "round=" << round << ": " << s.message;
    EXPECT_EQ(csv, *monolithic_csv_) << "round=" << round;
  }
}

// --- transport failure handling ----------------------------------------------------

// Fails the first N launches, then delegates to a real in-process transport.
class FlakyLaunchTransport : public Transport {
 public:
  explicit FlakyLaunchTransport(int failures) : failures_(failures) {}
  serde::Status Launch(int worker_index, std::unique_ptr<WorkerChannel>* out) override {
    if (failures_-- > 0) {
      return serde::Error("injected launch failure");
    }
    return inner_.Launch(worker_index, out);
  }

 private:
  int failures_;
  InProcessTransport inner_;
};

TEST_F(DispatchTest, FailedLaunchesAreRetriedAgainstTheBudget) {
  FlakyLaunchTransport transport(2);
  DispatchOptions options;
  options.num_workers = 2;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  ASSERT_TRUE(s.ok) << s.message;
  EXPECT_EQ(csv, *monolithic_csv_);
  EXPECT_EQ(stats.failed_launches, 2);
  EXPECT_EQ(stats.workers_launched, 2);
}

// A channel whose worker is dead on arrival: sends succeed into the void, reads see
// an immediately-closed stream.
class DeadChannel : public WorkerChannel {
 public:
  serde::Status Send(std::string_view) override { return serde::Ok(); }
  ChannelRead Recv(int, std::string*) override { return ChannelRead::kClosed; }
  int wait_fd() const override { return -1; }
  void Close() override {}
};

class DeadWorkerTransport : public Transport {
 public:
  serde::Status Launch(int, std::unique_ptr<WorkerChannel>* out) override {
    *out = std::make_unique<DeadChannel>();
    return serde::Ok();
  }
};

TEST_F(DispatchTest, ExhaustedLaunchBudgetIsAnErrorNotAHang) {
  DeadWorkerTransport transport;
  DispatchOptions options;
  options.num_workers = 2;
  options.max_worker_launches = 5;
  std::string csv;
  DispatchStats stats;
  const serde::Status s = Dispatch(transport, options, &csv, &stats);
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.message.find("launch budget"), std::string::npos);
  EXPECT_EQ(stats.workers_launched, 5);
}

// --- the channel wait primitive -----------------------------------------------------

// Whether `fd` is readable, waiting at most `wait_ms` (-1: until it is).
bool Readable(int fd, int wait_ms) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, wait_ms) == 1;
}

// The hang guard for "eventually readable" waits: generous, only a broken wait_fd
// comes near it.
constexpr int kLivenessMs = 60000;

TEST(ChannelWaitTest, InProcessFdTracksQueuedLinesAndClose) {
  InProcessTransport transport;
  std::unique_ptr<WorkerChannel> channel;
  ASSERT_TRUE(transport.Launch(0, &channel).ok);
  const int fd = channel->wait_fd();
  ASSERT_GE(fd, 0);
  // The worker says hello and asks for a lease, then blocks on its input.
  std::string line;
  for (const char* expected : {"worker-hello", "lease-request"}) {
    ASSERT_TRUE(Readable(fd, kLivenessMs)) << "waiting for " << expected;
    ASSERT_EQ(channel->Recv(0, &line), ChannelRead::kLine);
    EXPECT_TRUE(line.starts_with(expected)) << line;
  }
  // Drained, and the worker is silent until it hears from the dispatcher.
  EXPECT_FALSE(Readable(fd, 0));
  EXPECT_EQ(channel->Recv(0, &line), ChannelRead::kTimeout);

  // A malformed grant: the worker answers with worker-error (a Push) and exits (the
  // Close).  Readable must mean Recv makes progress each time.
  ASSERT_TRUE(channel->Send("lease-grant bogus=1\n").ok);
  ASSERT_TRUE(Readable(fd, kLivenessMs));
  ASSERT_EQ(channel->Recv(0, &line), ChannelRead::kLine);
  EXPECT_TRUE(line.starts_with("worker-error")) << line;
  ASSERT_TRUE(Readable(fd, kLivenessMs));
  EXPECT_EQ(channel->Recv(0, &line), ChannelRead::kClosed);
  EXPECT_TRUE(Readable(fd, 0)) << "a closed channel stays readable";
  channel->Close();
}

TEST(ChannelWaitTest, ProcessFdBecomesReadableWhenTheWorkerExits) {
  // A "worker" that waits for one input line and exits without output.
  SubprocessTransport transport(
      [](int) { return std::vector<std::string>{"/bin/sh", "-c", "read line"}; });
  std::unique_ptr<WorkerChannel> channel;
  ASSERT_TRUE(transport.Launch(0, &channel).ok);
  const int fd = channel->wait_fd();
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(Readable(fd, 0)) << "alive and silent";
  ASSERT_TRUE(channel->Send("go\n").ok);
  ASSERT_TRUE(Readable(fd, kLivenessMs));
  std::string line;
  EXPECT_EQ(channel->Recv(0, &line), ChannelRead::kClosed);
  channel->Close();
}

// --- worker-side protocol validation -----------------------------------------------

// A scripted link: the worker reads the canned lines, writes into `sent`.
class ScriptedLink : public WorkerLink {
 public:
  explicit ScriptedLink(std::vector<std::string> lines) : lines_(std::move(lines)) {}
  bool ReadLine(std::string* line) override {
    if (next_ >= lines_.size()) {
      return false;
    }
    *line = lines_[next_++];
    return true;
  }
  bool TryReadLine(std::string*) override { return false; }  // nothing mid-lease
  serde::Status WriteLine(std::string_view line) override {
    sent.emplace_back(line);
    return serde::Ok();
  }
  std::vector<std::string> sent;

 private:
  std::vector<std::string> lines_;
  size_t next_ = 0;
};

TEST_F(DispatchTest, WorkerRejectsAPlanFingerprintMismatch) {
  // A syntactically valid lease whose claimed fingerprint does not match what the
  // spec builds: the worker must refuse (unit ids would be meaningless) and report
  // a worker-error instead of returning mis-numbered results.
  LeaseGrant grant;
  grant.seq = 0;
  grant.plan_fingerprint = PlanFingerprint(*plan_) + 1;
  grant.num_units = 1;
  grant.num_snapshots = 0;
  std::vector<std::string> lines = {SerializeLeaseGrant(grant)};
  const std::string spec_text = SerializeSweepSpec(plan_->spec);
  size_t pos = 0;
  while (pos < spec_text.size()) {
    const size_t nl = spec_text.find('\n', pos);
    lines.emplace_back(spec_text, pos, nl - pos);
    pos = nl + 1;
  }
  for (std::string& id_line : SerializeUnitIdLines(std::vector<int>{0})) {
    lines.push_back(std::move(id_line));
  }
  lines.push_back(SerializeLeaseEnd(0));

  ScriptedLink link(lines);
  EXPECT_EQ(RunDispatchWorker(link), 4);
  // hello, lease-request, then the refusal.
  ASSERT_GE(link.sent.size(), 3u);
  WorkerMessage last;
  ASSERT_TRUE(ParseWorkerMessage(link.sent.back(), &last).ok);
  EXPECT_EQ(last.kind, WorkerMessage::Kind::kError);
  EXPECT_NE(last.reason.find("fingerprint"), std::string::npos);
}

TEST_F(DispatchTest, WorkerExitsCleanlyOnShutdownAndOnEof) {
  ScriptedLink shutdown_link({std::string(kShutdownLine)});
  EXPECT_EQ(RunDispatchWorker(shutdown_link), 0);

  ScriptedLink eof_link({});
  EXPECT_EQ(RunDispatchWorker(eof_link), 0);
  // Both said hello before exiting.
  WorkerMessage hello;
  ASSERT_TRUE(ParseWorkerMessage(eof_link.sent.front(), &hello).ok);
  EXPECT_EQ(hello.kind, WorkerMessage::Kind::kHello);
}

}  // namespace
}  // namespace alert
