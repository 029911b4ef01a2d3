#include "src/core/decision_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "src/core/estimates.h"
#include "src/dnn/zoo.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

// The engine's memoized Gaussian table is accurate to ~1e-7; golden comparisons
// against the exact erf-based estimates use a slightly looser tolerance.
constexpr double kTol = 1e-6;

class DecisionEngineTest : public ::testing::Test {
 protected:
  DecisionEngineTest()
      : models_(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim_(GetPlatform(PlatformId::kCpu1), models_), space_(sim_), engine_(space_) {}

  // The pre-refactor inline estimate (AlertScheduler::Estimate as it stood before the
  // engine existed), computed with the exact estimates.h functions.
  ConfigScore InlineEstimate(const Configuration& config,
                             const DecisionInputs& in) const {
    const Candidate& c = config.candidate;
    const DnnModel& model = space_.model(c.model_index);
    const double q_fail = TaskRandomGuessAccuracy(model.task);
    const Seconds run_profile = space_.CandidateProfileLatency(c, config.power_index);

    ConfigScore est;
    est.prob_deadline = ProbMeetDeadline(in.xi, run_profile, in.deadline);
    if (c.stage_limit < 0) {
      est.expected_accuracy = ExpectedAccuracyTraditional(
          in.xi, run_profile, in.deadline, model.accuracy, q_fail);
    } else {
      est.expected_accuracy = ExpectedAccuracyAnytime(
          in.xi, space_.ProfileLatency(c.model_index, config.power_index),
          model.anytime_stages, c.stage_limit, in.deadline, q_fail);
    }
    const Watts inference_power =
        space_.InferencePower(c.model_index, config.power_index);
    const Watts idle = in.use_idle_ratio ? in.idle_ratio * inference_power
                                         : in.fixed_idle_power;
    est.expected_energy =
        EstimateEnergy(in.xi, run_profile, inference_power, idle, in.period,
                       in.deadline, /*stop_at_cutoff=*/true, in.percentile);
    est.expected_latency = ExpectedRuntime(in.xi, run_profile, in.deadline);
    return est;
  }

  DecisionInputs Inputs(double mean, double stddev) const {
    DecisionInputs in;
    in.xi = XiBelief{mean, stddev};
    in.deadline = 0.08;
    in.period = 0.08;
    in.use_idle_ratio = true;
    in.idle_ratio = 0.22;
    return in;
  }

  std::vector<DnnModel> models_;
  PlatformSimulator sim_;
  ConfigSpace space_;
  DecisionEngine engine_;
};

TEST_F(DecisionEngineTest, FlattensTheFullConfigurationSpace) {
  EXPECT_EQ(engine_.num_candidates(), space_.num_candidates());
  EXPECT_EQ(engine_.num_powers(), space_.num_powers());
  EXPECT_EQ(engine_.num_entries(), space_.num_configurations());
}

TEST_F(DecisionEngineTest, GoldenMatchesInlineEstimatesAcrossTheSpace) {
  // Every (candidate, power) cell — traditional and anytime — under a calm and a
  // volatile belief must reproduce the pre-refactor inline estimates.
  for (const DecisionInputs& in : {Inputs(1.0, 0.05), Inputs(1.4, 0.3)}) {
    for (int ci = 0; ci < space_.num_candidates(); ++ci) {
      for (int pi = 0; pi < space_.num_powers(); ++pi) {
        const ConfigScore got = engine_.Score(ci, pi, in);
        const ConfigScore want =
            InlineEstimate(Configuration{space_.candidate(ci), pi}, in);
        EXPECT_NEAR(got.prob_deadline, want.prob_deadline, kTol)
            << "candidate " << ci << " power " << pi;
        EXPECT_NEAR(got.expected_accuracy, want.expected_accuracy, kTol);
        EXPECT_NEAR(got.expected_energy, want.expected_energy,
                    kTol * std::max(1.0, want.expected_energy));
        EXPECT_NEAR(got.expected_latency, want.expected_latency, kTol);
      }
    }
  }
}

TEST_F(DecisionEngineTest, SigmaZeroDegeneratesToAlertStarExactly) {
  // ALERT* (mean-only) uses step functions, not Gaussian tails, so the engine must be
  // bit-exact with the inline math — no table involved.
  const DecisionInputs in = Inputs(1.1, 0.0);
  for (int ci = 0; ci < space_.num_candidates(); ++ci) {
    for (int pi = 0; pi < space_.num_powers(); ++pi) {
      const ConfigScore got = engine_.Score(ci, pi, in);
      const ConfigScore want =
          InlineEstimate(Configuration{space_.candidate(ci), pi}, in);
      EXPECT_EQ(got.prob_deadline, want.prob_deadline);
      EXPECT_EQ(got.expected_accuracy, want.expected_accuracy);
      EXPECT_EQ(got.expected_energy, want.expected_energy);
      EXPECT_EQ(got.expected_latency, want.expected_latency);
      EXPECT_TRUE(got.prob_deadline == 0.0 || got.prob_deadline == 1.0);
    }
  }
}

// Mean-only (sigma == 0) inputs for the row-pass sweep: random beliefs and deadlines,
// deadlines that sit exactly on mean * profile of a whole run and of an anytime stage
// (where the step function flips), both cutoff modes, both idle-power models and
// both energy estimates.
std::vector<DecisionInputs> SigmaZeroSweep(const ConfigSpace& space) {
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> mean(0.5, 2.5);
  std::uniform_real_distribution<double> deadline(0.005, 0.5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> candidate(0, space.num_candidates() - 1);
  std::uniform_int_distribution<int> power(0, space.num_powers() - 1);
  std::vector<DecisionInputs> inputs;
  for (int i = 0; i < 96; ++i) {
    DecisionInputs in;
    in.xi = XiBelief{mean(rng), 0.0};
    const Candidate& c = space.candidate(candidate(rng));
    const DnnModel& model = space.model(c.model_index);
    const int pi = power(rng);
    switch (i % 3) {
      case 0:
        in.deadline = deadline(rng);
        break;
      case 1:  // Eq. 6's edge: deadline == mean * t_prof of this run
        in.deadline = in.xi.mean * space.CandidateProfileLatency(c, pi);
        break;
      case 2:  // Eq. 13's edge: deadline == mean * t_prof of one anytime stage
        in.deadline = in.xi.mean * space.CandidateProfileLatency(c, pi);
        if (model.is_anytime()) {
          std::uniform_int_distribution<size_t> pick(0, model.anytime_stages.size() - 1);
          const AnytimeStage& stage = model.anytime_stages[pick(rng)];
          in.deadline = in.xi.mean * (stage.latency_fraction *
                                      space.ProfileLatency(c.model_index, pi));
        }
        break;
    }
    in.period = (i % 4 == 0) ? in.deadline : in.deadline * (1.0 + unit(rng));
    in.use_idle_ratio = (i / 3) % 2 == 0;
    in.idle_ratio = 0.1 + 0.3 * unit(rng);
    in.fixed_idle_power = 0.5 + 2.0 * unit(rng);
    in.stop_at_cutoff = (i / 6) % 2 == 0;
    in.percentile = (i / 12) % 2 == 0 ? 0.0 : 0.9;  // Eq. 12 charges the mean run
    inputs.push_back(in);
  }
  return inputs;
}

TEST_F(DecisionEngineTest, SigmaZeroRowPassIsBitIdenticalToPerEntryScore) {
  // A sigma == 0 ScoreAll / ScoreBatch is one row pass, tested once per chunk; every
  // entry must carry exactly the bytes per-entry Score gives, whatever the vector
  // dispatch, and — for the killed-at-deadline, Eq. 9 inputs the estimates.h
  // functions model — exactly the mean-only inline estimate.
  const size_t entries = static_cast<size_t>(engine_.num_entries());
  const std::vector<DecisionInputs> inputs = SigmaZeroSweep(space_);
  int on_edge = 0;
  std::vector<ConfigScore> all(entries);
  for (const bool simd : {false, true}) {
    engine_.set_simd_enabled(simd);
    for (const DecisionInputs& in : inputs) {
      engine_.ScoreAll(in, all);
      for (int ci = 0; ci < engine_.num_candidates(); ++ci) {
        for (int pi = 0; pi < engine_.num_powers(); ++pi) {
          const ConfigScore one = engine_.Score(ci, pi, in);
          const ConfigScore& row = all[static_cast<size_t>(engine_.entry_index(ci, pi))];
          ASSERT_EQ(0, std::memcmp(&one, &row, sizeof(ConfigScore)))
              << "candidate " << ci << " power " << pi << " deadline " << in.deadline;
          if (in.stop_at_cutoff && in.percentile == 0.0) {
            const ConfigScore want =
                InlineEstimate(Configuration{space_.candidate(ci), pi}, in);
            ASSERT_EQ(0, std::memcmp(&want, &row, sizeof(ConfigScore)))
                << "candidate " << ci << " power " << pi;
          }
          on_edge += in.deadline == in.xi.mean * space_.CandidateProfileLatency(
                                                     space_.candidate(ci), pi);
        }
      }
    }
    std::vector<ConfigScore> batch(inputs.size() * entries);
    engine_.ScoreBatch(inputs, batch);
    for (size_t j = 0; j < inputs.size(); ++j) {
      engine_.ScoreAll(inputs[j], all);
      ASSERT_EQ(0, std::memcmp(&batch[j * entries], all.data(),
                               entries * sizeof(ConfigScore)))
          << "job " << j;
    }
  }
  EXPECT_GT(on_edge, 0) << "no deadline landed on mean * profile";
}

TEST_F(DecisionEngineTest, SigmaZeroSelectBestMatchesSelectionOverPerEntryScores) {
  // The fused SelectBest streams row-pass chunks; under every goal mode and three
  // power limits it must pick what the same rule picks from per-entry Score calls.
  const size_t entries = static_cast<size_t>(engine_.num_entries());
  const Watts limits[] = {1e9, space_.cap(space_.num_powers() / 2), 0.0};
  std::vector<ConfigScore> per_entry(entries);
  DecisionEngine::SelectScratch scratch;
  for (const DecisionInputs& in : SigmaZeroSweep(space_)) {
    for (int ci = 0; ci < engine_.num_candidates(); ++ci) {
      for (int pi = 0; pi < engine_.num_powers(); ++pi) {
        per_entry[static_cast<size_t>(engine_.entry_index(ci, pi))] =
            engine_.Score(ci, pi, in);
      }
    }
    for (int mode = 0; mode < 3; ++mode) {
      Goals goals;
      goals.mode = static_cast<GoalMode>(mode);
      goals.deadline = in.deadline;
      goals.accuracy_goal = 0.9;
      goals.energy_budget = 0.5;
      goals.prob_threshold = in.percentile;
      for (const Watts limit : limits) {
        const auto fused =
            engine_.SelectBest(goals, goals.energy_budget, in, limit, scratch);
        const auto want =
            engine_.SelectFromScores(goals, goals.energy_budget, per_entry, limit);
        EXPECT_EQ(fused.candidate_index, want.candidate_index)
            << "mode " << mode << " limit " << limit << " deadline " << in.deadline;
        EXPECT_EQ(fused.power_index, want.power_index);
        EXPECT_EQ(fused.feasible, want.feasible);
      }
    }
  }
}

TEST_F(DecisionEngineTest, PercentileEnergyMatchesEq12) {
  DecisionInputs in = Inputs(1.2, 0.25);
  in.percentile = 0.99;
  for (int ci = 0; ci < space_.num_candidates(); ++ci) {
    const ConfigScore got = engine_.Score(ci, space_.default_power_index(), in);
    const ConfigScore want = InlineEstimate(
        Configuration{space_.candidate(ci), space_.default_power_index()}, in);
    EXPECT_NEAR(got.expected_energy, want.expected_energy,
                kTol * std::max(1.0, want.expected_energy));
  }
}

TEST_F(DecisionEngineTest, ScoreByCandidateValueMatchesScoreByIndex) {
  const DecisionInputs in = Inputs(1.0, 0.1);
  for (int ci = 0; ci < space_.num_candidates(); ++ci) {
    const ConfigScore by_index = engine_.Score(ci, 3, in);
    const ConfigScore by_value = engine_.Score(space_.candidate(ci), 3, in);
    EXPECT_EQ(by_index.expected_accuracy, by_value.expected_accuracy);
    EXPECT_EQ(by_index.expected_energy, by_value.expected_energy);
  }
}

TEST_F(DecisionEngineTest, ScoreAllMatchesPerEntryScores) {
  const DecisionInputs in = Inputs(1.3, 0.2);
  std::vector<ConfigScore> all(static_cast<size_t>(engine_.num_entries()));
  engine_.ScoreAll(in, all);
  for (int ci = 0; ci < engine_.num_candidates(); ++ci) {
    for (int pi = 0; pi < engine_.num_powers(); ++pi) {
      const ConfigScore one = engine_.Score(ci, pi, in);
      const ConfigScore& batch =
          all[static_cast<size_t>(engine_.entry_index(ci, pi))];
      EXPECT_EQ(one.prob_deadline, batch.prob_deadline);
      EXPECT_EQ(one.expected_energy, batch.expected_energy);
    }
  }
}

TEST_F(DecisionEngineTest, SelectBestAgreesWithExhaustiveArgmin) {
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.08;
  goals.accuracy_goal = 0.9;
  const DecisionInputs in = Inputs(1.05, 0.1);
  DecisionEngine::SelectScratch scratch;
  const auto sel = engine_.SelectBest(goals, goals.energy_budget, in,
                                      /*power_limit=*/1e9, scratch);
  ASSERT_TRUE(sel.feasible);
  const ConfigScore chosen = engine_.Score(sel.candidate_index, sel.power_index, in);
  EXPECT_GE(chosen.expected_accuracy, goals.accuracy_goal);
  for (int ci = 0; ci < engine_.num_candidates(); ++ci) {
    for (int pi = 0; pi < engine_.num_powers(); ++pi) {
      const ConfigScore s = engine_.Score(ci, pi, in);
      if (s.expected_accuracy >= goals.accuracy_goal) {
        EXPECT_GE(s.expected_energy, chosen.expected_energy - 1e-9);
      }
    }
  }
}

TEST_F(DecisionEngineTest, InfeasibleGoalFallsBackToSafeHighAccuracy) {
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.08;
  goals.accuracy_goal = 0.9999;  // unreachable
  const DecisionInputs in = Inputs(1.0, 0.05);
  DecisionEngine::SelectScratch scratch;
  const auto sel = engine_.SelectBest(goals, goals.energy_budget, in, 1e9, scratch);
  EXPECT_FALSE(sel.feasible);
  const ConfigScore chosen = engine_.Score(sel.candidate_index, sel.power_index, in);
  EXPECT_GT(chosen.prob_deadline, 0.9);
}

TEST_F(DecisionEngineTest, PowerLimitExcludesHighCapsButKeepsTheFloor) {
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.08;
  goals.accuracy_goal = 0.9;
  const DecisionInputs in = Inputs(1.0, 0.1);
  DecisionEngine::SelectScratch scratch;
  // A limit below every cap: only the lowest cap (always available) may be chosen.
  const auto sel = engine_.SelectBest(goals, goals.energy_budget, in,
                                      /*power_limit=*/0.0, scratch);
  EXPECT_EQ(sel.power_index, 0);
}

// --- Batch API (multi-job decision plane) ---

TEST_F(DecisionEngineTest, ScoreBatchMatchesPerJobScoreAllBitForBit) {
  const size_t entries = static_cast<size_t>(engine_.num_entries());
  // Distinct beliefs plus exact duplicates (jobs 0/2 and 1/4): the dedup path must
  // reproduce rescoring exactly.
  const std::vector<DecisionInputs> inputs = {Inputs(1.0, 0.1), Inputs(1.3, 0.25),
                                              Inputs(1.0, 0.1), Inputs(0.9, 0.0),
                                              Inputs(1.3, 0.25)};
  std::vector<ConfigScore> batch(inputs.size() * entries);
  engine_.ScoreBatch(inputs, batch);
  std::vector<ConfigScore> single(entries);
  for (size_t j = 0; j < inputs.size(); ++j) {
    engine_.ScoreAll(inputs[j], single);
    for (size_t e = 0; e < entries; ++e) {
      const ConfigScore& got = batch[j * entries + e];
      EXPECT_EQ(got.prob_deadline, single[e].prob_deadline) << "job " << j;
      EXPECT_EQ(got.expected_accuracy, single[e].expected_accuracy);
      EXPECT_EQ(got.expected_energy, single[e].expected_energy);
      EXPECT_EQ(got.expected_latency, single[e].expected_latency);
    }
  }
}

TEST_F(DecisionEngineTest, SelectFromScoresMatchesSelectBestAcrossModesAndLimits) {
  const std::vector<ConfigScore>::size_type entries =
      static_cast<size_t>(engine_.num_entries());
  std::vector<ConfigScore> scores(entries);
  DecisionEngine::SelectScratch scratch;
  for (const DecisionInputs& in :
       {Inputs(1.0, 0.08), Inputs(1.4, 0.3), Inputs(1.1, 0.0)}) {
    engine_.ScoreAll(in, scores);
    for (int mode = 0; mode < 3; ++mode) {
      Goals goals;
      goals.mode = static_cast<GoalMode>(mode);
      goals.deadline = in.deadline;
      goals.accuracy_goal = 0.9;
      goals.energy_budget = 2.0;
      for (const Watts limit : {1e9, 30.0, 17.3, 0.0}) {
        const auto direct =
            engine_.SelectBest(goals, goals.energy_budget, in, limit, scratch);
        const auto from_scores =
            engine_.SelectFromScores(goals, goals.energy_budget, scores, limit);
        EXPECT_EQ(direct.candidate_index, from_scores.candidate_index)
            << "mode " << mode << " limit " << limit;
        EXPECT_EQ(direct.power_index, from_scores.power_index);
        EXPECT_EQ(direct.feasible, from_scores.feasible);
      }
    }
  }
}

TEST_F(DecisionEngineTest, SelectFromScoresMatchesSelectBestWithProbThreshold) {
  // The Pr_th pre-filter (Eqs. 10/11) and the unreachable-goal fallback hierarchy must
  // survive the split into score + select.
  const DecisionInputs in = Inputs(1.2, 0.2);
  std::vector<ConfigScore> scores(static_cast<size_t>(engine_.num_entries()));
  engine_.ScoreAll(in, scores);
  DecisionEngine::SelectScratch scratch;
  for (const double pr_th : {0.9, 0.999999}) {
    Goals goals;
    goals.mode = GoalMode::kMinimizeEnergy;
    goals.deadline = in.deadline;
    goals.accuracy_goal = 0.97;
    goals.prob_threshold = pr_th;
    const auto direct = engine_.SelectBest(goals, 0.0, in, 1e9, scratch);
    const auto from_scores = engine_.SelectFromScores(goals, 0.0, scores, 1e9);
    EXPECT_EQ(direct.candidate_index, from_scores.candidate_index) << "pr " << pr_th;
    EXPECT_EQ(direct.power_index, from_scores.power_index);
    EXPECT_EQ(direct.feasible, from_scores.feasible);
  }
}

TEST_F(DecisionEngineTest, SelectBestBatchMatchesPerJobSelectBest) {
  const std::vector<DecisionInputs> inputs = {Inputs(1.0, 0.1), Inputs(1.25, 0.2),
                                              Inputs(1.0, 0.1)};
  std::vector<Goals> goals(3);
  for (size_t j = 0; j < goals.size(); ++j) {
    goals[j].mode = j == 1 ? GoalMode::kMinimizeEnergy : GoalMode::kMaximizeAccuracy;
    goals[j].deadline = 0.08;
    goals[j].accuracy_goal = 0.9;
    goals[j].energy_budget = 2.5;
  }
  const std::vector<Joules> allowances = {2.5, 0.0, 1.8};
  const std::vector<Watts> limits = {1e9, 25.0, 15.0};
  std::vector<DecisionEngine::Selection> out(3);
  std::vector<ConfigScore> batch_scratch;
  engine_.SelectBestBatch(inputs, goals, allowances, limits, out, batch_scratch);

  DecisionEngine::SelectScratch scratch;
  for (size_t j = 0; j < inputs.size(); ++j) {
    const auto direct =
        engine_.SelectBest(goals[j], allowances[j], inputs[j], limits[j], scratch);
    EXPECT_EQ(out[j].candidate_index, direct.candidate_index) << "job " << j;
    EXPECT_EQ(out[j].power_index, direct.power_index);
    EXPECT_EQ(out[j].feasible, direct.feasible);
  }
}

TEST_F(DecisionEngineTest, ConcurrentScoringIsRaceFreeAndDeterministic) {
  // One const engine instance scanned by many threads (the ParallelFor sweep shape):
  // every thread must reproduce the single-threaded scores bit-for-bit.
  const DecisionInputs calm = Inputs(1.0, 0.08);
  const DecisionInputs loaded = Inputs(1.5, 0.35);
  std::vector<ConfigScore> want_calm(static_cast<size_t>(engine_.num_entries()));
  std::vector<ConfigScore> want_loaded(static_cast<size_t>(engine_.num_entries()));
  engine_.ScoreAll(calm, want_calm);
  engine_.ScoreAll(loaded, want_loaded);

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const DecisionInputs& in = t % 2 == 0 ? calm : loaded;
      const std::vector<ConfigScore>& want = t % 2 == 0 ? want_calm : want_loaded;
      std::vector<ConfigScore> got(static_cast<size_t>(engine_.num_entries()));
      for (int r = 0; r < kRounds; ++r) {
        engine_.ScoreAll(in, got);
        for (size_t e = 0; e < got.size(); ++e) {
          if (got[e].expected_energy != want[e].expected_energy ||
              got[e].expected_accuracy != want[e].expected_accuracy) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace alert
