// Scalar <-> SIMD equivalence plane for the vectorized scoring kernel
// (src/core/decision_engine_simd.cc) and the fused streaming SelectBest.
//
// The dispatch contract (src/common/simd.h) promises the kernel performs the same
// IEEE-754 operations in the same order as the scalar ScoreEntry fast path, so the
// assertions here are bit-exact, not approximate: every score byte-identical, every
// selection identical, over a randomized property sweep of DecisionInputs
// (degenerate sigma == 0, Eq. 12 percentile, infeasible-static spaces, Pr_th sweeps,
// all goal modes), over engine shapes that put the kernel's edges to work: CPU1 and
// GPU kBoth spaces (the GPU's 35-wide rows make the fused SelectBest split the
// anytime candidates across chunks), a kAnytimeOnly space, a space with two
// back-to-back anytime models (the per-model ladder cache must restart at the model
// boundary), and power limits that cut a row mid-vector.  A selection-rule test
// also checks every goal mode against a reference written out in the test.  The
// vector SelectBest fuses the feasible pass into the kernel and skips rows that
// cannot reach the accuracy goal, so further tests pin goals exactly at a row's
// accuracy bound, fallbacks after skipped rows, an ε-tie chain whose pick depends
// on visiting an anytime run in the scalar order, and the bound on the kernel's
// ladder cache.  On a build or machine without a vector backend the engine
// reports simd_active() == false and the comparisons degenerate to scalar-vs-scalar
// — still meaningful for the fused-vs-materialized SelectBest checks, which gate
// the streaming rewrite independent of vectorization.
#include <algorithm>
#include <cstring>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/simd.h"
#include "src/core/config_space.h"
#include "src/core/decision_engine.h"
#include "src/core/decision_engine_simd.h"
#include "src/dnn/zoo.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  SimdEquivalenceTest()
      : models_(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim_(GetPlatform(PlatformId::kCpu1), models_), space_(sim_),
        engine_(space_) {}

  // Scores `in` through both paths; returns true when a real comparison happened
  // (backend active).
  void ScoreBothWays(const DecisionInputs& in, std::vector<ConfigScore>* scalar,
                     std::vector<ConfigScore>* simd) {
    scalar->resize(static_cast<size_t>(engine_.num_entries()));
    simd->resize(static_cast<size_t>(engine_.num_entries()));
    engine_.set_simd_enabled(false);
    engine_.ScoreAll(in, *scalar);
    engine_.set_simd_enabled(true);
    engine_.ScoreAll(in, *simd);
  }

  static void ExpectScoresBitIdentical(const std::vector<ConfigScore>& a,
                                       const std::vector<ConfigScore>& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(ConfigScore)));
  }

  std::vector<DnnModel> models_;
  PlatformSimulator sim_;
  ConfigSpace space_;
  DecisionEngine engine_;
};

// Deterministic randomized inputs covering the fast path and every degenerate
// branch: sigma == 0 (ALERT*), percentile > 0 (Eq. 12), tight/loose deadlines,
// both idle-power models, both cutoff modes.
std::vector<DecisionInputs> PropertyInputs(int count) {
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> mean(0.5, 2.5);
  std::uniform_real_distribution<double> sigma(0.005, 0.6);
  std::uniform_real_distribution<double> deadline(0.005, 0.5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<DecisionInputs> inputs;
  for (int i = 0; i < count; ++i) {
    DecisionInputs in;
    in.xi.mean = mean(rng);
    in.xi.stddev = (i % 7 == 3) ? 0.0 : sigma(rng);  // degenerate ALERT* slice
    in.deadline = deadline(rng);
    in.period = in.deadline * (1.0 + unit(rng));
    in.use_idle_ratio = (i % 2 == 0);
    in.idle_ratio = 0.1 + 0.3 * unit(rng);
    in.fixed_idle_power = 0.5 + 2.0 * unit(rng);
    in.percentile = (i % 11 == 5) ? 0.9 : 0.0;  // Eq. 12 slice
    in.stop_at_cutoff = (i % 5 != 4);
    inputs.push_back(in);
  }
  return inputs;
}

TEST_F(SimdEquivalenceTest, ReportsDispatchState) {
  // simd_active() must agree with the compiled backend + runtime probe, and
  // set_simd_enabled(true) must not stick when no backend is usable.
  const bool expect_active =
      simd::CompiledBackend() != simd::Backend::kScalar && simd::RuntimeSupported();
  EXPECT_EQ(engine_.simd_active(), expect_active);
  engine_.set_simd_enabled(false);
  EXPECT_FALSE(engine_.simd_active());
  engine_.set_simd_enabled(true);
  EXPECT_EQ(engine_.simd_active(), expect_active);
}

TEST_F(SimdEquivalenceTest, ScoreAllBitIdenticalAcrossPropertySweep) {
  std::vector<ConfigScore> scalar, simd;
  for (const DecisionInputs& in : PropertyInputs(200)) {
    ScoreBothWays(in, &scalar, &simd);
    ExpectScoresBitIdentical(scalar, simd);
  }
}

TEST_F(SimdEquivalenceTest, DegenerateSigmaZeroIsBitExact) {
  DecisionInputs in;
  in.xi = XiBelief{1.2, 0.0};  // ALERT*: mean-only belief
  in.deadline = 0.08;
  in.period = 0.08;
  in.use_idle_ratio = true;
  in.idle_ratio = 0.22;
  std::vector<ConfigScore> scalar, simd;
  ScoreBothWays(in, &scalar, &simd);
  ExpectScoresBitIdentical(scalar, simd);
}

TEST_F(SimdEquivalenceTest, PercentileEnergyIsBitExact) {
  DecisionInputs in;
  in.xi = XiBelief{1.1, 0.15};
  in.deadline = 0.08;
  in.period = 0.08;
  in.use_idle_ratio = true;
  in.idle_ratio = 0.22;
  in.percentile = 0.95;  // Eq. 12: must stay on the scalar reference path
  std::vector<ConfigScore> scalar, simd;
  ScoreBothWays(in, &scalar, &simd);
  ExpectScoresBitIdentical(scalar, simd);
}

TEST_F(SimdEquivalenceTest, SelectBestPickIdenticalAcrossGoalsAndLimits) {
  const Watts mid_cap = space_.cap(space_.num_powers() / 2);
  const GoalMode modes[] = {GoalMode::kMinimizeEnergy, GoalMode::kMaximizeAccuracy,
                            GoalMode::kMinimizeLatency};
  const double thresholds[] = {0.0, 0.5, 0.99};
  const Watts limits[] = {1e9, mid_cap, 0.0};
  DecisionEngine::SelectScratch scratch;
  for (const DecisionInputs& in : PropertyInputs(40)) {
    for (const GoalMode mode : modes) {
      for (const double pr_th : thresholds) {
        for (const Watts limit : limits) {
          Goals goals;
          goals.mode = mode;
          goals.deadline = in.deadline;
          goals.accuracy_goal = 0.9;
          goals.energy_budget = 0.5;
          goals.prob_threshold = pr_th;
          engine_.set_simd_enabled(false);
          const auto scalar_sel =
              engine_.SelectBest(goals, goals.energy_budget, in, limit, scratch);
          engine_.set_simd_enabled(true);
          const auto simd_sel =
              engine_.SelectBest(goals, goals.energy_budget, in, limit, scratch);
          EXPECT_EQ(scalar_sel.candidate_index, simd_sel.candidate_index);
          EXPECT_EQ(scalar_sel.power_index, simd_sel.power_index);
          EXPECT_EQ(scalar_sel.feasible, simd_sel.feasible);
        }
      }
    }
  }
}

TEST_F(SimdEquivalenceTest, FusedSelectMatchesMaterializedSelect) {
  // The streaming SelectBest must pick exactly what SelectFromScores picks over a
  // materialized ScoreAll table — in both dispatch modes.
  std::vector<ConfigScore> scores(static_cast<size_t>(engine_.num_entries()));
  DecisionEngine::SelectScratch scratch;
  for (const DecisionInputs& in : PropertyInputs(60)) {
    for (const bool simd_on : {false, true}) {
      engine_.set_simd_enabled(simd_on);
      Goals goals;
      goals.mode = GoalMode::kMinimizeEnergy;
      goals.deadline = in.deadline;
      goals.accuracy_goal = 0.9;
      const auto fused =
          engine_.SelectBest(goals, goals.energy_budget, in, 1e9, scratch);
      engine_.ScoreAll(in, scores);
      const auto materialized =
          engine_.SelectFromScores(goals, goals.energy_budget, scores, 1e9);
      EXPECT_EQ(fused.candidate_index, materialized.candidate_index);
      EXPECT_EQ(fused.power_index, materialized.power_index);
      EXPECT_EQ(fused.feasible, materialized.feasible);
    }
  }
  engine_.set_simd_enabled(true);
}

TEST_F(SimdEquivalenceTest, InfeasibleFallbackHierarchyIdentical) {
  // Goals nothing can satisfy force the latency > accuracy > power fallback; the
  // second streaming pass must reproduce the materialized fallback pick exactly.
  DecisionInputs in;
  in.xi = XiBelief{3.0, 0.4};  // severe slowdown: nothing meets the deadline well
  in.deadline = 0.01;
  in.period = 0.01;
  in.use_idle_ratio = true;
  in.idle_ratio = 0.22;
  std::vector<ConfigScore> scores(static_cast<size_t>(engine_.num_entries()));
  DecisionEngine::SelectScratch scratch;
  for (const GoalMode mode : {GoalMode::kMinimizeEnergy, GoalMode::kMaximizeAccuracy,
                              GoalMode::kMinimizeLatency}) {
    Goals goals;
    goals.mode = mode;
    goals.deadline = in.deadline;
    goals.accuracy_goal = 2.0;  // unreachable accuracy
    goals.energy_budget = 1e-9;  // unreachable energy
    for (const bool simd_on : {false, true}) {
      engine_.set_simd_enabled(simd_on);
      const auto fused = engine_.SelectBest(goals, goals.energy_budget, in,
                                            /*power_limit=*/1e9, scratch);
      EXPECT_FALSE(fused.feasible);
      engine_.ScoreAll(in, scores);
      const auto materialized =
          engine_.SelectFromScores(goals, goals.energy_budget, scores, 1e9);
      EXPECT_FALSE(materialized.feasible);
      EXPECT_EQ(fused.candidate_index, materialized.candidate_index);
      EXPECT_EQ(fused.power_index, materialized.power_index);
    }
  }
  engine_.set_simd_enabled(true);
}

TEST_F(SimdEquivalenceTest, ScoreBatchBitIdenticalToPerJobScoreAll) {
  const size_t entries = static_cast<size_t>(engine_.num_entries());
  std::vector<DecisionInputs> inputs = PropertyInputs(6);
  inputs.push_back(inputs[1]);  // duplicate: exercises the twin-copy path
  inputs.push_back(inputs[3]);
  std::vector<ConfigScore> batch(inputs.size() * entries);
  std::vector<ConfigScore> single(entries);
  engine_.set_simd_enabled(true);
  engine_.ScoreBatch(inputs, batch);
  for (size_t j = 0; j < inputs.size(); ++j) {
    engine_.ScoreAll(inputs[j], single);
    ASSERT_EQ(0, std::memcmp(single.data(), batch.data() + j * entries,
                             entries * sizeof(ConfigScore)))
        << "job " << j;
  }
}

// An ε-tie chain across one anytime run, on a synthetic space: one two-stage anytime
// model (stage ends at 0.5 and 1.0 of the full network, accuracies 0.8 and 0.9), so
// the run holds candidates c0 (stage limit 0) and c1 (stage limit 1).  Under a
// mean-only belief (ALERT*) with xi = 1 and a 1 s deadline, kMinimizeLatency ranks
// by run time, ties within 1e-12 to the lower energy.  The profile makes three
// feasible entries sit 0.8e-12 s apart:
//   X = (c0, p0) runs 1 - 1.6e-12 s,  A = (c0, p4) runs 1 - 0.8e-12 s,
//   B = (c1, p0) and (c1, p4) are cut at the 1 s deadline,
// and, with a 10 W idle draw above the 1 W inference draw, longer runs spend less:
// energy X > A > B = (c1, p4).  Every other power runs so long that not even stage 0
// completes, which misses the 0.5 accuracy goal.  In the scalar order (candidate,
// then power) A ties X and wins on energy, then B ties A and wins: the pick is B.
// Visiting the run lane group by lane group meets B before A, while B is still
// 1.6e-12 behind X, and ends on (c1, p4) instead.
TEST(SimdSelectionOrderTest, EpsilonTieChainAcrossAnAnytimeRunFollowsTheScalarOrder) {
  std::vector<DnnModel> models =
      BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kAnytimeOnly);
  ASSERT_EQ(models.size(), 1u);
  models[0].anytime_stages = {{0.5, 0.8}, {1.0, 0.9}};
  const PlatformSimulator sim(GetPlatform(PlatformId::kCpu1), models);
  const ConfigSpace profiled(sim);
  ASSERT_EQ(profiled.num_candidates(), 2);
  ASSERT_GE(profiled.num_powers(), 5);
  ProfileSnapshot snapshot = CaptureProfileSnapshot(profiled);
  for (int pi = 0; pi < snapshot.num_powers; ++pi) {
    snapshot.profile_latency[static_cast<size_t>(pi)] = 10.0;
    snapshot.inference_power[static_cast<size_t>(pi)] = 1.0;
  }
  snapshot.profile_latency[0] = 2.0 * (1.0 - 1.6e-12);
  snapshot.profile_latency[4] = 2.0 * (1.0 - 0.8e-12);
  const ConfigSpace space(sim, snapshot);
  DecisionEngine engine(space);

  DecisionInputs in;
  in.xi = XiBelief{1.0, 0.0};
  in.deadline = 1.0;
  in.period = 2.0;
  in.fixed_idle_power = 10.0;
  Goals goals;
  goals.mode = GoalMode::kMinimizeLatency;
  goals.deadline = in.deadline;
  goals.accuracy_goal = 0.5;
  goals.energy_budget = 1e9;

  DecisionEngine::SelectScratch scratch;
  std::vector<ConfigScore> scores(static_cast<size_t>(engine.num_entries()));
  engine.set_simd_enabled(false);
  const auto scalar = engine.SelectBest(goals, goals.energy_budget, in, 1e9, scratch);
  engine.ScoreAll(in, scores);
  ASSERT_TRUE(scalar.feasible);
  EXPECT_EQ(scalar.candidate_index, 1);
  EXPECT_EQ(scalar.power_index, 0);
  const auto table = engine.SelectFromScores(goals, goals.energy_budget, scores, 1e9);
  EXPECT_EQ(table.candidate_index, 1);
  EXPECT_EQ(table.power_index, 0);
  engine.set_simd_enabled(true);
  for (const auto& sel :
       {engine.SelectBest(goals, goals.energy_budget, in, 1e9, scratch),
        engine.SelectFromScores(goals, goals.energy_budget, scores, 1e9)}) {
    EXPECT_EQ(sel.candidate_index, 1);
    EXPECT_EQ(sel.power_index, 0);
    EXPECT_TRUE(sel.feasible);
  }
}

// The kernel caches an anytime model's stage CDFs for every lane group of a row, in
// a stack array of internal::kMaxLadderGroups groups.  Every platform fits at the
// narrowest backend (2 lanes); a wider power ladder must fail at construction.
TEST(SimdLadderCacheTest, EveryPlatformFitsAtTwoAndFourLanes) {
  for (int p = 0; p < kNumPlatforms; ++p) {
    const int powers = static_cast<int>(
        GetPlatform(static_cast<PlatformId>(p)).PowerSettings().size());
    for (const int lanes : {2, 4}) {
      EXPECT_LE((powers + lanes - 1) / lanes, internal::kMaxLadderGroups)
          << "platform " << p << " at " << lanes << " lanes";
    }
  }
}

TEST(SimdLadderCacheDeathTest, RowWiderThanTheLadderCacheFailsAtConstruction) {
  const int lanes = simd::CompiledLaneWidth();
  if (lanes <= 1 || !simd::RuntimeSupported()) {
    GTEST_SKIP() << "no vector backend: the kernel and its cache never run";
  }
  PlatformSpec wide = GetPlatform(PlatformId::kGpu);
  wide.cap_step = (wide.cap_max - wide.cap_min) /
                  static_cast<double>(internal::kMaxLadderGroups * lanes);
  const std::vector<DnnModel> models =
      BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth);
  const PlatformSimulator sim(wide, models);
  const ConfigSpace space(sim);
  ASSERT_GT(space.num_powers(), internal::kMaxLadderGroups * lanes);
  EXPECT_DEATH(DecisionEngine{space}, "kMaxLadderGroups");
}

// ---- Engine shapes -------------------------------------------------------------

struct EngineShape {
  std::string name;
  PlatformId platform;
  DnnSetChoice choice;
  bool second_anytime_model;  // append a 3-stage anytime model after the zoo's one
};

void PrintTo(const EngineShape& shape, std::ostream* os) { *os << shape.name; }

std::vector<DnnModel> ShapeModels(const EngineShape& shape) {
  std::vector<DnnModel> models =
      BuildEvaluationSet(TaskId::kImageClassification, shape.choice);
  if (shape.second_anytime_model) {
    DnnModel other = models.back();  // the zoo's anytime model ends every set
    other.name = "shallow_nest_anytime";
    for (Seconds& latency : other.ref_latency) {
      latency *= 1.7;
    }
    other.anytime_stages = {{0.31, 0.71}, {0.64, 0.86}, {1.00, 0.93}};
    models.push_back(other);
  }
  return models;
}

class SimdShapeTest : public ::testing::TestWithParam<EngineShape> {
 protected:
  SimdShapeTest()
      : models_(ShapeModels(GetParam())),
        sim_(GetPlatform(GetParam().platform), models_), space_(sim_),
        engine_(space_) {}

  // The fastest full-network latency of the space: deadlines are drawn around it.
  Seconds BaseLatency() const {
    Seconds base = space_.ProfileLatency(0, space_.num_powers() - 1);
    for (int m = 1; m < space_.num_models(); ++m) {
      base = std::min(base, space_.ProfileLatency(m, space_.num_powers() - 1));
    }
    return base;
  }

  // PropertyInputs with deadlines rescaled to this space (0.2x to ~20x its fastest
  // network), so every shape sees feasible, tight and hopeless deadlines.
  std::vector<DecisionInputs> Inputs(int count) const {
    std::vector<DecisionInputs> inputs = PropertyInputs(count);
    const double scale = BaseLatency() / 0.025;
    for (DecisionInputs& in : inputs) {
      in.deadline *= scale;
      in.period *= scale;
    }
    return inputs;
  }

  // The mean-only (ALERT*) slice: every input of Inputs() with sigma forced to 0.
  std::vector<DecisionInputs> SigmaZeroInputs(int count) const {
    std::vector<DecisionInputs> inputs = Inputs(count);
    for (DecisionInputs& in : inputs) {
      in.xi.stddev = 0.0;
    }
    return inputs;
  }

  // Power limits giving row widths of 1, 3, 5, about half and all powers: the middle
  // ones end a row inside a vector on both backends.
  std::vector<Watts> Limits() const {
    const int n = space_.num_powers();
    return {1e9, space_.cap(n / 2), space_.cap(std::min(4, n - 1)),
            space_.cap(std::min(2, n - 1)), 0.0};
  }

  Goals GoalsFor(GoalMode mode, const DecisionInputs& in, double pr_th) const {
    Goals goals;
    goals.mode = mode;
    goals.deadline = in.deadline;
    goals.accuracy_goal = 0.9;
    goals.energy_budget = 0.6 * space_.cap(space_.num_powers() - 1) * in.period;
    goals.prob_threshold = pr_th;
    return goals;
  }

  std::vector<ConfigScore> ScoreAllWith(bool simd_on, const DecisionInputs& in) {
    std::vector<ConfigScore> scores(static_cast<size_t>(engine_.num_entries()));
    engine_.set_simd_enabled(simd_on);
    engine_.ScoreAll(in, scores);
    engine_.set_simd_enabled(true);
    return scores;
  }

  void ExpectSamePick(const DecisionEngine::Selection& want,
                      const DecisionEngine::Selection& got) {
    EXPECT_EQ(want.candidate_index, got.candidate_index) << GetParam().name;
    EXPECT_EQ(want.power_index, got.power_index) << GetParam().name;
    EXPECT_EQ(want.feasible, got.feasible) << GetParam().name;
  }

  void ExpectSameBytes(const std::vector<ConfigScore>& a,
                       const std::vector<ConfigScore>& b, const std::string& what) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(ConfigScore)))
        << GetParam().name << ": " << what;
  }

  std::vector<DnnModel> models_;
  PlatformSimulator sim_;
  ConfigSpace space_;
  DecisionEngine engine_;
};

constexpr GoalMode kAllModes[] = {GoalMode::kMinimizeEnergy,
                                  GoalMode::kMaximizeAccuracy,
                                  GoalMode::kMinimizeLatency};

TEST_P(SimdShapeTest, ScoreAllBitIdenticalAcrossPropertySweep) {
  for (const DecisionInputs& in : Inputs(120)) {
    ExpectSameBytes(ScoreAllWith(false, in), ScoreAllWith(true, in), "ScoreAll");
  }
}

TEST_P(SimdShapeTest, SigmaZeroSliceIsBitIdenticalThroughEveryEntryPoint) {
  const std::vector<DecisionInputs> inputs = SigmaZeroInputs(24);
  const size_t entries = static_cast<size_t>(engine_.num_entries());

  // ScoreBatch, scalar and vector, over the whole slice.
  std::vector<ConfigScore> batch_scalar(inputs.size() * entries);
  std::vector<ConfigScore> batch_simd(inputs.size() * entries);
  engine_.set_simd_enabled(false);
  engine_.ScoreBatch(inputs, batch_scalar);
  engine_.set_simd_enabled(true);
  engine_.ScoreBatch(inputs, batch_simd);
  ExpectSameBytes(batch_scalar, batch_simd, "ScoreBatch");

  DecisionEngine::SelectScratch scratch;
  for (size_t j = 0; j < inputs.size(); ++j) {
    const DecisionInputs& in = inputs[j];
    const std::vector<ConfigScore> scalar = ScoreAllWith(false, in);
    ExpectSameBytes(scalar, ScoreAllWith(true, in), "ScoreAll");
    ASSERT_EQ(0, std::memcmp(scalar.data(), batch_simd.data() + j * entries,
                             entries * sizeof(ConfigScore)));
    for (const GoalMode mode : kAllModes) {
      for (const double pr_th : {0.0, 0.5}) {
        for (const Watts limit : Limits()) {
          const Goals goals = GoalsFor(mode, in, pr_th);
          const Joules allowance = goals.energy_budget;
          engine_.set_simd_enabled(false);
          const auto scalar_sel =
              engine_.SelectBest(goals, allowance, in, limit, scratch);
          engine_.set_simd_enabled(true);
          ExpectSamePick(scalar_sel,
                         engine_.SelectBest(goals, allowance, in, limit, scratch));
          ExpectSamePick(scalar_sel,
                         engine_.SelectFromScores(goals, allowance, scalar, limit));
        }
      }
    }
  }
}

TEST_P(SimdShapeTest, SigmaZeroDeadlineOnAnEntryBoundaryIsBitExact) {
  // At sigma == 0 a deadline equal to an entry's mean run time completes (the scalar
  // step is `deadline < mean_t ? 0 : 1`); the same for a stage's mean end time.  The
  // vector step must agree at exact equality.
  const double mean = 1.3;
  std::vector<Seconds> deadlines;
  for (int ci = 0; ci < space_.num_candidates(); ci += 2) {
    const Candidate& c = space_.candidate(ci);
    const int pi = (ci * 7) % space_.num_powers();
    deadlines.push_back(mean * space_.CandidateProfileLatency(c, pi));
    const DnnModel& model = space_.model(c.model_index);
    if (model.is_anytime()) {
      const double frac = model.anytime_stages.front().latency_fraction;
      deadlines.push_back(mean * (frac * space_.ProfileLatency(c.model_index, pi)));
    }
  }
  for (const Seconds deadline : deadlines) {
    for (const bool stop : {true, false}) {
      DecisionInputs in;
      in.xi = XiBelief{mean, 0.0};
      in.deadline = deadline;
      in.period = deadline;  // idle time exactly 0 on the boundary entry
      in.use_idle_ratio = true;
      in.idle_ratio = 0.2;
      in.stop_at_cutoff = stop;
      const std::vector<ConfigScore> scalar = ScoreAllWith(false, in);
      ExpectSameBytes(scalar, ScoreAllWith(true, in), "boundary ScoreAll");
      const auto on_time = std::count_if(scalar.begin(), scalar.end(), [&](auto& s) {
        return s.prob_deadline == 1.0 && s.expected_latency == deadline;
      });
      EXPECT_GT(on_time, 0) << "no entry sits exactly on deadline " << deadline;
    }
  }
}

TEST_P(SimdShapeTest, SelectBestIdenticalAcrossGoalsAndMidVectorLimits) {
  std::vector<ConfigScore> scores(static_cast<size_t>(engine_.num_entries()));
  DecisionEngine::SelectScratch scratch;
  for (const DecisionInputs& in : Inputs(16)) {
    for (const GoalMode mode : kAllModes) {
      for (const double pr_th : {0.0, 0.9}) {
        for (const Watts limit : Limits()) {
          const Goals goals = GoalsFor(mode, in, pr_th);
          engine_.set_simd_enabled(false);
          const auto scalar_sel =
              engine_.SelectBest(goals, goals.energy_budget, in, limit, scratch);
          engine_.set_simd_enabled(true);
          const auto simd_sel =
              engine_.SelectBest(goals, goals.energy_budget, in, limit, scratch);
          engine_.ScoreAll(in, scores);
          ExpectSamePick(scalar_sel, simd_sel);
          ExpectSamePick(scalar_sel, engine_.SelectFromScores(
                                         goals, goals.energy_budget, scores, limit));
        }
      }
    }
  }
}

TEST_P(SimdShapeTest, SelectionFollowsTheReferenceRuleInEveryMode) {
  // The feasible pick, written out from the paper's rule over a ScoreAll table:
  // drop entries under Pr_th (Eqs. 10/11), keep those meeting the mode's constraint
  // (Eqs. 1/2) and take the best objective, ties to the lower tiebreak, the first
  // seen among equals.  Nothing feasible must mean a fallback pick.
  std::vector<ConfigScore> scores(static_cast<size_t>(engine_.num_entries()));
  DecisionEngine::SelectScratch scratch;
  std::vector<DecisionInputs> inputs = Inputs(16);
  const std::vector<DecisionInputs> sigma0 = SigmaZeroInputs(8);
  inputs.insert(inputs.end(), sigma0.begin(), sigma0.end());
  int feasible_picks = 0;
  int filtered_by_threshold = 0;
  for (const DecisionInputs& in : inputs) {
    engine_.ScoreAll(in, scores);
    for (const GoalMode mode : kAllModes) {
      for (const double pr_th : {0.0, 0.6, 0.95}) {
        for (const Watts limit : {Limits()[0], Limits()[2]}) {
          const Goals goals = GoalsFor(mode, in, pr_th);
          const Joules allowance = goals.energy_budget;
          int best_ci = -1, best_pi = -1;
          double best_obj = 0.0, best_tie = 0.0;
          const int width = [&] {
            int max_pi = space_.num_powers() - 1;
            while (max_pi > 0 && space_.cap(max_pi) > limit + 1e-9) --max_pi;
            return max_pi + 1;
          }();
          for (int ci = 0; ci < engine_.num_candidates(); ++ci) {
            for (int pi = 0; pi < width; ++pi) {
              const ConfigScore& s =
                  scores[static_cast<size_t>(engine_.entry_index(ci, pi))];
              if (pr_th > 0.0 && s.prob_deadline < pr_th) {
                ++filtered_by_threshold;
                continue;
              }
              bool feasible = false;
              double obj = 0.0, tie = 0.0;
              switch (mode) {
                case GoalMode::kMinimizeEnergy:
                  feasible = s.expected_accuracy >= goals.accuracy_goal;
                  obj = s.expected_energy;
                  tie = -s.expected_accuracy;
                  break;
                case GoalMode::kMaximizeAccuracy:
                  feasible = s.expected_energy <= allowance;
                  obj = -s.expected_accuracy;
                  tie = s.expected_energy;
                  break;
                case GoalMode::kMinimizeLatency:
                  feasible = s.expected_accuracy >= goals.accuracy_goal &&
                             s.expected_energy <= allowance;
                  obj = s.expected_latency;
                  tie = s.expected_energy;
                  break;
              }
              if (!feasible) continue;
              const bool better = best_ci < 0 || obj - best_obj < -1e-12 ||
                                  (std::abs(obj - best_obj) <= 1e-12 && tie < best_tie);
              if (better) {
                best_ci = ci;
                best_pi = pi;
                best_obj = obj;
                best_tie = tie;
              }
            }
          }
          const auto fused = engine_.SelectBest(goals, allowance, in, limit, scratch);
          const auto table = engine_.SelectFromScores(goals, allowance, scores, limit);
          for (const auto& sel : {fused, table}) {
            EXPECT_EQ(sel.feasible, best_ci >= 0) << GetParam().name;
            if (best_ci >= 0) {
              EXPECT_EQ(sel.candidate_index, best_ci) << GetParam().name;
              EXPECT_EQ(sel.power_index, best_pi) << GetParam().name;
            }
          }
          feasible_picks += best_ci >= 0 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(feasible_picks, 0);
  EXPECT_GT(filtered_by_threshold, 0);
}

TEST_P(SimdShapeTest, GoalsAtRowAccuracyBoundsAndFallbacksAfterSkippedRows) {
  // The vector SelectBest skips a row whose accuracy bound (the max of q_fail and
  // its final or stage accuracies) is below the goal by more than 1e-9.  A goal
  // exactly at a bound must keep that row, and a fallback after skipped rows must
  // still take its completion-probability floor over every row.  Goals: each
  // distinct bound, each bound nudged 2e-9 down and up, and one above every bound.
  std::vector<double> bounds;
  for (int ci = 0; ci < space_.num_candidates(); ++ci) {
    const Candidate& c = space_.candidate(ci);
    const DnnModel& model = space_.model(c.model_index);
    double bound = TaskRandomGuessAccuracy(model.task);
    if (c.stage_limit >= 0) {
      for (int k = 0; k <= c.stage_limit; ++k) {
        bound = std::max(bound, model.anytime_stages[static_cast<size_t>(k)].accuracy);
      }
    } else {
      bound = std::max(bound, space_.CandidateAccuracy(c));
    }
    bounds.push_back(bound);
  }
  std::vector<double> goal_levels;
  for (const double b : bounds) {
    goal_levels.insert(goal_levels.end(), {b, b - 2e-9, b + 2e-9});
  }
  goal_levels.push_back(1.5);

  std::vector<DecisionInputs> inputs = Inputs(6);
  const std::vector<DecisionInputs> sigma0 = SigmaZeroInputs(6);
  inputs.insert(inputs.end(), sigma0.begin(), sigma0.end());
  DecisionEngine::SelectScratch scratch;
  int picks_at_bound = 0;
  int fallbacks_after_skips = 0;
  for (const DecisionInputs& in : inputs) {
    const std::vector<ConfigScore> scores = ScoreAllWith(false, in);
    for (const GoalMode mode : {GoalMode::kMinimizeEnergy, GoalMode::kMinimizeLatency}) {
      for (const double pr_th : {0.0, 0.5}) {
        for (const Watts limit : {Limits()[0], Limits()[2]}) {
          for (const double level : goal_levels) {
            Goals goals = GoalsFor(mode, in, pr_th);
            goals.accuracy_goal = level;
            engine_.set_simd_enabled(false);
            const auto scalar_sel =
                engine_.SelectBest(goals, goals.energy_budget, in, limit, scratch);
            engine_.set_simd_enabled(true);
            ExpectSamePick(scalar_sel, engine_.SelectBest(goals, goals.energy_budget, in,
                                                          limit, scratch));
            ExpectSamePick(scalar_sel, engine_.SelectFromScores(
                                           goals, goals.energy_budget, scores, limit));
            const bool some_row_skipped =
                std::any_of(bounds.begin(), bounds.end(),
                            [&](double b) { return b < level - 1e-9; });
            if (!scalar_sel.feasible && some_row_skipped) {
              ++fallbacks_after_skips;
            }
            if (scalar_sel.feasible &&
                bounds[static_cast<size_t>(scalar_sel.candidate_index)] == level) {
              ++picks_at_bound;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(picks_at_bound, 0) << GetParam().name;
  EXPECT_GT(fallbacks_after_skips, 0) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimdShapeTest,
    ::testing::Values(
        EngineShape{"Cpu1Both", PlatformId::kCpu1, DnnSetChoice::kBoth, false},
        EngineShape{"GpuBoth", PlatformId::kGpu, DnnSetChoice::kBoth, false},
        EngineShape{"Cpu1AnytimeOnly", PlatformId::kCpu1, DnnSetChoice::kAnytimeOnly,
                    false},
        EngineShape{"Cpu2TwoAnytimeModels", PlatformId::kCpu2, DnnSetChoice::kBoth,
                    true}),
    [](const ::testing::TestParamInfo<EngineShape>& info) { return info.param.name; });

}  // namespace
}  // namespace alert
