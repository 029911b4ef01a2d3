#include "src/sim/simulator.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dnn/zoo.h"

namespace alert {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : models_(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim_(GetPlatform(PlatformId::kCpu1), models_) {}

  static ExecutionContext QuietContext() { return ExecutionContext{}; }

  std::vector<DnnModel> models_;
  PlatformSimulator sim_;
};

TEST_F(SimulatorTest, NominalLatencyScalesWithSpeedCurve) {
  const PlatformSpec& p = GetPlatform(PlatformId::kCpu1);
  const Seconds at_max = sim_.NominalLatency(0, p.cap_max);
  const Seconds at_min = sim_.NominalLatency(0, p.cap_min);
  EXPECT_DOUBLE_EQ(at_max, models_[0].ref_latency_on(PlatformId::kCpu1));
  EXPECT_NEAR(at_min / at_max, 1.0 / p.curve.speed_min, 1e-9);
}

TEST_F(SimulatorTest, InferencePowerCapBindsForSmallCaps) {
  // At the lowest cap the package draw equals cap + base power.
  const PlatformSpec& p = GetPlatform(PlatformId::kCpu1);
  EXPECT_DOUBLE_EQ(sim_.InferencePower(4, p.cap_min), p.cap_min + p.base_power);
}

TEST_F(SimulatorTest, InferencePowerDemandBindsForLargeCaps) {
  const PlatformSpec& p = GetPlatform(PlatformId::kCpu1);
  const DnnModel& m = models_[0];  // smallest, lowest demand
  const Watts demand = m.power_demand_frac * p.curve.cap_sat;
  ASSERT_LT(demand, p.cap_max);
  EXPECT_DOUBLE_EQ(sim_.InferencePower(0, p.cap_max), demand + p.base_power);
}

TEST_F(SimulatorTest, IdlePowerIncludesContention) {
  ExecutionContext ctx;
  const Watts quiet = sim_.IdlePower(ctx);
  ctx.extra_idle_power = 6.0;
  EXPECT_DOUBLE_EQ(sim_.IdlePower(ctx), quiet + 6.0);
}

TEST_F(SimulatorTest, TrueLatencyAppliesAllFactors) {
  ExecutionContext ctx;
  ctx.contention = ContentionType::kMemory;
  ctx.contention_active = true;
  ctx.contention_multiplier = 1.5;
  ctx.input_factor = 1.1;
  ctx.noise_multiplier = 0.9;
  ctx.tail_multiplier = 2.0;
  ctx.drift_multiplier = 1.2;
  const DnnModel& m = models_[2];
  const double sens = m.ContentionSensitivity(ContentionType::kMemory);
  const double expected = sim_.NominalLatency(2, 30.0) * (1.0 + 0.5 * sens) * 1.1 * 0.9 *
                          2.0 * 1.2;
  EXPECT_NEAR(sim_.TrueLatency(2, 30.0, ctx), expected, 1e-12);
}

TEST_F(SimulatorTest, TraditionalMeetsDeadline) {
  ExecRequest req;
  req.model_index = 0;
  req.power_cap = 35.0;
  req.deadline = 1.0;
  const Measurement m = sim_.Execute(req, QuietContext());
  EXPECT_TRUE(m.deadline_met);
  EXPECT_DOUBLE_EQ(m.accuracy, models_[0].accuracy);
  EXPECT_EQ(m.delivered_stage, -1);
  EXPECT_FALSE(m.xi_censored);
  EXPECT_DOUBLE_EQ(m.xi_anchor_fraction, 1.0);
  EXPECT_DOUBLE_EQ(m.xi_anchor_time, m.latency);
}

TEST_F(SimulatorTest, TraditionalMissDeliversRandomGuess) {
  ExecRequest req;
  req.model_index = 4;  // largest
  req.power_cap = 35.0;
  req.deadline = 0.001;  // impossible
  req.stop_at_deadline = false;
  const Measurement m = sim_.Execute(req, QuietContext());
  EXPECT_FALSE(m.deadline_met);
  EXPECT_DOUBLE_EQ(m.accuracy, TaskRandomGuessAccuracy(TaskId::kImageClassification));
  // Runs to completion: the full latency is observed, not censored.
  EXPECT_FALSE(m.xi_censored);
  EXPECT_GT(m.latency, req.deadline);
}

TEST_F(SimulatorTest, TraditionalKilledAtDeadlineIsCensored) {
  ExecRequest req;
  req.model_index = 4;
  req.power_cap = 35.0;
  req.deadline = 0.001;
  req.stop_at_deadline = true;
  const Measurement m = sim_.Execute(req, QuietContext());
  EXPECT_FALSE(m.deadline_met);
  EXPECT_TRUE(m.xi_censored);
  EXPECT_DOUBLE_EQ(m.latency, req.deadline);
}

TEST_F(SimulatorTest, AnytimeDeliversFinalStageWhenTimeAllows) {
  const int any = 5;
  ASSERT_TRUE(models_[static_cast<size_t>(any)].is_anytime());
  ExecRequest req;
  req.model_index = any;
  req.power_cap = 35.0;
  req.deadline = 1.0;
  const Measurement m = sim_.Execute(req, QuietContext());
  EXPECT_TRUE(m.deadline_met);
  EXPECT_EQ(m.delivered_stage, 4);
  EXPECT_DOUBLE_EQ(m.accuracy, models_[static_cast<size_t>(any)].accuracy);
  // Stops at completion, before the deadline.
  EXPECT_LT(m.latency, req.deadline);
}

TEST_F(SimulatorTest, AnytimeTruncatedAtDeadlineDeliversEarlierStage) {
  const int any = 5;
  const DnnModel& m = models_[static_cast<size_t>(any)];
  const Seconds full = sim_.NominalLatency(any, 35.0);
  // Deadline between stage 2 and stage 3 completion.
  ExecRequest req;
  req.model_index = any;
  req.power_cap = 35.0;
  req.deadline = full * 0.7;  // stages at 0.22/0.38/0.58/0.79/1.0
  const Measurement meas = sim_.Execute(req, QuietContext());
  EXPECT_TRUE(meas.deadline_met);
  EXPECT_EQ(meas.delivered_stage, 2);
  EXPECT_DOUBLE_EQ(meas.accuracy, m.anytime_stages[2].accuracy);
  EXPECT_DOUBLE_EQ(meas.latency, req.deadline);  // ran until the deadline
  // The anchor is the last completed stage: observable and uncensored.
  EXPECT_FALSE(meas.xi_censored);
  EXPECT_DOUBLE_EQ(meas.xi_anchor_fraction, m.anytime_stages[2].latency_fraction);
}

TEST_F(SimulatorTest, AnytimeStageLimitStopsEarly) {
  const int any = 5;
  ExecRequest req;
  req.model_index = any;
  req.power_cap = 35.0;
  req.deadline = 1.0;
  req.max_anytime_stage = 1;
  const Measurement m = sim_.Execute(req, QuietContext());
  EXPECT_EQ(m.delivered_stage, 1);
  EXPECT_DOUBLE_EQ(m.accuracy,
                   models_[static_cast<size_t>(any)].anytime_stages[1].accuracy);
  const Seconds full = sim_.NominalLatency(any, 35.0);
  EXPECT_NEAR(m.latency,
              full * models_[static_cast<size_t>(any)].anytime_stages[1].latency_fraction,
              1e-12);
}

TEST_F(SimulatorTest, AnytimeImpossibleDeadlineIsCensoredGuess) {
  const int any = 5;
  ExecRequest req;
  req.model_index = any;
  req.power_cap = 35.0;
  req.deadline = 1e-5;  // even stage 0 cannot finish
  const Measurement m = sim_.Execute(req, QuietContext());
  EXPECT_FALSE(m.deadline_met);
  EXPECT_EQ(m.delivered_stage, -1);
  EXPECT_TRUE(m.xi_censored);
  EXPECT_DOUBLE_EQ(m.accuracy, TaskRandomGuessAccuracy(TaskId::kImageClassification));
}

TEST_F(SimulatorTest, EnergyAccountingIdentity) {
  ExecRequest req;
  req.model_index = 2;
  req.power_cap = 20.0;
  req.deadline = 0.2;
  req.period = 0.2;
  const Measurement m = sim_.Execute(req, QuietContext());
  const double expected =
      m.inference_power * m.latency + m.idle_power * (m.period - m.latency);
  EXPECT_NEAR(m.energy, expected, 1e-9);
}

TEST_F(SimulatorTest, PeriodExtendsWhenJobOverruns) {
  ExecRequest req;
  req.model_index = 4;
  req.power_cap = 10.0;
  req.deadline = 0.001;
  req.stop_at_deadline = false;
  const Measurement m = sim_.Execute(req, QuietContext());
  EXPECT_GT(m.period, req.deadline);
  EXPECT_DOUBLE_EQ(m.period, m.latency);
  // No idle time in an overrun period.
  EXPECT_NEAR(m.energy, m.inference_power * m.latency, 1e-9);
}

TEST_F(SimulatorTest, HigherCapNeverSlower) {
  for (int model = 0; model < static_cast<int>(models_.size()); ++model) {
    Seconds prev = 1e9;
    for (Watts cap : GetPlatform(PlatformId::kCpu1).PowerSettings()) {
      const Seconds lat = sim_.NominalLatency(model, cap);
      EXPECT_LE(lat, prev + 1e-12);
      prev = lat;
    }
  }
}

// Every model the zoo offers on `platform`: the ImageNet zoo, the profiling
// singletons and both evaluation sets.
std::vector<DnnModel> ModelsOn(PlatformId platform) {
  std::vector<DnnModel> all = BuildImageNetZoo();
  for (DnnModel m : {BuildVgg16(), BuildResNet50(), BuildRnn(), BuildBert()}) {
    all.push_back(std::move(m));
  }
  for (const TaskId task : {TaskId::kImageClassification, TaskId::kSentencePrediction}) {
    for (DnnModel& m : BuildEvaluationSet(task, DnnSetChoice::kBoth)) {
      all.push_back(std::move(m));
    }
  }
  std::vector<DnnModel> supported;
  for (DnnModel& m : all) {
    if (m.SupportsPlatform(platform)) {
      supported.push_back(std::move(m));
    }
  }
  return supported;
}

// The power-curve formula the simulator's per-setting table is filled with.
Seconds FormulaLatency(const PlatformSpec& p, const DnnModel& m, Watts cap) {
  return m.ref_latency_on(p.id) / p.curve.SpeedAt(cap);
}

// The per-setting nominal-latency table must hold exactly the formula's bits for
// every platform x model x setting, and TrueLatency must keep its multiplication
// order on top of it.
TEST(SimulatorLatencyTableTest, EqualsTheFormulaOnEveryLadderSetting) {
  ExecutionContext ctx;
  ctx.contention = ContentionType::kMemory;
  ctx.contention_multiplier = 1.37;
  ctx.input_factor = 1.11;
  ctx.noise_multiplier = 0.97;
  ctx.tail_multiplier = 1.3;
  ctx.drift_multiplier = 1.05;
  int checked = 0;
  for (int id = 0; id < kNumPlatforms; ++id) {
    const PlatformSpec& p = GetPlatform(static_cast<PlatformId>(id));
    const std::vector<DnnModel> models = ModelsOn(p.id);
    ASSERT_FALSE(models.empty()) << p.name;
    const PlatformSimulator sim(p, models);
    for (int mi = 0; mi < static_cast<int>(models.size()); ++mi) {
      const DnnModel& m = models[static_cast<size_t>(mi)];
      const double sensitivity = m.ContentionSensitivity(ctx.contention);
      const double contention = 1.0 + (ctx.contention_multiplier - 1.0) * sensitivity;
      for (const Watts cap : p.PowerSettings()) {
        const Seconds want = FormulaLatency(p, m, cap);
        const Seconds got = sim.NominalLatency(mi, cap);
        EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(Seconds)))
            << p.name << " " << m.name << " cap " << cap;
        const Seconds true_want = want * contention * ctx.input_factor *
                                  ctx.noise_multiplier * ctx.tail_multiplier *
                                  ctx.drift_multiplier;
        const Seconds true_got = sim.TrueLatency(mi, cap, ctx);
        EXPECT_EQ(0, std::memcmp(&true_got, &true_want, sizeof(Seconds)))
            << p.name << " " << m.name << " cap " << cap;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

// A cap that is not a ladder setting (a shared budget's split, a Fig. 3 sweep step)
// must take the formula, not the nearest table entry.
TEST(SimulatorLatencyTableTest, OffLadderCapsTakeTheFormula) {
  for (int id = 0; id < kNumPlatforms; ++id) {
    const PlatformSpec& p = GetPlatform(static_cast<PlatformId>(id));
    const std::vector<DnnModel> models = ModelsOn(p.id);
    const PlatformSimulator sim(p, models);
    const std::vector<Watts> ladder = p.PowerSettings();
    std::vector<Watts> off_ladder = {p.cap_min - p.cap_step, p.cap_min - 0.25 * p.cap_step,
                                     p.cap_max + 0.25 * p.cap_step, p.cap_max + p.cap_step,
                                     std::nextafter(ladder[1], 0.0),
                                     std::nextafter(ladder[1], 1e9)};
    for (size_t s = 0; s + 1 < ladder.size(); ++s) {
      off_ladder.push_back(0.5 * (ladder[s] + ladder[s + 1]));
      off_ladder.push_back(ladder[s] + 0.3 * p.cap_step);
    }
    for (int mi = 0; mi < static_cast<int>(models.size()); ++mi) {
      const DnnModel& m = models[static_cast<size_t>(mi)];
      for (const Watts cap : off_ladder) {
        const Seconds want = FormulaLatency(p, m, cap);
        const Seconds got = sim.NominalLatency(mi, cap);
        EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(Seconds)))
            << p.name << " " << m.name << " cap " << cap;
      }
      // Strictly inside the convex part of the curve a midpoint's latency lies
      // strictly between its neighbours': no lookup snapped it to a setting.
      for (size_t s = 0; s + 1 < ladder.size(); ++s) {
        if (ladder[s + 1] > p.curve.cap_sat || ladder[s] < p.curve.cap_min) {
          continue;
        }
        const Seconds mid = sim.NominalLatency(mi, 0.5 * (ladder[s] + ladder[s + 1]));
        EXPECT_LT(mid, sim.NominalLatency(mi, ladder[s])) << p.name << " " << s;
        EXPECT_GT(mid, sim.NominalLatency(mi, ladder[s + 1])) << p.name << " " << s;
      }
    }
  }
}

// A random environment with the given contention type: every factor ExecuteLadder
// hoists or multiplies in is drawn away from its neutral value.
ExecutionContext RandomContext(Rng& rng, ContentionType contention) {
  ExecutionContext ctx;
  ctx.contention = contention;
  ctx.contention_active = contention != ContentionType::kNone;
  ctx.contention_multiplier = ctx.contention_active ? rng.Uniform(1.0, 2.5) : 1.0;
  ctx.extra_idle_power = ctx.contention_active ? rng.Uniform(0.0, 6.0) : 0.0;
  ctx.input_factor = rng.Uniform(0.7, 1.4);
  ctx.noise_multiplier = rng.LogNormal(0.0, 0.1);
  ctx.tail_multiplier = rng.Uniform(0.0, 1.0) < 0.3 ? rng.Uniform(1.0, 3.0) : 1.0;
  ctx.drift_multiplier = rng.Uniform(0.8, 1.2);
  return ctx;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// ExecuteLadder must report, at every ladder setting, exactly the bits Execute reports
// at that cap: every platform x every model of both tasks x every stage limit and
// kill mode, under random environments of all three contention types, with deadlines
// at random, exactly at t_full, at t_full +- 1e-12 and at each anytime stage's exit
// time, for period 0 and periods shorter and longer than the deadline.
TEST(SimulatorLadderTest, EveryEntryEqualsExecuteAtThatSetting) {
  Rng rng(20201);
  int64_t compared = 0;
  int64_t mismatches = 0;
  for (int id = 0; id < kNumPlatforms; ++id) {
    const PlatformSpec& p = GetPlatform(static_cast<PlatformId>(id));
    const std::vector<DnnModel> models = ModelsOn(p.id);
    const PlatformSimulator sim(p, models);
    const std::vector<Watts> ladder = p.PowerSettings();
    const size_t num_settings = ladder.size();
    std::vector<Outcome> out(num_settings);
    for (const ContentionType contention :
         {ContentionType::kNone, ContentionType::kMemory, ContentionType::kCompute}) {
      for (int draw = 0; draw < 2; ++draw) {
        const ExecutionContext ctx = RandomContext(rng, contention);
        for (int mi = 0; mi < static_cast<int>(models.size()); ++mi) {
          const DnnModel& m = models[static_cast<size_t>(mi)];
          const int num_stages = static_cast<int>(m.anytime_stages.size());
          std::vector<Seconds> deadlines;
          for (size_t s = 0; s < num_settings; ++s) {
            const Seconds t_full = sim.TrueLatency(mi, ladder[s], ctx);
            deadlines.push_back(t_full);
            deadlines.push_back(t_full + 1e-12);
            deadlines.push_back(t_full - 1e-12);
            for (const AnytimeStage& stage : m.anytime_stages) {
              deadlines.push_back(stage.latency_fraction * t_full);
            }
          }
          for (int r = 0; r < 4; ++r) {
            const size_t s = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int>(num_settings) - 1));
            deadlines.push_back(rng.Uniform(0.2, 2.0) * sim.TrueLatency(mi, ladder[s], ctx));
          }
          // Stage limits: none, every stage, and one past the last (clamped).
          std::vector<int> stage_limits = {-1};
          for (int k = 0; k <= num_stages && num_stages > 0; ++k) {
            stage_limits.push_back(k);
          }
          for (const int stage_limit : stage_limits) {
            for (const bool stop : {true, false}) {
              for (const Seconds deadline : deadlines) {
                for (const double period_factor : {0.0, 0.6, 1.7}) {
                  ExecRequest req;
                  req.model_index = mi;
                  req.deadline = deadline;
                  req.period = period_factor * deadline;
                  req.max_anytime_stage = stage_limit;
                  req.stop_at_deadline = stop;
                  // The ladder ignores the request's cap.
                  req.power_cap = rng.Uniform(0.0, 2.0) * p.cap_max;
                  sim.ExecuteLadder(req, ctx, out);
                  for (size_t s = 0; s < num_settings; ++s) {
                    req.power_cap = ladder[s];
                    const Measurement want = sim.Execute(req, ctx);
                    const Outcome& got = out[s];
                    ++compared;
                    if (!SameBits(got.latency, want.latency) ||
                        !SameBits(got.energy, want.energy) ||
                        !SameBits(got.accuracy, want.accuracy) ||
                        got.deadline_met != want.deadline_met) {
                      if (++mismatches <= 5) {
                        ADD_FAILURE() << p.name << " " << m.name << " stage " << stage_limit
                                      << " stop " << stop << " deadline " << deadline
                                      << " period x" << period_factor << " setting " << s
                                      << ": latency " << got.latency << " vs "
                                      << want.latency << ", energy " << got.energy
                                      << " vs " << want.energy << ", accuracy "
                                      << got.accuracy << " vs " << want.accuracy
                                      << ", met " << got.deadline_met << " vs "
                                      << want.deadline_met;
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << compared;
  EXPECT_GT(compared, 10000000);
}

// Eq. 3 at its tolerance edge: a traditional network meets a deadline d exactly when
// t_full <= d + 1e-12.  For every platform x traditional model x setting, the
// smallest d that passes must deliver the model's accuracy and the next double down
// must not, in Execute and in the ladder alike.
TEST(SimulatorLadderTest, TraditionalDeadlineToleranceIsInclusive) {
  constexpr double kTol = 1e-12;
  Rng rng(77);
  int exact_edges = 0;
  for (int id = 0; id < kNumPlatforms; ++id) {
    const PlatformSpec& p = GetPlatform(static_cast<PlatformId>(id));
    const std::vector<DnnModel> models = ModelsOn(p.id);
    const PlatformSimulator sim(p, models);
    const std::vector<Watts> ladder = p.PowerSettings();
    std::vector<Outcome> out(ladder.size());
    const ExecutionContext ctx = RandomContext(rng, ContentionType::kMemory);
    for (int mi = 0; mi < static_cast<int>(models.size()); ++mi) {
      const DnnModel& m = models[static_cast<size_t>(mi)];
      if (m.is_anytime()) {
        continue;
      }
      for (size_t s = 0; s < ladder.size(); ++s) {
        const Seconds t_full = sim.TrueLatency(mi, ladder[s], ctx);
        Seconds edge = t_full - kTol;
        while (edge + kTol < t_full) {
          edge = std::nextafter(edge, 1.0);
        }
        while (std::nextafter(edge, 0.0) + kTol >= t_full) {
          edge = std::nextafter(edge, 0.0);
        }
        exact_edges += edge + kTol == t_full ? 1 : 0;
        for (const bool stop : {true, false}) {
          ExecRequest req;
          req.model_index = mi;
          req.power_cap = ladder[s];
          req.stop_at_deadline = stop;
          req.deadline = edge;
          sim.ExecuteLadder(req, ctx, out);
          const Measurement met = sim.Execute(req, ctx);
          EXPECT_TRUE(met.deadline_met && out[s].deadline_met) << p.name << " " << m.name;
          EXPECT_EQ(met.accuracy, m.accuracy);
          EXPECT_EQ(out[s].accuracy, m.accuracy);
          req.deadline = std::nextafter(edge, 0.0);
          sim.ExecuteLadder(req, ctx, out);
          const Measurement missed = sim.Execute(req, ctx);
          EXPECT_FALSE(missed.deadline_met || out[s].deadline_met) << p.name << " " << m.name;
          EXPECT_EQ(out[s].accuracy, TaskRandomGuessAccuracy(m.task));
          EXPECT_EQ(out[s].latency, stop ? req.deadline : t_full);
        }
      }
    }
  }
  // Most edges land exactly on t_full, where a strict comparison would flip them.
  EXPECT_GT(exact_edges, 1000);
}

// The ladder keeps Execute's checks and adds one: `out` must have one entry per setting.
TEST(SimulatorLadderDeathTest, RejectsAWrongSizeSpanABadModelAndAZeroDeadline) {
  const std::vector<DnnModel> models =
      BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth);
  const PlatformSimulator sim(GetPlatform(PlatformId::kCpu1), models);
  const size_t num_settings = GetPlatform(PlatformId::kCpu1).PowerSettings().size();
  const ExecutionContext ctx;
  ExecRequest req;
  req.deadline = 0.05;
  std::vector<Outcome> out(num_settings + 1);
  EXPECT_DEATH(sim.ExecuteLadder(req, ctx, std::span<Outcome>(out).first(num_settings - 1)),
               "out.size\\(\\) == caps_.size\\(\\)");
  EXPECT_DEATH(sim.ExecuteLadder(req, ctx, out), "out.size\\(\\) == caps_.size\\(\\)");
  std::span<Outcome> exact = std::span<Outcome>(out).first(num_settings);
  req.model_index = static_cast<int>(models.size());
  EXPECT_DEATH(sim.ExecuteLadder(req, ctx, exact), "index < ");
  req.model_index = 0;
  req.deadline = 0.0;
  EXPECT_DEATH(sim.ExecuteLadder(req, ctx, exact), "deadline > 0.0");
}

// The Fig. 3 shape: periodic-input energy across the cap range has its minimum at the
// lowest cap, an interior maximum, and declines toward the saturation cap; the latency
// span is ~2x.
TEST(Fig3ShapeTest, ResNet50OnCpu2) {
  const std::vector<DnnModel> models = {BuildResNet50()};
  const PlatformSpec& p = GetPlatform(PlatformId::kCpu2);
  PlatformSimulator sim(p, models);

  const Seconds period = sim.NominalLatency(0, 40.0);  // period = latency at 40 W
  EXPECT_NEAR(period / sim.NominalLatency(0, 100.0), 2.0, 0.05);

  std::vector<double> energies;
  ExecutionContext ctx;
  for (Watts cap = 40.0; cap <= 100.0; cap += 2.0) {
    ExecRequest req;
    req.model_index = 0;
    req.power_cap = cap;
    req.deadline = period;
    req.period = period;
    energies.push_back(sim.Execute(req, ctx).energy);
  }
  // Minimum at the lowest cap.
  for (size_t i = 1; i < energies.size(); ++i) {
    EXPECT_GE(energies[i], energies[0] - 1e-9);
  }
  // Interior maximum, not at either end.
  size_t argmax = 0;
  for (size_t i = 0; i < energies.size(); ++i) {
    if (energies[i] > energies[argmax]) {
      argmax = i;
    }
  }
  EXPECT_GT(argmax, 3u);
  EXPECT_LT(argmax, energies.size() - 3);
  // The paper quotes the most energy-hungry cap at ~1.3x the least.
  EXPECT_GT(energies[argmax] / energies[0], 1.15);
  EXPECT_LT(energies[argmax] / energies[0], 1.45);
}

}  // namespace
}  // namespace alert
