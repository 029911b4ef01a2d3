#include "src/sim/simulator.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

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
