// Section 4's overhead claim: ALERT's scheduler computation costs 0.6-1.7% of an
// input inference.  Times the per-input work — one Decide() (scores every
// candidate x power configuration) and one Observe() (two Kalman updates) — on
// each evaluation platform's configuration space, and derives
// `inference_over_decide_observe_<platform>`: one reference inference (the
// anytime network's mean latency, BaseDeadline: 64 ms CPU1, ~19 ms CPU2, 1.6 ms
// GPU) over the measured Decide + Observe time.  Unlike the other suites' speedups
// this ratio scales with host speed (the inference is simulated, the scheduler
// time is not), so the trajectory baseline carries no derived band for it, only
// a gates.min floor of 59: the paper's 1.7% inverted.
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_harness.h"
#include "src/core/alert_scheduler.h"
#include "src/dnn/zoo.h"
#include "src/harness/constraint_grid.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

struct Fixture {
  explicit Fixture(PlatformId platform)
      : models(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim(GetPlatform(platform), models), space(sim) {
    goals.mode = GoalMode::kMinimizeEnergy;
    goals.deadline = 1.25 * BaseDeadline(TaskId::kImageClassification, platform);
    goals.accuracy_goal = 0.9;
  }
  std::vector<DnnModel> models;
  PlatformSimulator sim;
  ConfigSpace space;
  Goals goals;
};

}  // namespace
}  // namespace alert

int main(int argc, char** argv) {
  using namespace alert;
  bench::Harness h("overhead", argc, argv);
  const std::pair<PlatformId, std::string> platforms[] = {
      {PlatformId::kCpu1, "cpu1"}, {PlatformId::kCpu2, "cpu2"}, {PlatformId::kGpu, "gpu"}};
  for (const auto& [platform, name] : platforms) {
    Fixture f(platform);
    AlertScheduler scheduler(f.space, f.goals);
    InferenceRequest req;
    req.input_index = 0;
    req.deadline = f.goals.deadline;
    req.period = f.goals.deadline;
    const double decide_ns =
        h.RunCase("decide_" + name, [&] { bench::DoNotOptimize(scheduler.Decide(req)); });

    SchedulingDecision d;
    d.candidate = f.space.candidate(0);
    d.power_index = 0;
    d.power_cap = f.space.cap(0);
    Measurement m;
    m.latency = 0.05;
    m.period = 0.08;
    m.inference_power = 30.0;
    m.idle_power = 6.0;
    m.xi_anchor_time = 0.05;
    m.xi_anchor_fraction = 1.0;
    const double observe_ns = h.RunCase("observe_" + name, [&] { scheduler.Observe(d, m); });

    const double inference_ns = 1e9 * BaseDeadline(TaskId::kImageClassification, platform);
    h.Context("configs_" + name, static_cast<double>(f.space.num_configurations()));
    h.Context("inference_us_" + name, inference_ns / 1e3);
    h.Derive("inference_over_decide_observe_" + name,
             inference_ns / (decide_ns + observe_ns));
  }
  return h.Finish();
}
