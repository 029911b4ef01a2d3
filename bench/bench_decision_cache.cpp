// DecisionCache microbenchmark: hit rate and ns/decision as a function of belief
// drift rate and quantization bucket width, warm cache vs. the uncached fused
// SelectBest baseline.
//
// The workload models the live scheduler: a belief random walk with per-step drift
// magnitude D over the CPU1 image candidate space (110 configurations).  The cache
// hits whenever the walk stays inside one (xi-mean, xi-sigma) bucket, so the hit
// rate — and the ns/decision win — grows with bucket width and shrinks with drift
// rate.  One harness op = one full
// trajectory pass (kDecisions selections); warm cases pre-populate the cache, whose
// replay of a pass is idempotent.  Derived ratios feed the perf-trajectory gate.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "src/common/simd.h"
#include "src/core/config_space.h"
#include "src/core/decision_cache.h"
#include "src/core/decision_engine.h"
#include "src/dnn/zoo.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

constexpr int kDecisions = 4000;

struct Fixture {
  Fixture()
      : models(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim(GetPlatform(PlatformId::kCpu1), models), space(sim), engine(space) {
    goals.mode = GoalMode::kMinimizeEnergy;
    goals.deadline = 0.08;
    goals.accuracy_goal = 0.9;
    WarmGaussianTable();
  }
  std::vector<DnnModel> models;
  PlatformSimulator sim;
  ConfigSpace space;
  DecisionEngine engine;
  Goals goals;
};

// A drift-rate-D belief trajectory (seed-deterministic).
std::vector<DecisionInputs> Trajectory(double drift, int steps) {
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> step(-drift, drift);
  std::vector<DecisionInputs> trajectory;
  DecisionInputs in;
  in.xi = XiBelief{1.15, 0.12};
  in.deadline = 0.08;
  in.period = 0.08;
  in.use_idle_ratio = true;
  in.idle_ratio = 0.22;
  for (int i = 0; i < steps; ++i) {
    in.xi.mean = std::clamp(in.xi.mean + step(rng), 0.9, 1.6);
    in.xi.stddev = std::clamp(in.xi.stddev + 0.5 * step(rng), 0.01, 0.4);
    trajectory.push_back(in);
  }
  return trajectory;
}

// ns/decision for the uncached fused SelectBest over the trajectory.
double RunUncached(bench::Harness& h, const Fixture& f,
                   const std::vector<DecisionInputs>& trajectory,
                   const std::string& name) {
  DecisionEngine::SelectScratch scratch;
  int sink = 0;
  const double pass_ns = h.RunCase(name, [&] {
    for (const DecisionInputs& in : trajectory) {
      sink += f.engine.SelectBest(f.goals, 0.0, in, 1e9, scratch).power_index;
    }
    bench::DoNotOptimize(sink);
  });
  return pass_ns / static_cast<double>(trajectory.size());
}

struct CacheRun {
  double warm_ns_per_decision = 0.0;
  double hit_rate = 0.0;  // over the populating pass + one replay
};

// Warm-cache ns/decision: populate once, then time idempotent replays.
CacheRun RunCached(bench::Harness& h, const Fixture& f,
                   const DecisionCachePolicy& policy,
                   const std::vector<DecisionInputs>& trajectory,
                   const std::string& name) {
  DecisionCache cache(f.engine, policy);
  DecisionEngine::SelectScratch scratch;
  int sink = 0;
  auto pass = [&] {
    for (const DecisionInputs& in : trajectory) {
      sink += cache.Select(f.goals, 0.0, in, 1e9, scratch).power_index;
    }
    bench::DoNotOptimize(sink);
  };
  pass();  // populate
  const double first_two_passes_hit_rate = [&] {
    pass();
    return cache.stats().hit_rate();
  }();
  CacheRun run;
  run.warm_ns_per_decision =
      h.RunCase(name, pass) / static_cast<double>(trajectory.size());
  run.hit_rate = first_two_passes_hit_rate;
  return run;
}

}  // namespace

int Main(int argc, char** argv) {
  bench::Harness h("decision_cache", argc, argv);
  const Fixture f;
  h.Context("simd_backend", std::string(simd::BackendName(simd::CompiledBackend())));
  h.Context("simd_active", f.engine.simd_active());
  h.Context("decisions_per_pass", static_cast<double>(kDecisions));

  const double drifts[] = {0.0, 0.002};
  const double widths[] = {0.02, 0.05};
  double uncached_drift002 = 0.0;
  double warm_bucketed_w002_drift002 = 0.0;
  for (const double drift : drifts) {
    const auto trajectory = Trajectory(drift, kDecisions);
    const std::string drift_tag = drift == 0.0 ? "0" : "0.002";
    const double uncached =
        RunUncached(h, f, trajectory, "uncached_pass_drift" + drift_tag);
    if (drift != 0.0) {
      uncached_drift002 = uncached;
    }

    for (const double width : widths) {
      DecisionCachePolicy bucketed;
      bucketed.mode = DecisionCacheMode::kBucketed;
      bucketed.xi_mean_step = width;
      bucketed.xi_stddev_step = width;
      const std::string width_tag = width == 0.02 ? "0.02" : "0.05";
      const CacheRun run =
          RunCached(h, f, bucketed, trajectory,
                    "warm_bucketed_w" + width_tag + "_pass_drift" + drift_tag);
      if (drift != 0.0 && width == 0.02) {
        warm_bucketed_w002_drift002 = run.warm_ns_per_decision;
        h.Derive("cache_hit_rate_bucketed_w0.02_drift0.002", run.hit_rate);
      }
    }
  }

  h.Derive("cache_warm_speedup_bucketed_w0.02_drift0.002",
           uncached_drift002 / warm_bucketed_w002_drift002);
  return h.Finish();
}

}  // namespace alert

int main(int argc, char** argv) { return alert::Main(argc, argv); }
