// DecisionEngine microbenchmark: ns/decision for the old full-rescore path (per-cell
// ConfigSpace lookups + exact erf-based estimates, exactly what AlertScheduler::Decide
// inlined before the engine existed) vs. the SoA scalar engine vs. the vectorized
// kernel, plus the fused SelectBest, across config-space sizes.  The sigma0 cases score
// ALERT*'s mean-only belief (xi.stddev == 0), whose row pass is step functions only,
// once on the scalar row pass and once on the vector kernel.
//
// Config-space size is scaled by replicating the evaluation candidate set: factor 1 is
// the paper's CPU1 space (110 configurations), factor 16 is 1760; the GPU space (350
// configurations, 35 powers) shapes one more SelectBest case, whose fused stream
// splits the anytime candidates across chunks.  Derived metrics (ratios;
// machine-stable) feed the perf-trajectory gate — see bench/trajectory/.
//
// select_best_over_score_all_simd_1760 is ScoreAll's time over SelectBest's on the
// vector kernel: the fused selection must cost less than materializing the scores.
//
// The oracle cases time the clairvoyant Oracle's per-input search on the CPU1 (110
// configurations) and GPU (350) spaces: OracleScheduler::Decide, one power-ladder
// pass per candidate, against the per-configuration Execute loop it replaced.
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_harness.h"
#include "src/baselines/oracle.h"
#include "src/common/simd.h"
#include "src/core/config_space.h"
#include "src/core/decision_engine.h"
#include "src/core/estimates.h"
#include "src/dnn/zoo.h"
#include "src/harness/constraint_grid.h"
#include "src/sim/platform.h"
#include "src/workload/trace.h"

namespace alert {
namespace {

std::vector<DnnModel> ReplicatedEvaluationSet(int factor) {
  std::vector<DnnModel> models;
  for (int r = 0; r < factor; ++r) {
    std::vector<DnnModel> batch =
        BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth);
    for (DnnModel& m : batch) {
      // Perturb latency so replicas are distinct configurations, not cache aliases.
      for (Seconds& lat : m.ref_latency) {
        lat *= 1.0 + 0.01 * r;
      }
      m.name += "#" + std::to_string(r);
      models.push_back(std::move(m));
    }
  }
  return models;
}

struct Fixture {
  // The deadline is the CPU1 80 ms, scaled to the platform's base deadline.
  explicit Fixture(int factor, PlatformId platform = PlatformId::kCpu1)
      : models(ReplicatedEvaluationSet(factor)),
        sim(GetPlatform(platform), models), space(sim), engine(space) {
    const Seconds deadline =
        0.08 * BaseDeadline(TaskId::kImageClassification, platform) /
        BaseDeadline(TaskId::kImageClassification, PlatformId::kCpu1);
    in.xi = XiBelief{1.15, 0.2};
    in.deadline = deadline;
    in.period = deadline;
    in.use_idle_ratio = true;
    in.idle_ratio = 0.22;
  }
  std::vector<DnnModel> models;
  PlatformSimulator sim;
  ConfigSpace space;
  DecisionEngine engine;
  DecisionInputs in;
};

// The pre-refactor scoring of one configuration: ConfigSpace lookups per cell, exact
// erf-based Gaussian math.
ConfigScore NaiveScore(const ConfigSpace& space, const Configuration& config,
                       const DecisionInputs& in) {
  const Candidate& c = config.candidate;
  const DnnModel& model = space.model(c.model_index);
  const double q_fail = TaskRandomGuessAccuracy(model.task);
  const Seconds run_profile = space.CandidateProfileLatency(c, config.power_index);

  ConfigScore est;
  est.prob_deadline = ProbMeetDeadline(in.xi, run_profile, in.deadline);
  if (c.stage_limit < 0) {
    est.expected_accuracy = ExpectedAccuracyTraditional(in.xi, run_profile, in.deadline,
                                                        model.accuracy, q_fail);
  } else {
    est.expected_accuracy = ExpectedAccuracyAnytime(
        in.xi, space.ProfileLatency(c.model_index, config.power_index),
        model.anytime_stages, c.stage_limit, in.deadline, q_fail);
  }
  const Watts inference_power = space.InferencePower(c.model_index, config.power_index);
  const Watts idle = in.use_idle_ratio ? in.idle_ratio * inference_power
                                       : in.fixed_idle_power;
  est.expected_energy = EstimateEnergy(in.xi, run_profile, inference_power, idle,
                                       in.period, in.deadline, /*stop_at_cutoff=*/true,
                                       in.percentile);
  est.expected_latency = ExpectedRuntime(in.xi, run_profile, in.deadline);
  return est;
}

// One "decision" = scoring every configuration once (the per-input work of Section
// 3.2 step 3): the old inline path.
double RunNaive(bench::Harness& h, Fixture& f, const std::string& name) {
  double sink = 0.0;
  return h.RunCase(name, [&] {
    for (int ci = 0; ci < f.space.num_candidates(); ++ci) {
      for (int pi = 0; pi < f.space.num_powers(); ++pi) {
        const ConfigScore s =
            NaiveScore(f.space, Configuration{f.space.candidate(ci), pi}, f.in);
        sink += s.expected_energy;
      }
    }
    bench::DoNotOptimize(sink);
  });
}

double RunScoreAll(bench::Harness& h, Fixture& f, const std::string& name,
                   const DecisionInputs& in) {
  std::vector<ConfigScore> scores(static_cast<size_t>(f.engine.num_entries()));
  double sink = 0.0;
  return h.RunCase(name, [&] {
    f.engine.ScoreAll(in, scores);
    sink += scores.back().expected_energy;
    bench::DoNotOptimize(sink);
  });
}

// The full decision rule: fused score + select + fallback bookkeeping.
double RunSelectBest(bench::Harness& h, Fixture& f, const std::string& name,
                     const DecisionInputs& in) {
  Goals goals;
  goals.mode = GoalMode::kMinimizeEnergy;
  goals.deadline = 0.08;
  goals.accuracy_goal = 0.9;
  DecisionEngine::SelectScratch scratch;
  return h.RunCase(name, [&] {
    bench::DoNotOptimize(
        f.engine.SelectBest(goals, goals.energy_budget, in, 1e9, scratch));
  });
}

TraceOptions OracleTraceOptions() {
  TraceOptions options;
  options.num_inputs = 64;
  options.seed = 7;
  return options;
}

// The Oracle's inputs on one platform: the image-classification evaluation space and
// a memory-contention trace, under an energy-minimization goal at the base deadline.
struct OracleFixture {
  explicit OracleFixture(PlatformId platform)
      : models(BuildEvaluationSet(TaskId::kImageClassification, DnnSetChoice::kBoth)),
        sim(GetPlatform(platform), models), space(sim),
        trace(MakeEnvironmentTrace(TaskId::kImageClassification, platform,
                                   ContentionType::kMemory, OracleTraceOptions())) {
    goals.mode = GoalMode::kMinimizeEnergy;
    goals.deadline = BaseDeadline(TaskId::kImageClassification, platform);
    goals.accuracy_goal = 0.9;
  }
  InferenceRequest Request(int n) const {
    InferenceRequest r;
    r.input_index = n;
    r.deadline = goals.deadline;
    r.period = goals.deadline;
    return r;
  }
  std::vector<DnnModel> models;
  PlatformSimulator sim;
  ConfigSpace space;
  EnvironmentTrace trace;
  Goals goals;
};

// The Oracle's search before the power-ladder pass: one Execute per configuration,
// each folded into the fallback and scored into the tracker.
SchedulingDecision OracleExecuteLoop(const OracleFixture& f, const InferenceRequest& request) {
  const ExecutionContext& ctx = f.trace.inputs[static_cast<size_t>(request.input_index)];
  const bool min_energy = f.goals.mode == GoalMode::kMinimizeEnergy;
  BestConfigTracker best(f.goals.mode, 0.0);
  int fb_candidate = 0;
  int fb_power = f.space.default_power_index();
  double fb_key_met = -1.0;
  double fb_acc = -1.0;
  double fb_energy = std::numeric_limits<double>::infinity();
  for (int ci = 0; ci < f.space.num_candidates(); ++ci) {
    for (int pi = 0; pi < f.space.num_powers(); ++pi) {
      SchedulingDecision d;
      d.candidate = f.space.candidate(ci);
      d.power_index = pi;
      d.power_cap = f.space.cap(pi);
      const Measurement m = f.sim.Execute(d.ToExecRequest(request), ctx);
      const double met = m.deadline_met ? 1.0 : 0.0;
      const bool better_fallback =
          met > fb_key_met ||
          (met == fb_key_met &&
           (min_energy ? (m.accuracy > fb_acc ||
                          (m.accuracy == fb_acc && m.energy < fb_energy))
                       : (m.energy < fb_energy ||
                          (m.energy == fb_energy && m.accuracy > fb_acc))));
      if (better_fallback) {
        fb_candidate = ci;
        fb_power = pi;
        fb_key_met = met;
        fb_acc = m.accuracy;
        fb_energy = m.energy;
      }
      const Joules allowance = 0.98 * f.goals.energy_budget;
      best.Consider(ci, pi,
                    ScoreOutcome(f.goals, allowance, m.accuracy, m.energy, m.latency,
                                 m.deadline_met, 1e-12));
    }
  }
  SchedulingDecision decision;
  decision.candidate = f.space.candidate(best.found() ? best.candidate_index() : fb_candidate);
  decision.power_index = best.found() ? best.power_index() : fb_power;
  decision.power_cap = f.space.cap(decision.power_index);
  return decision;
}

// One op = one Oracle decision, cycling through the trace's inputs.
double RunOracleDecide(bench::Harness& h, OracleFixture& f, const std::string& name) {
  OracleScheduler oracle(f.space, f.goals, f.trace.inputs);
  int n = 0;
  return h.RunCase(name, [&] {
    bench::DoNotOptimize(oracle.Decide(f.Request(n)));
    n = (n + 1) % f.trace.num_inputs();
  });
}

double RunOracleExecuteLoop(bench::Harness& h, OracleFixture& f, const std::string& name) {
  int n = 0;
  return h.RunCase(name, [&] {
    bench::DoNotOptimize(OracleExecuteLoop(f, f.Request(n)));
    n = (n + 1) % f.trace.num_inputs();
  });
}

}  // namespace

int Main(int argc, char** argv) {
  bench::Harness h("decision_engine", argc, argv);

  Fixture small(1);    // the paper's CPU1 space: 110 configurations
  Fixture large(16);   // 1760 configurations
  h.Context("simd_backend", std::string(simd::BackendName(simd::CompiledBackend())));
  h.Context("simd_active", small.engine.simd_active());
  h.Context("configs_small", static_cast<double>(small.space.num_configurations()));
  h.Context("configs_large", static_cast<double>(large.space.num_configurations()));
  OracleFixture oracle_cpu1(PlatformId::kCpu1);
  OracleFixture oracle_gpu(PlatformId::kGpu);
  h.Context("oracle_configs_cpu1",
            static_cast<double>(oracle_cpu1.space.num_configurations()));
  h.Context("oracle_configs_gpu", static_cast<double>(oracle_gpu.space.num_configurations()));

  const double naive_110 = RunNaive(h, small, "naive_full_rescore_110");
  const double naive_1760 = RunNaive(h, large, "naive_full_rescore_1760");

  small.engine.set_simd_enabled(false);
  large.engine.set_simd_enabled(false);
  const double scalar_110 = RunScoreAll(h, small, "score_all_scalar_110", small.in);
  const double scalar_1760 = RunScoreAll(h, large, "score_all_scalar_1760", large.in);
  const double select_scalar_110 =
      RunSelectBest(h, small, "select_best_scalar_110", small.in);
  const double select_scalar_1760 =
      RunSelectBest(h, large, "select_best_scalar_1760", large.in);

  // ALERT*: the same belief mean with no variance, on the scalar row pass here and on
  // the vector kernel below.
  DecisionInputs sigma0 = small.in;
  sigma0.xi.stddev = 0.0;
  const double sigma0_110 = RunScoreAll(h, small, "score_all_sigma0_110", sigma0);
  const double sigma0_1760 = RunScoreAll(h, large, "score_all_sigma0_1760", sigma0);
  const double select_sigma0_110 =
      RunSelectBest(h, small, "select_best_sigma0_110", sigma0);
  const double select_sigma0_1760 =
      RunSelectBest(h, large, "select_best_sigma0_1760", sigma0);

  const double oracle_110 = RunOracleDecide(h, oracle_cpu1, "oracle_decide_110");
  const double oracle_350 = RunOracleDecide(h, oracle_gpu, "oracle_decide_350");
  const double oracle_loop_110 =
      RunOracleExecuteLoop(h, oracle_cpu1, "oracle_execute_loop_110");
  const double oracle_loop_350 =
      RunOracleExecuteLoop(h, oracle_gpu, "oracle_execute_loop_350");

  small.engine.set_simd_enabled(true);
  large.engine.set_simd_enabled(true);
  const bool simd = small.engine.simd_active();
  // With no usable backend the "simd" cases rerun the scalar path (ratios ~1), and
  // the gate's SIMD floors are skipped via the simd_active context flag.
  const double simd_110 = RunScoreAll(h, small, "score_all_simd_110", small.in);
  const double simd_1760 = RunScoreAll(h, large, "score_all_simd_1760", large.in);
  const double select_simd_110 =
      RunSelectBest(h, small, "select_best_simd_110", small.in);
  const double select_simd_1760 =
      RunSelectBest(h, large, "select_best_simd_1760", large.in);
  RunScoreAll(h, small, "score_all_sigma0_simd_110", sigma0);
  RunScoreAll(h, large, "score_all_sigma0_simd_1760", sigma0);
  RunSelectBest(h, small, "select_best_sigma0_simd_110", sigma0);
  const double select_sigma0_simd_1760 =
      RunSelectBest(h, large, "select_best_sigma0_simd_1760", sigma0);
  Fixture gpu(1, PlatformId::kGpu);  // 350 configurations
  h.Context("configs_gpu", static_cast<double>(gpu.space.num_configurations()));
  RunSelectBest(h, gpu, "select_best_simd_350", gpu.in);

  // Machine-stable ratios for the trajectory gate.
  h.Derive("engine_vs_naive_110", naive_110 / scalar_110);
  h.Derive("engine_vs_naive_1760", naive_1760 / scalar_1760);
  // How much cheaper a mean-only decision is than a scalar sigma > 0 one.
  h.Derive("score_all_sigma0_vs_scalar_110", scalar_110 / sigma0_110);
  h.Derive("score_all_sigma0_vs_scalar_1760", scalar_1760 / sigma0_1760);
  h.Derive("select_best_sigma0_vs_scalar_110", select_scalar_110 / select_sigma0_110);
  h.Derive("select_best_sigma0_vs_scalar_1760", select_scalar_1760 / select_sigma0_1760);
  // How much cheaper the Oracle's ladder search is than its per-configuration loop.
  h.Derive("oracle_ladder_vs_execute_loop_110", oracle_loop_110 / oracle_110);
  h.Derive("oracle_ladder_vs_execute_loop_350", oracle_loop_350 / oracle_350);
  if (simd) {
    h.Derive("score_all_simd_speedup_110", scalar_110 / simd_110);
    h.Derive("score_all_simd_speedup_1760", scalar_1760 / simd_1760);
    h.Derive("select_best_simd_speedup_110", select_scalar_110 / select_simd_110);
    h.Derive("select_best_simd_speedup_1760", select_scalar_1760 / select_simd_1760);
    // ALERT*'s decision: the scalar sigma == 0 row pass over the vector one.
    h.Derive("select_best_sigma0_simd_speedup_1760",
             select_sigma0_1760 / select_sigma0_simd_1760);
    // A whole vector decision against storing the scores alone: above 1 when the
    // selection runs inside the score kernel and skips rows that cannot win, below
    // 1 when SelectBest stores the scores and rescans them.
    h.Derive("select_best_over_score_all_simd_1760", simd_1760 / select_simd_1760);
  }
  return h.Finish();
}

}  // namespace alert

int main(int argc, char** argv) { return alert::Main(argc, argv); }
