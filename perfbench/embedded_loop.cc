// embedded_loop: one application embedding ALERT in-process.  Experiment::Run drives
// a benchmark-owned Scheduler decorator around an AlertScheduler; per input the
// decorator times Decide and Observe.  Traced, Decide is split into Snapshot +
// DecideFromSnapshot (documented as exactly Decide), and the gap between Decide
// returning and Observe starting is the simulator's share: the benchmark's world,
// not the system.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/core/alert_scheduler.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/experiment.h"

namespace perfbench {
namespace {

using namespace alert;

// Long enough that every seed's trace spends a similar share of its inputs in each
// contention phase, so the decision mix (and its cost) barely depends on the seed.
constexpr int kInputsPerPass = 20000;
// Spans whose per-pass medians give the per-layer metrics, in report order.
constexpr const char* kLayerSpans[] = {"core.scheduler.snapshot", "core.engine.decide",
                                       "estimator.observe", "harness.experiment.gap"};

class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(AlertScheduler& inner, Tracer& tracer, int pass)
      : inner_(inner), tracer_(tracer), pass_(pass) {}

  SchedulingDecision Decide(const InferenceRequest& request) override {
    request_ = static_cast<int64_t>(pass_) * kInputsPerPass + request.input_index;
    decide_start_ = Clock::now();
    SchedulingDecision decision;
    if (tracer_.enabled()) {
      input_span_ = tracer_.Begin("embedded.input", request_);
      DecisionSnapshot snapshot;
      {
        ScopedSpan span(tracer_, "core.scheduler.snapshot", request_);
        snapshot = inner_.Snapshot(request);
      }
      ScopedSpan span(tracer_, "core.engine.decide", request_);
      decision = DecideFromSnapshot(snapshot, inner_.power_limit(), scratch_);
    } else {
      decision = inner_.Decide(request);
    }
    decide_end_ = Clock::now();
    return decision;
  }

  void Observe(const SchedulingDecision& decision, const Measurement& m) override {
    const Clock::time_point observe_start = Clock::now();
    {
      ScopedSpan span(tracer_, "estimator.observe", request_);
      inner_.Observe(decision, m);
    }
    const Clock::time_point observe_end = Clock::now();
    tracer_.Add("harness.experiment.gap", decide_end_, observe_start, input_span_, request_);
    tracer_.End(input_span_);
    scheduler_us.push_back(static_cast<float>(UsBetween(decide_start_, decide_end_) +
                                              UsBetween(observe_start, observe_end)));
    inference_s.push_back(m.latency);
  }

  std::string_view name() const override { return inner_.name(); }

  // Decide + Observe wall time per input; float keeps tens of millions of samples
  // small, and its 24-bit mantissa is far finer than the clock.
  std::vector<float> scheduler_us;
  std::vector<double> inference_s;  // simulated inference latency per input

 private:
  AlertScheduler& inner_;
  Tracer& tracer_;
  int pass_;
  int64_t request_ = 0;
  int input_span_ = -1;
  DecisionEngine::SelectScratch scratch_;
  Clock::time_point decide_start_;
  Clock::time_point decide_end_;
};

bool SameMeasurement(const Measurement& a, const Measurement& b) {
  return a.latency == b.latency && a.period == b.period && a.energy == b.energy &&
         a.inference_power == b.inference_power && a.idle_power == b.idle_power &&
         a.accuracy == b.accuracy && a.deadline_met == b.deadline_met &&
         a.delivered_stage == b.delivered_stage && a.xi_anchor_time == b.xi_anchor_time &&
         a.xi_anchor_fraction == b.xi_anchor_fraction && a.xi_censored == b.xi_censored &&
         a.deadline == b.deadline;
}

bool SameResult(const RunResult& a, const RunResult& b) {
  if (a.scheme != b.scheme || a.num_inputs != b.num_inputs ||
      a.avg_energy != b.avg_energy || a.avg_accuracy != b.avg_accuracy ||
      a.avg_error != b.avg_error || a.avg_perplexity != b.avg_perplexity ||
      a.avg_latency != b.avg_latency || a.violation_fraction != b.violation_fraction ||
      a.deadline_miss_fraction != b.deadline_miss_fraction ||
      a.records.size() != b.records.size()) {
    return false;
  }
  for (size_t i = 0; i < a.records.size(); ++i) {
    const InputRecord& x = a.records[i];
    const InputRecord& y = b.records[i];
    if (x.decision.candidate.model_index != y.decision.candidate.model_index ||
        x.decision.candidate.stage_limit != y.decision.candidate.stage_limit ||
        x.decision.power_index != y.decision.power_index ||
        x.decision.power_cap != y.decision.power_cap || x.violated != y.violated ||
        !SameMeasurement(x.measurement, y.measurement)) {
      return false;
    }
  }
  return true;
}

// One pass over the trace: its own set-up, its timings, and (traced) its per-layer
// medians in kLayerSpans order followed by the self time of embedded.input.
struct Pass {
  double setup_s = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  double busy_s = 0.0;
  size_t inputs = 0;
  std::vector<double> layers;
};

}  // namespace

Report RunEmbeddedLoop(const WorkloadContext& context) {
  Report report;
  ExperimentOptions options;
  options.num_inputs = kInputsPerPass;
  options.seed = context.seed;
  // The middle of the Table 3 grid: 1.0x deadline, 0.90 accuracy goal.
  const Goals goals = BuildConstraintGrid(GoalMode::kMinimizeEnergy,
                                          TaskId::kImageClassification,
                                          PlatformId::kCpu1)[3 * 6 + 2];

  // The reference: the same run through an undecorated scheduler.
  const Experiment reference_experiment(TaskId::kImageClassification, PlatformId::kCpu1,
                                        ContentionType::kMemory, options);
  const Stack& reference_stack = reference_experiment.stack(DnnSetChoice::kBoth);
  AlertScheduler reference_scheduler(reference_stack.space(), goals);
  const RunResult reference = reference_experiment.Run(reference_stack, reference_scheduler,
                                                       goals, /*keep_records=*/true);
  // The application's footprint (world, scheduler, one run's records), read before
  // the timed loop so the benchmark's own sample buffers do not count.
  const double peak_rss_mb = MaxRssMb(false);

  std::vector<Pass> passes;
  std::vector<double> inference_s;  // one pass: every pass replays the same inputs
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(context.seconds));
  do {
    Pass pass;
    // Set-up, once per pass: the application builds its world (trace + profiling)
    // and its scheduler.
    const Clock::time_point setup_start = Clock::now();
    const Experiment experiment(TaskId::kImageClassification, PlatformId::kCpu1,
                                ContentionType::kMemory, options);
    const Stack& stack = experiment.stack(DnnSetChoice::kBoth);
    AlertScheduler scheduler(stack.space(), goals);
    pass.setup_s = MsBetween(setup_start, Clock::now()) / 1000.0;

    Tracer tracer(context.trace);
    TimedScheduler timed(scheduler, tracer, static_cast<int>(passes.size()));
    const RunResult result = experiment.Run(stack, timed, goals, /*keep_records=*/true);
    if (!SameResult(result, reference)) {
      report.Fail("embedded_loop pass " + std::to_string(passes.size()) +
                  ": RunResult differs from the undecorated run");
    }
    std::vector<float>& us = timed.scheduler_us;
    for (float v : us) {
      pass.busy_s += v / 1e6;
    }
    std::sort(us.begin(), us.end());
    pass.inputs = us.size();
    pass.p50_us = us[NearestRank(us.size(), 50) - 1];
    pass.tail_us = us[NearestRank(us.size(), TailPercentile(us.size())) - 1];
    if (context.trace) {
      for (const char* name : kLayerSpans) {
        pass.layers.push_back(Median(tracer.Durations(name)));
      }
      pass.layers.push_back(Median(tracer.SelfTimes("embedded.input")));
      if (passes.empty()) {
        const std::string path = context.work_dir + "/embedded_loop.spans.tsv";
        if (tracer.WriteTsv(path)) {
          report.notes.push_back("embedded_loop spans (first pass): " + path);
        }
      }
    }
    if (passes.empty()) {
      inference_s = timed.inference_s;
    }
    passes.push_back(std::move(pass));
  } while (Clock::now() < deadline);

  // Per-pass statistics, then the median over passes: a pass is 20000 inputs, so
  // its median and p99 are exact, and one disturbed pass moves the result little.
  const auto over_passes = [&passes](const std::function<double(const Pass&)>& field) {
    std::vector<double> values;
    for (const Pass& pass : passes) {
      values.push_back(field(pass));
    }
    return Median(values);
  };
  double busy_s = 0.0;
  int64_t inputs = 0;
  for (const Pass& pass : passes) {
    inputs += static_cast<int64_t>(pass.inputs);
    busy_s += pass.busy_s;
  }
  report.attempted = inputs;
  report.failed = 0;  // a decision cannot be refused; wrong ones fail the check above

  const double decide_us_p50 = over_passes([](const Pass& p) { return p.p50_us; });
  const double decide_us_tail = over_passes([](const Pass& p) { return p.tail_us; });
  const double inference_ms_p50 = Median(inference_s) * 1000.0;
  const double overhead_pct = decide_us_p50 / (inference_ms_p50 * 1000.0) * 100.0;

  report.Add("setup_s", over_passes([](const Pass& p) { return p.setup_s; }), "s");
  report.Add("latency_ms_p50", decide_us_p50 / 1000.0, "ms");
  report.Add("latency_ms_p99", decide_us_tail / 1000.0, "ms");
  report.Add("throughput_per_s", static_cast<double>(inputs) / busy_s, "1/s");
  report.Add("overhead_pct", overhead_pct, "%");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "embedded_loop: %zu passes x %d inputs, medians over passes: "
                "decide_us_p50 %.3f us, decide_us_p99 (p%d of %d per pass) %.3f us, "
                "overhead_pct %.4f %% of a %.3f ms median inference",
                passes.size(), kInputsPerPass, decide_us_p50, TailPercentile(kInputsPerPass),
                kInputsPerPass, decide_us_tail, overhead_pct, inference_ms_p50);
  report.notes.push_back(buf);

  if (context.trace) {
    const auto layer = [&over_passes](size_t i) {
      return over_passes([i](const Pass& p) { return p.layers[i]; });
    };
    report.Add("core.scheduler.snapshot_us", layer(0), "us");
    report.Add("core.engine.decide_us", layer(1), "us");
    report.Add("core.engine.ns_per_config",
               layer(1) * 1000.0 /
                   static_cast<double>(reference_stack.space().num_configurations()),
               "ns");
    report.Add("estimator.observe_us", layer(2), "us");
    report.Add("harness.experiment.gap_us", layer(3), "us");
    std::snprintf(buf, sizeof(buf),
                  "embedded_loop trace: per input, self time of embedded.input (the "
                  "decorator's own bookkeeping) %.3f us",
                  layer(4));
    report.notes.push_back(buf);
  }
  return report;
}

}  // namespace perfbench
