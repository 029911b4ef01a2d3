// sweep_socket: a Table-4-shaped plan through DispatchSweep over SocketTransport,
// checkpointing to the work directory, with min(3, nproc - 1) single-threaded
// `sweep_shard --worker` processes pulling leases (default lease options).  Each
// dispatch is followed by an in-process RunSweep at the same total thread count: its
// CSV must be byte-identical to the dispatched one, and its wall time is the
// baseline of that dispatch's overhead ratio.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/harness/dispatch.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

namespace perfbench {
namespace {

using namespace alert;

// 4 cells covering both tasks, CPU1/CPU2/GPU, all three contention types and both
// goal modes; all 10 schemes; the full 36-setting grid; 2 seeds; 300 inputs.
SweepSpec MakeSpec(uint64_t seed) {
  SweepSpec spec;
  spec.cells = {
      {TaskId::kImageClassification, PlatformId::kCpu1, ContentionType::kNone,
       GoalMode::kMinimizeEnergy},
      {TaskId::kSentencePrediction, PlatformId::kCpu2, ContentionType::kMemory,
       GoalMode::kMaximizeAccuracy},
      {TaskId::kImageClassification, PlatformId::kGpu, ContentionType::kCompute,
       GoalMode::kMaximizeAccuracy},
      {TaskId::kSentencePrediction, PlatformId::kCpu1, ContentionType::kCompute,
       GoalMode::kMinimizeEnergy},
  };
  for (int s = 0; s < kNumSchemeIds; ++s) {
    spec.schemes.push_back(static_cast<SchemeId>(s));
  }
  spec.seeds = {seed, seed + 1};
  spec.num_inputs = 300;
  return spec;
}

std::string ShellQuote(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return out + "'";
}

// Hook-side bookkeeping of one dispatch.
struct DispatchTrace {
  Clock::time_point call_start;
  std::optional<Clock::time_point> first_result;
  std::map<int, Clock::time_point> first_assigned;  // unit id -> first grant
  struct Lease {
    Clock::time_point granted;
    int open = 0;
    bool done = false;
  };
  std::map<std::pair<int, int>, Lease> leases;       // (worker, seq)
  std::map<int, std::pair<int, int>> lease_of;       // unit id -> current lease
  std::vector<std::vector<int>> lease_units;         // grant order
  std::vector<double> turnaround_ms;                 // grant -> merged, per unit
  std::vector<double> lease_ms;                      // grant -> last result
  std::vector<std::pair<Clock::time_point, Clock::time_point>> lease_spans;
  std::vector<SweepUnitResult> received;             // arrival order
  int64_t newly = 0;
};

}  // namespace

Report RunSweepSocket(const WorkloadContext& context) {
  Report report;
  const SweepSpec spec = MakeSpec(context.seed);
  const int workers = std::max(1, std::min(3, context.nproc - 1));
  const std::string shard_bin = context.bin_dir + "/sweep_shard";
  const std::string checkpoint = context.work_dir + "/sweep.checkpoint";

  Tracer tracer(context.trace);
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> wall_ms;
  std::vector<double> overhead_pct;
  std::vector<double> first_result_ms;
  // Per dispatch: the median and tail-rule percentile of unit turnaround.
  std::vector<double> turnaround_p50_ms;
  std::vector<double> turnaround_tail_ms;
  size_t turnaround_samples = 0;
  std::vector<double> lease_ms;
  std::vector<DispatchStats> all_stats;
  DispatchTrace first_trace;
  std::string csv;
  SweepPlan plan;
  double self_rss_mb = 0.0;
  int64_t received = 0;
  int64_t newly = 0;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(context.seconds));
  int reps = 0;
  do {
    const Clock::time_point build_start = Clock::now();
    plan = BuildSweepPlan(spec);
    const Clock::time_point build_end = Clock::now();
    tracer.Add("harness.plan.build", build_start, build_end, -1, reps);
    std::filesystem::remove(checkpoint);

    SocketTransport::Options transport_options;
    // `exec`: the shell becomes the worker, so the transport's kill + reap reaches
    // the worker itself and no process outlives the dispatch.
    transport_options.command_for_worker = [&shard_bin](int, int port) {
      return "exec " + ShellQuote(shard_bin) + " --worker --threads=1 --connect=127.0.0.1:" +
             std::to_string(port);
    };
    SocketTransport transport(std::move(transport_options));

    DispatchTrace trace;
    DispatchOptions options;
    options.num_workers = workers;
    options.checkpoint_path = checkpoint;
    options.on_assign = [&trace](int worker, int seq, std::span<const int> ids) {
      const Clock::time_point now = Clock::now();
      DispatchTrace::Lease& lease = trace.leases[{worker, seq}];
      lease.granted = now;
      lease.open = static_cast<int>(ids.size());
      trace.lease_units.emplace_back(ids.begin(), ids.end());
      for (int id : ids) {
        trace.first_assigned.try_emplace(id, now);
        trace.lease_of[id] = {worker, seq};
      }
    };
    options.on_result = [&trace](int, const SweepUnitResult& result, bool newly_recorded) {
      const Clock::time_point now = Clock::now();
      if (!trace.first_result) {
        trace.first_result = now;
      }
      trace.received.push_back(result);
      if (!newly_recorded) {
        return;
      }
      ++trace.newly;
      const auto assigned = trace.first_assigned.find(result.unit_id);
      if (assigned != trace.first_assigned.end()) {
        trace.turnaround_ms.push_back(MsBetween(assigned->second, now));
      }
      const auto owner = trace.lease_of.find(result.unit_id);
      if (owner != trace.lease_of.end()) {
        DispatchTrace::Lease& lease = trace.leases[owner->second];
        if (!lease.done && --lease.open == 0) {
          lease.done = true;
          trace.lease_ms.push_back(MsBetween(lease.granted, now));
          trace.lease_spans.emplace_back(lease.granted, now);
        }
      }
    };

    std::vector<CellResult> cells;
    DispatchStats stats;
    const int dispatch_span = tracer.Begin("harness.dispatch", reps);
    trace.call_start = Clock::now();
    const serde::Status status = DispatchSweep(plan, transport, options, &cells, &stats);
    const Clock::time_point call_end = Clock::now();
    tracer.End(dispatch_span);
    for (const auto& [start, end] : trace.lease_spans) {
      tracer.Add("harness.dispatch.lease", start, end, dispatch_span, reps);
    }

    report.attempted += static_cast<int64_t>(plan.units.size());
    report.failed += stats.failed_launches + stats.worker_failures + stats.stragglers;
    if (!status || !trace.first_result) {
      report.failed += static_cast<int64_t>(plan.units.size());
      report.Fail("sweep_socket dispatch " + std::to_string(reps) + ": " + status.message);
      return report;
    }
    if (reps == 0) {
      // The dispatcher's own footprint, before any in-process reference runs here.
      self_rss_mb = MaxRssMb(false);
    }

    const Clock::time_point ref_start = Clock::now();
    SweepRunOptions run_options;
    run_options.threads = workers;
    const std::vector<CellResult> reference = RunSweep(plan, run_options);
    const double ref_ms = MsBetween(ref_start, Clock::now());
    csv = SweepAggregateCsv(plan, cells);
    if (csv != SweepAggregateCsv(plan, reference)) {
      report.Fail("sweep_socket: dispatch " + std::to_string(reps) +
                  " CSV differs from the in-process RunSweep CSV");
    }

    build_ms.push_back(MsBetween(build_start, build_end));
    first_result_ms.push_back(MsBetween(trace.call_start, *trace.first_result));
    setup_s.push_back((build_ms.back() + first_result_ms.back()) / 1000.0);
    wall_ms.push_back(MsBetween(trace.call_start, call_end));
    overhead_pct.push_back(wall_ms.back() / ref_ms * 100.0);
    turnaround_p50_ms.push_back(Median(trace.turnaround_ms));
    turnaround_tail_ms.push_back(TailOf(trace.turnaround_ms).value);
    turnaround_samples += trace.turnaround_ms.size();
    lease_ms.insert(lease_ms.end(), trace.lease_ms.begin(), trace.lease_ms.end());
    received += static_cast<int64_t>(trace.received.size());
    newly += trace.newly;
    all_stats.push_back(stats);
    if (reps == 0) {
      first_trace = std::move(trace);
    }
    ++reps;
  } while (Clock::now() < deadline);
  std::filesystem::remove(checkpoint);

  const double units = static_cast<double>(plan.units.size());
  const double wall_p50 = Median(wall_ms);
  report.Add("setup_s", Median(setup_s), "s");
  // Medians over dispatches of each dispatch's own statistics: one slow dispatch on
  // a noisy machine moves them less than pooling every unit would.
  report.Add("latency_ms_p50", Median(turnaround_p50_ms), "ms");
  report.Add("latency_ms_p99", Median(turnaround_tail_ms), "ms");
  report.Add("throughput_per_s", units / (wall_p50 / 1000.0), "1/s");
  report.Add("overhead_pct", Median(overhead_pct), "%");
  report.Add("peak_rss_mb", std::max(self_rss_mb, MaxRssMb(true)), "MB");

  int64_t failed_launches = 0;
  int64_t worker_failures = 0;
  int64_t stragglers = 0;
  for (const DispatchStats& s : all_stats) {
    failed_launches += s.failed_launches;
    worker_failures += s.worker_failures;
    stragglers += s.stragglers;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "sweep_socket: unit turnaround (grant -> merged result) p50 %.2f ms, p99 "
                "(p%d of %zu per dispatch) %.2f ms; medians over %d dispatches, %zu samples",
                Median(turnaround_p50_ms), TailPercentile(plan.units.size()),
                plan.units.size(), Median(turnaround_tail_ms), reps, turnaround_samples);
  report.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "sweep_socket: %d dispatches of %zu units over %d socket workers; "
                "units_per_s %.2f (median wall %.1f ms); dispatched wall is %.1f %% of an "
                "in-process RunSweep at %d threads (median over dispatches)",
                reps, plan.units.size(), workers, units / (wall_p50 / 1000.0), wall_p50,
                Median(overhead_pct), workers);
  report.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "sweep_socket: units attempted %lld, merged %lld, failed %lld (failed "
                "launches %lld, worker failures %lld, stragglers %lld); error_rate %.6f",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.attempted - report.failed),
                static_cast<long long>(report.failed), static_cast<long long>(failed_launches),
                static_cast<long long>(worker_failures), static_cast<long long>(stragglers),
                static_cast<double>(report.failed) / static_cast<double>(report.attempted));
  report.notes.push_back(buf);

  if (!context.trace) {
    return report;
  }

  const Clock::time_point capture_start = Clock::now();
  const ProfileSnapshotStore snapshots = CapturePlanSnapshots(plan);
  const double capture_ms = MsBetween(capture_start, Clock::now());

  // Each lease's batch of the first dispatch, re-run in-process at one thread.
  double runner_ms = 0.0;
  double runner_units = 0.0;
  for (const std::vector<int>& ids : first_trace.lease_units) {
    std::vector<SweepUnit> batch;
    for (int id : ids) {
      batch.push_back(plan.units[static_cast<size_t>(id)]);
    }
    SweepRunOptions one_thread;
    one_thread.threads = 1;
    one_thread.warm_start = &snapshots;
    ScopedSpan span(tracer, "harness.runner.batch", static_cast<int64_t>(batch.size()));
    const Clock::time_point start = Clock::now();
    RunSweepUnits(plan, batch, one_thread);
    runner_ms += MsBetween(start, Clock::now());
    runner_units += static_cast<double>(batch.size());
  }

  // The merge plane on the first dispatch's results, in their arrival order.
  SweepMergeAccumulator accumulator(plan);
  std::vector<double> add_us;
  for (const SweepUnitResult& result : first_trace.received) {
    const Clock::time_point start = Clock::now();
    (void)accumulator.Add(result);
    add_us.push_back(UsBetween(start, Clock::now()));
  }
  std::vector<double> finalize_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> csv_ms;
  for (int i = 0; i < 5; ++i) {
    std::vector<CellResult> merged;
    Clock::time_point start = Clock::now();
    (void)accumulator.Finalize(&merged);
    finalize_ms.push_back(MsBetween(start, Clock::now()));

    start = Clock::now();
    SweepCheckpoint state;
    state.plan_fingerprint = PlanFingerprint(plan);
    state.results = accumulator.RecordedResults();
    (void)serde::WriteFileAtomic(checkpoint, SerializeSweepCheckpoint(state));
    checkpoint_ms.push_back(MsBetween(start, Clock::now()));

    start = Clock::now();
    const std::string text = SweepAggregateCsv(plan, merged);
    csv_ms.push_back(MsBetween(start, Clock::now()));
    if (text != csv) {
      report.Fail("sweep_socket: re-merged CSV differs from the dispatched CSV");
    }
  }
  std::filesystem::remove(checkpoint);

  double leases = 0.0;
  double revocations = 0.0;
  double stolen = 0.0;
  double idle_ms = 0.0;
  for (const DispatchStats& s : all_stats) {
    leases += s.leases_granted;
    revocations += s.lease_revocations;
    stolen += s.units_stolen;
    idle_ms += s.worker_idle_ms;
  }
  const double n = static_cast<double>(all_stats.size());
  const Tail lease_tail = TailOf(lease_ms);
  report.Add("harness.plan.build_ms", Median(build_ms), "ms");
  report.Add("harness.profile.capture_ms", capture_ms, "ms");
  report.Add("harness.dispatch.first_result_ms", Median(first_result_ms), "ms");
  report.Add("harness.dispatch.lease_ms_p50", Median(lease_ms), "ms");
  report.Add("harness.dispatch.lease_ms_p99", lease_tail.value, "ms");
  report.Add("harness.dispatch.grant_wait_ms", leases > 0.0 ? idle_ms / leases : 0.0, "ms");
  report.Add("harness.dispatch.leases", leases / n, "count");
  report.Add("harness.dispatch.revocations", revocations / n, "count");
  report.Add("harness.dispatch.stolen", stolen / n, "count");
  report.Add("harness.dispatch.useful_frac",
             received > 0 ? static_cast<double>(newly) / static_cast<double>(received) : 0.0,
             "fraction");
  report.Add("harness.runner.ms_per_unit", runner_units > 0.0 ? runner_ms / runner_units : 0.0,
             "ms");
  report.Add("harness.dispatch.overhead_ratio", Median(overhead_pct) / 100.0, "ratio");
  report.Add("harness.merge.add_us", Median(add_us), "us");
  report.Add("harness.merge.finalize_ms", Median(finalize_ms), "ms");
  report.Add("harness.checkpoint.write_ms", Median(checkpoint_ms), "ms");
  report.Add("harness.csv_ms", Median(csv_ms), "ms");
  std::snprintf(buf, sizeof(buf),
                "sweep_socket trace: lease_ms p50 %.2f, p99 -> p%d %.2f of %zu leases",
                Median(lease_ms), lease_tail.percentile, lease_tail.value, lease_tail.samples);
  report.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "sweep_socket trace: self time of harness.dispatch (no lease in flight: "
                "launch, profiling, grant waits, drain) median %.1f ms per dispatch",
                Median(tracer.SelfTimes("harness.dispatch")) / 1000.0);
  report.notes.push_back(buf);
  const std::string path = context.work_dir + "/sweep_socket.spans.tsv";
  if (tracer.WriteTsv(path)) {
    report.notes.push_back("sweep_socket spans: " + path);
  }
  return report;
}

}  // namespace perfbench
