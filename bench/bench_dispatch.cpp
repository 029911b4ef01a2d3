// Dispatcher control-plane benchmark: worker grant-wait idle time with and without
// lease pipelining, on the fake-slow in-process transport (delay_per_result makes
// every unit cost a fixed wall time, and a delivery delay on every line sent to a
// worker makes the lease-request -> grant round trip expensive — the in-process
// stand-in for an ssh-style transport's latency).
//
// Without pipelining a worker pays that round trip at every lease boundary; with it
// the next lease is already sitting in the worker's input queue when the current one
// drains.  The derived `dispatch_pipeline_idle_speedup` (summed fleet idle without /
// with pipelining) feeds the perf-trajectory gate: if prefetching ever stops hiding
// the round trip, the ratio collapses toward 1 and the gate fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_harness.h"
#include "src/harness/dispatch.h"
#include "src/harness/sweep_plan.h"

namespace alert {
namespace {

// Small but real: the units execute actual sweep work; the injected 6 ms floor per
// unit dominates, so lease boundaries land at predictable times.  Every worker's
// first grant pays the delivery delay with or without pipelining, so the idle ratio
// is bounded by leases per worker.  Warm leases close on replay rows (one deadline
// of one cell and seed: 3 units here), so four seeds give 24 rows and each worker
// about a dozen leases.
SweepSpec BenchSpec() {
  SweepSpec spec;
  spec.cells.push_back(SweepCellSpec{TaskId::kImageClassification, PlatformId::kCpu1,
                                     ContentionType::kNone, GoalMode::kMinimizeEnergy});
  spec.schemes = {SchemeId::kAlert, SchemeId::kNoCoord};
  spec.seeds = {1, 2, 3, 4};
  spec.num_inputs = 30;
  spec.grid_indices = {0, 7, 14, 21, 28, 35};
  return spec;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

double RunDispatchCase(bench::Harness& h, const SweepPlan& plan, bool pipeline,
                       std::vector<double>* idle_samples) {
  const double ns =
      h.RunCase(pipeline ? "dispatch_pipelined" : "dispatch_request_grant", [&] {
        InProcessTransport::Options in_options;
        in_options.delay_per_result = {{0, 6}, {1, 6}};
        // Each grant reaches its worker 10 ms after it is sent: real idle at every
        // lease boundary unless the lease was prefetched.
        in_options.delivery_delay_ms = 10;
        InProcessTransport transport(in_options);
        DispatchOptions options;
        options.num_workers = 2;
        options.pipeline_leases = pipeline;
        // Two-unit cold leases, then warm leases that end at their replay row: many
        // lease boundaries.
        options.max_lease_units = 2;
        // Stealing off: a steal would re-plan a lease mid-flight and add
        // revocation noise to the idle measurement.
        options.enable_steal = false;
        std::vector<CellResult> cells;
        DispatchStats stats;
        const serde::Status s = DispatchSweep(plan, transport, options, &cells, &stats);
        if (!s.ok) {
          std::fprintf(stderr, "bench_dispatch: %s\n", s.message.c_str());
          std::exit(1);
        }
        idle_samples->push_back(stats.worker_idle_ms);
        bench::DoNotOptimize(cells.data());
      });
  return ns;
}

}  // namespace

int Main(int argc, char** argv) {
  bench::Harness h("dispatch", argc, argv);
  const SweepPlan plan = BuildSweepPlan(BenchSpec());
  h.Context("units", static_cast<double>(plan.units.size()));
  h.Context("workers", 2.0);

  std::vector<double> idle_off;
  std::vector<double> idle_on;
  RunDispatchCase(h, plan, /*pipeline=*/false, &idle_off);
  RunDispatchCase(h, plan, /*pipeline=*/true, &idle_on);

  const double off_ms = Median(idle_off);
  const double on_ms = Median(idle_on);
  // The 1 ms floor keeps the ratio finite when pipelining drives idle to ~zero
  // (which it should); it only ever understates the win.
  h.Derive("dispatch_pipeline_idle_speedup", off_ms / std::max(on_ms, 1.0));
  return h.Finish();
}

}  // namespace alert

int main(int argc, char** argv) { return alert::Main(argc, argv); }
