// perfbench — the end-to-end benchmark binary behind perfbench/run.py.
//
//   perfbench --workload=embedded_loop|alertd_churn|sweep_socket --seed=N --seconds=S
//             --trace=0|1 --bin-dir=DIR --work-dir=DIR
//
// Untraced, the named workload runs for S seconds and the result carries the
// end-to-end metrics.  Traced, the workload runs S/2 seconds untraced and S/2 traced
// (the difference in latency_ms_p50 is the tracing overhead); the workloads it
// bypasses get a short traced pass each, so every per-layer metric is measured in
// every traced run, each on the workload that drives its layer.  Human-readable lines
// come first; the last line of stdout is the JSON result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

using namespace perfbench;

namespace {

struct WorkloadEntry {
  const char* name;
  Report (*run)(const WorkloadContext&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"embedded_loop", RunEmbeddedLoop},
    {"alertd_churn", RunAlertdChurn},
    {"sweep_socket", RunSweepSocket},
};

const std::vector<std::string> kEndToEnd = {
    "setup_s", "latency_ms_p50", "latency_ms_p99", "throughput_per_s", "overhead_pct",
    "peak_rss_mb",
};

// Per-layer metrics in output order, with the unit each carries.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"core.scheduler.snapshot_us", "us"},
    {"core.engine.decide_us", "us"},
    {"core.engine.ns_per_config", "ns"},
    {"estimator.observe_us", "us"},
    {"harness.experiment.gap_us", "us"},
    {"net.exchange_us_p50", "us"},
    {"net.wire_wait_ms", "ms"},
    {"daemon.tick_us", "us"},
    {"daemon.fire_us", "us"},
    {"core.round_us", "us"},
    {"daemon.membership_us", "us"},
    {"core.rebuild_us", "us"},
    {"daemon.belief_us", "us"},
    {"daemon.reconfig_us", "us"},
    {"daemon.rebuilds_per_churn_op", "count"},
    {"core.cache.hit_frac", "fraction"},
    {"core.cache.insertions_per_round", "count"},
    {"daemon.jobs_per_round", "count"},
    {"daemon.bytes_per_round", "bytes"},
    {"daemon.ring.dropped", "count"},
    {"daemon.admission_reject_frac", "fraction"},
    {"harness.plan.build_ms", "ms"},
    {"harness.profile.capture_ms", "ms"},
    {"harness.dispatch.first_result_ms", "ms"},
    {"harness.dispatch.lease_ms_p50", "ms"},
    {"harness.dispatch.lease_ms_p99", "ms"},
    {"harness.dispatch.grant_wait_ms", "ms"},
    {"harness.dispatch.leases", "count"},
    {"harness.dispatch.revocations", "count"},
    {"harness.dispatch.stolen", "count"},
    {"harness.dispatch.useful_frac", "fraction"},
    {"harness.runner.ms_per_unit", "ms"},
    {"harness.dispatch.overhead_ratio", "ratio"},
    {"harness.merge.add_us", "us"},
    {"harness.merge.finalize_ms", "ms"},
    {"harness.checkpoint.write_ms", "ms"},
    {"harness.csv_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

// Seconds a bypassed workload gets in a traced run: enough for one dispatch, a
// few hundred rounds, or a few passes.
constexpr double kSideSeconds = 2.0;

std::optional<std::string> ArgValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 "
               "--bin-dir=DIR --work-dir=DIR\n");
  std::exit(2);
}

void PrintResult(const Report& report, const std::vector<Metric>& metrics) {
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("# metric %s = %s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ");
    json += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Folds a phase's accounting and notes into the run's report.
void Absorb(Report* into, const Report& phase, const std::string& label) {
  into->correct = into->correct && phase.correct;
  into->attempted += phase.attempted;
  into->failed += phase.failed;
  for (const std::string& note : phase.notes) {
    into->notes.push_back("[" + label + "] " + note);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  WorkloadContext context;
  bool have_seed = false;
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  context.nproc = cpus > 0 ? static_cast<int>(cpus) : 1;
  for (int i = 1; i < argc; ++i) {
    if (auto v = ArgValue(argv[i], "--workload")) {
      workload = *v;
    } else if (auto v = ArgValue(argv[i], "--seed")) {
      context.seed = std::strtoull(v->c_str(), nullptr, 10);
      have_seed = true;
    } else if (auto v = ArgValue(argv[i], "--seconds")) {
      context.seconds = std::atof(v->c_str());
    } else if (auto v = ArgValue(argv[i], "--trace")) {
      context.trace = *v == "1";
    } else if (auto v = ArgValue(argv[i], "--bin-dir")) {
      context.bin_dir = *v;
    } else if (auto v = ArgValue(argv[i], "--work-dir")) {
      context.work_dir = *v;
    } else {
      Usage();
    }
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (workload == w.name) {
      entry = &w;
    }
  }
  if (entry == nullptr || !have_seed || context.seconds <= 0.0 || context.bin_dir.empty() ||
      context.work_dir.empty()) {
    Usage();
  }
  std::filesystem::create_directories(context.work_dir);

  Report report;
  std::vector<Metric> metrics;
  if (!context.trace) {
    const Report run = entry->run(context);
    Absorb(&report, run, workload);
    for (const std::string& name : kEndToEnd) {
      const Metric* m = run.Find(name);
      if (m == nullptr) {
        report.Fail("metric " + name + " missing");
        metrics.push_back({name, 0.0, ""});
      } else {
        metrics.push_back(*m);
      }
    }
  } else {
    WorkloadContext half = context;
    half.seconds = context.seconds / 2.0;
    half.trace = false;
    const Report untraced = entry->run(half);
    half.trace = true;
    const Report traced = entry->run(half);
    Absorb(&report, untraced, workload + " untraced");
    Absorb(&report, traced, workload + " traced");
    std::vector<Report> sides;
    for (const WorkloadEntry& w : kWorkloads) {
      if (&w != entry) {
        WorkloadContext side = context;
        side.seconds = kSideSeconds;
        sides.push_back(w.run(side));
        Absorb(&report, sides.back(), std::string(w.name) + " traced, bypassed layers");
      }
    }
    const Metric* before = untraced.Find("latency_ms_p50");
    const Metric* after = traced.Find("latency_ms_p50");
    const double overhead =
        before != nullptr && after != nullptr && before->value > 0.0
            ? (after->value - before->value) / before->value * 100.0
            : 0.0;
    for (const auto& [name, unit] : kPerLayer) {
      const Metric* m = traced.Find(name);
      for (const Report& side : sides) {
        if (m == nullptr) {
          m = side.Find(name);
        }
      }
      if (name == "trace.overhead_pct") {
        metrics.push_back({name, overhead, unit});
      } else if (m == nullptr) {
        report.Fail("metric " + name + " missing");
        metrics.push_back({name, 0.0, unit});
      } else {
        metrics.push_back(*m);
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "tracing overhead on %s: latency_ms_p50 %.6g untraced vs %.6g traced "
                  "(%+.2f %%)",
                  workload.c_str(), before ? before->value : 0.0, after ? after->value : 0.0,
                  overhead);
    report.notes.push_back(buf);
  }
  if (report.attempted < 1) {
    report.attempted = 1;
    report.Fail("nothing was attempted");
  }
  PrintResult(report, metrics);
  return report.correct ? 0 : 1;
}
