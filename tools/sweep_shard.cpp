// sweep_shard — run one shard of a constraint-grid sweep plan.
//
// Both sweep_shard and sweep_merge rebuild the identical, deterministic unit list from
// the spec file, so the only thing shards have to exchange is the spec and their
// per-unit results (plain text, no shared memory).  A results file carries the plan
// fingerprint; sweep_merge refuses to mix results from different specs.
//
// Typical 2-shard session (run the shards on different machines if you like):
//   sweep_shard --write-default-spec=spec.txt
//   sweep_shard --spec=spec.txt --shards=2 --shard=0 --out=s0.results
//   sweep_shard --spec=spec.txt --shards=2 --shard=1 --out=s1.results
//   sweep_merge --spec=spec.txt --out=sweep.csv s0.results s1.results
// The monolithic path is the same pipeline with K=1:
//   sweep_shard --spec=spec.txt --shards=1 --shard=0 --out=mono.results --csv=mono.csv
// and mono.csv is byte-identical to any merged K-shard sweep.csv.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "src/common/net.h"
#include "src/harness/dispatch.h"
#include "src/harness/sweep_cache.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

using namespace alert;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s --spec=FILE --shards=K --shard=I --out=FILE [options]\n"
      "       %s --write-default-spec=FILE\n"
      "  --spec=FILE              sweep spec (see --write-default-spec for an example)\n"
      "  --shards=K --shard=I     run shard I of a K-way partition (I in [0, K))\n"
      "  --strategy=round-robin|cost-weighted   partition strategy (default "
      "round-robin)\n"
      "  --out=FILE               per-unit results file for sweep_merge\n"
      "  --csv=FILE               also write the aggregate CSV (full plan only, i.e.\n"
      "                           --shards=1: this is the monolithic sweep)\n"
      "  --threads=N              worker threads across settings (default: hardware)\n"
      "  --cache-dir=DIR          persistent unit-result cache: units whose content\n"
      "                           fingerprint is cached are delivered, not re-run, so\n"
      "                           a re-run after a spec edit executes only the changed\n"
      "                           units (see src/harness/sweep_cache.h)\n"
      "  --cache=off|read|readwrite  cache mode (default readwrite with --cache-dir)\n"
      "  --cache-stats=FILE       write a one-record cache-stats file (hits,\n"
      "                           synthesized, executed, recorded)\n"
      "  --print-units            list this shard's serialized units and exit\n"
      "  --dump-profile=FILE      dump the first unit's kBoth profile snapshot\n"
      "  --write-default-spec=FILE  write a small example spec and exit\n"
      "       %s --worker [--threads=N] [--connect=HOST:PORT]\n"
      "  --worker                 speak the sweep_dispatch worker protocol on\n"
      "                           stdin/stdout (spec and profiles arrive inline;\n"
      "                           see docs/DISTRIBUTED.md)\n"
      "  --connect=HOST:PORT      dial the dispatcher over TCP instead of using\n"
      "                           stdin/stdout (the socket transport's worker side)\n"
      "  --heartbeat-ms=N         heartbeat interval while executing (default 5000;\n"
      "                           0 disables — then pair the dispatcher with a\n"
      "                           cost-scaled straggler deadline)\n"
      "  --worker-fail-after=N    (testing) die after reporting N units\n"
      "  --worker-hang-after=N    (testing) go silent after reporting N units\n"
      "  --worker-dup-results     (testing) send every result line twice\n"
      "  --worker-delay-ms=N      (testing) slow machine: sleep N ms per unit and\n"
      "                           fold the sleep into the reported unit time\n",
      argv0, argv0, argv0);
  std::exit(2);
}

std::optional<std::string> ArgValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "sweep_shard: %s\n", message.c_str());
  std::exit(1);
}

// A toy plan that exercises both goal dimensions and the infeasible-setting path
// (grid index 0 is the 0.4x deadline) while staying CI-fast.
SweepSpec DefaultSpec() {
  SweepSpec spec;
  spec.cells.push_back(SweepCellSpec{TaskId::kImageClassification, PlatformId::kCpu1,
                                     ContentionType::kNone, GoalMode::kMinimizeEnergy});
  spec.schemes = {SchemeId::kAlert, SchemeId::kNoCoord};
  spec.seeds = {1};
  spec.num_inputs = 30;
  spec.grid_indices = {0, 7, 14, 21, 28, 35};
  return spec;
}

// The worker protocol stream over a pair of fds — stdin/stdout by default, a
// connected TCP socket under --connect.  net::LineChannel writes are unbuffered
// (the dispatcher merges results as they arrive, so buffering a line would stall
// its event loop) and its non-blocking read backs the revocation drain.
class FdWorkerLink final : public WorkerLink {
 public:
  FdWorkerLink(int read_fd, int write_fd, bool owns_fds)
      : io_(read_fd, write_fd, owns_fds) {}

  bool ReadLine(std::string* line) override {
    return io_.ReadLine(/*timeout_ms=*/-1, line) == net::ReadStatus::kLine;
  }
  bool TryReadLine(std::string* line) override {
    return io_.ReadLine(/*timeout_ms=*/0, line) == net::ReadStatus::kLine;
  }
  serde::Status WriteLine(std::string_view line) override {
    return io_.WriteLine(line);
  }

 private:
  net::LineChannel io_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  std::string csv_path;
  std::string profile_path;
  std::string default_spec_path;
  std::string cache_dir;
  std::string cache_mode_flag;
  std::string cache_stats_path;
  int num_shards = -1;
  int shard_index = -1;
  int threads = 0;
  bool print_units = false;
  bool worker_mode = false;
  std::string connect_addr;
  DispatchWorkerOptions worker_options;
  ShardStrategy strategy = ShardStrategy::kRoundRobin;

  // Numbers are parsed strictly (whole token) and range-checked here: a malformed
  // value is a usage error (exit 2), not a failed run (exit 1).
  const auto int_flag = [&](const std::string& value, const char* flag, int min) {
    int out = 0;
    if (!serde::ParseInt(value, &out) || out < min) {
      std::fprintf(stderr, "sweep_shard: %s: expected an integer >= %d, got '%s'\n",
                   flag, min, value.c_str());
      Usage(argv[0]);
    }
    return out;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--worker") == 0) {
      worker_mode = true;
    } else if (auto v = ArgValue(arg, "--connect")) {
      connect_addr = *v;
    } else if (auto v = ArgValue(arg, "--heartbeat-ms")) {
      worker_options.heartbeat_interval_ms = int_flag(*v, "--heartbeat-ms", 0);
    } else if (auto v = ArgValue(arg, "--worker-fail-after")) {
      worker_options.fail_after_results = int_flag(*v, "--worker-fail-after", 0);
    } else if (auto v = ArgValue(arg, "--worker-hang-after")) {
      worker_options.hang_after_results = int_flag(*v, "--worker-hang-after", 0);
    } else if (std::strcmp(arg, "--worker-dup-results") == 0) {
      worker_options.duplicate_results = true;
    } else if (auto v = ArgValue(arg, "--worker-delay-ms")) {
      worker_options.delay_per_result_ms = int_flag(*v, "--worker-delay-ms", 0);
    } else if (auto v = ArgValue(arg, "--spec")) {
      spec_path = *v;
    } else if (auto v = ArgValue(arg, "--shards")) {
      num_shards = int_flag(*v, "--shards", 1);
    } else if (auto v = ArgValue(arg, "--shard")) {
      shard_index = int_flag(*v, "--shard", 0);
    } else if (auto v = ArgValue(arg, "--strategy")) {
      const serde::Status s = ParseShardStrategy(*v, &strategy);
      if (!s) {
        Fail(s.message);
      }
    } else if (auto v = ArgValue(arg, "--out")) {
      out_path = *v;
    } else if (auto v = ArgValue(arg, "--csv")) {
      csv_path = *v;
    } else if (auto v = ArgValue(arg, "--threads")) {
      threads = int_flag(*v, "--threads", 0);
    } else if (auto v = ArgValue(arg, "--cache-dir")) {
      cache_dir = *v;
    } else if (auto v = ArgValue(arg, "--cache")) {
      cache_mode_flag = *v;
    } else if (auto v = ArgValue(arg, "--cache-stats")) {
      cache_stats_path = *v;
    } else if (auto v = ArgValue(arg, "--dump-profile")) {
      profile_path = *v;
    } else if (auto v = ArgValue(arg, "--write-default-spec")) {
      default_spec_path = *v;
    } else if (std::strcmp(arg, "--print-units") == 0) {
      print_units = true;
    } else {
      Usage(argv[0]);
    }
  }

  if (worker_mode) {
    worker_options.threads = threads;
    if (!connect_addr.empty()) {
      std::string host;
      int port = 0;
      serde::Status s = net::ParseHostPort(connect_addr, &host, &port);
      if (!s) {
        Fail("--connect: " + s.message);
      }
      int conn_fd = -1;
      s = net::ConnectTcp(host, port, &conn_fd);
      if (!s) {
        Fail("--connect: " + s.message);
      }
      FdWorkerLink link(conn_fd, conn_fd, /*owns_fds=*/true);
      return RunDispatchWorker(link, worker_options);
    }
    FdWorkerLink link(/*read_fd=*/0, /*write_fd=*/1, /*owns_fds=*/false);
    return RunDispatchWorker(link, worker_options);
  }
  if (!connect_addr.empty()) {
    Fail("--connect only makes sense with --worker");
  }

  if (!default_spec_path.empty()) {
    const serde::Status s =
        serde::WriteFile(default_spec_path, SerializeSweepSpec(DefaultSpec()));
    if (!s) {
      Fail(s.message);
    }
    std::printf("wrote example spec to %s\n", default_spec_path.c_str());
    return 0;
  }

  if (spec_path.empty() || num_shards <= 0 || shard_index < 0 ||
      shard_index >= num_shards) {
    Usage(argv[0]);
  }

  std::string spec_text;
  serde::Status s = serde::ReadFile(spec_path, &spec_text);
  if (!s) {
    Fail(s.message);
  }
  SweepSpec spec;
  s = ParseSweepSpec(spec_text, &spec);
  if (!s) {
    Fail("spec '" + spec_path + "': " + s.message);
  }

  const SweepPlan plan = BuildSweepPlan(spec);
  const auto shards = PartitionPlan(plan, num_shards, strategy);
  const std::vector<SweepUnit>& units = shards[static_cast<size_t>(shard_index)];
  std::fprintf(stderr, "sweep_shard: shard %d/%d (%s): %zu of %zu units\n", shard_index,
               num_shards, std::string(ShardStrategyName(strategy)).c_str(),
               units.size(), plan.units.size());

  // The snapshot is a function of the plan's first cell, not of this shard's units,
  // so it is written even for an empty shard or under --print-units.
  if (!profile_path.empty()) {
    const SweepUnit& first = plan.units.front();
    ExperimentOptions options;
    options.num_inputs = spec.num_inputs;
    options.seed = first.seed;
    options.contention_window = spec.contention_window;
    options.contention_scale = spec.contention_scale;
    options.profile_noise_sigma = spec.profile_noise_sigma;
    const Experiment experiment(first.cell.task, first.cell.platform,
                                first.cell.contention, options);
    const ProfileSnapshot snapshot =
        CaptureProfileSnapshot(experiment.stack(DnnSetChoice::kBoth).space());
    s = serde::WriteFile(profile_path, SerializeProfileSnapshot(snapshot));
    if (!s) {
      Fail(s.message);
    }
  }

  if (print_units) {
    for (const SweepUnit& unit : units) {
      std::printf("%s\n", SerializeSweepUnit(unit).c_str());
    }
    return 0;
  }
  if (out_path.empty()) {
    Usage(argv[0]);
  }
  if (!csv_path.empty() && units.size() != plan.units.size()) {
    Fail("--csv needs the full plan in one shard (use --shards=1)");
  }

  SweepCacheMode cache_mode = SweepCacheMode::kOff;
  s = ResolveSweepCacheMode(cache_dir, cache_mode_flag, &cache_mode);
  if (!s) {
    Fail(s.message);
  }
  SweepResultCache cache;
  if (cache_mode != SweepCacheMode::kOff) {
    s = OpenSweepResultCacheDir(cache_dir, cache_mode, &cache);
    if (!s) {
      Fail(s.message);
    }
  }

  SweepRunOptions run_options;
  run_options.threads = threads;
  ShardResults results;
  results.plan_fingerprint = PlanFingerprint(plan);
  results.num_shards = num_shards;
  results.shard_index = shard_index;
  results.strategy = strategy;
  SweepCacheRunStats cache_stats;
  results.results = RunSweepUnitsCached(
      plan, units, run_options,
      cache_mode != SweepCacheMode::kOff ? &cache : nullptr, &cache_stats);
  if (cache_mode != SweepCacheMode::kOff) {
    s = cache.Save();
    if (!s) {
      Fail(s.message);
    }
    std::fprintf(stderr,
                 "sweep_shard: cache (%s): %zu hits, %zu synthesized, %zu executed, "
                 "%zu newly recorded\n",
                 std::string(SweepCacheModeName(cache_mode)).c_str(), cache_stats.hits,
                 cache_stats.synthesized, cache_stats.executed, cache_stats.recorded);
  }
  if (!cache_stats_path.empty()) {
    s = WriteSweepCacheStats(cache_stats_path, cache_stats);
    if (!s) {
      Fail(s.message);
    }
  }

  s = serde::WriteFile(out_path, SerializeShardResults(results));
  if (!s) {
    Fail(s.message);
  }

  if (!csv_path.empty()) {
    std::vector<CellResult> cells;
    s = MergeSweepResults(plan, results.results, &cells);
    if (!s) {
      Fail(s.message);
    }
    s = serde::WriteFile(csv_path, SweepAggregateCsv(plan, cells));
    if (!s) {
      Fail(s.message);
    }
  }
  return 0;
}
