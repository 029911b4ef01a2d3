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
#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/common/net.h"
#include "src/harness/dispatch.h"
#include "src/harness/sweep_cache.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

using namespace alert;

namespace {

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
  std::optional<SweepCacheMode> cache_flag;
  std::string cache_stats_path;
  int num_shards = -1;
  int shard_index = -1;
  bool print_units = false;
  bool worker_mode = false;
  std::string connect_host;
  int connect_port = 0;
  DispatchWorkerOptions worker_options;
  ShardStrategy strategy = ShardStrategy::kRoundRobin;
  flags::Parser cli(
      "sweep_shard",
      "--spec=FILE --shards=K --shard=I --out=FILE [options]\n"
      "   or: sweep_shard --write-default-spec=FILE\n"
      "   or: sweep_shard --worker [--threads=N] [--connect=HOST:PORT]",
      {flags::String("--spec=FILE", &spec_path,
                     "sweep spec (see --write-default-spec for an example)"),
       flags::Int("--shards=K", &num_shards, 1, "run shard I of a K-way partition"),
       flags::Int("--shard=I", &shard_index, 0, "the shard to run, below K"),
       flags::Choice(
           "--strategy=NAME", &strategy,
           flags::Named({ShardStrategy::kRoundRobin, ShardStrategy::kCostWeighted},
                        ShardStrategyName),
           "partition strategy"),
       flags::String("--out=FILE", &out_path, "per-unit results file for sweep_merge"),
       flags::String("--csv=FILE", &csv_path,
                     "also write the aggregate CSV (full plan only, i.e.\n"
                     "--shards=1: this is the monolithic sweep)"),
       flags::Int("--threads=N", &worker_options.threads, 0,
                  "worker threads across settings (0 = hardware)"),
       flags::String("--cache-dir=DIR", &cache_dir,
                     "persistent unit-result cache: cached units are\n"
                     "delivered, not re-run (see src/harness/sweep_cache.h)"),
       flags::Choice("--cache=MODE", &cache_flag,
                     flags::Named({SweepCacheMode::kOff, SweepCacheMode::kRead,
                                   SweepCacheMode::kReadWrite},
                                  SweepCacheModeName),
                     "cache mode (default readwrite with --cache-dir, else off)"),
       flags::String("--cache-stats=FILE", &cache_stats_path,
                     "write a one-record cache-stats file"),
       flags::Switch("--print-units", &print_units,
                     "list this shard's serialized units and exit"),
       flags::String("--dump-profile=FILE", &profile_path,
                     "dump the first unit's kBoth profile snapshot"),
       flags::String("--write-default-spec=FILE", &default_spec_path,
                     "write a small example spec and exit"),
       flags::Switch("--worker", &worker_mode,
                     "speak the sweep_dispatch worker protocol on\n"
                     "stdin/stdout (see docs/DISTRIBUTED.md)"),
       flags::Value("--connect=HOST:PORT", "HOST:PORT with a port in [1, 65535]",
                    [&](std::string_view v) {
                      return net::ParseHostPort(v, &connect_host, &connect_port).ok;
                    },
                    "dial the dispatcher over TCP instead of using\n"
                    "stdin/stdout (the socket transport's worker side)"),
       flags::Int("--heartbeat-ms=N", &worker_options.heartbeat_interval_ms, 0,
                  "heartbeat interval while executing (0 disables;\n"
                  "then rely on a cost-scaled straggler deadline)"),
       flags::Int("--worker-fail-after=N", &worker_options.fail_after_results, 0,
                  "(testing) die after reporting N units"),
       flags::Int("--worker-hang-after=N", &worker_options.hang_after_results, 0,
                  "(testing) go silent after reporting N units"),
       flags::Switch("--worker-dup-results", &worker_options.duplicate_results,
                     "(testing) send every result line twice"),
       flags::Int("--worker-delay-ms=N", &worker_options.delay_per_result_ms, 0,
                  "(testing) slow machine: sleep N ms per unit and\n"
                  "fold the sleep into the reported unit time")});
  cli.Parse(argc, argv);

  if (worker_mode) {
    int conn_fd = -1;  // stdin/stdout without --connect
    if (connect_port != 0) {
      const serde::Status s = net::ConnectTcp(connect_host, connect_port, &conn_fd);
      if (!s) {
        Fail("--connect: " + s.message);
      }
    }
    FdWorkerLink link(conn_fd >= 0 ? conn_fd : 0, conn_fd >= 0 ? conn_fd : 1,
                      /*owns_fds=*/conn_fd >= 0);
    return RunDispatchWorker(link, worker_options);
  }
  if (connect_port != 0) {
    cli.Fail("--connect only makes sense with --worker");
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

  if (spec_path.empty() || num_shards < 0 || shard_index < 0) {
    cli.Fail("missing --spec, --shards or --shard");
  }
  if (shard_index >= num_shards) {
    cli.Fail("--shard=" + std::to_string(shard_index) + " must be below --shards=" +
             std::to_string(num_shards));
  }
  if (out_path.empty() && !print_units) {
    cli.Fail("missing --out=FILE");
  }
  SweepCacheMode cache_mode = SweepCacheMode::kOff;
  serde::Status s = ResolveSweepCacheMode(cache_dir, cache_flag, &cache_mode);
  if (!s) {
    cli.Fail(s.message);
  }

  std::string spec_text;
  s = serde::ReadFile(spec_path, &spec_text);
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
  if (!csv_path.empty() && units.size() != plan.units.size()) {
    Fail("--csv needs the full plan in one shard (use --shards=1)");
  }

  SweepResultCache cache;
  if (cache_mode != SweepCacheMode::kOff) {
    s = OpenSweepResultCacheDir(cache_dir, cache_mode, &cache);
    if (!s) {
      Fail(s.message);
    }
  }

  SweepRunOptions run_options;
  run_options.threads = worker_options.threads;
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
