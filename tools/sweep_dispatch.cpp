// sweep_dispatch — run a whole sweep through the pull-based worker pool: workers
// lease small batches of units, observed timings size the next lease, and stragglers
// are re-planned (lease revocation / work stealing) before their silence deadline.
//
// Where sweep_shard/sweep_merge are the *manual* distributed pipeline (the operator
// runs each shard and merges by hand), sweep_dispatch is the automated control plane:
// it profiles once, ships (spec + profile snapshots + leased unit ids) to up to
// `--workers=K` workers over the chosen transport, merges per-unit results the
// moment they arrive, and requeues the unfinished remainder of any worker that dies,
// goes silent, or gets its lease stolen.  The aggregate CSV is byte-identical to the
// monolithic `sweep_shard --shards=1 --csv` no matter the worker count, failure
// schedule, or steal timing.
//
// Transports:
//   --transport=inprocess   worker threads inside this process (no binaries needed);
//   --transport=subprocess  one `sweep_shard --worker` child per worker, talking over
//                           its stdin/stdout (--worker-bin overrides the binary
//                           path); --worker-cmd replaces that argv with a shell
//                           command, `{worker}` replaced by the launch index — e.g.
//                           --worker-cmd='ssh host-{worker} /opt/alert/sweep_shard --worker'
//   --transport=socket      localhost TCP: each worker is launched like a subprocess
//                           worker (--worker-cmd with `{port}` expanded, or the
//                           built-in argv) and dials back with --connect
//
// A full walkthrough (including the failure-injection flags used by CI) lives in
// docs/DISTRIBUTED.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/harness/dispatch.h"
#include "src/harness/sweep_cache.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

using namespace alert;

namespace {

enum class TransportKind { kInProcess, kSubprocess, kSocket };

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "sweep_dispatch: %s\n", message.c_str());
  std::exit(1);
}

// The --inject-* value parser: "I:N" -> into[I] = N, both non-negative (the first
// value given for I wins).
std::function<bool(std::string_view)> IndexCount(std::map<int, int>* into) {
  return [into](std::string_view value) {
    const size_t colon = value.find(':');
    int index = 0;
    int count = 0;
    if (colon == std::string_view::npos ||
        !serde::ParseInt(value.substr(0, colon), &index) ||
        !serde::ParseInt(value.substr(colon + 1), &count) || index < 0 || count < 0) {
      return false;
    }
    into->emplace(index, count);
    return true;
  };
}

void ExpandToken(std::string* text, const std::string& token,
                 const std::string& value) {
  size_t pos = 0;
  while ((pos = text->find(token, pos)) != std::string::npos) {
    text->replace(pos, token.size(), value);
    pos += value.size();
  }
}

std::string ExpandWorkerTemplate(const std::string& text, int worker_index) {
  std::string out = text;
  ExpandToken(&out, "{worker}", std::to_string(worker_index));
  return out;
}

// POSIX single-quoting: the shell passes `arg` through byte for byte (spaces, quotes
// and all).
std::string ShellQuote(const std::string& arg) {
  std::string out = "'";
  for (const char c : arg) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('\'');
  return out;
}

std::string DefaultWorkerBin(const char* argv0) {
  const std::string self(argv0);
  const size_t slash = self.rfind('/');
  if (slash == std::string::npos) {
    return "./sweep_shard";
  }
  return self.substr(0, slash + 1) + "sweep_shard";
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  TransportKind transport_kind = TransportKind::kSubprocess;
  std::string worker_bin = DefaultWorkerBin(argv[0]);
  std::string worker_cmd;
  bool print = false;
  bool verbose = false;
  bool show_stats = false;
  bool no_steal = false;
  std::string checkpoint_dir;
  std::string cache_dir;
  std::optional<SweepCacheMode> cache_flag;
  std::string cache_stats_path;
  DispatchOptions options;
  // The worker knobs and injections, for every transport: in-process workers take
  // them as they are, process workers as sweep_shard --worker flags.
  InProcessTransport::Options workers;
  workers.threads = 0;
  constexpr std::pair<std::string_view, TransportKind> kTransports[] = {
      {"inprocess", TransportKind::kInProcess},
      {"subprocess", TransportKind::kSubprocess},
      {"socket", TransportKind::kSocket}};
  flags::Parser cli(
      "sweep_dispatch", "--spec=FILE --workers=K (--out=CSV | --print) [options]",
      {flags::String("--spec=FILE", &spec_path,
                     "sweep spec (sweep_shard --write-default-spec writes one)")
           .Required(),
       flags::Int("--workers=K", &options.num_workers, 1,
                  "number of workers in the initial wave")
           .Required(),
       flags::Choice("--transport=NAME", &transport_kind, kTransports,
                     "worker threads, or sweep_shard children over pipes or TCP"),
       flags::String("--worker-bin=PATH", &worker_bin,
                     "sweep_shard binary for the subprocess and socket\n"
                     "transports (the default sits next to this binary)"),
       flags::String("--worker-cmd=TEMPLATE", &worker_cmd,
                     "shell command per process worker, run under /bin/sh -c\n"
                     "instead of the built-in argv; {worker} expands to the\n"
                     "launch index, {port} to that launch's TCP port\n"
                     "(socket).  Cannot be combined with --inject-*"),
       flags::Int("--target-lease-ms=N", &options.target_lease_ms, 1,
                  "size each lease to ~N ms of predicted work"),
       flags::Int("--max-lease-units=N", &options.max_lease_units, 1,
                  "cap on units per lease; a warm lease that reaches\n"
                  "a limit mid replay row takes the rest of the row"),
       flags::Double("--initial-cost-rate=R", &options.initial_cost_rate_ms, 0.0,
                     flags::kUnbounded,
                     "seed the cost model at R ms per cost point instead\n"
                     "of learning from the first results (0 = learn)"),
       flags::Switch("--no-steal", &no_steal, "disable lease stealing for idle workers"),
       flags::Switch("--pipeline-leases", &options.pipeline_leases,
                     "grant each worker its next lease while the current one\n"
                     "drains (hides the round trip on ssh-style transports)"),
       flags::String("--checkpoint-dir=DIR", &checkpoint_dir,
                     "journal merged results to DIR/checkpoint.sweep; a rerun\n"
                     "resumes from it with only the unfinished units (a torn\n"
                     "last record is dropped, other damage is an error)"),
       flags::Int("--checkpoint-every=N", &options.checkpoint_every, 1,
                  "append to the checkpoint every N merged results"),
       flags::Switch("--stats", &show_stats,
                     "print dispatch-stats and per-worker rate records to\n"
                     "stdout after the sweep"),
       flags::Int("--worker-threads=N", &workers.threads, 0,
                  "threads per worker (0 = hardware)"),
       flags::Int("--heartbeat-ms=N", &workers.heartbeat_interval_ms, 0,
                  "worker heartbeat interval (0 disables; then rely\n"
                  "on --cost-factor for long units)"),
       flags::Int("--deadline-ms=N", &options.straggler_deadline_ms, 0,
                  "straggler silence deadline"),
       flags::Double("--cost-factor=F", &options.straggler_cost_factor, 0.0,
                     flags::kUnbounded,
                     "stretch the deadline to F x the predicted time of a\n"
                     "lease's largest unit when longer (0 disables)"),
       flags::Int("--global-deadline-ms=N", &options.global_deadline_ms, 0,
                  "abort the dispatch after N ms (0 = never)"),
       flags::Int("--max-launches=N", &options.max_worker_launches, 0,
                  "total launch budget incl. replacements (0 = K+8)"),
       flags::String("--out=CSV", &out_path, "write the aggregate CSV here"),
       flags::Switch("--print", &print, "print the aggregate CSV to stdout"),
       flags::String("--cache-dir=DIR", &cache_dir,
                     "persistent unit-result cache: cached units are merged\n"
                     "up front and never dispatched"),
       flags::Choice("--cache=MODE", &cache_flag,
                     flags::Named({SweepCacheMode::kOff, SweepCacheMode::kRead,
                                   SweepCacheMode::kReadWrite},
                                  SweepCacheModeName),
                     "cache mode (default readwrite with --cache-dir, else off)"),
       flags::String("--cache-stats=FILE", &cache_stats_path,
                     "write a one-record cache-stats file"),
       flags::Value("--inject-fail=I:N", "I:N with I, N >= 0",
                    IndexCount(&workers.fail_after),
                    "(testing) worker launch index I dies after N results")
           .Repeatable(),
       flags::Value("--inject-hang=I:N", "I:N with I, N >= 0",
                    IndexCount(&workers.hang_after),
                    "(testing) worker I goes silent after N results")
           .Repeatable(),
       flags::Value("--inject-dup=I", "an integer >= 0",
                    [&](std::string_view v) {
                      int index = 0;
                      if (!serde::ParseInt(v, &index) || index < 0) {
                        return false;
                      }
                      workers.duplicate_results.insert(index);
                      return true;
                    },
                    "(testing) worker I sends every result twice")
           .Repeatable(),
       flags::Value("--inject-delay=I:N", "I:N with I, N >= 0",
                    IndexCount(&workers.delay_per_result),
                    "(testing) worker I sleeps N ms per unit (slow machine)")
           .Repeatable(),
       flags::Int("--crash-after=N", &options.crash_after_results, 0,
                  "(testing) kill the dispatcher after N merged results\n"
                  "(pair with --checkpoint-dir to exercise a resume)"),
       flags::Switch("-v", &verbose, "log dispatch events to stderr")});
  cli.Parse(argc, argv);
  options.enable_steal = !no_steal;
  if (out_path.empty() && !print) {
    cli.Fail("missing --out=CSV or --print");
  }
  // A --worker-cmd template renders its own worker flags: injection flags would
  // never reach a process worker.
  if (!worker_cmd.empty() && transport_kind != TransportKind::kInProcess &&
      (!workers.fail_after.empty() || !workers.hang_after.empty() ||
       !workers.duplicate_results.empty() || !workers.delay_per_result.empty())) {
    cli.Fail("--inject-* flags cannot be combined with --worker-cmd");
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

  SweepResultCache cache;
  SweepCacheRunStats cache_stats;
  if (cache_mode != SweepCacheMode::kOff) {
    s = OpenSweepResultCacheDir(cache_dir, cache_mode, &cache);
    if (!s) {
      Fail(s.message);
    }
    // Cache hits become preseeded deliveries: merged before any worker launches,
    // never assigned.  `uncached` is only needed for the stats.
    std::vector<SweepUnit> uncached;
    SweepCachePreseed(plan, plan.units, cache, &options.preseeded_results, &uncached,
                      &cache_stats);
  }

  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);  // best-effort; the
    // first checkpoint write surfaces a real permission problem loudly.
    options.checkpoint_path = checkpoint_dir + "/checkpoint.sweep";
    if (std::filesystem::exists(options.checkpoint_path)) {
      // A checkpoint exists: it must parse and match this plan, or the operator is
      // resuming the wrong sweep — refusing beats silently restarting from zero.  A
      // torn last record is what a killed dispatcher leaves, and is dropped.
      const size_t preseeded = options.preseeded_results.size();
      s = LoadSweepResults(options.checkpoint_path, PlanFingerprint(plan),
                           /*require_whole=*/false, &options.preseeded_results);
      if (!s) {
        Fail(s.message +
             " (refusing to silently restart; delete the file or point "
             "--checkpoint-dir elsewhere)");
      }
      std::fprintf(stderr, "sweep_dispatch: resuming %zu checkpointed results\n",
                   options.preseeded_results.size() - preseeded);
    }
  }

  // A --worker-cmd template runs under the shell.  Otherwise injection flags append
  // worker-protocol testing flags to the matching launch index only; replacement
  // workers (fresh indices) come up clean, which is what lets an injected failure
  // converge instead of recurring forever.
  const auto worker_argv = [&](int worker_index) -> std::vector<std::string> {
    if (!worker_cmd.empty()) {
      return {"/bin/sh", "-c", ExpandWorkerTemplate(worker_cmd, worker_index)};
    }
    std::vector<std::string> argvv = {
        worker_bin, "--worker", "--threads=" + std::to_string(workers.threads),
        "--heartbeat-ms=" + std::to_string(workers.heartbeat_interval_ms)};
    if (const auto it = workers.fail_after.find(worker_index);
        it != workers.fail_after.end()) {
      argvv.push_back("--worker-fail-after=" + std::to_string(it->second));
    }
    if (const auto it = workers.hang_after.find(worker_index);
        it != workers.hang_after.end()) {
      argvv.push_back("--worker-hang-after=" + std::to_string(it->second));
    }
    if (const auto it = workers.delay_per_result.find(worker_index);
        it != workers.delay_per_result.end()) {
      argvv.push_back("--worker-delay-ms=" + std::to_string(it->second));
    }
    if (workers.duplicate_results.count(worker_index) > 0) {
      argvv.push_back("--worker-dup-results");
    }
    return argvv;
  };
  // The socket transport's launch as one shell line: the --worker-cmd template, or
  // the built-in argv quoted piece by piece, dialing back to `port`.
  const auto worker_shell = [&](int worker_index, int port) {
    if (!worker_cmd.empty()) {
      std::string cmd = ExpandWorkerTemplate(worker_cmd, worker_index);
      ExpandToken(&cmd, "{port}", std::to_string(port));
      return cmd;
    }
    std::string cmd;
    for (const std::string& piece : worker_argv(worker_index)) {
      cmd += ShellQuote(piece) + ' ';
    }
    return cmd + "--connect=127.0.0.1:" + std::to_string(port);
  };

  std::unique_ptr<Transport> transport;
  if (transport_kind == TransportKind::kInProcess) {
    transport = std::make_unique<InProcessTransport>(workers);
  } else if (transport_kind == TransportKind::kSocket) {
    SocketTransport::Options sock_options;
    sock_options.command_for_worker = worker_shell;
    transport = std::make_unique<SocketTransport>(std::move(sock_options));
  } else {
    transport = std::make_unique<SubprocessTransport>(worker_argv);
  }

  if (verbose) {
    options.on_event = [](const std::string& event) {
      std::fprintf(stderr, "sweep_dispatch: %s\n", event.c_str());
    };
  }
  // Collect first-delivery worker results so a readwrite cache can record them.
  std::vector<SweepUnitResult> fresh_results;
  if (cache_mode == SweepCacheMode::kReadWrite) {
    options.on_result = [&fresh_results](int, const SweepUnitResult& result,
                                         bool newly_recorded) {
      if (newly_recorded) {
        fresh_results.push_back(result);
      }
    };
  }

  std::vector<CellResult> cells;
  DispatchStats stats;
  s = DispatchSweep(plan, *transport, options, &cells, &stats);
  if (!s) {
    Fail(s.message);
  }

  if (cache_mode == SweepCacheMode::kReadWrite) {
    const uint64_t plan_fp = PlanFingerprint(plan);
    const auto record = [&](const SweepUnitResult& result) {
      const SweepUnit& unit = plan.units[static_cast<size_t>(result.unit_id)];
      const serde::Status rs =
          cache.Record(SweepUnitFingerprint(plan.spec, unit), plan_fp, result);
      if (!rs) {
        Fail(rs.message);
      }
    };
    for (const SweepUnitResult& result : fresh_results) {
      record(result);
    }
    // Synthesized skips from the preseed are not yet in the cache; plain hits
    // re-record as no-ops.
    for (const SweepUnitResult& result : options.preseeded_results) {
      record(result);
    }
    cache_stats.executed += fresh_results.size();
    cache_stats.recorded = cache.newly_recorded();
    s = cache.Save();
    if (!s) {
      Fail(s.message);
    }
  } else if (cache_mode == SweepCacheMode::kRead) {
    cache_stats.executed += static_cast<size_t>(stats.results_received) -
                            static_cast<size_t>(stats.duplicate_results);
  }
  if (cache_mode != SweepCacheMode::kOff) {
    std::fprintf(stderr,
                 "sweep_dispatch: cache (%s): %zu hits, %zu synthesized, %zu "
                 "executed, %zu newly recorded\n",
                 std::string(SweepCacheModeName(cache_mode)).c_str(), cache_stats.hits,
                 cache_stats.synthesized, cache_stats.executed, cache_stats.recorded);
  }
  if (!cache_stats_path.empty()) {
    s = WriteSweepCacheStats(cache_stats_path, cache_stats);
    if (!s) {
      Fail(s.message);
    }
  }
  const std::string csv = SweepAggregateCsv(plan, cells);
  if (!out_path.empty()) {
    s = serde::WriteFile(out_path, csv);
    if (!s) {
      Fail(s.message);
    }
  }
  if (print) {
    std::fputs(csv.c_str(), stdout);
  }
  if (show_stats) {
    serde::RecordWriter w("dispatch-stats");
    w.Field("workers", stats.workers_launched)
        .Field("launches_failed", stats.failed_launches)
        .Field("leases", stats.leases_granted)
        .Field("pipelined", stats.leases_pipelined)
        .Field("revocations", stats.lease_revocations)
        .Field("stolen", stats.units_stolen)
        .Field("retries", stats.retry_assignments)
        .Field("duplicates", stats.duplicate_results)
        .Field("preseeded", stats.preseeded)
        .Field("checkpoints", stats.checkpoints_written)
        .Field("idle_ms", stats.worker_idle_ms)
        .Field("elapsed_ms", stats.elapsed_ms)
        .Field("cost_seeded", stats.cost_model_seeded);
    if (stats.cost_model_seeded) {
      // cost_rate_ms is a NaN sentinel when unseeded; FormatDouble (correctly)
      // refuses non-finite values, so the field only exists when it means something.
      w.Field("cost_rate_ms", stats.cost_rate_ms);
    }
    std::printf("%s\n", w.line().c_str());
    for (const auto& [worker, rate] : stats.worker_cost_rates) {
      std::printf("%s\n", serde::RecordWriter("worker-rate")
                              .Field("worker", worker)
                              .Field("rate_ms", rate)
                              .line()
                              .c_str());
    }
  }
  std::fprintf(stderr,
               "sweep_dispatch: %zu units over %d workers in %d leases "
               "(%d launches, %d failures, %d stragglers, %d revocations, "
               "%d stolen, %d retries, %d duplicates, %.0f ms)\n",
               plan.units.size(), options.num_workers, stats.leases_granted,
               stats.workers_launched, stats.worker_failures, stats.stragglers,
               stats.lease_revocations, stats.units_stolen, stats.retry_assignments,
               stats.duplicate_results, stats.elapsed_ms);
  return 0;
}
