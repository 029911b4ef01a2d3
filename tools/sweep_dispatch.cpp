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
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/harness/dispatch.h"
#include "src/harness/sweep_cache.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

using namespace alert;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s --spec=FILE --workers=K [options]\n"
      "  --spec=FILE            sweep spec (sweep_shard --write-default-spec writes one)\n"
      "  --workers=K            number of workers in the initial wave\n"
      "  --transport=inprocess|subprocess|socket   (default subprocess)\n"
      "  --worker-bin=PATH      sweep_shard binary for the subprocess and socket\n"
      "                         transports (default: sweep_shard next to this binary)\n"
      "  --worker-cmd=TEMPLATE  shell command per worker for the subprocess and socket\n"
      "                         transports, run under /bin/sh -c instead of the\n"
      "                         built-in sweep_shard argv; {worker} expands to the\n"
      "                         launch index and {port} (socket) to the dispatcher's\n"
      "                         TCP port.  Cannot be combined with --inject-*\n"
      "  --target-lease-ms=N    size each lease to ~N ms of predicted work\n"
      "                         (default 1000)\n"
      "  --max-lease-units=N    cap on units per lease (default 64); a\n"
      "                         warm lease that reaches a limit mid replay row\n"
      "                         takes the rest of the row\n"
      "  --initial-cost-rate=R  seed the cost model at R ms per cost point instead\n"
      "                         of learning from the first results (default 0 = learn)\n"
      "  --no-steal             disable lease stealing for idle workers\n"
      "  --pipeline-leases      send each worker its next lease while the current\n"
      "                         one drains (hides the request/grant round trip on\n"
      "                         ssh-style transports)\n"
      "  --checkpoint-dir=DIR   journal merged results to DIR/checkpoint.sweep\n"
      "                         (append-only); on startup an existing checkpoint for\n"
      "                         this plan is preseeded, so a killed dispatch resumes\n"
      "                         with only unfinished units.  A torn last record is\n"
      "                         dropped; any other corruption or a wrong-plan\n"
      "                         checkpoint is a hard error\n"
      "  --checkpoint-every=N   append to the checkpoint after every N newly merged\n"
      "                         results (default 1)\n"
      "  --stats                print a dispatch-stats record (incl. per-worker\n"
      "                         ms-per-cost rates and total grant-wait idle time) to\n"
      "                         stdout after the sweep\n"
      "  --worker-threads=N     threads per worker (default 0 = hardware)\n"
      "  --heartbeat-ms=N       worker heartbeat interval (default 5000; 0 disables\n"
      "                         — then rely on --cost-factor for long units)\n"
      "  --deadline-ms=N        straggler silence deadline (default 60000)\n"
      "  --cost-factor=F        stretch the deadline to F x the predicted time of a\n"
      "                         lease's largest unit when longer (default 4.0;\n"
      "                         0 disables the scaling)\n"
      "  --global-deadline-ms=N abort the dispatch after N ms (default 600000)\n"
      "  --max-launches=N       total launch budget incl. replacements (default K+8)\n"
      "  --out=CSV              write the aggregate CSV here\n"
      "  --print                print the aggregate CSV to stdout\n"
      "  --cache-dir=DIR        persistent unit-result cache: cached units are merged\n"
      "                         as preseeded deliveries and never dispatched, so a\n"
      "                         re-run after a spec edit ships only the changed units\n"
      "  --cache=off|read|readwrite  cache mode (default readwrite with --cache-dir)\n"
      "  --cache-stats=FILE     write a one-record cache-stats file\n"
      "  --inject-fail=I:N      (testing) worker launch index I dies after N results\n"
      "  --inject-hang=I:N      (testing) worker I goes silent after N results\n"
      "  --inject-dup=I         (testing) worker I sends every result twice\n"
      "  --inject-delay=I:N     (testing) worker I sleeps N ms per unit (slow machine)\n"
      "  --crash-after=N        (testing) kill the dispatcher after N merged results\n"
      "                         (exits nonzero; pair with --checkpoint-dir + a rerun\n"
      "                         to exercise resume)\n"
      "  -v                     log dispatch events to stderr\n",
      argv0);
  std::exit(2);
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "sweep_dispatch: %s\n", message.c_str());
  std::exit(1);
}

std::optional<std::string> ArgValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
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
  std::string transport_name = "subprocess";
  std::string worker_bin = DefaultWorkerBin(argv[0]);
  std::string worker_cmd;
  bool print = false;
  bool verbose = false;
  bool show_stats = false;
  int worker_threads = 0;
  std::string checkpoint_dir;
  std::string cache_dir;
  std::string cache_mode_flag;
  std::string cache_stats_path;
  DispatchOptions options;
  options.num_workers = -1;
  std::map<int, int> inject_fail;
  std::map<int, int> inject_hang;
  std::map<int, int> inject_delay;
  std::set<int> inject_dup;
  int heartbeat_ms = 5000;

  // Numbers are parsed strictly (whole token, finite) and range-checked here: a
  // malformed value is a usage error (exit 2), not a failed run (exit 1).
  const auto bad_flag = [&](const char* flag, const std::string& what,
                            const std::string& value) {
    std::fprintf(stderr, "sweep_dispatch: %s: expected %s, got '%s'\n", flag,
                 what.c_str(), value.c_str());
    Usage(argv[0]);
  };
  const auto int_flag = [&](const std::string& value, const char* flag, int min) {
    int out = 0;
    if (!serde::ParseInt(value, &out) || out < min) {
      bad_flag(flag, "an integer >= " + std::to_string(min), value);
    }
    return out;
  };
  const auto double_flag = [&](const std::string& value, const char* flag) {
    double out = 0.0;
    if (!serde::ParseDouble(value, &out) || out < 0.0) {
      bad_flag(flag, "a finite number >= 0", value);
    }
    return out;
  };
  // "I:N" -> (I, N) for the injection flags; both non-negative.
  const auto index_count_flag = [&](const std::string& value, const char* flag) {
    const size_t colon = value.find(':');
    if (colon == std::string::npos) {
      bad_flag(flag, "I:N", value);
    }
    return std::pair<int, int>{int_flag(value.substr(0, colon), flag, 0),
                               int_flag(value.substr(colon + 1), flag, 0)};
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (auto v = ArgValue(arg, "--spec")) {
      spec_path = *v;
    } else if (auto v = ArgValue(arg, "--workers")) {
      options.num_workers = int_flag(*v, "--workers", 1);
    } else if (auto v = ArgValue(arg, "--transport")) {
      transport_name = *v;
    } else if (auto v = ArgValue(arg, "--worker-bin")) {
      worker_bin = *v;
    } else if (auto v = ArgValue(arg, "--worker-cmd")) {
      worker_cmd = *v;
    } else if (auto v = ArgValue(arg, "--worker-threads")) {
      worker_threads = int_flag(*v, "--worker-threads", 0);
    } else if (auto v = ArgValue(arg, "--target-lease-ms")) {
      options.target_lease_ms = int_flag(*v, "--target-lease-ms", 1);
    } else if (auto v = ArgValue(arg, "--max-lease-units")) {
      options.max_lease_units = int_flag(*v, "--max-lease-units", 1);
    } else if (auto v = ArgValue(arg, "--initial-cost-rate")) {
      options.initial_cost_rate_ms = double_flag(*v, "--initial-cost-rate");
    } else if (std::strcmp(arg, "--no-steal") == 0) {
      options.enable_steal = false;
    } else if (std::strcmp(arg, "--pipeline-leases") == 0) {
      options.pipeline_leases = true;
    } else if (auto v = ArgValue(arg, "--checkpoint-dir")) {
      checkpoint_dir = *v;
    } else if (auto v = ArgValue(arg, "--checkpoint-every")) {
      options.checkpoint_every = int_flag(*v, "--checkpoint-every", 1);
    } else if (auto v = ArgValue(arg, "--crash-after")) {
      options.crash_after_results = int_flag(*v, "--crash-after", 0);
    } else if (std::strcmp(arg, "--stats") == 0) {
      show_stats = true;
    } else if (auto v = ArgValue(arg, "--cost-factor")) {
      options.straggler_cost_factor = double_flag(*v, "--cost-factor");
    } else if (auto v = ArgValue(arg, "--heartbeat-ms")) {
      heartbeat_ms = int_flag(*v, "--heartbeat-ms", 0);
    } else if (auto v = ArgValue(arg, "--deadline-ms")) {
      options.straggler_deadline_ms = int_flag(*v, "--deadline-ms", 0);
    } else if (auto v = ArgValue(arg, "--global-deadline-ms")) {
      options.global_deadline_ms = int_flag(*v, "--global-deadline-ms", 0);
    } else if (auto v = ArgValue(arg, "--max-launches")) {
      options.max_worker_launches = int_flag(*v, "--max-launches", 0);
    } else if (auto v = ArgValue(arg, "--out")) {
      out_path = *v;
    } else if (auto v = ArgValue(arg, "--cache-dir")) {
      cache_dir = *v;
    } else if (auto v = ArgValue(arg, "--cache")) {
      cache_mode_flag = *v;
    } else if (auto v = ArgValue(arg, "--cache-stats")) {
      cache_stats_path = *v;
    } else if (auto v = ArgValue(arg, "--inject-fail")) {
      inject_fail.insert(index_count_flag(*v, "--inject-fail"));
    } else if (auto v = ArgValue(arg, "--inject-hang")) {
      inject_hang.insert(index_count_flag(*v, "--inject-hang"));
    } else if (auto v = ArgValue(arg, "--inject-dup")) {
      inject_dup.insert(int_flag(*v, "--inject-dup", 0));
    } else if (auto v = ArgValue(arg, "--inject-delay")) {
      inject_delay.insert(index_count_flag(*v, "--inject-delay"));
    } else if (std::strcmp(arg, "--print") == 0) {
      print = true;
    } else if (std::strcmp(arg, "-v") == 0) {
      verbose = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (spec_path.empty() || options.num_workers <= 0 || (out_path.empty() && !print)) {
    Usage(argv[0]);
  }
  // A --worker-cmd template renders its own worker flags: injection flags would
  // never reach a process worker.
  if (!worker_cmd.empty() && transport_name != "inprocess" &&
      (!inject_fail.empty() || !inject_hang.empty() || !inject_dup.empty() ||
       !inject_delay.empty())) {
    Fail("--inject-* flags cannot be combined with --worker-cmd");
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

  SweepCacheMode cache_mode = SweepCacheMode::kOff;
  s = ResolveSweepCacheMode(cache_dir, cache_mode_flag, &cache_mode);
  if (!s) {
    Fail(s.message);
  }
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
    std::string checkpoint_text;
    if (serde::ReadFile(options.checkpoint_path, &checkpoint_text)) {
      // A checkpoint exists: it must parse and match this plan, or the operator is
      // resuming the wrong sweep — refusing beats silently restarting from zero.
      SweepCheckpoint checkpoint;
      s = ParseSweepCheckpoint(checkpoint_text, &checkpoint);
      if (!s) {
        Fail("checkpoint '" + options.checkpoint_path + "': " + s.message +
             " (refusing to silently restart; delete the file to start fresh)");
      }
      if (checkpoint.plan_fingerprint != PlanFingerprint(plan)) {
        Fail("checkpoint '" + options.checkpoint_path +
             "' was written for a different plan (fingerprint mismatch); delete "
             "the file or point --checkpoint-dir elsewhere");
      }
      std::fprintf(stderr, "sweep_dispatch: resuming %zu checkpointed results\n",
                   checkpoint.results.size());
      options.preseeded_results.insert(options.preseeded_results.end(),
                                       checkpoint.results.begin(),
                                       checkpoint.results.end());
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
    std::vector<std::string> argvv = {worker_bin, "--worker",
                                      "--threads=" + std::to_string(worker_threads),
                                      "--heartbeat-ms=" + std::to_string(heartbeat_ms)};
    if (const auto it = inject_fail.find(worker_index); it != inject_fail.end()) {
      argvv.push_back("--worker-fail-after=" + std::to_string(it->second));
    }
    if (const auto it = inject_hang.find(worker_index); it != inject_hang.end()) {
      argvv.push_back("--worker-hang-after=" + std::to_string(it->second));
    }
    if (const auto it = inject_delay.find(worker_index); it != inject_delay.end()) {
      argvv.push_back("--worker-delay-ms=" + std::to_string(it->second));
    }
    if (inject_dup.count(worker_index) > 0) {
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
  if (transport_name == "inprocess") {
    InProcessTransport::Options in_options;
    in_options.threads = worker_threads;
    in_options.heartbeat_interval_ms = heartbeat_ms;
    in_options.fail_after = inject_fail;
    in_options.hang_after = inject_hang;
    in_options.delay_per_result = inject_delay;
    in_options.duplicate_results = inject_dup;
    transport = std::make_unique<InProcessTransport>(in_options);
  } else if (transport_name == "socket") {
    SocketTransport::Options sock_options;
    sock_options.command_for_worker = worker_shell;
    transport = std::make_unique<SocketTransport>(std::move(sock_options));
  } else if (transport_name == "subprocess") {
    transport = std::make_unique<SubprocessTransport>(worker_argv);
  } else {
    Fail("unknown transport '" + transport_name + "'");
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
