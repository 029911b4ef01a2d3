// alertd_churn: the real alertd binary as a child process, driven over localhost TCP
// by a seeded churn script (K=64 tenant universe, cpu1, default churn mix) through
// MuxChurnBackend: closed loop, one round or churn event in flight, tenants spread
// over at most nproc connections.  The live transcript must equal an offline
// ChurnReplayBackend replay of the same script prefix, and the daemon's `stats` must
// show no dropped events and no parse or protocol errors.
//
// Traced, the same drive runs again with spans on, and the script prefix is replayed
// twice in-process: through AlertdCore::HandleLine (the daemon's own time per line)
// and through ChurnReplayBackend (the coordinator's time per round and rebuild).
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/churn_mux.h"
#include "perfbench/workloads.h"
#include "src/common/serde.h"
#include "src/harness/constraint_grid.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace alert;
using namespace alert::daemon;

constexpr int kTenants = 64;
constexpr int kSetupRepeats = 11;
constexpr int kReadTimeoutMs = 10000;
// Events generated per second of drive: several times what today's daemon takes, so
// a faster daemon still runs out of time before it runs out of script.
constexpr int kEventsPerSecond = 2000;

// An alertd child process; the destructor stops and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path) {
    std::vector<std::string> argv = {binary};
    argv.insert(argv.end(), args.begin(), args.end());
    std::vector<char*> raw;
    for (std::string& a : argv) {
      raw.push_back(a.data());
    }
    raw.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, raw.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  // SIGTERM (graceful drain), then SIGKILL after 5 s; always reaps.  True when the
  // daemon exited 0 on its own.
  bool Stop() {
    if (pid_ <= 0) {
      return false;
    }
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool clean = false;
    for (int i = 0; i < 500; ++i) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
        return clean;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }

 private:
  pid_t pid_ = -1;
};

// Polls the daemon's port file (written after bind) for up to 10 s, then removes it
// so a later launch can never read a stale port.
int AwaitPort(const std::string& path) {
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < give_up) {
    std::string text;
    if (serde::ReadFile(path, &text) && !text.empty() && text.back() == '\n') {
      const int port = std::atoi(text.c_str());
      if (port > 0) {
        std::filesystem::remove(path);
        return port;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return -1;
}

std::string HelloLine(const ChurnTenant& tenant) {
  serde::RecordWriter w("tenant-hello");
  w.Field("tenant", tenant.config.name);
  w.Field("task", static_cast<int>(tenant.config.task));
  w.Field("dnn_set", static_cast<int>(tenant.config.dnn_set));
  AppendGoalsFields(tenant.config.goals, &w);
  return w.line();
}

std::vector<std::string> DaemonArgs(const std::string& port_file, Watts budget) {
  return {"--port-file=" + port_file, "--budget=" + serde::FormatDouble(budget)};
}

// Set-up as a tenant sees it: exec -> port file readable -> first hello acked.
std::optional<double> MeasureSetup(const WorkloadContext& context, const ChurnScript& script,
                                   int attempt) {
  const std::string port_file =
      context.work_dir + "/alertd-setup-" + std::to_string(attempt) + ".port";
  std::filesystem::remove(port_file);
  const Clock::time_point start = Clock::now();
  Daemon daemon(context.bin_dir + "/alertd", DaemonArgs(port_file, script.options.initial_budget),
                context.work_dir + "/alertd.log");
  const int port = AwaitPort(port_file);
  if (daemon.pid() <= 0 || port <= 0) {
    return std::nullopt;
  }
  TcpLink link(port, 1, kReadTimeoutMs);
  std::string reply;
  if (!link.Send(0, HelloLine(script.tenants[0]), 0) || !link.Recv(0, &reply) ||
      reply.rfind("ok ", 0) != 0) {
    return std::nullopt;
  }
  const double seconds = MsBetween(start, Clock::now()) / 1000.0;
  daemon.Stop();
  return seconds;
}

struct DaemonStats {
  std::map<std::string, uint64_t> fields;
  uint64_t Get(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? 0 : it->second;
  }
};

bool ParseStats(const std::string& line, DaemonStats* out) {
  serde::RecordReader reader;
  if (!serde::RecordReader::Parse(line, &reader) || reader.tag() != "stats") {
    return false;
  }
  for (const char* key : {"rounds", "rebuilds", "parse_errors", "protocol_errors",
                          "cache_hits", "cache_misses", "cache_insertions", "ring_dropped"}) {
    uint64_t value = 0;
    if (!reader.Get(key, &value)) {
      return false;
    }
    out->fields[key] = value;
  }
  return true;
}

// One live drive against a fresh daemon.
struct Drive {
  DriveLog log;
  std::vector<std::string> transcript;
  DaemonStats stats;
  double daemon_hwm_mb = 0.0;
  bool ok = false;
  std::string error;
};

Drive RunDrive(const WorkloadContext& context, const ChurnScript& script, int conns,
               double seconds, Tracer* tracer) {
  Drive drive;
  const std::string port_file = context.work_dir + "/alertd-drive.port";
  std::filesystem::remove(port_file);
  Daemon daemon(context.bin_dir + "/alertd", DaemonArgs(port_file, script.options.initial_budget),
                context.work_dir + "/alertd.log");
  const int port = AwaitPort(port_file);
  if (daemon.pid() <= 0 || port <= 0) {
    drive.error = "alertd did not start";
    return drive;
  }
  TcpLink link(port, conns, kReadTimeoutMs);
  if (!link.connected()) {
    drive.error = "connect failed";
    return drive;
  }
  MuxChurnBackend backend(link, conns, seconds, tracer);
  drive.transcript = RunChurnScript(script, backend);
  drive.log = backend.log();
  if (backend.transport_failed()) {
    drive.error = "transport failure: " + drive.transcript.back();
    return drive;
  }
  std::string reply;
  if (!link.Send(0, "stats", 0) || !link.Recv(0, &reply) || !ParseStats(reply, &drive.stats)) {
    drive.error = "stats verb failed";
    return drive;
  }
  drive.daemon_hwm_mb = ReadVmHwmMb(daemon.pid()).value_or(0.0);
  if (!daemon.Stop()) {
    drive.error = "alertd did not drain cleanly on SIGTERM";
    return drive;
  }
  drive.ok = true;
  return drive;
}

double MedianOr0(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : Median(samples);
}

// The script prefix a drive covered, replayed offline: the equivalence oracle.
std::vector<std::string> Replay(const ChurnScript& script, int64_t calls, Tracer* tracer) {
  ChurnReplayBackend replay(script);
  PrefixBackend prefix(replay, calls, tracer);
  return RunChurnScript(script, prefix);
}

void CheckDrive(const Drive& drive, const ChurnScript& script, const char* phase,
                Report* report) {
  if (!drive.ok) {
    report->Fail(std::string(phase) + ": " + drive.error);
    return;
  }
  if (drive.transcript != Replay(script, drive.log.calls, nullptr)) {
    report->Fail(std::string(phase) + ": live transcript differs from the offline replay");
  }
  for (const char* key : {"ring_dropped", "parse_errors", "protocol_errors"}) {
    if (drive.stats.Get(key) != 0) {
      report->Fail(std::string(phase) + ": daemon stats " + key + "=" +
                   std::to_string(drive.stats.Get(key)));
    }
  }
}

}  // namespace

Report RunAlertdChurn(const WorkloadContext& context) {
  Report report;
  const int conns = std::max(1, std::min(4, context.nproc));

  ChurnScriptOptions options;
  options.seed = context.seed;
  options.max_tenants = kTenants;
  options.num_events = std::max(1000, static_cast<int>(context.seconds * kEventsPerSecond));
  options.platform = PlatformId::kCpu1;
  // Twice the whole universe's power floors: limit-set scales the budget by at most
  // 0.5x, so admission stays possible for everyone and rejects stay rare.
  {
    StackCache stacks(options.platform, kAlertdStackSeed);
    Watts floors = 0.0;
    for (const ChurnTenant& t : MakeChurnScript(options).tenants) {
      floors += MinPowerFloor(stacks.Get(t.config.task, t.config.dnn_set).space());
    }
    options.initial_budget = 2.0 * floors;
  }
  const ChurnScript script = MakeChurnScript(options);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::optional<double> s = MeasureSetup(context, script, i);
    if (!s) {
      report.Fail("alertd set-up probe " + std::to_string(i) + " failed");
      return report;
    }
    setup_s.push_back(*s);
  }

  Tracer tracer(context.trace);
  const Drive drive =
      RunDrive(context, script, conns, context.seconds, context.trace ? &tracer : nullptr);
  CheckDrive(drive, script, "alertd_churn", &report);
  const DriveLog& log = drive.log;
  report.attempted = log.requests + 1;  // + the stats request
  report.failed = log.error_replies + (drive.ok ? 0 : 1);
  if (!drive.ok || log.round_ms.empty()) {
    report.Fail("alertd_churn: no completed rounds");
    return report;
  }

  const double wall_s = MsBetween(log.first_sent, log.last_read) / 1000.0;
  const double rounds = static_cast<double>(log.round_ms.size());
  const double round_ms_p50 = Median(log.round_ms);
  // The universe's configured deadlines are fixed per tenant index, so this
  // denominator does not depend on which tenants a seed happens to admit.
  double deadline_ms = 0.0;
  for (const ChurnTenant& t : script.tenants) {
    deadline_ms += t.config.goals.deadline * 1000.0 / static_cast<double>(script.tenants.size());
  }
  report.Add("setup_s", Median(setup_s), "s");
  report.AddLatency("latency_ms", log.round_ms, "ms");
  report.Add("throughput_per_s", rounds / wall_s, "1/s");
  report.Add("overhead_pct", round_ms_p50 / deadline_ms * 100.0, "%");
  report.Add("peak_rss_mb", drive.daemon_hwm_mb, "MB");

  char buf[768];
  const Tail round_tail = TailOf(log.round_ms);
  std::snprintf(buf, sizeof(buf),
                "alertd_churn: %zu rounds + %lld churn ops over %d connections in %.2f s; "
                "round_ms_p50 %.3f, round_ms_p99 (p%d of %zu) %.3f, rounds_per_s %.3f; "
                "a round is %.2f %% of the mean tenant deadline (%.2f ms) and %.2f %% of "
                "the median simulated inference (%.2f ms)",
                log.round_ms.size(), static_cast<long long>(log.churn_ops), conns, wall_s,
                round_ms_p50, round_tail.percentile, round_tail.samples, round_tail.value,
                rounds / wall_s, round_ms_p50 / deadline_ms * 100.0, deadline_ms,
                round_ms_p50 / (MedianOr0(log.inference_s) * 1000.0) * 100.0,
                MedianOr0(log.inference_s) * 1000.0);
  report.notes.push_back(buf);
  if (!log.churn_op_ms.empty()) {
    const Tail op_tail = TailOf(log.churn_op_ms);
    std::snprintf(buf, sizeof(buf),
                  "alertd_churn: churn_op_ms_p50 %.3f, churn_op_ms_p99 (p%d of %zu) %.3f",
                  Median(log.churn_op_ms), op_tail.percentile, op_tail.samples,
                  op_tail.value);
    report.notes.push_back(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "alertd_churn: requests sent %lld, succeeded %lld, failed %lld "
                "(admission rejects %lld, not failures); error_rate %.6f",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.attempted - report.failed),
                static_cast<long long>(report.failed),
                static_cast<long long>(log.admission_rejects),
                static_cast<double>(report.failed) / static_cast<double>(report.attempted));
  report.notes.push_back(buf);

  if (!context.trace) {
    return report;
  }

  // In-process replays of the same prefix: daemon self time per line, then
  // coordinator time per round and rebuild.
  Tracer core_tracer(true);
  std::vector<std::string> core_transcript;
  {
    AlertdOptions daemon_options;
    daemon_options.platform = options.platform;
    daemon_options.total_power_budget = options.initial_budget;
    AlertdCore core(daemon_options);
    CoreLink link(core, conns, core_tracer);
    MuxChurnBackend backend(link, conns, 0.0, nullptr);
    PrefixBackend prefix(backend, log.calls, nullptr);
    core_transcript = RunChurnScript(script, prefix);
  }
  if (core_transcript != drive.transcript) {
    report.Fail("alertd_churn: in-process HandleLine replay differs from the live transcript");
  }
  if (Replay(script, log.calls, &core_tracer) != drive.transcript) {
    report.Fail("alertd_churn: traced offline replay differs from the live transcript");
  }

  // Per round: driver round time minus the daemon's own time on that round's lines.
  std::vector<double> self_ms(log.round_ms.size(), 0.0);
  for (const Span& span : core_tracer.spans()) {
    const std::string_view name = span.name;
    if ((name == "daemon.tick" || name == "daemon.fire") && span.request >= 0 &&
        static_cast<size_t>(span.request) < self_ms.size()) {
      self_ms[static_cast<size_t>(span.request)] += span.duration_us() / 1000.0;
    }
  }
  std::vector<double> wire_ms;
  for (size_t r = 0; r < log.round_ms.size(); ++r) {
    wire_ms.push_back(log.round_ms[r] - self_ms[r]);
  }
  const DaemonStats& stats = drive.stats;
  const double hits = static_cast<double>(stats.Get("cache_hits"));
  const double lookups = hits + static_cast<double>(stats.Get("cache_misses"));

  report.Add("net.exchange_us_p50", MedianOr0(log.tick_exchange_us), "us");
  report.Add("net.wire_wait_ms", Median(wire_ms), "ms");
  report.Add("daemon.tick_us", MedianOr0(core_tracer.Durations("daemon.tick")), "us");
  report.Add("daemon.fire_us", MedianOr0(core_tracer.Durations("daemon.fire")), "us");
  report.Add("core.round_us", MedianOr0(core_tracer.Durations("core.round")), "us");
  report.Add("daemon.membership_us", MedianOr0(core_tracer.Durations("daemon.membership")),
             "us");
  report.Add("core.rebuild_us", MedianOr0(core_tracer.Durations("core.rebuild")), "us");
  report.Add("daemon.belief_us", MedianOr0(core_tracer.Durations("daemon.belief")), "us");
  report.Add("daemon.reconfig_us", MedianOr0(core_tracer.Durations("daemon.reconfig")), "us");
  report.Add("daemon.rebuilds_per_churn_op",
             log.churn_ops > 0 ? static_cast<double>(stats.Get("rebuilds")) /
                                     static_cast<double>(log.churn_ops)
                               : 0.0,
             "count");
  report.Add("core.cache.hit_frac", lookups > 0.0 ? hits / lookups : 0.0, "fraction");
  report.Add("core.cache.insertions_per_round",
             static_cast<double>(stats.Get("cache_insertions")) / rounds, "count");
  report.Add("daemon.jobs_per_round", Mean(log.round_jobs), "count");
  report.Add("daemon.bytes_per_round", Mean(log.round_bytes), "bytes");
  report.Add("daemon.ring.dropped", static_cast<double>(stats.Get("ring_dropped")), "count");
  report.Add("daemon.admission_reject_frac",
             log.hellos > 0 ? static_cast<double>(log.admission_rejects) /
                                  static_cast<double>(log.hellos)
                            : 0.0,
             "fraction");

  std::snprintf(buf, sizeof(buf),
                "alertd_churn trace: median round %.3f ms = daemon self %.3f ms + wire wait "
                "%.3f ms (medians of per-round values); cache hits %.0f of %.0f lookups",
                round_ms_p50, Median(self_ms), Median(wire_ms), hits, lookups);
  report.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "alertd_churn trace: self time of net.round (barrier tick + decision "
                "reads, outside the non-barrier exchanges) median %.3f ms",
                Median(tracer.SelfTimes("net.round")) / 1000.0);
  report.notes.push_back(buf);
  const std::string path = context.work_dir + "/alertd_churn.spans.tsv";
  if (tracer.WriteTsv(path) && core_tracer.WriteTsv(context.work_dir + "/alertd_core.spans.tsv")) {
    report.notes.push_back("alertd_churn spans: " + path + ", " + context.work_dir +
                           "/alertd_core.spans.tsv");
  }
  return report;
}

}  // namespace perfbench
