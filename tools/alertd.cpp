// alertd — the ALERT serving daemon.
//
// Listens on localhost, speaks the line-oriented control grammar documented in
// src/daemon/alertd.h (tenant-hello / goal-set / round-tick / belief-snapshot /
// belief-restore / tenant-bye / limit-set / stats), and routes every decision through
// one MultiJobCoordinator shared by all admitted tenants.  SIGTERM/SIGINT drain
// gracefully: in-flight rounds complete, the event log flushes, and the final record
// is `alertd-shutdown clean=1`.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "src/common/serde.h"
#include "src/daemon/alertd.h"

using namespace alert;
using namespace alert::daemon;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s [--port=N] [--port-file=PATH] [--budget=W] [--platform=NAME]\n"
      "          [--policy=proportional|slack] [--log=PATH]\n"
      "  --port=N        listen port, 0-65535 (default 0 = ephemeral)\n"
      "  --port-file=PATH  write the bound port here once listening\n"
      "  --budget=W      total power budget in watts, finite and > 0 (default 100)\n"
      "  --platform=NAME embedded|cpu1|cpu2|gpu (default cpu1)\n"
      "  --policy=NAME   budget split policy (default proportional)\n"
      "  --log=PATH      event log file (serde records, default: none)\n",
      argv0);
  std::exit(2);
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "alertd: %s\n", message.c_str());
  std::exit(1);
}

std::optional<std::string> ArgValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  AlertdOptions options;
  std::string port_file;

  // Numbers are parsed strictly (whole token, finite) and range-checked here: a
  // malformed value is a usage error (exit 2), not a failed run (exit 1).
  const auto bad_flag = [&](const char* flag, const char* what, const std::string& v) {
    std::fprintf(stderr, "alertd: %s must be %s, got '%s'\n", flag, what, v.c_str());
    Usage(argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (auto v = ArgValue(arg, "--port")) {
      if (!serde::ParseInt(*v, &options.port) || options.port < 0 ||
          options.port > 65535) {
        bad_flag("--port", "an integer in 0-65535", *v);
      }
    } else if (auto v = ArgValue(arg, "--port-file")) {
      port_file = *v;
    } else if (auto v = ArgValue(arg, "--budget")) {
      // ParseDouble refuses nan and inf, which would poison the budget split.
      if (!serde::ParseDouble(*v, &options.total_power_budget) ||
          options.total_power_budget <= 0.0) {
        bad_flag("--budget", "a finite number > 0", *v);
      }
    } else if (auto v = ArgValue(arg, "--platform")) {
      if (*v == "embedded") {
        options.platform = PlatformId::kEmbedded;
      } else if (*v == "cpu1") {
        options.platform = PlatformId::kCpu1;
      } else if (*v == "cpu2") {
        options.platform = PlatformId::kCpu2;
      } else if (*v == "gpu") {
        options.platform = PlatformId::kGpu;
      } else {
        Fail("unknown platform '" + *v + "'");
      }
    } else if (auto v = ArgValue(arg, "--policy")) {
      if (*v == "proportional") {
        options.policy = AllocationPolicy::kProportional;
      } else if (*v == "slack") {
        options.policy = AllocationPolicy::kSlackRecycling;
      } else {
        Fail("unknown policy '" + *v + "'");
      }
    } else if (auto v = ArgValue(arg, "--log")) {
      options.event_log_path = *v;
    } else {
      Usage(argv[0]);
    }
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  Alertd daemon(options);
  serde::Status status = daemon.Start();
  if (!status) {
    Fail(status.message);
  }
  std::fprintf(stderr, "alertd: listening on 127.0.0.1:%d\n", daemon.port());
  if (!port_file.empty()) {
    status = serde::WriteFile(port_file, std::to_string(daemon.port()) + "\n");
    if (!status) {
      Fail(status.message);
    }
  }

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::fprintf(stderr, "alertd: draining\n");
  daemon.Stop();
  daemon.Join();
  const AlertdStats stats = daemon.stats();
  std::fprintf(stderr, "alertd: %s\n",
               FormatStatsLine(stats, options.event_ring_capacity).c_str());
  return 0;
}
