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
#include <string>
#include <thread>

#include "src/common/flags.h"
#include "src/common/serde.h"
#include "src/daemon/alertd.h"

using namespace alert;
using namespace alert::daemon;

namespace {

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "alertd: %s\n", message.c_str());
  std::exit(1);
}

std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  AlertdOptions options;
  std::string port_file;
  constexpr std::pair<std::string_view, AllocationPolicy> kPolicies[] = {
      {"proportional", AllocationPolicy::kProportional},
      {"slack", AllocationPolicy::kSlackRecycling}};
  flags::Parser(
      "alertd", "[options]",
      {flags::Int("--port=N", &options.port, 0, 65535,
                  "listen port (0 = ephemeral); fails if the port is taken"),
       flags::String("--port-file=PATH", &port_file,
                     "write the bound port here once listening"),
       flags::Double("--budget=W", &options.total_power_budget, 0.0, flags::kUnbounded,
                     "total power budget in watts", flags::Bound::kExclusive),
       flags::Choice("--platform=NAME", &options.platform, kPlatformTokens,
                     "hardware platform of every tenant"),
       flags::Choice("--policy=NAME", &options.policy, kPolicies, "budget split policy"),
       flags::String("--log=PATH", &options.event_log_path,
                     "structured event log (default: events counted only)")})
      .Parse(argc, argv);

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
