// churn_drive — seeded churn load generator and offline oracle for alertd.
//
// Both modes regenerate the identical ChurnScript from (seed, tenants, events,
// budget, platform) — MakeChurnScript is a pure function of its options — so a drive
// process and a replay process agree on every event without sharing state:
//
//   churn_drive --mode=drive  --port-file=P ... --out=live.txt    # over TCP
//   churn_drive --mode=replay ...            --out=offline.txt    # in-process
//
// The two transcripts must be byte-identical (cmake/alertd_e2e.cmake diffs them).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/serde.h"
#include "src/daemon/churn_sim.h"

using namespace alert;
using namespace alert::daemon;

namespace {

enum class Mode { kDrive, kReplay };

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "churn_drive: %s\n", message.c_str());
  std::exit(1);
}

// The daemon writes its port file after binding; give a freshly launched daemon a
// bounded window to get there.
int AwaitPortFile(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    std::string text;
    int port = 0;
    if (serde::ReadFile(path, &text)) {
      text.erase(text.find_last_not_of(" \t\r\n") + 1);  // npos + 1 == 0: all blank
      if (serde::ParseInt(text, &port) && port > 0) {
        return port;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Fail("port file '" + path + "' never appeared");
}

}  // namespace

int main(int argc, char** argv) {
  Mode mode = Mode::kDrive;
  std::string out_path;
  std::string host = "127.0.0.1";
  std::string port_file;
  int port = 0;
  int timeout_ms = 10000;
  ChurnScriptOptions options;
  constexpr std::pair<std::string_view, Mode> kModes[] = {{"drive", Mode::kDrive},
                                                          {"replay", Mode::kReplay}};
  flags::Parser cli(
      "churn_drive", "--mode=drive|replay --out=FILE [options]",
      {flags::Choice("--mode=M", &mode, kModes,
                     "drive (a live daemon over TCP) or replay (the offline oracle)")
           .Required(),
       flags::String("--out=FILE", &out_path,
                     "write the transcript here, one reply line per line")
           .Required(),
       flags::String("--host=H", &host, "daemon host (drive mode)"),
       flags::Int("--port=N", &port, 1, 65535, "daemon port (drive mode)"),
       flags::String("--port-file=P", &port_file,
                     "read the daemon port from this file (waits up to 10 s)"),
       flags::Int("--seed=N", &options.seed, 0, "churn script seed"),
       flags::Int("--tenants=K", &options.max_tenants, 1, "tenant universe size"),
       flags::Int("--events=N", &options.num_events, 1, "script length"),
       flags::Double("--budget=W", &options.initial_budget, 0.0, flags::kUnbounded,
                     "initial power budget in watts", flags::Bound::kExclusive),
       flags::Choice("--platform=NAME", &options.platform, kPlatformTokens,
                     "hardware platform of every tenant"),
       flags::Int("--timeout-ms=N", &timeout_ms, 1, "per-reply read timeout (drive)")});
  cli.Parse(argc, argv);
  if (mode == Mode::kDrive && port == 0 && port_file.empty()) {
    cli.Fail("drive mode needs --port or --port-file");
  }

  const ChurnScript script = MakeChurnScript(options);
  std::vector<std::string> transcript;
  bool failed = false;

  if (mode == Mode::kDrive) {
    if (!port_file.empty()) {
      port = AwaitPortFile(port_file);
    }
    ChurnDriverBackend backend(host, port, timeout_ms);
    transcript = RunChurnScript(script, backend);
    failed = backend.failed();
  } else {
    ChurnReplayBackend backend(script);
    transcript = RunChurnScript(script, backend);
  }

  std::string text;
  for (const std::string& line : transcript) {
    text += line;
    text += '\n';
  }
  const serde::Status status = serde::WriteFile(out_path, text);
  if (!status) {
    Fail(status.message);
  }
  std::fprintf(stderr, "churn_drive: %s mode, %d events, %d rounds, %zu reply lines%s\n",
               mode == Mode::kDrive ? "drive" : "replay", options.num_events,
               script.num_rounds, transcript.size(),
               failed ? " (TRANSPORT FAILURE)" : "");
  return failed ? 1 : 0;
}
