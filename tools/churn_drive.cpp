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
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/serde.h"
#include "src/daemon/churn_sim.h"

using namespace alert;
using namespace alert::daemon;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s --mode=drive|replay --out=FILE [options]\n"
      "  --mode=M        drive (over TCP) or replay (offline oracle)\n"
      "  --out=FILE      write the transcript here, one reply line per line\n"
      "  --host=H        daemon host (drive mode, default 127.0.0.1)\n"
      "  --port=N        daemon port (drive mode)\n"
      "  --port-file=P   read the daemon port from this file (waits up to 10s)\n"
      "  --seed=N        churn script seed (default 1)\n"
      "  --tenants=K     tenant universe size (default 8)\n"
      "  --events=N      script length (default 64)\n"
      "  --budget=W      initial power budget (default 200)\n"
      "  --platform=NAME embedded|cpu1|cpu2|gpu (default cpu1)\n"
      "  --timeout-ms=N  per-reply read timeout in drive mode (default 10000)\n",
      argv0);
  std::exit(2);
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "churn_drive: %s\n", message.c_str());
  std::exit(1);
}

std::optional<std::string> ArgValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

// The daemon writes its port file after binding; give a freshly launched daemon a
// bounded window to get there.
int AwaitPortFile(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    std::string text;
    if (serde::ReadFile(path, &text) && !text.empty()) {
      const int port = std::atoi(text.c_str());
      if (port > 0) {
        return port;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Fail("port file '" + path + "' never appeared");
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::string out_path;
  std::string host = "127.0.0.1";
  std::string port_file;
  int port = 0;
  int timeout_ms = 10000;
  ChurnScriptOptions options;

  // Numbers are parsed strictly (whole token, finite) and range-checked here, so a
  // malformed value is a usage error instead of a silent 0 or an abort further in.
  auto bad = [&](const char* arg, const char* what) {
    std::fprintf(stderr, "churn_drive: %s: expected %s\n", arg, what);
    Usage(argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (auto v = ArgValue(arg, "--mode")) {
      mode = *v;
    } else if (auto v = ArgValue(arg, "--out")) {
      out_path = *v;
    } else if (auto v = ArgValue(arg, "--host")) {
      host = *v;
    } else if (auto v = ArgValue(arg, "--port")) {
      if (!serde::ParseInt(*v, &port) || port <= 0 || port > 65535) {
        bad(arg, "a TCP port in 1-65535");
      }
    } else if (auto v = ArgValue(arg, "--port-file")) {
      port_file = *v;
    } else if (auto v = ArgValue(arg, "--seed")) {
      if (!serde::ParseUint64(*v, &options.seed)) {
        bad(arg, "an unsigned integer");
      }
    } else if (auto v = ArgValue(arg, "--tenants")) {
      if (!serde::ParseInt(*v, &options.max_tenants) || options.max_tenants <= 0) {
        bad(arg, "an integer > 0");
      }
    } else if (auto v = ArgValue(arg, "--events")) {
      if (!serde::ParseInt(*v, &options.num_events) || options.num_events <= 0) {
        bad(arg, "an integer > 0");
      }
    } else if (auto v = ArgValue(arg, "--budget")) {
      if (!serde::ParseDouble(*v, &options.initial_budget) ||
          options.initial_budget <= 0.0) {
        bad(arg, "a finite number > 0");
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
    } else if (auto v = ArgValue(arg, "--timeout-ms")) {
      if (!serde::ParseInt(*v, &timeout_ms) || timeout_ms <= 0) {
        bad(arg, "an integer > 0");
      }
    } else {
      Usage(argv[0]);
    }
  }
  if (out_path.empty() || (mode != "drive" && mode != "replay")) {
    Usage(argv[0]);
  }

  const ChurnScript script = MakeChurnScript(options);
  std::vector<std::string> transcript;
  bool failed = false;

  if (mode == "drive") {
    if (!port_file.empty()) {
      port = AwaitPortFile(port_file);
    }
    if (port <= 0) {
      Fail("drive mode needs --port or --port-file");
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
               mode.c_str(), options.num_events, script.num_rounds, transcript.size(),
               failed ? " (TRANSPORT FAILURE)" : "");
  return failed ? 1 : 0;
}
