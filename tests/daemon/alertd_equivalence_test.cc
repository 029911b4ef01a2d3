// The churn-equivalence lockdown: a live alertd (real TCP, real sessions, real
// reconnects) driven through a seeded churn script must produce a transcript
// byte-identical to the offline replay of the same script against a bare
// MultiJobCoordinator.  Any divergence — admission verdicts, goal reconfiguration,
// belief transplant across reconnects, budget changes, decision bytes — fails here.
// Live and replay share the coordinator, so a change to it moves both sides at once;
// the golden transcripts pin the replay itself across commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/serde.h"
#include "src/daemon/alertd.h"
#include "src/daemon/churn_sim.h"

namespace alert::daemon {
namespace {

struct EquivalenceResult {
  AlertdStats stats;
  int num_reconnect_events = 0;
};

void RunEquivalence(ChurnScriptOptions options, EquivalenceResult* result) {
  const Watts budget = options.initial_budget;
  const ChurnScript script = MakeChurnScript(options);
  for (const ChurnEvent& event : script.events) {
    if (event.kind == ChurnEvent::Kind::kReconnect) {
      ++result->num_reconnect_events;
    }
  }

  AlertdOptions daemon_options;
  daemon_options.total_power_budget = budget;
  Alertd daemon(daemon_options);
  const serde::Status started = daemon.Start();
  ASSERT_TRUE(static_cast<bool>(started)) << started.message;

  ChurnDriverBackend driver("127.0.0.1", daemon.port(), /*read_timeout_ms=*/30000);
  const std::vector<std::string> live = RunChurnScript(script, driver);
  EXPECT_FALSE(driver.failed());
  daemon.Stop();
  daemon.Join();
  result->stats = daemon.stats();

  ChurnReplayBackend replay(script);
  const std::vector<std::string> offline = RunChurnScript(script, replay);

  ASSERT_EQ(live.size(), offline.size());
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(live[i], offline[i]) << "transcript line " << i << " diverged";
  }
  // The script must have actually exercised the decision plane.
  EXPECT_GT(result->stats.rounds, 0u);
  EXPECT_GT(result->stats.decisions, 0u);
}

TEST(AlertdEquivalenceTest, ChurnK4MatchesOfflineReplayByteForByte) {
  ChurnScriptOptions options;
  options.seed = 3;
  options.max_tenants = 4;
  options.num_events = 72;
  options.initial_budget = 120.0;
  EquivalenceResult result;
  RunEquivalence(options, &result);
  // Reconnect coverage: beliefs crossed the wire and were restored bit-exactly.
  EXPECT_GT(result.num_reconnect_events, 0);
  EXPECT_GT(result.stats.restores, 0u);
}

TEST(AlertdEquivalenceTest, ChurnK32MatchesOfflineReplayByteForByte) {
  ChurnScriptOptions options;
  options.seed = 5;
  options.max_tenants = 32;
  options.num_events = 96;
  options.initial_budget = 600.0;
  EquivalenceResult result;
  RunEquivalence(options, &result);
  EXPECT_GT(result.stats.restores, 0u);
  EXPECT_GT(result.stats.admitted, 12u);
}

TEST(AlertdEquivalenceTest, ChurnK128MatchesOfflineReplayByteForByte) {
  ChurnScriptOptions options;
  options.seed = 9;
  options.max_tenants = 128;
  options.num_events = 220;
  // Arrival-heavy mix so membership actually climbs into the dozens; the budget is
  // tight enough at that scale that admission rejections join the equivalence.
  options.churn_prob = 0.5;
  options.arrive_weight = 0.6;
  options.depart_weight = 0.05;
  options.initial_budget = 1200.0;
  EquivalenceResult result;
  RunEquivalence(options, &result);
  EXPECT_GT(result.stats.admitted, 32u);
  EXPECT_GT(result.stats.restores, 0u);
}

// The replay of a committed script must reproduce, byte for byte, the transcript
// `churn_drive --mode=replay` wrote for it when the golden file was generated.
void ExpectReplayMatchesGolden(ChurnScriptOptions options, const std::string& name) {
  std::string golden;
  const serde::Status read =
      serde::ReadFile(std::string(ALERT_TESTDATA_DIR) + "/" + name, &golden);
  ASSERT_TRUE(static_cast<bool>(read)) << read.message;

  const ChurnScript script = MakeChurnScript(options);
  ChurnReplayBackend replay(script);
  std::string text;
  for (const std::string& line : RunChurnScript(script, replay)) {
    text += line;
    text += '\n';
  }
  const auto at =
      std::mismatch(text.begin(), text.end(), golden.begin(), golden.end()).first;
  EXPECT_TRUE(text == golden)
      << name << " diverged from the golden transcript at line "
      << 1 + std::count(text.begin(), at, '\n');
}

TEST(AlertdEquivalenceTest, ReplayOfSeed13K8MatchesGoldenTranscript) {
  ChurnScriptOptions options;
  options.seed = 13;
  options.max_tenants = 8;
  options.num_events = 128;
  options.initial_budget = 200.0;
  ExpectReplayMatchesGolden(options, "churn_s13_k8_e128.golden");
}

TEST(AlertdEquivalenceTest, ReplayOfSeed13K64MatchesGoldenTranscript) {
  ChurnScriptOptions options;
  options.seed = 13;
  options.max_tenants = 64;
  options.num_events = 400;
  options.initial_budget = 2000.0;
  ExpectReplayMatchesGolden(options, "churn_s13_k64_e400.golden");
}

}  // namespace
}  // namespace alert::daemon
