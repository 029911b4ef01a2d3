// Self-tests of the benchmark's own arithmetic: the percentile rule, span self time,
// the churn driver's decision demultiplexer, and the /proc VmHWM reader.  run.py runs
// this binary before every measurement; any failure stops the benchmark.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/churn_mux.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // descending, so the helpers must sort
  }
  return v;
}

void TestPercentileRule() {
  // p99 needs 1000 samples for ten to lie beyond its rank.
  Check(TailPercentile(1000) == 99, "n=1000 -> p99");
  Check(TailPercentile(999) == 98, "n=999 -> p98");
  Check(TailPercentile(500) == 98, "n=500 -> p98");
  Check(TailPercentile(230) == 95, "n=230 -> p95");
  Check(TailPercentile(20) == 50, "n=20 -> p50 (p51 already leaves only 9 beyond)");
  Check(TailPercentile(10) == 50, "n=10 -> no tail, median stands in");
  Check(TailPercentile(0) == 50, "n=0 -> median stand-in");
  const Tail tail = TailOf(Ramp(1000));
  Check(tail.percentile == 99 && Near(tail.value, 990.0) && tail.samples == 1000,
        "TailOf(1..1000) = p99 -> 990 with 1000 samples");
  const Tail short_tail = TailOf(Ramp(230));
  Check(short_tail.percentile == 95 && Near(short_tail.value, 219.0),
        "TailOf(1..230) = p95 -> 219 (11 samples beyond)");
  Check(Near(Median(Ramp(5)), 3.0), "median of 1..5 is 3");
  Check(Near(Median(Ramp(4)), 2.0), "nearest-rank median of 1..4 is 2");
  Check(Near(Percentile(Ramp(100), 100), 100.0), "p100 is the max");
}

void TestSelfTime() {
  Span parent{"p", 0.0, 100.0, -1, 0};
  Check(Near(SelfTimeUs(parent, {}), 100.0), "childless span is all self time");
  Check(Near(SelfTimeUs(parent, {{10, 20}, {30, 50}}), 70.0), "disjoint children");
  Check(Near(SelfTimeUs(parent, {{30, 50}, {10, 40}}), 60.0),
        "overlapping children are merged, in any order");
  Check(Near(SelfTimeUs(parent, {{-5, 10}, {90, 120}}), 80.0),
        "children are clipped to the parent");
  Check(Near(SelfTimeUs(parent, {{0, 100}, {20, 30}}), 0.0), "fully covered parent");

  Tracer tracer(true);
  const auto t0 = Clock::now();
  const int root = tracer.Add("root", t0, t0 + std::chrono::microseconds(100), -1, 7);
  tracer.Add("leaf", t0 + std::chrono::microseconds(10), t0 + std::chrono::microseconds(40),
             root, 7);
  tracer.Add("leaf", t0 + std::chrono::microseconds(50), t0 + std::chrono::microseconds(60),
             root, 7);
  const std::vector<double> self = tracer.SelfTimes("root");
  Check(self.size() == 1 && std::fabs(self[0] - 60.0) < 1e-3, "tracer self time 100-30-10");
  Check(tracer.Durations("leaf").size() == 2, "durations by name");

  Tracer nested(true);
  const int outer = nested.Begin("outer", 1);
  const int inner = nested.Begin("inner", 1);
  nested.End(inner);
  nested.End(outer);
  Check(nested.spans()[1].parent == outer, "Begin nests under the open span");
  Tracer off(false);
  Check(off.Begin("x", 0) == -1 && off.spans().empty(), "disabled tracer records nothing");
}

void TestDemux() {
  const std::vector<std::string> members = {"t3", "t0", "t7", "t4"};
  // Decisions as two connections deliver them: conn 0 owns t0, t4; conn 3 owns t3, t7.
  const std::vector<std::string> lines = {
      "decision tenant=t0 round=2 input=1",
      "decision tenant=t4 round=2 input=0",
      "decision tenant=t3 round=2 input=5",
      "decision tenant=t7 round=2 input=2",
  };
  std::vector<std::string> ordered;
  Check(OrderByTenant(members, lines, &ordered), "demux accepts a full set");
  Check(ordered.size() == 4 && ordered[0] == lines[2] && ordered[1] == lines[0] &&
            ordered[2] == lines[3] && ordered[3] == lines[1],
        "demux restores member order");
  std::vector<std::string> dup = lines;
  dup[1] = "decision tenant=t0 round=2 input=1";
  Check(!OrderByTenant(members, dup, &ordered), "demux rejects a duplicate tenant");
  std::vector<std::string> stranger = lines;
  stranger[3] = "decision tenant=t9 round=2 input=2";
  Check(!OrderByTenant(members, stranger, &ordered), "demux rejects a non-member");
  Check(!OrderByTenant(members, {lines[0], lines[1], lines[2]}, &ordered),
        "demux rejects a missing decision");
  std::vector<std::string> garbage = lines;
  garbage[0] = "decision round=2";
  Check(!OrderByTenant(members, garbage, &ordered), "demux rejects a line without tenant=");
}

void TestVmHwm() {
  const std::string status =
      "Name:\talertd\nVmPeak:\t  123456 kB\nVmHWM:\t    20480 kB\nVmRSS:\t   10240 kB\n";
  Check(ParseVmHwmKb(status) == 20480, "VmHWM parsed from a status text");
  Check(!ParseVmHwmKb("Name:\tx\nVmRSS:\t 5 kB\n").has_value(), "no VmHWM line -> nullopt");
  Check(!ParseVmHwmKb("VmHWM:\t kB\n").has_value(), "VmHWM without digits -> nullopt");
  Check(ParseVmHwmKb("VmHWM:\t7 kB") == 7, "last line without newline");
  const std::optional<double> own = ReadVmHwmMb(static_cast<int>(getpid()));
  Check(own.has_value() && *own > 0.0, "own VmHWM readable from /proc");
  Check(!ReadVmHwmMb(-1).has_value(), "unreadable pid -> nullopt");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestDemux();
  TestVmHwm();
  if (g_failures > 0) {
    std::printf("perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
