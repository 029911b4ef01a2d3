// Shared micro-benchmark harness of the bench/ suite: warmup, iteration
// calibration to a minimum per-rep wall time, median-of-N reps, a fixed-width
// table on stdout and a machine-readable BENCH_<suite>.json for the
// perf-trajectory gate (tools/bench_check.cpp diffs the `derived` metrics
// against the committed baseline in bench/trajectory/).
//
// Usage:
//   alert::bench::Harness h("decision_engine", argc, argv);
//   const double scalar_ns = h.RunCase("score_all_scalar_1760", [&] { ... });
//   const double simd_ns   = h.RunCase("score_all_simd_1760", [&] { ... });
//   h.Derive("score_all_simd_speedup_1760", scalar_ns / simd_ns);
//   h.Context("simd_active", engine.simd_active());
//   return h.Finish();
//
// Flags (parsed by src/common/flags.h, so a malformed value exits 2):
// --json=PATH (write the JSON report), --reps=N (1..1000, default 7),
// --min-time-ms=MS (>= 1, default 100: each rep runs enough iterations to take at
// least this long).  Absolute ns/op values are machine-dependent; the trajectory
// gate compares only the `derived` ratios, which are stable across hosts.
#ifndef BENCH_BENCH_HARNESS_H_
#define BENCH_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json.h"

namespace alert::bench {

// Defeats dead-code elimination of a benchmarked computation's result.
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

class Harness {
 public:
  Harness(std::string suite, int argc, char** argv) : suite_(std::move(suite)) {
    flags::Parser(
        "bench_" + suite_, "[--json=FILE] [--reps=N] [--min-time-ms=MS]",
        {flags::String("--json=FILE", &json_path_, "write the JSON report here"),
         flags::Int("--reps=N", &reps_, 1, 1000,
                    "timed reps per case; the median is reported"),
         flags::Double("--min-time-ms=MS", &min_time_ms_, 1.0, flags::kUnbounded,
                       "minimum wall time of one rep")})
        .Parse(argc, argv);
    std::printf("%-44s %14s %10s %6s\n", "case", "ns/op", "iters", "reps");
  }

  // Times `fn` (one logical operation per call): one warmup call, iteration count
  // calibrated so a rep takes >= min-time-ms, then `reps` reps.  Records and
  // returns the median ns/op.
  template <typename Fn>
  double RunCase(const std::string& name, Fn&& fn) {
    fn();  // warmup: page in code and data, build memo tables
    std::int64_t iters = 1;
    for (;;) {
      const double elapsed_ns = TimeReps(fn, iters);
      if (elapsed_ns >= min_time_ms_ * 1e6) {
        break;
      }
      // Grow toward the target with a 1.5x safety margin, at least doubling.
      const double target = min_time_ms_ * 1e6 * 1.5;
      const std::int64_t grown = elapsed_ns > 0.0
          ? static_cast<std::int64_t>(static_cast<double>(iters) * target / elapsed_ns)
          : iters * 2;
      iters = std::max(iters * 2, grown);
    }
    std::vector<double> per_op(static_cast<size_t>(reps_));
    for (int r = 0; r < reps_; ++r) {
      per_op[static_cast<size_t>(r)] =
          TimeReps(fn, iters) / static_cast<double>(iters);
    }
    std::sort(per_op.begin(), per_op.end());
    const double median = per_op[per_op.size() / 2];
    cases_.push_back(Case{name, median, iters});
    std::printf("%-44s %14.2f %10lld %6d\n", name.c_str(), median,
                static_cast<long long>(iters), reps_);
    std::fflush(stdout);
    return median;
  }

  // Records a derived (machine-stable) metric — a speedup ratio, a hit rate.  These
  // are what the trajectory gate compares.
  void Derive(const std::string& name, double value) {
    derived_.emplace_back(name, value);
    std::printf("%-44s %14.3f  (derived)\n", name.c_str(), value);
    std::fflush(stdout);
  }

  // Records report context (backend name, space size, build flags).
  void Context(const std::string& key, const std::string& value) {
    context_.Set(key, JsonValue::String(value));
  }
  void Context(const std::string& key, bool value) {
    context_.Set(key, JsonValue::Bool(value));
  }
  void Context(const std::string& key, double value) {
    context_.Set(key, JsonValue::Number(value));
  }

  // Writes the JSON report when --json= was given.  Returns the process exit code.
  int Finish() {
    if (json_path_.empty()) {
      return 0;
    }
    JsonValue cases = JsonValue::Array();
    for (const Case& c : cases_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(c.name));
      entry.Set("ns_per_op", JsonValue::Number(c.ns_per_op));
      entry.Set("iters", JsonValue::Number(static_cast<double>(c.iters)));
      cases.Append(std::move(entry));
    }
    JsonValue derived = JsonValue::Object();
    for (const auto& [name, value] : derived_) {
      derived.Set(name, JsonValue::Number(value));
    }
    JsonValue report = JsonValue::Object();
    report.Set("suite", JsonValue::String(suite_));
    report.Set("context", context_.is_null() ? JsonValue::Object() : context_);
    report.Set("reps", JsonValue::Number(reps_));
    report.Set("min_time_ms", JsonValue::Number(min_time_ms_));
    report.Set("cases", std::move(cases));
    report.Set("derived", std::move(derived));
    std::ofstream out(json_path_);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
      return 1;
    }
    out << report.Dump(2);
    std::printf("wrote %s\n", json_path_.c_str());
    return out.good() ? 0 : 1;
  }

 private:
  struct Case {
    std::string name;
    double ns_per_op = 0.0;
    std::int64_t iters = 0;
  };

  template <typename Fn>
  static double TimeReps(Fn&& fn, std::int64_t iters) {
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
      fn();
    }
    const auto end = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  }

  std::string suite_;
  std::string json_path_;
  int reps_ = 7;
  double min_time_ms_ = 100.0;
  std::vector<Case> cases_;
  std::vector<std::pair<std::string, double>> derived_;
  JsonValue context_;
};

}  // namespace alert::bench

#endif  // BENCH_BENCH_HARNESS_H_
