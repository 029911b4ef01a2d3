// Perf-trajectory gate: compares a freshly generated BENCH_*.json report against
// the committed baseline in bench/trajectory/ and fails loudly on regression.
//
// Only the `derived` metrics are compared — they are ratios (speedups, hit rates)
// that cancel machine speed out, so a laptop, a CI runner and the committed
// baseline are comparable.  Absolute ns/op values in `cases` are informational.
//
// Checks, in order:
//   1. Every derived metric present in the BASELINE must exist in the current
//      report and satisfy current >= baseline * (1 - threshold).  Exception: when
//      the current report's context says simd_active == false (scalar-only build or
//      machine), baseline metrics whose name contains "simd" are skipped — the
//      scalar build is first-class and must not be gated on vector speedups.
//   2. The baseline may carry {"gates": {"min": {metric: floor}}} — hard floors
//      (e.g. the tentpole "vectorized ScoreAll >= 2x scalar") enforced on the
//      current value regardless of the baseline value, with the same simd_active
//      skip rule.
//
// Usage:
//   bench_check --baseline=bench/trajectory/BENCH_decision_engine.json
//               --current=build/BENCH_decision_engine.json [--threshold=0.35]
// The threshold (fractional allowed drop, default 0.35 — generous because CI
// machines are noisy neighbors) can also come from the BENCH_MAX_REGRESSION
// environment variable; the flag wins.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/common/serde.h"

namespace {

namespace flags = alert::flags;

alert::JsonValue LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  alert::JsonValue doc = alert::JsonValue::Parse(buffer.str(), &error);
  if (doc.is_null()) {
    std::fprintf(stderr, "bench_check: %s: parse error: %s\n", path.c_str(),
                 error.c_str());
    std::exit(2);
  }
  return doc;
}

bool IsSimdMetric(const std::string& name) {
  return name.find("simd") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  // Both threshold sources parse strictly, through the same table entry: a NaN
  // threshold would make every floor NaN, no comparison could fail, and the gate
  // would pass everything.
  double threshold = 0.35;
  flags::Flag threshold_flag = flags::Double(
      "--threshold=F", &threshold, 0.0, 1.0,
      "fractional allowed drop per derived metric; the\n"
      "BENCH_MAX_REGRESSION environment variable sets it\n"
      "too, and the flag wins",
      flags::Bound::kExclusive, flags::Bound::kExclusive);
  if (const char* env = std::getenv("BENCH_MAX_REGRESSION");
      env != nullptr && !threshold_flag.set(env)) {
    std::fprintf(stderr, "bench_check: BENCH_MAX_REGRESSION: expected %s, got '%s'\n",
                 threshold_flag.expect.c_str(), env);
    return 2;
  }
  flags::Parser("bench_check", "--baseline=FILE --current=FILE [--threshold=F]",
                {flags::String("--baseline=FILE", &baseline_path,
                               "the committed report in bench/trajectory/")
                     .Required(),
                 flags::String("--current=FILE", &current_path, "the fresh report")
                     .Required(),
                 std::move(threshold_flag)})
      .Parse(argc, argv);

  const alert::JsonValue baseline = LoadJson(baseline_path);
  const alert::JsonValue current = LoadJson(current_path);
  const bool simd_active = current.at("context").at("simd_active").bool_or(false);
  const alert::JsonValue& base_derived = baseline.at("derived");
  const alert::JsonValue& cur_derived = current.at("derived");
  if (!base_derived.is_object()) {
    std::fprintf(stderr, "bench_check: %s has no derived metrics\n",
                 baseline_path.c_str());
    return 2;
  }

  std::printf("bench_check: %s vs %s (threshold %.0f%%, simd_active=%s)\n",
              current_path.c_str(), baseline_path.c_str(), 100.0 * threshold,
              simd_active ? "true" : "false");
  int failures = 0;
  // Metrics the gate actually compared.  A baseline whose derived/gates sections
  // name nothing the current report has would otherwise "pass" without checking a
  // single number — and a gate that can pass vacuously protects nothing.
  int compared = 0;
  int skipped = 0;

  for (const auto& [name, base_value] : base_derived.members()) {
    if (!base_value.is_number()) {
      continue;
    }
    if (!simd_active && IsSimdMetric(name)) {
      std::printf("  SKIP  %-44s (simd inactive)\n", name.c_str());
      ++skipped;
      continue;
    }
    const alert::JsonValue* cur = cur_derived.Find(name);
    if (cur == nullptr || !cur->is_number()) {
      std::printf("  FAIL  %-44s missing from current report\n", name.c_str());
      ++failures;
      continue;
    }
    ++compared;
    const double floor = base_value.number_value() * (1.0 - threshold);
    if (cur->number_value() < floor) {
      std::printf(
          "  FAIL  %-44s %8.3f < %8.3f (baseline %.3f - %.0f%%)  "
          "PERF REGRESSION\n",
          name.c_str(), cur->number_value(), floor, base_value.number_value(),
          100.0 * threshold);
      ++failures;
    } else {
      std::printf("  ok    %-44s %8.3f (baseline %.3f)\n", name.c_str(),
                  cur->number_value(), base_value.number_value());
    }
  }

  const alert::JsonValue& min_gates = baseline.at("gates").at("min");
  for (const auto& [name, gate] : min_gates.members()) {
    if (!gate.is_number()) {
      continue;
    }
    if (!simd_active && IsSimdMetric(name)) {
      std::printf("  SKIP  gate %-39s (simd inactive)\n", name.c_str());
      ++skipped;
      continue;
    }
    const alert::JsonValue* cur = cur_derived.Find(name);
    if (cur == nullptr || !cur->is_number()) {
      std::printf("  FAIL  gate %-39s missing from current report\n", name.c_str());
      ++failures;
      continue;
    }
    ++compared;
    if (cur->number_value() < gate.number_value()) {
      std::printf("  FAIL  gate %-39s %8.3f < floor %.3f  PERF REGRESSION\n",
                  name.c_str(), cur->number_value(), gate.number_value());
      ++failures;
    } else {
      std::printf("  ok    gate %-39s %8.3f >= floor %.3f\n", name.c_str(),
                  cur->number_value(), gate.number_value());
    }
  }

  if (failures > 0) {
    std::printf("bench_check: %d PERF REGRESSION(S) — see above\n", failures);
    return 1;
  }
  if (compared == 0) {
    // Distinct from a regression (1) and indistinguishable from a broken setup:
    // a baseline with no numeric metrics, or one whose every metric was skipped.
    std::fprintf(stderr,
                 "bench_check: VACUOUS GATE — %s names no comparable metric "
                 "(%d compared, %d skipped); the gate checked nothing\n",
                 baseline_path.c_str(), compared, skipped);
    return 2;
  }
  std::printf("bench_check: all %d metric(s) within trajectory (%d skipped)\n",
              compared, skipped);
  return 0;
}
