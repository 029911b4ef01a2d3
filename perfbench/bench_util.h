// Measurement plumbing shared by the perfbench workloads: the percentile rule, the
// in-memory span tracer, peak-memory readers, and the report every workload returns.
// Nothing here touches the program under test.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- percentiles -------------------------------------------------------------------

// 1-based nearest rank of percentile p (0 < p <= 100) among n samples.
size_t NearestRank(size_t n, int p);
// Nearest-rank percentile `p` of `samples` (any order; copied).  Requires a
// non-empty sample.
double Percentile(std::vector<double> samples, int p);
double Median(const std::vector<double>& samples);
double Mean(const std::vector<double>& samples);

// The tail rule: the highest integer percentile p <= `cap` whose nearest-rank
// position leaves at least `min_beyond` samples above it.  With too few samples
// for any such p the median stands in (percentile reported as 50).
struct Tail {
  int percentile = 50;
  double value = 0.0;
  size_t samples = 0;
};
int TailPercentile(size_t n, int cap = 99, size_t min_beyond = 10);
Tail TailOf(const std::vector<double>& samples, int cap = 99, size_t min_beyond = 10);

// --- spans -------------------------------------------------------------------------

// One timed call: name, start/end (µs since the tracer's origin), the enclosing span
// (-1 at top level), and a request id (input index, round number, lease seq).
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int64_t request = -1;

  double duration_us() const { return end_us - start_us; }
};

// Keeps spans in memory; WriteTsv dumps them when the run ends.  Single-threaded.
// A disabled tracer records nothing and Begin returns -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // Opens a span whose parent is the innermost open span.
  int Begin(const char* name, int64_t request);
  void End(int id);
  // Records an already-finished interval under an explicit parent.
  int Add(const char* name, Clock::time_point start, Clock::time_point end, int parent,
          int64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (µs) of every span called `name`, in record order.
  std::vector<double> Durations(std::string_view name) const;
  // Self time (µs) of every span called `name`: duration minus the part of it the
  // span's children cover (overlapping children are merged, not double-counted).
  std::vector<double> SelfTimes(std::string_view name) const;
  bool WriteTsv(const std::string& path) const;

 private:
  double Us(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of `parent` given its children's [start, end) intervals (any order,
// possibly overlapping, possibly reaching outside the parent).
double SelfTimeUs(const Span& parent, std::vector<std::pair<double, double>> children);

// RAII span; no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- memory ------------------------------------------------------------------------

// The `VmHWM:` line of a /proc/<pid>/status text, in kB.
std::optional<int64_t> ParseVmHwmKb(std::string_view status_text);
// Peak resident set of a live process, in MB (nullopt when unreadable).
std::optional<double> ReadVmHwmMb(int pid);
// getrusage ru_maxrss in MB, of this process (children = false) or of its reaped
// descendants (children = true).
double MaxRssMb(bool children);

// --- report ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload phase hands back to main: correctness, request accounting, the
// metrics it measured, and human-readable lines printed ahead of the JSON result.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Adds "<name>_p50" and "<name>_p99" (tail rule) plus a note with sample counts.
  void AddLatency(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit);
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  const Metric* Find(std::string_view name) const;
};

std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
