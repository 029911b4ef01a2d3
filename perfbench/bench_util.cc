#include "perfbench/bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

// --- percentiles -------------------------------------------------------------------

// Integer ceil(p * n / 100): floating point would put p99 of 1000 at rank 991.
size_t NearestRank(size_t n, int p) {
  const size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

double Percentile(std::vector<double> samples, int p) {
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(const std::vector<double>& samples) { return Percentile(samples, 50); }

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

int TailPercentile(size_t n, int cap, size_t min_beyond) {
  for (int p = cap; p > 50; --p) {
    if (n > 0 && n - NearestRank(n, p) >= min_beyond) {
      return p;
    }
  }
  return 50;
}

Tail TailOf(const std::vector<double>& samples, int cap, size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = TailPercentile(samples.size(), cap, min_beyond);
  tail.value = Percentile(samples, tail.percentile);
  return tail;
}

// --- spans -------------------------------------------------------------------------

double Tracer::Us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

int Tracer::Begin(const char* name, int64_t request) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = Us(Clock::now());
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_us = Us(Clock::now());
  // Spans close innermost-first; tolerate an out-of-order close by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

int Tracer::Add(const char* name, Clock::time_point start, Clock::time_point end,
                int parent, int64_t request) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{name, Us(start), Us(end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(span.duration_us());
    }
  }
  return out;
}

double SelfTimeUs(const Span& parent, std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = parent.start_us;
  for (auto [start, end] : children) {
    start = std::max(start, cursor);
    end = std::min(end, parent.end_us);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return parent.duration_us() - covered;
}

std::vector<double> Tracer::SelfTimes(std::string_view name) const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_us, span.end_us);
    }
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(SelfTimeUs(spans_[i], std::move(children[i])));
    }
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tname\tparent\trequest\tstart_us\tend_us\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "%zu\t%s\t%d\t%lld\t%.3f\t%.3f\n", i, s.name, s.parent,
                  static_cast<long long>(s.request), s.start_us, s.end_us);
    out << buf;
  }
  return static_cast<bool>(out);
}

// --- memory ------------------------------------------------------------------------

std::optional<int64_t> ParseVmHwmKb(std::string_view status_text) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t pos = 0;
  while (pos < status_text.size()) {
    size_t eol = status_text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = status_text.size();
    }
    const std::string_view line = status_text.substr(pos, eol - pos);
    if (line.substr(0, kKey.size()) == kKey) {
      int64_t kb = 0;
      bool any = false;
      for (char c : line.substr(kKey.size())) {
        if (c >= '0' && c <= '9') {
          kb = kb * 10 + (c - '0');
          any = true;
        } else if (any) {
          break;
        }
      }
      if (any) {
        return kb;
      }
      return std::nullopt;
    }
    pos = eol + 1;
  }
  return std::nullopt;
}

std::optional<double> ReadVmHwmMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  if (!in) {
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<int64_t> kb = ParseVmHwmKb(text.str());
  if (!kb) {
    return std::nullopt;
  }
  return static_cast<double>(*kb) / 1024.0;
}

double MaxRssMb(bool children) {
  rusage usage{};
  getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports kB
}

// --- report ------------------------------------------------------------------------

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::AddLatency(const std::string& name, const std::vector<double>& samples,
                        const std::string& unit) {
  if (samples.empty()) {
    Fail(name + ": no samples");
    return;
  }
  const Tail tail = TailOf(samples);
  Add(name + "_p50", Median(samples), unit);
  Add(name + "_p99", tail.value, unit);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: p50 %.4g %s, p99 -> p%d %.4g %s, %zu samples",
                name.c_str(), Median(samples), unit.c_str(), tail.percentile, tail.value,
                unit.c_str(), tail.samples);
  notes.push_back(buf);
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

}  // namespace perfbench
