#include "src/harness/sweep_cache.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/harness/sweep_io.h"

namespace alert {
namespace {

constexpr int kFormatVersion = 1;

// (task, platform, contention, mode, seed, grid_index): one constraint setting.
using SettingKey = std::tuple<int, int, int, int, uint64_t, int>;

SettingKey SettingKeyOf(const SweepUnit& unit) {
  return SettingKey{static_cast<int>(unit.cell.task),
                    static_cast<int>(unit.cell.platform),
                    static_cast<int>(unit.cell.contention),
                    static_cast<int>(unit.cell.mode), unit.seed, unit.grid_index};
}

}  // namespace

std::string_view SweepCacheModeName(SweepCacheMode mode) {
  switch (mode) {
    case SweepCacheMode::kOff:
      return "off";
    case SweepCacheMode::kRead:
      return "read";
    case SweepCacheMode::kReadWrite:
      return "readwrite";
  }
  return "?";
}

uint64_t SweepUnitFingerprint(const SweepSpec& spec, const SweepUnit& unit) {
  // A canonical record of everything the unit's execution reads — and nothing
  // positional.  The unit id and the surrounding plan are deliberately absent; the
  // shared spec knobs are deliberately present (they parameterize the Experiment).
  // Field order is fixed, doubles use the exact %.17g round-trip format, so equal
  // content always hashes equally across processes and spec edits.
  serde::RecordWriter w("unit-content");
  w.Field("v", kFormatVersion)
      .Field("task", static_cast<int>(unit.cell.task))
      .Field("platform", static_cast<int>(unit.cell.platform))
      .Field("contention", static_cast<int>(unit.cell.contention))
      .Field("mode", static_cast<int>(unit.cell.mode))
      .Field("seed", unit.seed)
      .Field("grid", unit.grid_index)
      .Field("kind", static_cast<int>(unit.kind));
  if (unit.kind == SweepUnitKind::kScheme) {
    w.Field("scheme", static_cast<int>(unit.scheme));
  }
  w.Field("num_inputs", unit.num_inputs)
      .Field("contention_scale", spec.contention_scale)
      .Field("profile_noise_sigma", spec.profile_noise_sigma);
  if (spec.contention_window.has_value()) {
    w.Field("window_start", spec.contention_window->first)
        .Field("window_end", spec.contention_window->second);
  }
  return serde::Fnv1a64(w.line());
}

serde::Status SweepResultCache::Open(const std::string& path, SweepCacheMode mode,
                                     SweepResultCache* out) {
  ALERT_CHECK(mode != SweepCacheMode::kOff);
  *out = SweepResultCache();
  out->mode_ = mode;
  out->path_ = path;

  std::string text;
  const serde::Status read = serde::ReadFile(path, &text);
  if (!read) {
    // Only a genuinely absent file is a cold (empty) cache.  A file that exists but
    // cannot be read — permissions, a directory squatting on the path — must fail
    // loudly: silently cold-starting would re-execute a whole sweep (read mode) or
    // clobber the existing cache on Save (readwrite mode).
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) && !ec) {
      return serde::Ok();
    }
    *out = SweepResultCache();
    return serde::Wrap("cache '" + path + "'", read);
  }

  const std::vector<std::string_view> lines = serde::DataLines(text);
  if (lines.empty()) {
    return serde::Error("cache '" + path + "': empty file (missing header)");
  }
  serde::RecordReader reader;
  serde::Status s = serde::RecordReader::Parse(lines.front(), &reader);
  if (s) {
    s = reader.ExpectTag("sweep-cache");
  }
  int version = 0;
  if (s) {
    s = reader.Get("v", &version);
  }
  if (s) {
    s = reader.ExpectAllConsumed();
  }
  if (s && version != kFormatVersion) {
    s = serde::Error("unsupported cache version " + std::to_string(version));
  }
  bool saw_end = false;
  for (size_t i = 1; s && i < lines.size(); ++i) {
    if (saw_end) {
      s = serde::Error("content after 'end'");
      break;
    }
    if (lines[i] == "end") {
      saw_end = true;
      continue;
    }
    s = serde::RecordReader::Parse(lines[i], &reader);
    if (s) {
      s = reader.ExpectTag("entry");
    }
    uint64_t fp = 0;
    Entry entry;
    if (s) {
      s = reader.Get("fp", &fp);
    }
    if (s) {
      s = reader.Get("plan", &entry.plan_fingerprint);
    }
    if (s) {
      s = reader.Get("skipped", &entry.skipped);
    }
    if (s) {
      s = reader.Get("usable", &entry.usable);
    }
    if (s) {
      s = reader.Get("metric", &entry.metric);
    }
    if (s) {
      s = reader.ExpectAllConsumed();
    }
    if (s && !out->entries_.emplace(fp, entry).second) {
      s = serde::Error("duplicate entry for fingerprint " + std::to_string(fp));
    }
  }
  if (s && !saw_end) {
    s = serde::Error("missing 'end' line (truncated file?)");
  }
  if (!s) {
    *out = SweepResultCache();  // leave the caller with an unusable (off) cache
    return serde::Wrap("cache '" + path + "'", s);
  }
  return serde::Ok();
}

bool SweepResultCache::Lookup(uint64_t fingerprint, SweepUnitResult* out) const {
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    return false;
  }
  out->unit_id = -1;
  out->skipped = it->second.skipped;
  out->usable = it->second.usable;
  out->metric = it->second.metric;
  return true;
}

serde::Status SweepResultCache::Record(uint64_t fingerprint, uint64_t plan_fingerprint,
                                       const SweepUnitResult& result) {
  if (mode_ != SweepCacheMode::kReadWrite) {
    return serde::Ok();
  }
  const auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    const Entry& have = it->second;
    if (have.skipped != result.skipped || have.usable != result.usable ||
        have.metric != result.metric) {
      return serde::Error(
          "conflicting result for cached fingerprint " + std::to_string(fingerprint) +
          ": cached {skipped=" + std::to_string(have.skipped) +
          " usable=" + std::to_string(have.usable) +
          " metric=" + serde::FormatDouble(have.metric) + "} vs fresh {skipped=" +
          std::to_string(result.skipped) + " usable=" + std::to_string(result.usable) +
          " metric=" + serde::FormatDouble(result.metric) + "}");
    }
    return serde::Ok();  // identical re-record is a no-op
  }
  Entry entry;
  entry.plan_fingerprint = plan_fingerprint;
  entry.skipped = result.skipped;
  entry.usable = result.usable;
  entry.metric = result.metric;
  entries_.emplace(fingerprint, entry);
  ++newly_recorded_;
  return serde::Ok();
}

serde::Status SweepResultCache::Save() const {
  if (mode_ != SweepCacheMode::kReadWrite) {
    return serde::Ok();
  }
  std::string text;
  text += "# sweep unit-result cache (fingerprint -> result; see sweep_cache.h)\n";
  text += serde::RecordWriter("sweep-cache").Field("v", kFormatVersion).line();
  text += '\n';
  for (const auto& [fp, entry] : entries_) {
    serde::RecordWriter w("entry");
    w.Field("fp", fp)
        .Field("plan", entry.plan_fingerprint)
        .Field("skipped", entry.skipped)
        .Field("usable", entry.usable)
        .Field("metric", entry.metric);
    text += w.line();
    text += '\n';
  }
  text += "end\n";
  return serde::WriteFile(path_, text);
}

serde::Status ResolveSweepCacheMode(const std::string& cache_dir,
                                    std::optional<SweepCacheMode> flag,
                                    SweepCacheMode* out) {
  *out = flag.value_or(cache_dir.empty() ? SweepCacheMode::kOff
                                         : SweepCacheMode::kReadWrite);
  if (*out != SweepCacheMode::kOff && cache_dir.empty()) {
    return serde::Error("--cache=" + std::string(SweepCacheModeName(*out)) +
                        " needs --cache-dir");
  }
  return serde::Ok();
}

serde::Status OpenSweepResultCacheDir(const std::string& dir, SweepCacheMode mode,
                                      SweepResultCache* out) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; Open/Save report
  return SweepResultCache::Open(dir + "/units.cache", mode, out);
}

serde::Status WriteSweepCacheStats(const std::string& path,
                                   const SweepCacheRunStats& stats) {
  serde::RecordWriter w("cache-stats");
  w.Field("hits", static_cast<uint64_t>(stats.hits))
      .Field("synthesized", static_cast<uint64_t>(stats.synthesized))
      .Field("executed", static_cast<uint64_t>(stats.executed))
      .Field("recorded", static_cast<uint64_t>(stats.recorded));
  return serde::WriteFile(path, w.line() + "\n");
}

void SweepCachePreseed(const SweepPlan& plan, std::span<const SweepUnit> units,
                       const SweepResultCache& cache,
                       std::vector<SweepUnitResult>* delivered,
                       std::vector<SweepUnit>* remaining,
                       SweepCacheRunStats* stats) {
  SweepCacheRunStats local_stats;
  SweepCacheRunStats& st = stats != nullptr ? *stats : local_stats;

  // The plan carries exactly one static-oracle unit per setting; a scheme unit's
  // skip synthesis consults that unit's cached result, whether or not the static
  // unit itself is part of `units` (shards may split a setting).
  std::map<SettingKey, const SweepUnit*> static_units;
  for (const SweepUnit& unit : plan.units) {
    if (unit.kind == SweepUnitKind::kStaticOracle) {
      static_units.emplace(SettingKeyOf(unit), &unit);
    }
  }

  for (const SweepUnit& unit : units) {
    ALERT_CHECK(unit.id >= 0 && static_cast<size_t>(unit.id) < plan.units.size());
    ALERT_CHECK(unit == plan.units[static_cast<size_t>(unit.id)]);
    SweepUnitResult result;
    if (cache.Lookup(SweepUnitFingerprint(plan.spec, unit), &result)) {
      result.unit_id = unit.id;
      delivered->push_back(result);
      ++st.hits;
      continue;
    }
    if (unit.kind == SweepUnitKind::kScheme) {
      const auto it = static_units.find(SettingKeyOf(unit));
      SweepUnitResult static_result;
      if (it != static_units.end() &&
          cache.Lookup(SweepUnitFingerprint(plan.spec, *it->second), &static_result) &&
          !static_result.usable) {
        // Known-infeasible setting: a cold monolithic run records this scheme unit
        // as skipped without executing it; deliver exactly that.
        result = SweepUnitResult{};
        result.unit_id = unit.id;
        result.skipped = true;
        delivered->push_back(result);
        ++st.synthesized;
        continue;
      }
    }
    remaining->push_back(unit);
  }
}

std::vector<SweepUnitResult> RunSweepUnitsCached(const SweepPlan& plan,
                                                 std::span<const SweepUnit> units,
                                                 const SweepRunOptions& options,
                                                 SweepResultCache* cache,
                                                 SweepCacheRunStats* stats) {
  SweepCacheRunStats local_stats;
  SweepCacheRunStats& st = stats != nullptr ? *stats : local_stats;
  if (cache == nullptr || cache->mode() == SweepCacheMode::kOff) {
    st.executed += units.size();
    return RunSweepUnits(plan, units, options);
  }

  std::vector<SweepUnitResult> delivered;
  std::vector<SweepUnit> remaining;
  SweepCachePreseed(plan, units, *cache, &delivered, &remaining, &st);

  const std::vector<SweepUnitResult> fresh = RunSweepUnits(plan, remaining, options);
  st.executed += remaining.size();

  if (cache->mode() == SweepCacheMode::kReadWrite) {
    const uint64_t plan_fp = PlanFingerprint(plan);
    const size_t before = cache->newly_recorded();
    const auto record = [&](const SweepUnitResult& result) {
      const SweepUnit& unit = plan.units[static_cast<size_t>(result.unit_id)];
      const serde::Status s =
          cache->Record(SweepUnitFingerprint(plan.spec, unit), plan_fp, result);
      if (!s) {
        // A conflicting re-record means the determinism contract is broken (or two
        // distinct units collided in one fingerprint) — results computed from such a
        // cache cannot be trusted.
        std::fprintf(stderr, "RunSweepUnitsCached: %s\n", s.message.c_str());
        ALERT_CHECK(s.ok);
      }
    };
    for (const SweepUnitResult& result : fresh) {
      record(result);
    }
    for (const SweepUnitResult& result : delivered) {
      record(result);  // synthesized skips persist; plain hits re-record as no-ops
    }
    st.recorded += cache->newly_recorded() - before;
  }

  // Stitch the RunSweepUnits contract back together: one result per unit, in the
  // order of `units`.
  std::unordered_map<int, const SweepUnitResult*> by_id;
  by_id.reserve(delivered.size() + fresh.size());
  for (const SweepUnitResult& result : delivered) {
    by_id.emplace(result.unit_id, &result);
  }
  for (const SweepUnitResult& result : fresh) {
    by_id.emplace(result.unit_id, &result);
  }
  std::vector<SweepUnitResult> results;
  results.reserve(units.size());
  for (const SweepUnit& unit : units) {
    const auto it = by_id.find(unit.id);
    ALERT_CHECK(it != by_id.end());
    results.push_back(*it->second);
  }
  return results;
}

}  // namespace alert
