// Persistent per-unit result cache: incremental sweep re-runs.
//
// Every sweep unit is a pure function of its *content* — the cell, seed, grid index,
// kind/scheme, and the spec-shared experiment knobs — so its result can be reused
// across runs, and even across *plans*: editing a spec reshuffles unit ids and the
// plan fingerprint, but an unchanged unit keeps its content fingerprint and its
// cached result stays valid.  That is what makes re-runs incremental: after a
// one-cell spec edit, only the changed cell's units execute; everything else is
// delivered from the cache, and the merged CSV is byte-identical to a cold
// monolithic run of the edited spec.
//
//   SweepUnitFingerprint — FNV-1a over a canonical record of the unit's content
//       (never the unit id, never the plan), plus the spec knobs execution depends
//       on (contention scale/window, profile noise).
//   SweepResultCache     — the on-disk map fingerprint -> (skipped, usable, metric),
//       persisted in the src/common/serde.h grammar (strict parse; a malformed
//       cache file is a loud error, not a silent cold start).  Modes: kRead uses
//       entries but never writes; kReadWrite also records fresh results and saves.
//       Each entry carries the fingerprint of the plan that first produced it —
//       provenance only, never consulted on lookup.
//   SweepCachePreseed    — resolves a unit list against the cache: cache hits and
//       synthesized skips become deliverable results, the rest remain to execute.
//   RunSweepUnitsCached  — RunSweepUnits with the cache in front: preseed, execute
//       the remainder, record (readwrite), return results in unit order.
//
// Skip synthesis: when the cache knows a setting's static oracle is infeasible, the
// setting's scheme units are synthesized as `skipped` without executing — exactly
// what a cold monolithic run records for them (the merge plane drops such settings
// wholesale either way).  This is safe because a scheme unit and its setting's
// static unit share every content field, so a stale static entry can never pair
// with a fresh scheme unit.
//
// The dispatcher consumes the same machinery through
// DispatchOptions::preseeded_results: cache hits enter the SweepMergeAccumulator as
// first-class deliveries before any worker launches, and their unit ids are never
// assigned (see docs/DISTRIBUTED.md for the operator workflow).
#ifndef SRC_HARNESS_SWEEP_CACHE_H_
#define SRC_HARNESS_SWEEP_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/serde.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

namespace alert {

enum class SweepCacheMode : int {
  kOff = 0,
  kRead = 1,       // deliver cached results; never write the cache file
  kReadWrite = 2,  // also record fresh results and save
};

// Stable lowercase token ("off" / "read" / "readwrite"); the CLI flag vocabulary.
std::string_view SweepCacheModeName(SweepCacheMode mode);

// Content fingerprint of one unit (see the header comment): position-independent,
// spec-edit-stable.  `unit` must carry the same shared knobs as `spec` (true for any
// unit out of BuildSweepPlan(spec)).
uint64_t SweepUnitFingerprint(const SweepSpec& spec, const SweepUnit& unit);

class SweepResultCache {
 public:
  // An unopened cache behaves as kOff: lookups miss, Record/Save are no-ops.
  SweepResultCache() = default;

  // Binds the cache to `path` and loads it if the file exists (a missing file is an
  // empty cache; a malformed one is an error).  `mode` must not be kOff.
  static serde::Status Open(const std::string& path, SweepCacheMode mode,
                            SweepResultCache* out);

  SweepCacheMode mode() const { return mode_; }
  const std::string& path() const { return path_; }
  size_t size() const { return entries_.size(); }
  // Entries added by Record since Open (what Save will newly persist).
  size_t newly_recorded() const { return newly_recorded_; }

  // True (filling *out's skipped/usable/metric; unit_id is set to -1) when the
  // fingerprint has an entry.
  bool Lookup(uint64_t fingerprint, SweepUnitResult* out) const;

  // Records one result (readwrite mode only; a no-op otherwise).  Re-recording an
  // identical payload is a no-op; a *conflicting* payload is an error — units are
  // deterministic, so disagreement means a corrupted cache or a fingerprint
  // collision, both worth failing loudly on.
  serde::Status Record(uint64_t fingerprint, uint64_t plan_fingerprint,
                       const SweepUnitResult& result);

  // Writes the cache file (readwrite mode; a no-op in read mode).  Entries are
  // written sorted by fingerprint, so equal caches serialize byte-identically.
  serde::Status Save() const;

 private:
  struct Entry {
    uint64_t plan_fingerprint = 0;  // provenance: the plan that first produced it
    bool skipped = false;
    bool usable = false;
    double metric = 0.0;
  };

  SweepCacheMode mode_ = SweepCacheMode::kOff;
  std::string path_;
  std::map<uint64_t, Entry> entries_;  // ordered => deterministic serialization
  size_t newly_recorded_ = 0;
};

struct SweepCacheRunStats {
  size_t hits = 0;         // units delivered straight from the cache
  size_t synthesized = 0;  // scheme units skipped via a cached infeasible static
  size_t executed = 0;     // units actually run
  size_t recorded = 0;     // entries newly written to the cache (readwrite)
};

// --- CLI plumbing shared by sweep_shard and sweep_dispatch --------------------------

// Resolves the --cache-dir/--cache flag pair: no dir => kOff, a dir defaults to
// kReadWrite, an explicit --cache value overrides; a non-off mode without a dir is
// an error.  `flag` is the parsed --cache value (nullopt when it was not given).
serde::Status ResolveSweepCacheMode(const std::string& cache_dir,
                                    std::optional<SweepCacheMode> flag,
                                    SweepCacheMode* out);

// Creates `dir` if needed and opens `dir`/units.cache in `mode` (which must not be
// kOff).
serde::Status OpenSweepResultCacheDir(const std::string& dir, SweepCacheMode mode,
                                      SweepResultCache* out);

// Writes the one-record machine-readable stats file behind --cache-stats:
// `cache-stats hits=… synthesized=… executed=… recorded=…`.
serde::Status WriteSweepCacheStats(const std::string& path,
                                   const SweepCacheRunStats& stats);

// Resolves `units` (a subset of plan.units) against the cache: cache hits and
// synthesized skips are appended to `delivered` (unit ids set, same relative order
// as `units`), everything else to `remaining`.  Pure lookup — never executes or
// records.  With an unopened/off cache every unit lands in `remaining`.
void SweepCachePreseed(const SweepPlan& plan, std::span<const SweepUnit> units,
                       const SweepResultCache& cache,
                       std::vector<SweepUnitResult>* delivered,
                       std::vector<SweepUnit>* remaining,
                       SweepCacheRunStats* stats = nullptr);

// RunSweepUnits with the cache in front: preseeds, executes only `remaining`,
// records fresh (and synthesized) results in readwrite mode, and returns one result
// per unit in the order of `units` — the RunSweepUnits contract, so callers cannot
// tell a cached delivery from an executed one except through `stats`.  Does NOT
// call cache->Save(); callers save once at the end of the run.
std::vector<SweepUnitResult> RunSweepUnitsCached(const SweepPlan& plan,
                                                 std::span<const SweepUnit> units,
                                                 const SweepRunOptions& options,
                                                 SweepResultCache* cache,
                                                 SweepCacheRunStats* stats = nullptr);

}  // namespace alert

#endif  // SRC_HARNESS_SWEEP_CACHE_H_
