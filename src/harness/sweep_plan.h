// Sharded constraint-grid sweep plans (the Table 4 evaluation at scale-out).
//
// The paper's headline numbers average every cell over the 36-setting Table 3
// constraint grid — thousands of independent (cell, setting, scheme) experiment runs.
// This module turns that implicit nested loop into an explicit, deterministic *plan*:
//
//   SweepSpec  — declarative description of the sweep (cells x schemes x seeds x grid
//                subset, plus the experiment knobs every unit shares);
//   SweepUnit  — one serializable work item: either a static-oracle search or a single
//                scheme run for one constraint setting.  A unit is a pure function of
//                its fields (traces and profiles are regenerated from ids + seed), so
//                any process that can see the spec can execute any unit;
//   BuildSweepPlan — the single enumeration point: a stably-ordered unit list whose
//                ids are positions.  Everything downstream — the in-process sweep,
//                the sweep_shard/sweep_merge CLIs, the merge plane — works off this
//                order, which is what makes K-shard merges byte-identical to the
//                monolithic sweep;
//   PartitionPlan — splits the plan into K disjoint shards, round-robin or
//                cost-weighted (LPT over a deterministic per-unit cost model).
//
// Execution and aggregation live in sweep_runner.h; text serialization in sweep_io.h;
// the remote shard dispatcher that pushes partitions to workers is dispatch.h.
#ifndef SRC_HARNESS_SWEEP_PLAN_H_
#define SRC_HARNESS_SWEEP_PLAN_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/serde.h"
#include "src/core/goals.h"
#include "src/harness/schemes.h"

namespace alert {

// One (task, platform, contention, goal-mode) evaluation cell.
struct SweepCellSpec {
  TaskId task = TaskId::kImageClassification;
  PlatformId platform = PlatformId::kCpu1;
  ContentionType contention = ContentionType::kNone;
  GoalMode mode = GoalMode::kMinimizeEnergy;

  friend bool operator==(const SweepCellSpec&, const SweepCellSpec&) = default;
};

// Declarative description of a whole sweep.  The unit list is the cross-product
// cells x seeds x grid settings x (static oracle + schemes), in exactly that nesting
// order.
struct SweepSpec {
  std::vector<SweepCellSpec> cells;
  std::vector<SchemeId> schemes;
  std::vector<uint64_t> seeds = {1};
  int num_inputs = 300;
  // Table 3 grid settings to evaluate, as indices into BuildConstraintGrid's output;
  // empty means the full 36-setting grid.  BuildSweepPlan canonicalizes (sorts,
  // dedupes) the subset.
  std::vector<int> grid_indices;
  // Experiment knobs shared by every unit (see ExperimentOptions).
  double contention_scale = 1.0;
  double profile_noise_sigma = 0.0;
  std::optional<std::pair<int, int>> contention_window;

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

enum class SweepUnitKind : int {
  kStaticOracle = 0,  // exhaustive best-static-configuration search for one setting
  kScheme = 1,        // one scheme run over the trace for one setting
};

// One serializable work item.  `grid_index` indexes the *full* BuildConstraintGrid
// output for the unit's (mode, task, platform), so a unit is meaningful independent of
// any grid subset the spec selected.
struct SweepUnit {
  int id = -1;  // position in the plan's unit list
  SweepCellSpec cell;
  uint64_t seed = 1;
  int grid_index = 0;
  SweepUnitKind kind = SweepUnitKind::kScheme;
  SchemeId scheme = SchemeId::kAlert;  // meaningful only when kind == kScheme
  int num_inputs = 300;

  friend bool operator==(const SweepUnit&, const SweepUnit&) = default;
};

// Outcome of one unit.  For static-oracle units `usable` means the oracle found an
// admissible configuration; for scheme units it means the run stayed within the
// 10%-of-inputs violation allowance.  `metric` (the cell's GoalMode metric) is
// meaningful only when `usable`.  `skipped` marks scheme units that were not executed
// because the same run already knew the setting's static oracle was infeasible — the
// merge plane drops those settings wholesale, so a skipped unit never changes the
// aggregate.
struct SweepUnitResult {
  int unit_id = -1;
  bool skipped = false;
  bool usable = false;
  double metric = 0.0;

  friend bool operator==(const SweepUnitResult&, const SweepUnitResult&) = default;
};

struct SweepPlan {
  SweepSpec spec;                 // with grid_indices canonicalized
  std::vector<int> grid_indices;  // resolved: spec subset, or 0..35 when empty
  std::vector<SweepUnit> units;   // stable order; units[i].id == i
};

// Validates a spec without running anything: non-empty cells/schemes/seeds, positive
// num_inputs, duplicate-free cells and schemes, grid indices within the actual grid of
// every cell.  Pure; returns a diagnostic Status, never aborts — the CLIs and the
// dispatch worker call this so a bad spec file (or a corrupted one off the wire) is
// an error message, not a crash.
serde::Status ValidateSweepSpec(const SweepSpec& spec);

// Streaming view of a spec's unit enumeration: the same cells x seeds x grid x
// (static oracle + schemes) cross-product BuildSweepPlan materializes, but computed
// unit-by-unit so a dispatcher scheduling a million-unit plan never holds the unit
// list in memory.  `UnitAt(id)` is O(1) random access by plan id (pure index
// arithmetic over the cross-product); `Next` is the sequential cursor form.
// BuildSweepPlan is implemented on top of this class, so the two can never drift:
// stream position i IS plan.units[i], field for field.
//
// The spec must validate (ALERT_CHECKed, like BuildSweepPlan; callers with
// untrusted input run ValidateSweepSpec first).  The spec is copied and
// canonicalized (grid subset sorted + deduped); the stream borrows nothing.
class SweepUnitStream {
 public:
  explicit SweepUnitStream(const SweepSpec& spec);

  // The canonicalized spec and the resolved grid subset (0..N-1 when the spec's
  // subset was empty) — identical to the SweepPlan fields of the same names.
  const SweepSpec& spec() const { return spec_; }
  const std::vector<int>& grid_indices() const { return grid_indices_; }

  int size() const { return num_units_; }

  // The unit at plan id `id` (0 <= id < size(); ALERT_CHECKed).
  SweepUnit UnitAt(int id) const;

  // Sequential enumeration in plan order; false once exhausted.
  bool Next(SweepUnit* out);
  void Reset() { cursor_ = 0; }

 private:
  SweepSpec spec_;
  std::vector<int> grid_indices_;
  int units_per_setting_ = 0;  // 1 static oracle + schemes
  int num_units_ = 0;
  int cursor_ = 0;
};

// The single enumeration point.  Deterministic: equal specs produce equal plans
// (same unit order, ids = positions) in every process, on every platform — the
// foundation of the shard/merge and dispatch byte-identity guarantees.  The spec
// must validate (ALERT_CHECKed; callers with untrusted input run ValidateSweepSpec
// first).  Returns an owned value; the plan borrows nothing.  Materializes a
// SweepUnitStream — use the stream directly when the unit list itself is not needed.
SweepPlan BuildSweepPlan(const SweepSpec& spec);

// A unit's replay row: its (cell, seed) and the deadline row of its grid setting —
// (task, platform, contention, mode, seed, deadline row).  The settings of one row
// share a deadline, so their static-oracle searches replay the trace identically:
// RunSweepUnits runs them as one FindStaticOracles call, and the dispatcher closes
// warm leases on row boundaries so one worker holds the whole row.  Rows compare in
// plan order within a cell and seed.
using SweepReplayRow = std::tuple<int, int, int, int, uint64_t, int>;
SweepReplayRow ReplayRowOf(const SweepUnit& unit);

// Deterministic relative cost of a unit, used by cost-weighted partitioning: inputs
// processed x configurations scanned per input.  A static-oracle unit replays the
// trace once per configuration; an ALERT/Oracle-style scheme scores every
// configuration per input; fixed-candidate baselines scan far less.  Pure function
// of the unit's fields; no profiling or execution happens here.
double SweepUnitCost(const SweepUnit& unit);

enum class ShardStrategy : int {
  kRoundRobin = 0,    // unit i -> shard i mod K; even counts, uneven cost
  kCostWeighted = 1,  // LPT greedy over SweepUnitCost; near-even cost
};

// Stable lowercase token for a strategy ("round-robin" / "cost-weighted"); the CLI
// flag vocabulary uses it.
std::string_view ShardStrategyName(ShardStrategy strategy);

// Splits the plan into `num_shards` (> 0; checked) disjoint, exhaustive shards:
// every unit appears in exactly one shard.  Deterministic for a given (plan, K,
// strategy) — every process computes the identical partition, so shard i means the
// same units everywhere.  Each shard's units stay in plan (id) order; shards may be
// empty when num_shards exceeds the unit count.  Units are copied out (shards do not
// borrow from the plan).
std::vector<std::vector<SweepUnit>> PartitionPlan(const SweepPlan& plan, int num_shards,
                                                  ShardStrategy strategy);

}  // namespace alert

#endif  // SRC_HARNESS_SWEEP_PLAN_H_
