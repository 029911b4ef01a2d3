#include "src/harness/sweep_plan.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>

#include "src/common/check.h"
#include "src/dnn/zoo.h"
#include "src/harness/constraint_grid.h"
#include "src/sim/platform.h"

namespace alert {
namespace {

bool InRange(int value, int limit) { return value >= 0 && value < limit; }

// Configurations in the (task, choice, platform) space, without building a simulator:
// candidates (traditional models count one, anytime models one per stage) times the
// platform's power settings.  Memoized — partitioning calls this once per unit.
int NumConfigurations(TaskId task, DnnSetChoice choice, PlatformId platform) {
  using Key = std::tuple<int, int, int>;
  static std::mutex mutex;
  static std::map<Key, int>* cache = new std::map<Key, int>();
  const Key key{static_cast<int>(task), static_cast<int>(choice),
                static_cast<int>(platform)};
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache->find(key);
    if (it != cache->end()) {
      return it->second;
    }
  }
  int candidates = 0;
  for (const DnnModel& model : BuildEvaluationSet(task, choice)) {
    candidates += model.is_anytime() ? static_cast<int>(model.anytime_stages.size()) : 1;
  }
  const int powers = static_cast<int>(GetPlatform(platform).PowerSettings().size());
  const int configs = candidates * powers;
  const std::lock_guard<std::mutex> lock(mutex);
  (*cache)[key] = configs;
  return configs;
}

}  // namespace

serde::Status ValidateSweepSpec(const SweepSpec& spec) {
  if (spec.cells.empty()) {
    return serde::Error("spec has no cells");
  }
  if (spec.schemes.empty()) {
    return serde::Error("spec has no schemes");
  }
  if (spec.seeds.empty()) {
    return serde::Error("spec has no seeds");
  }
  if (spec.num_inputs <= 0) {
    return serde::Error("num_inputs must be positive");
  }
  for (const SweepCellSpec& cell : spec.cells) {
    if (!InRange(static_cast<int>(cell.task), 3) ||
        cell.task == TaskId::kQuestionAnswering) {
      return serde::Error("cell task has no evaluation family");
    }
    if (!InRange(static_cast<int>(cell.platform), kNumPlatforms)) {
      return serde::Error("cell platform out of range");
    }
    if (!InRange(static_cast<int>(cell.contention), 3)) {
      return serde::Error("cell contention out of range");
    }
    if (!InRange(static_cast<int>(cell.mode), 3)) {
      return serde::Error("cell mode out of range");
    }
    if (std::count(spec.cells.begin(), spec.cells.end(), cell) != 1) {
      return serde::Error("duplicate cell in spec");
    }
  }
  for (const SchemeId scheme : spec.schemes) {
    if (!InRange(static_cast<int>(scheme), kNumSchemeIds)) {
      return serde::Error("scheme id out of range");
    }
    if (std::count(spec.schemes.begin(), spec.schemes.end(), scheme) != 1) {
      return serde::Error("duplicate scheme in spec");
    }
  }
  for (const uint64_t seed : spec.seeds) {
    if (std::count(spec.seeds.begin(), spec.seeds.end(), seed) != 1) {
      return serde::Error("duplicate seed in spec");
    }
  }
  for (const SweepCellSpec& cell : spec.cells) {
    // Guard before touching BuildConstraintGrid / the simulator: both ALERT_CHECK
    // platform support, and a bad spec file must stay a diagnostic, not an abort.
    for (const DnnModel& model : BuildEvaluationSet(cell.task, DnnSetChoice::kBoth)) {
      if (!model.SupportsPlatform(cell.platform)) {
        return serde::Error("model '" + model.name + "' of task " +
                            std::string(TaskName(cell.task)) + " cannot run on " +
                            std::string(PlatformName(cell.platform)));
      }
    }
    const std::vector<Goals> grid =
        BuildConstraintGrid(cell.mode, cell.task, cell.platform);
    // Schedulers ALERT_CHECK their goals, so a mode whose grid cannot state a valid
    // goal (min-latency has no accuracy goal in the Table 3 grid) is refused here.
    for (const Goals& goals : grid) {
      if (!goals.Valid()) {
        return serde::Error("cell mode " + std::string(GoalModeName(cell.mode)) +
                            " has no valid goals in the constraint grid");
      }
    }
    const size_t grid_size = grid.size();
    for (const int gi : spec.grid_indices) {
      if (gi < 0 || static_cast<size_t>(gi) >= grid_size) {
        return serde::Error("grid index " + std::to_string(gi) + " outside the " +
                            std::to_string(grid_size) + "-setting grid");
      }
    }
  }
  return serde::Ok();
}

SweepUnitStream::SweepUnitStream(const SweepSpec& spec) : spec_(spec) {
  const serde::Status valid = ValidateSweepSpec(spec);
  if (!valid) {
    std::fprintf(stderr, "SweepUnitStream: %s\n", valid.message.c_str());
    ALERT_CHECK(valid.ok);
  }
  std::sort(spec_.grid_indices.begin(), spec_.grid_indices.end());
  spec_.grid_indices.erase(
      std::unique(spec_.grid_indices.begin(), spec_.grid_indices.end()),
      spec_.grid_indices.end());

  if (spec_.grid_indices.empty()) {
    // Every cell's grid has the same shape (6 x 6); validated above.
    const size_t grid_size = BuildConstraintGrid(spec.cells[0].mode, spec.cells[0].task,
                                                 spec.cells[0].platform)
                                 .size();
    grid_indices_.resize(grid_size);
    std::iota(grid_indices_.begin(), grid_indices_.end(), 0);
  } else {
    grid_indices_ = spec_.grid_indices;
  }

  units_per_setting_ = 1 + static_cast<int>(spec_.schemes.size());
  num_units_ = static_cast<int>(spec_.cells.size()) *
               static_cast<int>(spec_.seeds.size()) *
               static_cast<int>(grid_indices_.size()) * units_per_setting_;
}

SweepUnit SweepUnitStream::UnitAt(int id) const {
  ALERT_CHECK(id >= 0 && id < num_units_);
  // Decompose the plan id along the enumeration nesting: cells (outermost) x seeds x
  // grid settings x (static oracle first, then schemes in spec order).
  const int within_setting = id % units_per_setting_;
  int setting = id / units_per_setting_;
  const int grid_pos = setting % static_cast<int>(grid_indices_.size());
  setting /= static_cast<int>(grid_indices_.size());
  const int seed_pos = setting % static_cast<int>(spec_.seeds.size());
  const int cell_pos = setting / static_cast<int>(spec_.seeds.size());

  SweepUnit unit;
  unit.id = id;
  unit.cell = spec_.cells[static_cast<size_t>(cell_pos)];
  unit.seed = spec_.seeds[static_cast<size_t>(seed_pos)];
  unit.grid_index = grid_indices_[static_cast<size_t>(grid_pos)];
  unit.num_inputs = spec_.num_inputs;
  if (within_setting == 0) {
    unit.kind = SweepUnitKind::kStaticOracle;
  } else {
    unit.kind = SweepUnitKind::kScheme;
    unit.scheme = spec_.schemes[static_cast<size_t>(within_setting - 1)];
  }
  return unit;
}

bool SweepUnitStream::Next(SweepUnit* out) {
  if (cursor_ >= num_units_) {
    return false;
  }
  *out = UnitAt(cursor_++);
  return true;
}

SweepPlan BuildSweepPlan(const SweepSpec& spec) {
  SweepUnitStream stream(spec);
  SweepPlan plan;
  plan.spec = stream.spec();
  plan.grid_indices = stream.grid_indices();
  plan.units.reserve(static_cast<size_t>(stream.size()));
  SweepUnit unit;
  while (stream.Next(&unit)) {
    plan.units.push_back(unit);
  }
  return plan;
}

SweepReplayRow ReplayRowOf(const SweepUnit& unit) {
  // BuildConstraintGrid is deadline-major: each deadline is followed by all of its
  // accuracy goals (energy mode) or energy budgets (the other modes).
  const size_t per_deadline = unit.cell.mode == GoalMode::kMinimizeEnergy
                                  ? AccuracyGoalsFor(unit.cell.task).size()
                                  : EnergyBudgetFractions().size();
  return SweepReplayRow{static_cast<int>(unit.cell.task),
                        static_cast<int>(unit.cell.platform),
                        static_cast<int>(unit.cell.contention),
                        static_cast<int>(unit.cell.mode), unit.seed,
                        unit.grid_index / static_cast<int>(per_deadline)};
}

double SweepUnitCost(const SweepUnit& unit) {
  const TaskId task = unit.cell.task;
  const PlatformId platform = unit.cell.platform;
  double configs_per_input = 0.0;
  if (unit.kind == SweepUnitKind::kStaticOracle) {
    // One full trace replay per configuration of the kBoth space.  That is the cost
    // of a search run alone; the searches of one replay row share their replays
    // (ReplayRowOf), so each of a full row's six costs about a sixth of this.
    configs_per_input = NumConfigurations(task, DnnSetChoice::kBoth, platform);
  } else {
    switch (unit.scheme) {
      case SchemeId::kAppOnly:
        configs_per_input = 1.0;  // fixed candidate, default power
        break;
      case SchemeId::kSysOnly:
      case SchemeId::kNoCoord:
        // Fixed candidate; the system layer scans the power ladder.
        configs_per_input = static_cast<double>(
            GetPlatform(platform).PowerSettings().size());
        break;
      default:
        // ALERT variants score, and the clairvoyant Oracle searches, every
        // configuration of their candidate set per input.
        configs_per_input =
            NumConfigurations(task, SchemeDnnSet(unit.scheme), platform);
        break;
    }
  }
  return static_cast<double>(unit.num_inputs) * configs_per_input;
}

std::string_view ShardStrategyName(ShardStrategy strategy) {
  switch (strategy) {
    case ShardStrategy::kRoundRobin:
      return "round-robin";
    case ShardStrategy::kCostWeighted:
      return "cost-weighted";
  }
  return "?";
}

std::vector<std::vector<SweepUnit>> PartitionPlan(const SweepPlan& plan, int num_shards,
                                                  ShardStrategy strategy) {
  ALERT_CHECK(num_shards > 0);
  std::vector<std::vector<SweepUnit>> shards(static_cast<size_t>(num_shards));
  if (strategy == ShardStrategy::kRoundRobin) {
    for (size_t i = 0; i < plan.units.size(); ++i) {
      shards[i % static_cast<size_t>(num_shards)].push_back(plan.units[i]);
    }
    return shards;
  }

  // Longest-processing-time greedy: heaviest unit first onto the lightest shard, ties
  // broken by unit id and shard index so the partition is deterministic.
  std::vector<int> order(plan.units.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> costs(plan.units.size());
  for (size_t i = 0; i < plan.units.size(); ++i) {
    costs[i] = SweepUnitCost(plan.units[i]);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return costs[static_cast<size_t>(a)] >
                                              costs[static_cast<size_t>(b)]; });
  std::vector<double> load(static_cast<size_t>(num_shards), 0.0);
  for (const int i : order) {
    const size_t lightest = static_cast<size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shards[lightest].push_back(plan.units[static_cast<size_t>(i)]);
    load[lightest] += costs[static_cast<size_t>(i)];
  }
  for (std::vector<SweepUnit>& shard : shards) {
    std::sort(shard.begin(), shard.end(),
              [](const SweepUnit& a, const SweepUnit& b) { return a.id < b.id; });
  }
  return shards;
}

}  // namespace alert
