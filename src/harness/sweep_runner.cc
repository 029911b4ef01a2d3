#include "src/harness/sweep_runner.h"

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/common/parallel.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/static_oracle.h"

namespace alert {
namespace {

// Experiments depend on everything in a cell except the goal mode (the trace and the
// profiled stacks are goal-agnostic), so cells differing only in mode share one.
using ExperimentKey = std::tuple<int, int, int, uint64_t>;
using GridKey = std::tuple<int, int, int>;  // mode, task, platform

ExperimentKey KeyOf(const SweepUnit& unit) {
  return ExperimentKey{static_cast<int>(unit.cell.task),
                       static_cast<int>(unit.cell.platform),
                       static_cast<int>(unit.cell.contention), unit.seed};
}

GridKey GridKeyOf(const SweepCellSpec& cell) {
  return GridKey{static_cast<int>(cell.mode), static_cast<int>(cell.task),
                 static_cast<int>(cell.platform)};
}

ExperimentOptions MakeExperimentOptions(const SweepSpec& spec, uint64_t seed) {
  ExperimentOptions options;
  options.num_inputs = spec.num_inputs;
  options.seed = seed;
  options.contention_window = spec.contention_window;
  options.contention_scale = spec.contention_scale;
  options.profile_noise_sigma = spec.profile_noise_sigma;
  return options;
}

}  // namespace

std::vector<SweepUnitResult> RunSweepUnits(const SweepPlan& plan,
                                           std::span<const SweepUnit> units,
                                           const SweepRunOptions& options) {
  // Units executed together for one constraint setting: the static-oracle search (if
  // present in `units`) plus any scheme runs.  Grouping preserves the historical
  // skip-schemes-when-static-infeasible shortcut.
  struct SettingGroup {
    int static_pos = -1;        // index into `units`, -1 if absent
    std::vector<int> scheme_pos;
  };
  // The ParallelFor item: the setting groups of one replay row, by grid index.  Its
  // static searches share one replay per configuration (FindStaticOracles).
  using Row = std::map<int, SettingGroup>;

  std::map<SweepReplayRow, Row> rows;
  std::map<ExperimentKey, std::unique_ptr<Experiment>> experiments;
  std::map<GridKey, std::vector<Goals>> grids;
  for (size_t i = 0; i < units.size(); ++i) {
    const SweepUnit& unit = units[i];
    ALERT_CHECK(unit.id >= 0 && static_cast<size_t>(unit.id) < plan.units.size());
    ALERT_CHECK(unit == plan.units[static_cast<size_t>(unit.id)]);
    SettingGroup& group = rows[ReplayRowOf(unit)][unit.grid_index];
    if (unit.kind == SweepUnitKind::kStaticOracle) {
      ALERT_CHECK(group.static_pos < 0);  // plans carry one static unit per setting
      group.static_pos = static_cast<int>(i);
    } else {
      group.scheme_pos.push_back(static_cast<int>(i));
    }
    auto& experiment = experiments[KeyOf(unit)];
    if (experiment == nullptr) {
      experiment = std::make_unique<Experiment>(
          unit.cell.task, unit.cell.platform, unit.cell.contention,
          MakeExperimentOptions(plan.spec, unit.seed), options.warm_start);
    }
    auto& grid = grids[GridKeyOf(unit.cell)];
    if (grid.empty()) {
      grid = BuildConstraintGrid(unit.cell.mode, unit.cell.task, unit.cell.platform);
    }
    ALERT_CHECK(static_cast<size_t>(unit.grid_index) < grid.size());
  }

  std::vector<const Row*> row_list;
  row_list.reserve(rows.size());
  for (const auto& [key, row] : rows) {
    row_list.push_back(&row);
  }

  std::vector<SweepUnitResult> results(units.size());
  std::vector<double> unit_ms(units.size(), 0.0);
  std::mutex stream_mutex;
  ParallelFor(
      static_cast<int>(row_list.size()),
      [&](int r) {
        const Row& row = *row_list[static_cast<size_t>(r)];
        if (options.should_cancel) {
          // Checked under the stream mutex: the cancel source (the dispatch
          // worker's revoke drain) is shared with on_result and is not
          // thread-safe on its own.
          const std::lock_guard<std::mutex> lock(stream_mutex);
          if (options.should_cancel()) {
            return;  // leave the row's result slots default-initialized
          }
        }
        const auto clock = [] { return std::chrono::steady_clock::now(); };
        const auto ms_between = [](std::chrono::steady_clock::time_point a,
                                   std::chrono::steady_clock::time_point b) {
          return std::chrono::duration<double, std::milli>(b - a).count();
        };
        const SettingGroup& first = row.begin()->second;
        const SweepUnit& any_unit = units[static_cast<size_t>(
            first.static_pos >= 0 ? first.static_pos : first.scheme_pos.front())];
        const Experiment& experiment = *experiments.at(KeyOf(any_unit));
        const std::vector<Goals>& grid = grids.at(GridKeyOf(any_unit.cell));
        const GoalMode mode = any_unit.cell.mode;
        const TaskId task = any_unit.cell.task;

        // The row's static searches, as one shared replay per configuration; each
        // search is charged an equal share of the time.  Run just before the first
        // setting group that has a static unit, so groups without one (a lease that
        // starts mid-setting) still stream as early as they did alone.
        const auto search_row_statics = [&] {
          std::vector<Goals> static_goals;
          std::vector<int> static_pos;
          for (const auto& [grid_index, group] : row) {
            if (group.static_pos >= 0) {
              static_goals.push_back(grid[static_cast<size_t>(grid_index)]);
              static_pos.push_back(group.static_pos);
            }
          }
          const auto t0 = clock();
          const std::vector<StaticOracleResult> oracles = FindStaticOracles(
              experiment, experiment.stack(DnnSetChoice::kBoth), static_goals);
          const double share_ms =
              ms_between(t0, clock()) / static_cast<double>(static_goals.size());
          for (size_t k = 0; k < static_pos.size(); ++k) {
            const size_t pos = static_cast<size_t>(static_pos[k]);
            unit_ms[pos] = share_ms;
            results[pos].unit_id = units[pos].id;
            results[pos].usable = oracles[k].feasible;
            if (oracles[k].feasible) {
              results[pos].metric = MetricValue(mode, task, oracles[k].result);
            }
          }
        };

        bool statics_searched = false;
        for (const auto& [grid_index, group] : row) {
          const Goals& goals = grid[static_cast<size_t>(grid_index)];
          if (group.static_pos >= 0 && !statics_searched) {
            search_row_statics();
            statics_searched = true;
          }
          const bool static_infeasible =
              group.static_pos >= 0 &&
              !results[static_cast<size_t>(group.static_pos)].usable;
          for (const int pos : group.scheme_pos) {
            const SweepUnit& unit = units[static_cast<size_t>(pos)];
            SweepUnitResult& out = results[static_cast<size_t>(pos)];
            out.unit_id = unit.id;
            if (static_infeasible) {
              // The merge plane drops this setting wholesale; don't spend the run.
              out.skipped = true;
              continue;
            }
            const auto t0 = clock();
            auto scheduler = MakeScheduler(unit.scheme, experiment, goals);
            const RunResult run = experiment.Run(
                experiment.stack(SchemeDnnSet(unit.scheme)), *scheduler, goals);
            unit_ms[static_cast<size_t>(pos)] = ms_between(t0, clock());
            if (!SettingViolated(goals, run)) {
              out.usable = true;
              out.metric = MetricValue(mode, task, run);
            }
          }

          if (options.on_result) {
            // Stream the whole setting group at once: the skip decision above is
            // only coherent at group granularity.
            const std::lock_guard<std::mutex> lock(stream_mutex);
            if (group.static_pos >= 0) {
              options.on_result(results[static_cast<size_t>(group.static_pos)],
                                unit_ms[static_cast<size_t>(group.static_pos)]);
            }
            for (const int pos : group.scheme_pos) {
              options.on_result(results[static_cast<size_t>(pos)],
                                unit_ms[static_cast<size_t>(pos)]);
            }
          }
        }
      },
      options.threads);
  return results;
}

SweepMergeAccumulator::SweepMergeAccumulator(const SweepPlan& plan)
    : plan_(&plan), results_(plan.units.size()), recorded_(plan.units.size(), false) {}

serde::Status SweepMergeAccumulator::Add(const SweepUnitResult& result,
                                         bool* newly_recorded) {
  if (newly_recorded != nullptr) {
    *newly_recorded = false;
  }
  if (result.unit_id < 0 || static_cast<size_t>(result.unit_id) >= results_.size()) {
    return serde::Error("result for unknown unit id " + std::to_string(result.unit_id));
  }
  const size_t id = static_cast<size_t>(result.unit_id);
  if (recorded_[id]) {
    if (!(results_[id] == result)) {
      // Name the unit and show both payloads: the operator's next step is to find
      // which worker/shard produced which value, and "they conflicted" alone forces
      // them to diff the results files by hand.
      const auto payload = [](const SweepUnitResult& r) {
        return "{skipped=" + std::to_string(r.skipped) +
               " usable=" + std::to_string(r.usable) +
               " metric=" + serde::FormatDouble(r.metric) + "}";
      };
      return serde::Error("conflicting duplicate result for unit id " +
                          std::to_string(result.unit_id) + ": recorded " +
                          payload(results_[id]) + " vs incoming " + payload(result));
    }
    return serde::Ok();  // first-wins: identical redelivery is a no-op
  }
  results_[id] = result;
  recorded_[id] = true;
  ++num_recorded_;
  if (newly_recorded != nullptr) {
    *newly_recorded = true;
  }
  return serde::Ok();
}

bool SweepMergeAccumulator::IsRecorded(int unit_id) const {
  ALERT_CHECK(unit_id >= 0 && static_cast<size_t>(unit_id) < recorded_.size());
  return recorded_[static_cast<size_t>(unit_id)];
}

std::vector<int> SweepMergeAccumulator::MissingUnitIds() const {
  std::vector<int> missing;
  for (size_t id = 0; id < recorded_.size(); ++id) {
    if (!recorded_[id]) {
      missing.push_back(static_cast<int>(id));
    }
  }
  return missing;
}

std::vector<SweepUnitResult> SweepMergeAccumulator::RecordedResults() const {
  std::vector<SweepUnitResult> out;
  out.reserve(num_recorded_);
  for (size_t id = 0; id < recorded_.size(); ++id) {
    if (recorded_[id]) {
      out.push_back(results_[id]);
    }
  }
  return out;
}

serde::Status SweepMergeAccumulator::Finalize(std::vector<CellResult>* out) const {
  out->clear();
  if (!complete()) {
    const std::vector<int> missing = MissingUnitIds();
    return serde::Error("missing result for unit id " + std::to_string(missing.front()) +
                        " (incomplete shard set?)");
  }
  const SweepPlan& plan = *plan_;
  const auto& by_id = results_;

  // Walk the plan in its enumeration order: cells x seeds x settings x
  // (static, schemes...).  The arithmetic below is the monolithic EvaluateCell
  // accounting, verbatim, so merged aggregates are bit-identical to in-process ones.
  const size_t num_schemes = plan.spec.schemes.size();
  size_t next = 0;
  for (const SweepCellSpec& cell_spec : plan.spec.cells) {
    for (const uint64_t seed : plan.spec.seeds) {
      CellResult cell;
      cell.spec.task = cell_spec.task;
      cell.spec.platform = cell_spec.platform;
      cell.spec.contention = cell_spec.contention;
      cell.spec.mode = cell_spec.mode;
      cell.spec.options = MakeExperimentOptions(plan.spec, seed);
      cell.total_settings = static_cast<int>(plan.grid_indices.size());
      cell.schemes.resize(num_schemes);
      for (size_t si = 0; si < num_schemes; ++si) {
        cell.schemes[si].scheme = plan.spec.schemes[si];
      }

      for (size_t gi = 0; gi < plan.grid_indices.size(); ++gi) {
        const SweepUnit& static_unit = plan.units[next];
        ALERT_CHECK(static_unit.kind == SweepUnitKind::kStaticOracle);
        const SweepUnitResult& static_result = by_id[next];
        ++next;
        if (!static_result.usable) {
          ++cell.skipped_settings;
          next += num_schemes;
          continue;
        }
        if (!(static_result.metric > 0.0)) {
          return serde::Error("unit " + std::to_string(static_unit.id) +
                              ": usable static oracle with non-positive metric");
        }
        cell.static_raw_values.push_back(static_result.metric);
        for (size_t si = 0; si < num_schemes; ++si) {
          ALERT_CHECK(plan.units[next].kind == SweepUnitKind::kScheme);
          const SweepUnitResult& result = by_id[next];
          ++next;
          SchemeCellStats& stats = cell.schemes[si];
          if (result.skipped) {
            return serde::Error("unit " + std::to_string(result.unit_id) +
                                " skipped although its static oracle was feasible");
          }
          ++stats.usable_settings;
          if (!result.usable) {
            ++stats.violated_settings;
            continue;
          }
          stats.raw_values.push_back(result.metric);
          stats.normalized_values.push_back(result.metric / static_result.metric);
        }
      }

      double static_sum = 0.0;
      for (double v : cell.static_raw_values) {
        static_sum += v;
      }
      cell.static_mean_raw =
          cell.static_raw_values.empty()
              ? 0.0
              : static_sum / static_cast<double>(cell.static_raw_values.size());

      for (SchemeCellStats& stats : cell.schemes) {
        double norm_sum = 0.0;
        double raw_sum = 0.0;
        for (double v : stats.normalized_values) {
          norm_sum += v;
        }
        for (double v : stats.raw_values) {
          raw_sum += v;
        }
        const double n = static_cast<double>(stats.normalized_values.size());
        stats.mean_normalized = n > 0 ? norm_sum / n : 0.0;
        stats.mean_raw = n > 0 ? raw_sum / n : 0.0;
      }
      out->push_back(std::move(cell));
    }
  }
  ALERT_CHECK(next == plan.units.size());
  return serde::Ok();
}

serde::Status MergeSweepResults(const SweepPlan& plan,
                                std::span<const SweepUnitResult> results,
                                std::vector<CellResult>* out) {
  out->clear();
  SweepMergeAccumulator accumulator(plan);
  for (const SweepUnitResult& result : results) {
    bool newly_recorded = false;
    const serde::Status s = accumulator.Add(result, &newly_recorded);
    if (!s) {
      return s;
    }
    if (!newly_recorded) {
      // Batch semantics are strict: a shard set that delivers a unit twice is
      // malformed even when the payloads agree.
      return serde::Error("duplicate result for unit id " +
                          std::to_string(result.unit_id) +
                          " (identical payload delivered twice)");
    }
  }
  return accumulator.Finalize(out);
}

std::vector<CellResult> RunSweep(const SweepPlan& plan, const SweepRunOptions& options) {
  const std::vector<SweepUnitResult> results = RunSweepUnits(plan, plan.units, options);
  std::vector<CellResult> cells;
  const serde::Status merged = MergeSweepResults(plan, results, &cells);
  if (!merged) {
    std::fprintf(stderr, "RunSweep: %s\n", merged.message.c_str());
    ALERT_CHECK(merged.ok);
  }
  return cells;
}

}  // namespace alert
