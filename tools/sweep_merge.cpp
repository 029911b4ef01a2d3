// sweep_merge — deterministic merge plane for sharded sweep results.
//
// Rebuilds the unit list from the spec (the same BuildSweepPlan every shard used),
// reads any number of results files (sweep_shard --out files, or the checkpoint of a
// finished sweep_dispatch run), verifies they belong to this plan and cover every
// unit exactly once, and aggregates them into the sweep CSV.  The output is
// byte-identical to the monolithic sweep's CSV no matter how the units were sharded —
// aggregation only depends on (plan, per-unit results).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/harness/sweep_io.h"
#include "src/harness/sweep_plan.h"
#include "src/harness/sweep_runner.h"

using namespace alert;

namespace {

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "sweep_merge: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  bool print = false;
  std::vector<std::string> results_paths;
  flags::Parser cli(
      "sweep_merge", "--spec=FILE [--out=CSV] [--print] RESULTS_FILE...",
      {flags::String("--spec=FILE", &spec_path, "the sweep spec every shard ran from")
           .Required(),
       flags::String("--out=CSV", &out_path, "write the aggregate CSV here"),
       flags::Switch("--print", &print, "print the aggregate CSV to stdout"),
       flags::Positional("RESULTS_FILE...", &results_paths,
                         "results files, together covering every unit once")
           .Required()});
  cli.Parse(argc, argv);
  if (out_path.empty() && !print) {
    cli.Fail("missing --out=CSV or --print");
  }

  std::string spec_text;
  serde::Status s = serde::ReadFile(spec_path, &spec_text);
  if (!s) {
    Fail(s.message);
  }
  SweepSpec spec;
  s = ParseSweepSpec(spec_text, &spec);
  if (!s) {
    Fail("spec '" + spec_path + "': " + s.message);
  }
  const SweepPlan plan = BuildSweepPlan(spec);
  const uint64_t fingerprint = PlanFingerprint(plan);

  // Which file delivered each unit, so a unit two files deliver names both of them
  // (MergeSweepResults refuses it too, but knows no file names).
  std::vector<SweepUnitResult> results;
  std::vector<const std::string*> delivered_by(plan.units.size(), nullptr);
  for (const std::string& path : results_paths) {
    const size_t first = results.size();
    s = LoadSweepResults(path, fingerprint, /*require_whole=*/true, &results);
    if (!s) {
      Fail(s.message);
    }
    for (size_t i = first; i < results.size(); ++i) {
      const auto id = static_cast<size_t>(results[i].unit_id);
      if (id >= delivered_by.size()) {
        continue;  // MergeSweepResults names the unknown unit
      }
      if (delivered_by[id] != nullptr) {
        Fail("results file '" + path + "' delivers unit " + std::to_string(id) +
             ", which '" + *delivered_by[id] + "' already delivered");
      }
      delivered_by[id] = &path;
    }
  }

  std::vector<CellResult> cells;
  s = MergeSweepResults(plan, results, &cells);
  if (!s) {
    Fail(s.message);
  }
  const std::string csv = SweepAggregateCsv(plan, cells);
  if (!out_path.empty()) {
    s = serde::WriteFile(out_path, csv);
    if (!s) {
      Fail(s.message);
    }
  }
  if (print) {
    std::fputs(csv.c_str(), stdout);
  }
  std::fprintf(stderr, "sweep_merge: merged %zu results from %zu shards into %zu cells\n",
               results.size(), results_paths.size(), cells.size());
  return 0;
}
