// sweep_merge — deterministic merge plane for sharded sweep results.
//
// Rebuilds the unit list from the spec (the same BuildSweepPlan every shard used),
// reads any number of shard results files, verifies they belong to this plan and cover
// every unit exactly once, and aggregates them into the sweep CSV.  The output is
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
                         "shard results files, together covering every unit once")
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

  std::vector<SweepUnitResult> results;
  for (const std::string& path : results_paths) {
    std::string text;
    s = serde::ReadFile(path, &text);
    if (!s) {
      Fail(s.message);
    }
    ShardResults shard;
    s = ParseShardResults(text, &shard);
    if (!s) {
      Fail("results '" + path + "': " + s.message);
    }
    if (shard.plan_fingerprint != fingerprint) {
      Fail("results '" + path + "' were produced from a different plan (fingerprint " +
           std::to_string(shard.plan_fingerprint) + ", spec builds " +
           std::to_string(fingerprint) + ")");
    }
    results.insert(results.end(), shard.results.begin(), shard.results.end());
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
