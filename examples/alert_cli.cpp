// alert_cli — command-line explorer for the full experiment space.
//
// Runs any scheme on any (task, platform, contention, goal-mode) combination with
// explicit constraints, prints the run summary, and optionally dumps per-input records
// and the environment trace as CSV for offline plotting.
//
// Examples:
//   alert_cli --task=image --platform=cpu1 --contention=memory --mode=min-energy
//             (add --deadline-mult=1.25 --accuracy-goal=0.9 to override the defaults)
//   alert_cli --scheme=oracle --mode=min-error --power-watts=35 --inputs=500
//   alert_cli --scheme=alert --csv=/tmp/run.csv --trace-csv=/tmp/trace.csv
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "src/common/serde.h"
#include "src/harness/constraint_grid.h"
#include "src/harness/csv.h"
#include "src/harness/evaluation.h"
#include "src/harness/schemes.h"
#include "src/harness/static_oracle.h"

using namespace alert;

namespace {

struct CliOptions {
  TaskId task = TaskId::kImageClassification;
  PlatformId platform = PlatformId::kCpu1;
  ContentionType contention = ContentionType::kNone;
  GoalMode mode = GoalMode::kMinimizeEnergy;
  SchemeId scheme = SchemeId::kAlert;
  double deadline_mult = 1.25;
  double accuracy_goal = 0.0;  // 0 = mid-grid default
  double power_watts = 0.0;    // energy budget as a power envelope; 0 = 0.8 * max
  int inputs = 300;
  uint64_t seed = 1;
  std::string csv_path;
  std::string trace_csv_path;
  bool compare_static = true;
};

[[noreturn]] void Usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --task=image|nlp               inference task (default image)\n"
      "  --platform=embedded|cpu1|cpu2|gpu\n"
      "  --contention=none|memory|compute\n"
      "  --mode=min-energy|min-error|min-latency\n"
      "  --scheme=alert|alert-any|alert-trad|alert-star|sys-only|app-only|no-coord|"
      "oracle\n"
      "  --deadline-mult=X              deadline as a multiple of the anytime DNN's\n"
      "                                 nominal latency (default 1.25)\n"
      "  --accuracy-goal=X              accuracy floor (min-energy/min-latency modes)\n"
      "  --power-watts=X                energy budget as an average power envelope\n"
      "  --inputs=N --seed=S            trace length and seed\n"
      "  --csv=PATH                     dump per-input records\n"
      "  --trace-csv=PATH               dump the environment trace\n"
      "  --no-static                    skip the OracleStatic comparison\n",
      argv0);
  std::exit(2);
}

std::optional<std::string> ArgValue(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::string(arg + len + 1);
  }
  return std::nullopt;
}

CliOptions Parse(int argc, char** argv) {
  const std::map<std::string, TaskId> tasks = {
      {"image", TaskId::kImageClassification}, {"nlp", TaskId::kSentencePrediction}};
  const std::map<std::string, PlatformId> platforms = {
      {"embedded", PlatformId::kEmbedded},
      {"cpu1", PlatformId::kCpu1},
      {"cpu2", PlatformId::kCpu2},
      {"gpu", PlatformId::kGpu}};
  const std::map<std::string, ContentionType> contentions = {
      {"none", ContentionType::kNone},
      {"memory", ContentionType::kMemory},
      {"compute", ContentionType::kCompute}};
  const std::map<std::string, GoalMode> modes = {
      {"min-energy", GoalMode::kMinimizeEnergy},
      {"min-error", GoalMode::kMaximizeAccuracy},
      {"min-latency", GoalMode::kMinimizeLatency}};
  const std::map<std::string, SchemeId> schemes = {
      {"alert", SchemeId::kAlert},         {"alert-any", SchemeId::kAlertAny},
      {"alert-trad", SchemeId::kAlertTrad}, {"alert-star", SchemeId::kAlertStar},
      {"sys-only", SchemeId::kSysOnly},    {"app-only", SchemeId::kAppOnly},
      {"no-coord", SchemeId::kNoCoord},    {"oracle", SchemeId::kOracle}};

  CliOptions o;
  // Numbers are parsed strictly (whole token, finite); a malformed or out-of-range
  // value is a usage error rather than a silent default or a crash.
  auto bad = [&](const char* arg, const char* what) {
    std::fprintf(stderr, "%s: expected %s\n", arg, what);
    Usage(argv[0]);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto lookup = [&](const char* name, const auto& table, auto* out) {
      const auto v = ArgValue(arg, name);
      if (!v.has_value()) {
        return false;
      }
      const auto it = table.find(*v);
      if (it == table.end()) {
        std::fprintf(stderr, "unknown value for %s: %s\n", name, v->c_str());
        Usage(argv[0]);
      }
      *out = it->second;
      return true;
    };
    if (lookup("--task", tasks, &o.task) || lookup("--platform", platforms, &o.platform) ||
        lookup("--contention", contentions, &o.contention) ||
        lookup("--mode", modes, &o.mode) || lookup("--scheme", schemes, &o.scheme)) {
      continue;
    }
    if (const auto v = ArgValue(arg, "--deadline-mult")) {
      if (!serde::ParseDouble(*v, &o.deadline_mult) || o.deadline_mult <= 0.0) {
        bad(arg, "a finite number > 0");
      }
    } else if (const auto v2 = ArgValue(arg, "--accuracy-goal")) {
      if (!serde::ParseDouble(*v2, &o.accuracy_goal) || o.accuracy_goal < 0.0 ||
          o.accuracy_goal > 1.0) {
        bad(arg, "a number in [0, 1]");
      }
    } else if (const auto v3 = ArgValue(arg, "--power-watts")) {
      if (!serde::ParseDouble(*v3, &o.power_watts) || o.power_watts < 0.0) {
        bad(arg, "a finite number >= 0");
      }
    } else if (const auto v4 = ArgValue(arg, "--inputs")) {
      if (!serde::ParseInt(*v4, &o.inputs) || o.inputs <= 0) {
        bad(arg, "an integer > 0");
      }
    } else if (const auto v5 = ArgValue(arg, "--seed")) {
      if (!serde::ParseUint64(*v5, &o.seed)) {
        bad(arg, "an unsigned integer");
      }
    } else if (const auto v6 = ArgValue(arg, "--csv")) {
      o.csv_path = *v6;
    } else if (const auto v7 = ArgValue(arg, "--trace-csv")) {
      o.trace_csv_path = *v7;
    } else if (std::strcmp(arg, "--no-static") == 0) {
      o.compare_static = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      Usage(argv[0]);
    }
  }
  if (o.task == TaskId::kSentencePrediction && o.platform == PlatformId::kGpu) {
    std::fprintf(stderr, "the sentence task does not run on the GPU (paper fn. 4)\n");
    std::exit(2);
  }
  if (o.task == TaskId::kImageClassification && o.platform == PlatformId::kEmbedded) {
    std::fprintf(stderr, "image models are OOM on the embedded board (paper Fig. 4)\n");
    std::exit(2);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = Parse(argc, argv);

  ExperimentOptions options;
  options.num_inputs = cli.inputs;
  options.seed = cli.seed;
  Experiment experiment(cli.task, cli.platform, cli.contention, options);

  const PlatformSpec& platform = experiment.platform();
  Goals goals;
  goals.mode = cli.mode;
  goals.deadline = cli.deadline_mult * BaseDeadline(cli.task, cli.platform);
  goals.accuracy_goal =
      cli.accuracy_goal > 0.0 ? cli.accuracy_goal : AccuracyGoalsFor(cli.task)[2];
  const double envelope_watts =
      cli.power_watts > 0.0 ? cli.power_watts : 0.8 * (platform.cap_max + platform.base_power);
  goals.energy_budget = envelope_watts * goals.deadline;

  std::printf("%s on %s/%s/%s, %s: deadline %.2f ms", SchemeName(cli.scheme).data(),
              TaskName(cli.task).data(), PlatformName(cli.platform).data(),
              ContentionName(cli.contention).data(), GoalModeName(cli.mode).data(),
              ToMillis(goals.deadline));
  if (cli.mode != GoalMode::kMaximizeAccuracy) {
    std::printf(", accuracy goal %.1f%%", 100.0 * goals.accuracy_goal);
  }
  if (cli.mode != GoalMode::kMinimizeEnergy) {
    std::printf(", power envelope %.1f W", envelope_watts);
  }
  std::printf(", %d inputs, seed %" PRIu64 "\n\n", cli.inputs, cli.seed);

  auto scheduler = MakeScheduler(cli.scheme, experiment, goals);
  const Stack& stack = experiment.stack(SchemeDnnSet(cli.scheme));
  const bool keep = !cli.csv_path.empty();
  const RunResult run = experiment.Run(stack, *scheduler, goals, keep);

  std::printf("energy    %8.4f J/input\n", run.avg_energy);
  std::printf("accuracy  %8.2f %%%s\n", 100.0 * run.avg_accuracy,
              cli.task == TaskId::kSentencePrediction ? "  (word prediction)" : "");
  if (cli.task == TaskId::kSentencePrediction) {
    std::printf("perplexity%8.1f\n", run.avg_perplexity);
  }
  std::printf("latency   %8.2f ms avg\n", ToMillis(run.avg_latency));
  std::printf("misses    %8.1f %%\n", 100.0 * run.deadline_miss_fraction);
  std::printf("violations%8.1f %%  -> setting %s\n", 100.0 * run.violation_fraction,
              SettingViolated(goals, run) ? "VIOLATED" : "satisfied");

  if (cli.compare_static) {
    const StaticOracleResult st = FindStaticOracle(experiment, stack, goals);
    const double metric = MetricValue(cli.mode, cli.task, run);
    const double static_metric = MetricValue(cli.mode, cli.task, st.result);
    std::printf("\nOracleStatic%s: metric %.4f vs scheme %.4f  (normalized %.3f)\n",
                st.feasible ? "" : " (infeasible!)", static_metric, metric,
                metric / static_metric);
  }

  if (!cli.csv_path.empty()) {
    std::printf("\nrecords -> %s (%s)\n", cli.csv_path.c_str(),
                WriteRunCsv(cli.csv_path, run) ? "ok" : "FAILED");
  }
  if (!cli.trace_csv_path.empty()) {
    std::printf("trace   -> %s (%s)\n", cli.trace_csv_path.c_str(),
                WriteTraceCsv(cli.trace_csv_path, experiment.trace()) ? "ok" : "FAILED");
  }
  return 0;
}
