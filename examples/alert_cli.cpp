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
#include <string>

#include "src/common/flags.h"
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
  bool no_static = false;
};

constexpr std::pair<std::string_view, TaskId> kTasks[] = {
    {"image", TaskId::kImageClassification}, {"nlp", TaskId::kSentencePrediction}};
constexpr std::pair<std::string_view, ContentionType> kContentions[] = {
    {"none", ContentionType::kNone},
    {"memory", ContentionType::kMemory},
    {"compute", ContentionType::kCompute}};
constexpr std::pair<std::string_view, GoalMode> kModes[] = {
    {"min-energy", GoalMode::kMinimizeEnergy},
    {"min-error", GoalMode::kMaximizeAccuracy},
    {"min-latency", GoalMode::kMinimizeLatency}};
constexpr std::pair<std::string_view, SchemeId> kSchemes[] = {
    {"alert", SchemeId::kAlert},          {"alert-any", SchemeId::kAlertAny},
    {"alert-trad", SchemeId::kAlertTrad}, {"alert-star", SchemeId::kAlertStar},
    {"sys-only", SchemeId::kSysOnly},     {"app-only", SchemeId::kAppOnly},
    {"no-coord", SchemeId::kNoCoord},     {"oracle", SchemeId::kOracle}};

CliOptions Parse(int argc, char** argv) {
  CliOptions o;
  flags::Parser cli(
      "alert_cli", "[options]",
      {flags::Choice("--task=NAME", &o.task, kTasks, "inference task"),
       flags::Choice("--platform=NAME", &o.platform, kPlatformTokens, "platform"),
       flags::Choice("--contention=NAME", &o.contention, kContentions,
                     "co-running contention"),
       flags::Choice("--mode=NAME", &o.mode, kModes, "goal mode"),
       flags::Choice("--scheme=NAME", &o.scheme, kSchemes, "scheduling scheme"),
       flags::Double("--deadline-mult=X", &o.deadline_mult, 0.0, flags::kUnbounded,
                     "deadline as a multiple of the anytime DNN's nominal latency",
                     flags::Bound::kExclusive),
       flags::Double("--accuracy-goal=X", &o.accuracy_goal, 0.0, 1.0,
                     "accuracy floor (min-energy/min-latency modes;\n"
                     "0 = the task's mid-grid goal)"),
       flags::Double("--power-watts=X", &o.power_watts, 0.0, flags::kUnbounded,
                     "energy budget as an average power envelope\n"
                     "(0 = 0.8 x the platform's maximum)"),
       flags::Int("--inputs=N", &o.inputs, 1, "trace length"),
       flags::Int("--seed=S", &o.seed, 0, "trace seed"),
       flags::String("--csv=PATH", &o.csv_path, "dump per-input records"),
       flags::String("--trace-csv=PATH", &o.trace_csv_path, "dump the environment trace"),
       flags::Switch("--no-static", &o.no_static, "skip the OracleStatic comparison")});
  cli.Parse(argc, argv);
  if (o.task == TaskId::kSentencePrediction && o.platform == PlatformId::kGpu) {
    cli.Fail("the sentence task does not run on the GPU (paper fn. 4)");
  }
  if (o.task == TaskId::kImageClassification && o.platform == PlatformId::kEmbedded) {
    cli.Fail("image models are OOM on the embedded board (paper Fig. 4)");
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

  if (!cli.no_static) {
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
