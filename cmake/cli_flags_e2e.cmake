# End-to-end check that the binaries refuse malformed flags, run as a ctest.
# Every numeric and named-choice flag of every binary, crossed with a non-numeric,
# a NaN, an infinite, an overflowing, a negative, an empty and a blank-led value
# (none is a valid choice, no numeric flag accepts -1, and " 7" is not the number 7
# even though the C parsers skip the blank), must end in a usage error (exit 2)
# whose message names the flag — not a silent default value, not a runtime failure
# (exit 1) and not an ALERT_CHECK abort somewhere past the parser.  Naming the flag
# matters: a binary that wrongly accepted the value could still exit 2 later for a
# missing required flag.  A repeated flag and an unknown flag are usage errors too,
# and each binary's --help exits 0 and lists every flag crossed here.  Every
# invocation fails while parsing, so no daemon or worker is ever started.
# bench/bench_harness.h parses the flags of every microbench; bench_decision_engine
# stands for them all.
# Invoked with -DALERT_CLI=... -DALERTD=... -DCHURN_DRIVE=... -DSWEEP_SHARD=...
# -DSWEEP_DISPATCH=... -DSWEEP_MERGE=... -DBENCH_CHECK=... -DBENCH_DECISION_ENGINE=...
# -DWORK_DIR=...
foreach(var ALERT_CLI ALERTD CHURN_DRIVE SWEEP_SHARD SWEEP_DISPATCH SWEEP_MERGE
        BENCH_CHECK BENCH_DECISION_ENGINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_flags_e2e: ${var} not defined")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs BINARY with ARGN and requires a usage error (exit 2) whose message contains
# NEEDLE and no ALERT_CHECK abort.
function(expect_usage_error binary needle)
  get_filename_component(name ${binary} NAME)
  execute_process(COMMAND ${binary} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 30)
  string(FIND "${err}" "${needle}" named)
  if(NOT rc EQUAL 2 OR named EQUAL -1 OR err MATCHES "ALERT_CHECK failed")
    message(FATAL_ERROR "cli_flags_e2e: '${name} ${ARGN}' exited ${rc} instead of "
                        "a usage error saying '${needle}':\n${err}")
  endif()
endfunction()

# Runs BINARY with ARGN plus FLAG=<each bad value> and requires a usage error that
# names the flag.  A copy of FLAG among ARGN is dropped, so the value under test is
# the one parsed, not a repeat.  Records FLAG for the --help check below.
function(expect_usage_errors binary flag)
  set(args ${ARGN})
  list(FILTER args EXCLUDE REGEX "^${flag}=")
  foreach(value abc nan inf 1e999 -1 "" " 7")
    expect_usage_error(${binary} "${flag}: " ${args} "${flag}=${value}")
  endforeach()
  get_filename_component(name ${binary} NAME)
  set_property(GLOBAL APPEND PROPERTY crossed_${name} ${flag})
endfunction()

# Requires BINARY --help to exit 0 and to list every flag crossed above.
function(expect_help binary)
  get_filename_component(name ${binary} NAME)
  execute_process(COMMAND ${binary} --help WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 30)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cli_flags_e2e: '${name} --help' exited ${rc}:\n${err}")
  endif()
  get_property(flags GLOBAL PROPERTY crossed_${name})
  foreach(flag ${flags} ${ARGN})
    string(FIND "${out}" "${flag}=" listed)
    if(listed EQUAL -1)
      message(FATAL_ERROR "cli_flags_e2e: '${name} --help' does not list ${flag}:\n${out}")
    endif()
  endforeach()
endfunction()

# A short run without the static comparison, so a flag that is wrongly accepted
# fails fast instead of running the full default trace.
foreach(flag --deadline-mult --accuracy-goal --power-watts --inputs --seed --task
        --platform --contention --mode --scheme)
  expect_usage_errors(${ALERT_CLI} ${flag} --inputs=20 --no-static)
endforeach()
expect_usage_error(${ALERT_CLI} "--inputs: given more than once" --inputs=20 --inputs=20)
expect_usage_error(${ALERT_CLI} "GPU" --task=nlp --platform=gpu)
expect_help(${ALERT_CLI} --csv --trace-csv)

foreach(flag --port --budget --platform --policy)
  expect_usage_errors(${ALERTD} ${flag})
endforeach()
expect_usage_error(${ALERTD} "--budget: given more than once" --budget=1 --budget=2)
expect_help(${ALERTD} --port-file --log)

foreach(flag --mode --port --seed --tenants --events --budget --platform --timeout-ms)
  expect_usage_errors(${CHURN_DRIVE} ${flag} --mode=replay --out=refused.txt)
endforeach()
expect_usage_error(${CHURN_DRIVE} "--seed: given more than once"
                   --mode=replay --out=refused.txt --seed=1 --seed=1)
expect_usage_error(${CHURN_DRIVE} "missing --mode" --out=refused.txt)
expect_usage_error(${CHURN_DRIVE} "drive mode needs --port or --port-file"
                   --mode=drive --out=refused.txt)
expect_help(${CHURN_DRIVE} --out --host --port-file)

foreach(flag --heartbeat-ms --worker-fail-after --worker-hang-after --worker-delay-ms
        --shards --shard --threads --strategy --cache)
  expect_usage_errors(${SWEEP_SHARD} ${flag})
endforeach()
expect_usage_errors(${SWEEP_SHARD} --connect --worker)
# A bad --cache used to surface only after the plan was built, as a runtime failure.
expect_usage_error(${SWEEP_SHARD} "--cache: " --spec=missing.spec --shards=1 --shard=0
                   --out=o.results --cache-dir=cache --cache=bogus)
expect_usage_error(${SWEEP_SHARD} "--cache=read needs --cache-dir" --spec=missing.spec
                   --shards=1 --shard=0 --out=o.results --cache=read)
expect_usage_error(${SWEEP_SHARD} "must be below --shards" --spec=missing.spec
                   --shards=2 --shard=2 --out=o.results)
expect_usage_error(${SWEEP_SHARD} "--threads: given more than once" --worker
                   --threads=1 --threads=1)
expect_help(${SWEEP_SHARD} --spec --out --csv --cache-dir --cache-stats
            --dump-profile --write-default-spec)

foreach(flag --workers --worker-threads --target-lease-ms --max-lease-units
        --initial-cost-rate --checkpoint-every --crash-after --cost-factor
        --heartbeat-ms --deadline-ms --global-deadline-ms --max-launches
        --inject-fail --inject-hang --inject-delay --inject-dup --transport --cache)
  expect_usage_errors(${SWEEP_DISPATCH} ${flag})
endforeach()
expect_usage_error(${SWEEP_DISPATCH} "--workers: given more than once" --workers=1
                   --workers=2)
expect_usage_error(${SWEEP_DISPATCH} "--cache: " --spec=missing.spec --workers=1
                   --out=o.csv --cache-dir=cache --cache=bogus)
expect_help(${SWEEP_DISPATCH} --spec --worker-bin --worker-cmd --checkpoint-dir --out
            --cache-dir --cache-stats)

expect_usage_error(${SWEEP_MERGE} "unknown flag '--bogus'" --spec=missing.spec
                   --bogus a.results)
expect_usage_error(${SWEEP_MERGE} "--spec: given more than once" --spec=a --spec=b
                   a.results)
expect_usage_error(${SWEEP_MERGE} "missing RESULTS_FILE" --spec=missing.spec --print)
expect_help(${SWEEP_MERGE} --spec --out)

expect_usage_errors(${BENCH_CHECK} --threshold --baseline=a.json --current=b.json)
expect_usage_error(${BENCH_CHECK} "--current: given more than once" --baseline=a.json
                   --current=b.json --current=b.json)
expect_help(${BENCH_CHECK} --baseline --current)

# These used to go through atoi/atof: "abc" ran one rep at a 1 ms floor.
foreach(flag --reps --min-time-ms)
  expect_usage_errors(${BENCH_DECISION_ENGINE} ${flag})
endforeach()
expect_usage_error(${BENCH_DECISION_ENGINE} "--reps: given more than once" --reps=1
                   --reps=1)
expect_usage_error(${BENCH_DECISION_ENGINE} "unknown flag '--bogus'" --bogus)
expect_help(${BENCH_DECISION_ENGINE} --json)

message(STATUS "cli_flags_e2e: every binary refuses every malformed numeric or "
               "named-choice flag, a repeated flag and an unknown flag, and its "
               "--help lists them")
