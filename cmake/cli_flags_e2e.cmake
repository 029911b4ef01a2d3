# End-to-end check that the binaries refuse malformed flag values, run as a ctest.
# Every numeric flag crossed with a non-numeric, a NaN, an infinite and an empty
# value, and every named-choice flag crossed with the same four values (none is a
# valid choice), must end in a usage error (exit 2) whose message names the flag —
# not a silent default value, not a runtime failure (exit 1) and not an
# ALERT_CHECK abort somewhere past the parser.  Naming the flag matters: a binary
# that wrongly accepted the value could still exit 2 later for a missing required
# flag.  Every invocation fails while parsing, so no daemon or worker is ever
# started.
# Invoked with -DALERT_CLI=... -DALERTD=... -DSWEEP_SHARD=... -DSWEEP_DISPATCH=...
# -DWORK_DIR=...
foreach(var ALERT_CLI ALERTD SWEEP_SHARD SWEEP_DISPATCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_flags_e2e: ${var} not defined")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs BINARY with ARGN plus FLAG=<each bad value> and requires a usage error.
function(expect_usage_errors binary flag)
  get_filename_component(name ${binary} NAME)
  foreach(value abc nan inf "")
    execute_process(COMMAND ${binary} ${ARGN} "${flag}=${value}"
                    WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 30)
    string(FIND "${err}" "${flag}" named)
    if(NOT rc EQUAL 2 OR named EQUAL -1 OR err MATCHES "ALERT_CHECK failed")
      message(FATAL_ERROR "cli_flags_e2e: '${name} ${flag}=${value}' exited ${rc} "
                          "instead of a usage error naming the flag:\n${err}")
    endif()
  endforeach()
endfunction()

# A short run without the static comparison, so a flag that is wrongly accepted
# fails fast instead of running the full default trace.
foreach(flag --deadline-mult --accuracy-goal --power-watts --inputs --seed)
  expect_usage_errors(${ALERT_CLI} ${flag} --inputs=20 --no-static)
endforeach()

foreach(flag --port --budget --platform --policy)
  expect_usage_errors(${ALERTD} ${flag})
endforeach()

foreach(flag --heartbeat-ms --worker-fail-after --worker-hang-after --worker-delay-ms
        --shards --shard --threads --strategy)
  expect_usage_errors(${SWEEP_SHARD} ${flag})
endforeach()

foreach(flag --workers --worker-threads --target-lease-ms --max-lease-units
        --initial-cost-rate --checkpoint-every --crash-after --cost-factor
        --heartbeat-ms --deadline-ms --global-deadline-ms --max-launches
        --inject-fail --inject-hang --inject-delay --inject-dup --transport)
  expect_usage_errors(${SWEEP_DISPATCH} ${flag})
endforeach()

message(STATUS "cli_flags_e2e: alert_cli, alertd, sweep_shard and sweep_dispatch "
               "refuse every malformed numeric or named-choice flag")
