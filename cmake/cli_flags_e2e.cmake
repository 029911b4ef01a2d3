# End-to-end check that alert_cli refuses malformed numeric flags, run as a ctest.
# Every numeric flag crossed with a non-numeric, a NaN, an infinite and an empty
# value must end in a usage error (exit 2) — not a silent default value and not an
# ALERT_CHECK abort somewhere past the parser.
# Invoked with -DALERT_CLI=... -DWORK_DIR=...
foreach(var ALERT_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_flags_e2e: ${var} not defined")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(flag --deadline-mult --accuracy-goal --power-watts --inputs --seed)
  foreach(value abc nan inf "")
    # A short run without the static comparison, so a flag that is wrongly
    # accepted fails fast instead of running the full default trace.
    execute_process(COMMAND ${ALERT_CLI} --inputs=20 --no-static "${flag}=${value}"
                    WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 30)
    if(NOT rc EQUAL 2 OR err MATCHES "ALERT_CHECK failed")
      message(FATAL_ERROR "cli_flags_e2e: 'alert_cli ${flag}=${value}' exited ${rc} "
                          "instead of a usage error:\n${err}")
    endif()
  endforeach()
endforeach()

message(STATUS "cli_flags_e2e: alert_cli refuses every malformed numeric flag")
