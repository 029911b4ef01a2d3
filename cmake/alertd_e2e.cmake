# End-to-end check of the alertd serving daemon, run as a ctest (and as a CI step):
#   1. launch the real alertd binary (ephemeral port, event log on), drive it over
#      localhost TCP with churn_drive --mode=drive (seeded tenant churn: arrivals,
#      departures, reconnects with belief carry-over, goal flips, budget changes);
#   2. replay the identical script offline (--mode=replay) and require the two
#      transcripts to be byte-identical;
#   3. SIGTERM the daemon and require a graceful drain: the event log's final record
#      is `alertd-shutdown ... clean=1`, and every `alertd-round` marker is preceded
#      by exactly its `jobs=` count of decision records (no partial rounds);
#   4. repeat the kill while a second churn run is in flight (kill -TERM mid-run):
#      the driver loses its connections, but the daemon's log must still drain
#      cleanly with zero partial decision records;
#   5. drive a fresh daemon through the seed-13 K=8 script and require the live
#      transcript to equal the committed golden file byte for byte;
#   6. require a nonzero exit for flags the daemon must refuse (a NaN budget, a
#      port beyond 65535, the retired --cache flag), and a usage error (exit 2, no
#      ALERT_CHECK abort) for malformed churn_drive numbers.
# Daemon stderr and event logs land in ${WORK_DIR}/logs/ for CI artifact upload.
# Invoked with -DALERTD=... -DCHURN_DRIVE=... -DTESTDATA_DIR=... -DWORK_DIR=...
foreach(var ALERTD CHURN_DRIVE TESTDATA_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "alertd_e2e: ${var} not defined")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/logs)

function(run_step)
  execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alertd_e2e: '${ARGV}' failed with exit code ${rc}")
  endif()
endfunction()

function(run_shell name script)
  execute_process(COMMAND sh -c "${script}" WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alertd_e2e: step '${name}' failed with exit code ${rc}")
  endif()
endfunction()

function(compare_files a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/${a}
                  ${WORK_DIR}/${b} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alertd_e2e: ${a} and ${b} differ")
  endif()
endfunction()

# Event-log integrity: rounds are atomic (each `alertd-round round=R jobs=K` marker
# must close exactly K decision records), the log ends with a clean shutdown record,
# and nothing was dropped on the floor.
file(WRITE ${WORK_DIR}/check_log.awk [=[
/^alertd-event type=decision / { pending++ }
/^alertd-round / {
  split($3, kv, "="); jobs = kv[2]
  if (pending != jobs) {
    printf "round marker %s closes %d decision records, expected %d\n", $2, pending, jobs
    exit 1
  }
  pending = 0; rounds++
}
/^alertd-shutdown / {
  if (pending != 0) { printf "%d partial decision records before shutdown\n", pending; exit 1 }
  if ($0 !~ / clean=1( |$)/) { printf "shutdown record not clean: %s\n", $0; exit 1 }
  if ($0 !~ / dropped=0( |$)/) { printf "events dropped: %s\n", $0; exit 1 }
  saw_shutdown = 1
}
END {
  if (!saw_shutdown) { print "no alertd-shutdown record"; exit 1 }
  printf "log OK: %d atomic rounds, clean shutdown\n", rounds
}
]=])

# Launches ${ALERTD} in the background with its pid in ${pidfile}; stderr to logs/.
function(start_daemon pidfile portfile eventlog stderrlog)
  run_shell(start_daemon
    "rm -f ${portfile}; ${ALERTD} --port-file=${portfile} --log=${eventlog} --budget=200 > /dev/null 2> logs/${stderrlog} & echo $! > ${pidfile}")
endfunction()

# SIGTERMs the daemon in ${pidfile} and waits (up to ~20s) for it to exit.
function(stop_daemon pidfile)
  run_shell(stop_daemon
    "pid=$(cat ${pidfile}); kill -TERM $pid; i=0; while kill -0 $pid 2>/dev/null; do i=$((i+1)); [ $i -gt 200 ] && { echo 'alertd did not exit after SIGTERM'; exit 1; }; sleep 0.1; done")
endfunction()

# --- 1+2+3: clean churn run, byte-equivalence, graceful SIGTERM drain --------------

start_daemon(alertd.pid port.txt events.log alertd_clean.log)
run_step(${CHURN_DRIVE} --mode=drive --port-file=port.txt --seed=7 --tenants=8
         --events=96 --budget=200 --out=live.txt)
run_step(${CHURN_DRIVE} --mode=replay --seed=7 --tenants=8 --events=96 --budget=200
         --out=offline.txt)
compare_files(live.txt offline.txt)
stop_daemon(alertd.pid)
run_shell(check_clean_log "awk -f check_log.awk events.log && cp events.log logs/events_clean.log")

# --- 4: SIGTERM mid-run ------------------------------------------------------------

start_daemon(alertd_kill.pid port_kill.txt events_kill.log alertd_kill.log)
# A long script so the kill lands while rounds are in flight; the driver's failure
# (connections die under it) is expected and ignored.
run_shell(drive_background
  "${CHURN_DRIVE} --mode=drive --port-file=port_kill.txt --seed=11 --tenants=8 --events=4000 --budget=200 --timeout-ms=2000 --out=live_kill.txt > /dev/null 2> logs/churn_kill.log & echo $! > churn.pid")
run_shell(kill_mid_run "sleep 1; exit 0")
stop_daemon(alertd_kill.pid)
run_shell(reap_driver
  "pid=$(cat churn.pid); i=0; while kill -0 $pid 2>/dev/null; do i=$((i+1)); [ $i -gt 300 ] && { echo 'churn driver hung'; exit 1; }; sleep 0.1; done")
run_shell(check_kill_log "awk -f check_log.awk events_kill.log && cp events_kill.log logs/events_kill.log")

# --- 5: live drive against the committed golden transcript --------------------------

start_daemon(alertd_golden.pid port_golden.txt events_golden.log alertd_golden.log)
run_step(${CHURN_DRIVE} --mode=drive --port-file=port_golden.txt --seed=13 --tenants=8
         --events=128 --budget=200 --out=live_golden.txt)
stop_daemon(alertd_golden.pid)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/live_golden.txt
                ${TESTDATA_DIR}/churn_s13_k8_e128.golden RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "alertd_e2e: live_golden.txt differs from churn_s13_k8_e128.golden")
endif()

# --- 6: flags the daemon must refuse ---------------------------------------------

foreach(bad_flag --budget=nan --budget=inf --port=70000 --port=abc --cache=exact)
  execute_process(COMMAND ${ALERTD} ${bad_flag} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET TIMEOUT 10)
  if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "alertd_e2e: 'alertd ${bad_flag}' was not refused (result ${rc})")
  endif()
endforeach()

foreach(bad_flag --budget=nan --budget=inf --seed=abc --tenants=abc --events=-1)
  execute_process(COMMAND ${CHURN_DRIVE} --mode=replay --out=refused.txt ${bad_flag}
                  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 10)
  if(NOT rc EQUAL 2 OR err MATCHES "ALERT_CHECK failed")
    message(FATAL_ERROR "alertd_e2e: 'churn_drive --mode=replay ${bad_flag}' exited "
                        "${rc} instead of a usage error:\n${err}")
  endif()
endforeach()

message(STATUS "alertd_e2e: live transcript byte-identical to offline replay and to "
               "the golden file; bad flags refused; graceful drain verified clean "
               "(including SIGTERM mid-run)")
