# End-to-end check of the sharded sweep pipeline, run as a ctest (and as a CI step):
#   1. sweep_shard writes its example spec;
#   2. the monolithic path (K=1) produces mono.csv;
#   3. a 2-shard round-robin run produces s0/s1.results, merged into merged_rr.csv;
#   4. a 2-shard cost-weighted run produces c0/c1.results, merged into merged_cw.csv;
#   5. both merged CSVs must be byte-identical to mono.csv;
#   6. a spec whose cell mode has no valid goals (min-latency) is refused with a
#      diagnostic and a non-zero exit, not an abort;
#   7. sweep_merge exits 1 naming the offending file for a results file built from a
#      different spec, one cut inside its last record, and two files that both
#      deliver one unit.
# Invoked with -DSWEEP_SHARD=... -DSWEEP_MERGE=... -DWORK_DIR=...
foreach(var SWEEP_SHARD SWEEP_MERGE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_e2e: ${var} not defined")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
  execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep_e2e: '${ARGV}' failed with exit code ${rc}")
  endif()
endfunction()

function(compare_files a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/${a}
                  ${WORK_DIR}/${b} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep_e2e: ${a} and ${b} differ")
  endif()
endfunction()

run_step(${SWEEP_SHARD} --write-default-spec=spec.txt)
run_step(${SWEEP_SHARD} --spec=spec.txt --shards=1 --shard=0
         --out=mono.results --csv=mono.csv)

run_step(${SWEEP_SHARD} --spec=spec.txt --shards=2 --shard=0 --out=s0.results)
run_step(${SWEEP_SHARD} --spec=spec.txt --shards=2 --shard=1 --out=s1.results)
run_step(${SWEEP_MERGE} --spec=spec.txt --out=merged_rr.csv s0.results s1.results)
compare_files(mono.csv merged_rr.csv)

run_step(${SWEEP_SHARD} --spec=spec.txt --shards=2 --shard=0
         --strategy=cost-weighted --out=c0.results)
run_step(${SWEEP_SHARD} --spec=spec.txt --shards=2 --shard=1
         --strategy=cost-weighted --out=c1.results)
run_step(${SWEEP_MERGE} --spec=spec.txt --out=merged_cw.csv c0.results c1.results)
compare_files(mono.csv merged_cw.csv)

# K=4 (the acceptance-level shard count), merged from shards listed out of order.
foreach(i RANGE 3)
  run_step(${SWEEP_SHARD} --spec=spec.txt --shards=4 --shard=${i}
           --out=k4_${i}.results)
endforeach()
run_step(${SWEEP_MERGE} --spec=spec.txt --out=merged_k4.csv k4_3.results
         k4_0.results k4_2.results k4_1.results)
compare_files(mono.csv merged_k4.csv)

# The Table 3 grid gives min-latency goals no accuracy goal, so a mode=2 cell is a
# bad spec: sweep_shard must name the mode and exit 1, not die on an ALERT_CHECK.
file(READ ${WORK_DIR}/spec.txt spec_text)
string(REPLACE "mode=0" "mode=2" latency_spec "${spec_text}")
file(WRITE ${WORK_DIR}/latency_spec.txt "${latency_spec}")
execute_process(COMMAND ${SWEEP_SHARD} --spec=latency_spec.txt --shards=1 --shard=0
                        --out=latency.results
                WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "sweep_e2e: a mode=2 spec exited '${rc}', want 1: ${err}")
endif()
if(NOT err MATCHES "MinimizeLatency")
  message(FATAL_ERROR "sweep_e2e: a mode=2 diagnostic does not name the mode: ${err}")
endif()

# sweep_merge must refuse each bad results set with exit 1 and name FILE.
function(expect_merge_refusal what file)
  execute_process(COMMAND ${SWEEP_MERGE} --spec=spec.txt --out=refused.csv ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                  ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "sweep_e2e: merging ${what} exited '${rc}', want 1: ${err}")
  endif()
  string(FIND "${err}" "'${file}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "sweep_e2e: merging ${what}: diagnostic does not name "
                        "${file}: ${err}")
  endif()
  if(EXISTS ${WORK_DIR}/refused.csv)
    message(FATAL_ERROR "sweep_e2e: merging ${what} still wrote a CSV")
  endif()
endfunction()

# A shard of another plan: same shape, one grid setting moved.
string(REPLACE "grid setting=35" "grid setting=34" other_spec "${spec_text}")
file(WRITE ${WORK_DIR}/other_spec.txt "${other_spec}")
run_step(${SWEEP_SHARD} --spec=other_spec.txt --shards=2 --shard=1
         --out=other_s1.results)
expect_merge_refusal("a shard of a different plan" other_s1.results
                     s0.results other_s1.results)

# A shard file cut inside its last record (a finished shard file is always whole).
file(READ ${WORK_DIR}/s1.results shard_text)
string(LENGTH "${shard_text}" shard_len)
math(EXPR cut "${shard_len} - 5")
string(SUBSTRING "${shard_text}" 0 ${cut} cut_text)
file(WRITE ${WORK_DIR}/cut_s1.results "${cut_text}")
expect_merge_refusal("a truncated shard" cut_s1.results s0.results cut_s1.results)

# Two files that both deliver unit 0.
expect_merge_refusal("two files delivering one unit" mono.results
                     s0.results s1.results mono.results)

message(STATUS "sweep_e2e: merged shard CSVs byte-identical to the monolithic sweep")
