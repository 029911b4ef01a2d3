# End-to-end check of the bench_check perf gate's exit-code contract, run as a
# ctest.  The gate guards the perf trajectory in CI, so the gate itself needs a
# test: a gate that exits 0 when it compared nothing (a renamed metric, a
# simd-only baseline on a scalar runner, a typo'd path) silently stops guarding.
# Contract:
#   0 — every compared metric within trajectory (and at least one was compared);
#   1 — a perf regression or a baseline metric missing from the current report;
#   2 — unusable invocation: unreadable file, bad flags, a malformed or non-finite
#       threshold (a NaN threshold would pass every comparison), or a VACUOUS gate
#       that named no comparable metric at all.
# Invoked with -DBENCH_CHECK=... -DWORK_DIR=...
foreach(var BENCH_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_gate_e2e: ${var} not defined")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Expects exit code `expected`; anything else is a gate-contract regression.
function(expect_exit expected name)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected})
    message(FATAL_ERROR "bench_gate_e2e: ${name}: expected exit ${expected}, got "
                        "${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

file(WRITE ${WORK_DIR}/base.json [[
{"derived": {"speedup": 2.0, "hit_rate": 0.9},
 "gates": {"min": {"speedup": 1.5}}}
]])
file(WRITE ${WORK_DIR}/cur_good.json [[
{"context": {"simd_active": true},
 "derived": {"speedup": 2.1, "hit_rate": 0.92}}
]])
file(WRITE ${WORK_DIR}/cur_regressed.json [[
{"context": {"simd_active": true},
 "derived": {"speedup": 0.4, "hit_rate": 0.92}}
]])
file(WRITE ${WORK_DIR}/cur_renamed.json [[
{"context": {"simd_active": true},
 "derived": {"speedup_v2": 2.1, "hit_rate": 0.92}}
]])
# Every baseline metric is simd-gated and the current runner is scalar: nothing is
# comparable, so the gate must refuse to "pass" instead of checking nothing.
file(WRITE ${WORK_DIR}/base_simd_only.json [[
{"derived": {"simd_speedup": 3.0},
 "gates": {"min": {"simd_speedup": 2.0}}}
]])
file(WRITE ${WORK_DIR}/cur_scalar.json [[
{"context": {"simd_active": false},
 "derived": {"simd_speedup": 3.1}}
]])

expect_exit(0 pass
            ${BENCH_CHECK} --baseline=base.json --current=cur_good.json)
expect_exit(1 regression
            ${BENCH_CHECK} --baseline=base.json --current=cur_regressed.json)
expect_exit(1 renamed_metric
            ${BENCH_CHECK} --baseline=base.json --current=cur_renamed.json)
expect_exit(2 vacuous_gate
            ${BENCH_CHECK} --baseline=base_simd_only.json --current=cur_scalar.json)
expect_exit(2 missing_file
            ${BENCH_CHECK} --baseline=base.json --current=no_such_file.json)
expect_exit(2 bad_flag
            ${BENCH_CHECK} --baseline=base.json --current=cur_good.json --frobnicate)
# A regressed report must not slip through a threshold that does not parse.
expect_exit(2 nan_threshold
            ${BENCH_CHECK} --baseline=base.json --current=cur_regressed.json
            --threshold=nan)
expect_exit(2 trailing_text_threshold
            ${BENCH_CHECK} --baseline=base.json --current=cur_regressed.json
            --threshold=0.35abc)
expect_exit(2 nan_env_threshold
            ${CMAKE_COMMAND} -E env BENCH_MAX_REGRESSION=nan
            ${BENCH_CHECK} --baseline=base.json --current=cur_regressed.json)

message(STATUS "bench_gate_e2e: bench_check honors its exit-code contract")
