# Lint, run as a ctest: the binaries in tools/, examples/ and bench/ (including the
# shared bench/bench_harness.h, which parses every microbench's flags) parse their
# command lines through src/common/flags.h only.  A hand-rolled `ArgValue` matcher
# or a C number parser (atoi/atof/strtol/..., which accept "12abc", wrap "-1" to a
# huge unsigned value or turn a typo into a silent 0) fails the test, naming the
# file.
# perfbench/ is left out: it is the benchmark harness, which measures this program
# against its parent commit and so only changes together with the benchmark itself;
# its main.cc still parses its few flags by hand.
# Invoked with -DSOURCE_DIR=...
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "no_adhoc_flags: SOURCE_DIR not defined")
endif()

file(GLOB sources ${SOURCE_DIR}/tools/*.cpp ${SOURCE_DIR}/examples/*.cpp
     ${SOURCE_DIR}/bench/*.cpp ${SOURCE_DIR}/bench/*.h)
list(LENGTH sources checked)
if(checked EQUAL 0)
  message(FATAL_ERROR "no_adhoc_flags: no sources found under ${SOURCE_DIR}")
endif()

set(banned "ArgValue|atoi|atof|atol|atoll|strtol|strtoll|strtoul|strtoull|strtod|strtof")
set(violations "")
foreach(source ${sources})
  file(READ ${source} text)
  string(REGEX MATCHALL "[^A-Za-z0-9_](${banned})[^A-Za-z0-9_]" hits "${text}")
  if(hits)
    string(REGEX REPLACE "[^A-Za-z0-9_;]" "" hits "${hits}")
    list(REMOVE_DUPLICATES hits)
    list(JOIN hits ", " hits)
    file(RELATIVE_PATH rel ${SOURCE_DIR} ${source})
    string(APPEND violations "  ${rel}: ${hits}\n")
  endif()
endforeach()

if(violations)
  message(FATAL_ERROR "no_adhoc_flags: parse flags with src/common/flags.h, not by "
                      "hand:\n${violations}")
endif()
message(STATUS "no_adhoc_flags: no hand-rolled flag or number parsing in ${checked} "
               "sources")
