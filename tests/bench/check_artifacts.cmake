# Run one harness with artifact flags and check what it writes.
#
#   cmake -DBENCH=<binary> -DWORK=<scratch dir> -DKINDS=<kind;...>
#         [-DARGS=<arg|arg|...>] [-DEXPECT_FAIL=<regex>]
#         -P check_artifacts.cmake
#
# Each kind K in KINDS (metrics, timeseries, trace, state, bench-json)
# is requested as `--K K.json`, and each written file must parse as
# JSON carrying its schema (a trace, which has none, its Perfetto
# display unit). ARGS are extra harness arguments, `|`-separated so a
# watchdog rule can contain spaces. The harness must exit 0 — or, with
# EXPECT_FAIL, exit nonzero and print a line matching that regex.

foreach(var BENCH WORK KINDS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_artifacts.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

set(args "")
if(DEFINED ARGS)
  string(REPLACE "|" ";" args "${ARGS}")
endif()
foreach(kind IN LISTS KINDS)
  list(APPEND args --${kind} ${kind}.json)
endforeach()

execute_process(
  COMMAND ${BENCH} ${args}
  WORKING_DIRECTORY ${WORK}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(DEFINED EXPECT_FAIL)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${args} exited 0; expected a failure")
  endif()
  if(NOT "${out}${err}" MATCHES "${EXPECT_FAIL}")
    message(FATAL_ERROR "output lacks '${EXPECT_FAIL}':\n${out}${err}")
  endif()
elseif(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${args} exited with ${rc}:\n${err}")
endif()

set(want_metrics storm.metrics.v1)
set(want_timeseries storm.timeseries.v1)
set(want_state storm.state.v1)
set(want_bench-json storm.bench.v1)
foreach(kind IN LISTS KINDS)
  if(NOT EXISTS ${WORK}/${kind}.json)
    message(FATAL_ERROR "--${kind} wrote no ${kind}.json")
  endif()
  file(READ ${WORK}/${kind}.json doc)
  if(kind STREQUAL "trace")
    string(JSON got ERROR_VARIABLE jerr GET "${doc}" displayTimeUnit)
    set(want ms)
  else()
    string(JSON got ERROR_VARIABLE jerr GET "${doc}" schema)
    set(want ${want_${kind}})
  endif()
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${kind}.json: got '${got}', want '${want}' ${jerr}")
  endif()
endforeach()

message(STATUS "${BENCH}: ${KINDS} OK")
