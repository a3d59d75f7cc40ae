# Runs one example and requires exit status 0 and a stdout byte-identical to
# its checked-in golden file:
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<golden.stdout>
#         [-DTRACE_GOLDEN=<golden.trace.sha256>] -P check_golden.cmake
# On a mismatch the actual output lands next to the working directory's
# other run artifacts as <golden name>.actual, ready to diff.
#
# TRACE_GOLDEN, when given, holds one line in `sha256sum` format
# ("<sha256>  <trace file>"): the trace file the example writes into the
# working directory must hash to exactly that value.
cmake_minimum_required(VERSION 3.16)

if(DEFINED TRACE_GOLDEN)
  file(STRINGS "${TRACE_GOLDEN}" pin LIMIT_COUNT 1)
  if(NOT pin MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "${TRACE_GOLDEN} is not '<sha256>  <file>'")
  endif()
  set(expected_hash "${CMAKE_MATCH_1}")
  set(trace "${CMAKE_MATCH_2}")
  # A trace left by an earlier run must not stand in for this run's.
  file(REMOVE "${trace}")
endif()

execute_process(COMMAND "${EXAMPLE}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${GOLDEN}; "
                      "actual output written to ${name}.actual")
endif()

if(DEFINED TRACE_GOLDEN)
  if(NOT EXISTS "${trace}")
    message(FATAL_ERROR "${EXAMPLE} wrote no ${trace}")
  endif()
  file(SHA256 "${trace}" actual_hash)
  if(NOT actual_hash STREQUAL expected_hash)
    message(FATAL_ERROR "${trace} hashes to ${actual_hash}, but "
                        "${TRACE_GOLDEN} pins ${expected_hash}")
  endif()
endif()
