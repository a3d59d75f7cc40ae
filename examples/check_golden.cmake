# Runs one example and requires exit status 0 and a stdout byte-identical to
# its checked-in golden file:
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<golden.stdout> -P check_golden.cmake
# On a mismatch the actual output lands next to the working directory's
# other run artifacts as <golden name>.actual, ready to diff.
cmake_minimum_required(VERSION 3.16)

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
