# Runs one figure/table/ablation bench or example and compares its stdout
# with the committed golden file (tests/golden/figures/<name>.txt), or
# rewrites that file when REGEN is set. Wall-clock lines are dropped first:
# fleet_demo's "fleet ran N device-cycles in T s (R M device-cycles/s)".
#
#   cmake -DBIN=<binary> -DGOLDEN=<golden.txt> [-DREGEN=1] -P golden_output.cmake
if(NOT BIN OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBIN=<binary> -DGOLDEN=<file> [-DREGEN=1] -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
string(REGEX REPLACE "fleet ran [0-9]+ device-cycles in [^\n]*\n" "" out "${out}")
if(REGEN)
  file(WRITE "${GOLDEN}" "${out}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual}" "${out}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}\n"
                      "  diff ${GOLDEN} ${actual}\n"
                      "Regenerate with tools/regen_golden_figures.sh only for an intended change.")
endif()
