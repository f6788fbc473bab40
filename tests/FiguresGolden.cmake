# Runs dchm_figures and compares its stdout byte for byte with the golden
# file. Usage:
#   cmake -DFIGURES=<dchm_figures> -DGOLDEN=<figures.golden>
#         -DACTUAL=<output file> -P FiguresGolden.cmake
# A deliberate figure change regenerates the golden file:
#   build/bench/dchm_figures > tests/data/figures.golden
execute_process(COMMAND ${FIGURES} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "dchm_figures exited with ${Rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE Differs)
if(Differs)
  message(FATAL_ERROR "dchm_figures output differs from the golden file; "
                      "see: diff ${GOLDEN} ${ACTUAL}")
endif()
