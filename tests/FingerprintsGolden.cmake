# Prints the simulated fingerprint of every deployment the tools and
# examples make and compares it byte for byte with the golden file:
#  - `dchm_run run` of each Table 1 workload with mutation on, with
#    --no-mutation, with --online and with --online --no-mutation;
#  - `dchm_run plan` of each workload;
#  - the stdout of each example.
# Host measurements (the `wall time:` and `peak host RSS:` lines) are
# dropped, so what remains is deterministic. Usage:
#   cmake -DRUN=<dchm_run> -DEXAMPLES=<dir of example binaries>
#         -DGOLDEN=<fingerprints.golden> -DACTUAL=<output file>
#         -P FingerprintsGolden.cmake
# A deliberate change of a simulated number regenerates the golden file
# from ACTUAL (see the failure message) in the same commit.
set(Workloads SalaryDB SimLogic CSVToXML Java2XHTML Weka SPECjbb2000
    SPECjbb2005)
set(Examples quickstart zoo logicsim promotion online)

set(Out "")
function(fingerprint Title)
  execute_process(COMMAND ${ARGN} OUTPUT_VARIABLE Text ERROR_VARIABLE Err
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Title} exited with ${Rc}:\n${Text}${Err}")
  endif()
  string(REGEX REPLACE "  (wall time|peak host RSS): [^\n]*\n" "" Text
         "${Text}")
  set(Out "${Out}== ${Title}\n${Text}" PARENT_SCOPE)
endfunction()

foreach(W ${Workloads})
  foreach(Mode "" "--no-mutation" "--online" "--online;--no-mutation")
    string(REPLACE ";" " " Title "run ${W} ${Mode}")
    string(STRIP "${Title}" Title)
    fingerprint("${Title}" ${RUN} run ${W} ${Mode})
  endforeach()
endforeach()
foreach(W ${Workloads})
  fingerprint("plan ${W}" ${RUN} plan ${W})
endforeach()
foreach(E ${Examples})
  fingerprint("example ${E}" ${EXAMPLES}/${E})
endforeach()

file(WRITE ${ACTUAL} "${Out}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE Differs)
if(Differs)
  message(FATAL_ERROR "the simulated fingerprints differ from the golden "
                      "file; see: diff ${GOLDEN} ${ACTUAL}")
endif()
