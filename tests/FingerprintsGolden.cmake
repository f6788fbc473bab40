# Prints the simulated fingerprint of every deployment the tools and
# examples make and compares it byte for byte with the golden file:
#  - `dchm_run run` of each Table 1 workload with mutation on, with
#    --no-mutation, with --online, with --online --no-mutation and with
#    --accelerated;
#  - `dchm_run plan` of each workload;
#  - the stdout of each example;
#  - `dchm_run exec` of every tests/data and examples/mvm text that runs to
#    completion, and again with --mutate --audit where the text carries a
#    `#!mutable` plan: its cycles and audit count, and a hash of its output
#    and result;
#  - the summary lines of two fixed-seed `dchm_fuzz` runs.
# Host measurements (the `wall time:` and `peak host RSS:` lines) are
# dropped, so what remains is deterministic. Usage:
#   cmake -DRUN=<dchm_run> -DFUZZ=<dchm_fuzz>
#         -DEXAMPLES=<dir of example binaries>
#         -DGOLDEN=<fingerprints.golden> -DACTUAL=<output file>
#         -P FingerprintsGolden.cmake
# A deliberate change of a simulated number regenerates the golden file
# from ACTUAL (see the failure message) in the same commit.
set(Workloads SalaryDB SimLogic CSVToXML Java2XHTML Weka SPECjbb2000
    SPECjbb2005)
set(Examples quickstart zoo logicsim promotion online)
# Texts that stop by design: two link errors and a guest null-pointer fault
# (each has its own cli_exec_* test).
set(ExecSkip badlink.mvm too_many_args.mvm dead_load.mvm)
# Entry arguments of the texts whose main takes one.
set(ExecArgs_div_overflow.mvm -1)
set(ExecArgs_fizzbuzz.mvm 15)
set(ExecArgs_warehouses.mvm 6000)

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
  foreach(Mode "" "--no-mutation" "--online" "--online;--no-mutation"
          "--accelerated")
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

# `exec` prints the guest's output and result, then `cycles:` and the audit
# report; the part before `cycles:` is kept as a hash.
function(exec_fingerprint Title)
  execute_process(COMMAND ${ARGN} OUTPUT_VARIABLE Text ERROR_VARIABLE Err
                  RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "${Title} exited with ${Rc}:\n${Text}${Err}")
  endif()
  string(FIND "${Text}" "cycles: " At REVERSE)
  string(SUBSTRING "${Text}" 0 ${At} Guest)
  string(SUBSTRING "${Text}" ${At} -1 Tail)
  string(SHA256 Hash "${Guest}")
  set(Out "${Out}== ${Title}\noutput sha256: ${Hash}\n${Tail}" PARENT_SCOPE)
endfunction()

file(GLOB Texts ${CMAKE_CURRENT_LIST_DIR}/data/*.mvm
     ${CMAKE_CURRENT_LIST_DIR}/../examples/mvm/*.mvm)
foreach(Path ${Texts})
  get_filename_component(Name ${Path} NAME)
  list(FIND ExecSkip ${Name} Skip)
  if(NOT Skip EQUAL -1)
    continue()
  endif()
  set(Args ${ExecArgs_${Name}})
  string(REPLACE ";" " " Title "exec ${Name} ${Args}")
  string(STRIP "${Title}" Title)
  exec_fingerprint("${Title}" ${RUN} exec ${Path} ${Args})
  file(STRINGS ${Path} Plan REGEX "^#!mutable ")
  if(Plan)
    exec_fingerprint("${Title} --mutate --audit" ${RUN} exec ${Path} ${Args}
                     --mutate --audit)
  endif()
endforeach()

foreach(Args "--n=400;--seed=1" "--threads;--n=15;--seed=1")
  string(REPLACE ";" " " Title "fuzz ${Args}")
  fingerprint("${Title}" ${FUZZ} ${Args})
endforeach()

file(WRITE ${ACTUAL} "${Out}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE Differs)
if(Differs)
  message(FATAL_ERROR "the simulated fingerprints differ from the golden "
                      "file; see: diff ${GOLDEN} ${ACTUAL}")
endif()
