# Runs a workload both ways, `dchm_run run WORKLOAD --no-mutation` and
# `dchm_run exec PROGRAM` on its .mvm text, and checks that both print the
# same program output and total cycles: the text's `#!drive` line is the
# whole run. Usage:
#   cmake -DRUN=<dchm_run> -DWORKLOAD=<name> -DPROGRAM=<its .mvm>
#         -P ExecMatchesRun.cmake
execute_process(COMMAND ${RUN} run ${WORKLOAD} --no-mutation
                OUTPUT_VARIABLE Run ERROR_VARIABLE Err RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0 OR NOT Run MATCHES
   "total cycles: +([0-9]+)\n.*program output: +(.*)\n$")
  message(FATAL_ERROR "dchm_run run ${WORKLOAD} (exit ${Rc}):\n${Run}${Err}")
endif()
set(RunCycles ${CMAKE_MATCH_1})
set(RunOutput "${CMAKE_MATCH_2}")
execute_process(COMMAND ${RUN} exec ${PROGRAM}
                OUTPUT_VARIABLE Exec ERROR_VARIABLE Err RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0 OR NOT Exec MATCHES "^output: (.*)\ncycles: ([0-9]+)\n$")
  message(FATAL_ERROR "dchm_run exec ${PROGRAM} (exit ${Rc}):\n${Exec}${Err}")
endif()
if(NOT "${CMAKE_MATCH_1}" STREQUAL "${RunOutput}" OR
   NOT CMAKE_MATCH_2 EQUAL RunCycles)
  message(FATAL_ERROR "exec printed output '${CMAKE_MATCH_1}' in "
          "${CMAKE_MATCH_2} cycles; run printed '${RunOutput}' in "
          "${RunCycles} cycles")
endif()
message("${WORKLOAD}: output ${RunOutput}, ${RunCycles} cycles both ways")
