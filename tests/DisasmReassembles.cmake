# Runs `dchm_run disasm` and checks that every method it prints re-assembles
# inside its class: each printed block takes the place of the method's text
# in the workload's .mvm file, and `dchm_run exec` must then assemble, link
# and run ENTRY. The bytecode block must be that text verbatim.
#
#   cmake -DRUN=<dchm_run> -DARGS=<disasm args> -DPROGRAM=<workload .mvm>
#         -DENTRY=<Class.method> -DOUT=<file prefix> -P DisasmReassembles.cmake
execute_process(COMMAND ${RUN} ${ARGS} RESULT_VARIABLE Rc
                OUTPUT_VARIABLE Dump ERROR_VARIABLE Err)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "dchm_run ${ARGS} exited ${Rc}: ${Err}")
endif()
message("${Dump}")
string(REGEX MATCHALL "  (method|ctor) [^}]*  }\n" Blocks "${Dump}")
list(LENGTH Blocks N)
if(N EQUAL 0)
  message(FATAL_ERROR "no method in the dump")
endif()
file(READ ${PROGRAM} Program)
list(GET Blocks 0 Bytecode)
string(FIND "${Program}" "${Bytecode}" At)
if(At EQUAL -1)
  message(FATAL_ERROR "the bytecode block is not the method's text in ${PROGRAM}")
endif()
set(I 0)
foreach(Block IN LISTS Blocks)
  string(REPLACE "${Bytecode}" "${Block}" Text "${Program}")
  file(WRITE ${OUT}${I}.mvm "${Text}")
  execute_process(COMMAND ${RUN} exec ${OUT}${I}.mvm --entry=${ENTRY} 8
                  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_VARIABLE Err)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "block ${I} does not re-assemble in its class: ${Err}")
  endif()
  math(EXPR I "${I} + 1")
endforeach()
message("${N} methods re-assemble in their class")
