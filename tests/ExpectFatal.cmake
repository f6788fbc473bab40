# Runs a command that must stop with a fatal diagnostic: it passes when the
# command exits non-zero (a guest fault still aborts the host process) and
# its stdout+stderr match REGEX. ctest counts an aborted process as failed
# whatever its output, hence this script. Usage:
#   cmake -DRUN=<program> "-DARGS=<arg;...>" -DREGEX=<regex>
#         -P ExpectFatal.cmake
execute_process(COMMAND ${RUN} ${ARGS} OUTPUT_VARIABLE Out
                ERROR_VARIABLE Out RESULT_VARIABLE Rc)
if(Rc EQUAL 0)
  message(FATAL_ERROR "expected a fatal error, but the run exited 0:\n${Out}")
endif()
if(NOT Out MATCHES "${REGEX}")
  message(FATAL_ERROR "output does not match '${REGEX}' (exit ${Rc}):\n${Out}")
endif()
