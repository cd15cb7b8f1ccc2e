# Prove a binary rejects bad input cleanly: run it and require exit
# status EXPECT (a diagnostic exit, not an abort) with MATCH somewhere in
# its stderr.
#
# Usage:
#   cmake -DBIN=<binary> -DARGS="<args>" -DEXPECT=<status> -DMATCH=<regex>
#         -P expect_exit.cmake

separate_arguments(ARGS)

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "${BIN} ${ARGS} exited with '${rc}', want ${EXPECT}")
endif()
if(NOT err MATCHES "${MATCH}")
    message(FATAL_ERROR "stderr lacks '${MATCH}': ${err}")
endif()
