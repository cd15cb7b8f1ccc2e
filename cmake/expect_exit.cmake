# Prove a binary rejects bad usage cleanly: run it and require exit
# status 2 (a diagnostic exit, not an abort or a finding) with MATCH
# somewhere in its stderr. Driven by bbb_add_rejects (CMakeLists.txt).
#
# Usage:
#   cmake -DBIN=<binary> -DARGS="<args>" -DMATCH=<regex>
#         -P expect_exit.cmake

separate_arguments(ARGS)

execute_process(COMMAND ${BIN} ${ARGS}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${BIN} ${ARGS} exited with '${rc}', want 2")
endif()
if(NOT err MATCHES "${MATCH}")
    message(FATAL_ERROR "stderr lacks '${MATCH}': ${err}")
endif()
