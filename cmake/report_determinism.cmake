# Prove a binary's --json report is a pure function of its inputs: run
# it at two worker-pool widths, with the shipped defaults, and require
# byte-identical documents. Optionally diff the --jobs 1 document
# against a committed baseline at --tolerance 0 (BASELINE + PYTHON +
# TOOL).
#
# Usage (driven by the report_smoke ctest label):
#   cmake -DBIN=<binary> -DARGS="<args>" -DOUT=<stem>
#         [-DBASELINE=<json> -DPYTHON=<python3> -DTOOL=<compare...py>]
#         -P report_determinism.cmake

separate_arguments(ARGS)

foreach(jobs 1 8)
    execute_process(
        COMMAND ${BIN} ${ARGS} --jobs ${jobs} --json ${OUT}.j${jobs}.json
        RESULT_VARIABLE run_rc)
    if(NOT run_rc EQUAL 0)
        message(FATAL_ERROR "${BIN} --jobs ${jobs} exited with ${run_rc}")
    endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT}.j1.json ${OUT}.j8.json
    RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
            "report differs between --jobs 1 and --jobs 8: "
            "${OUT}.j1.json vs ${OUT}.j8.json")
endif()

if(DEFINED BASELINE)
    execute_process(
        COMMAND ${PYTHON} ${TOOL} diff --tolerance 0
                ${BASELINE} ${OUT}.j1.json
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR
                "report diverges from committed baseline ${BASELINE}")
    endif()
endif()
