# Run one bench/campaign binary with `--json` and schema-validate the
# resulting bbb-bench-report document.
#
# Usage (driven by the report_smoke ctest label):
#   cmake -DBIN=<binary> -DARGS="<args>" -DJSON=<out.json>
#         -DPYTHON=<python3> -DTOOL=<compare_bench_json.py>
#         -P report_smoke.cmake

separate_arguments(ARGS)

execute_process(
    COMMAND ${BIN} ${ARGS} --json ${JSON}
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${run_rc}")
endif()

execute_process(
    COMMAND ${PYTHON} ${TOOL} validate ${JSON}
    RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
    message(FATAL_ERROR "schema validation failed for ${JSON}")
endif()
