# tools/refresh_bench_results.sh must refuse to regenerate committed
# records under a non-default harness schedule: with COBRA_FAST set it
# exits 2, naming the variable, before it even looks for the build
# directory (which is deliberately missing here).
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env COBRA_FAST=1
            bash "${SCRIPT}" "${WORK_DIR}/no-such-build-dir"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got rc=${rc}: ${err}")
endif()
if(NOT err MATCHES "COBRA_FAST")
    message(FATAL_ERROR "message does not name COBRA_FAST: ${err}")
endif()
if(out MATCHES "== bench_")
    message(FATAL_ERROR "a harness ran before the guard: ${out}")
endif()
