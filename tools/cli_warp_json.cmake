# Warp points in `cobra_sim --json` must report what their intervals
# did, like sweep points: the estimate's result fields, and the guard::
# class of a failure. Driven as a CMake script so the checks work on hosts
# without a POSIX shell.
set(json "${WORK_DIR}/cli_warp_json.json")
set(flags --design tagel --workload leela --warmup 2000 --warp
          --intervals 2)

# A TAGE-L warp point succeeds and carries its result fields and host
# block.
execute_process(
    COMMAND "${COBRA_SIM}" ${flags} --insts 40000 --warmup-cycles 2000
            --json "${json}"
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "warp run failed: rc=${rc}")
endif()
file(READ "${json}" doc)
foreach(field "\"insts\": 40000," "\"cycles\": " "\"accuracy\": "
              "\"host\": {")
    string(FIND "${doc}" "${field}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "warp point lacks ${field}:\n${doc}")
    endif()
endforeach()
string(FIND "${doc}" "\"error" at)
if(NOT at EQUAL -1)
    message(FATAL_ERROR "warp point failed:\n${doc}")
endif()

# A deadlocking interval fails the point with the deterministic "sim"
# class, not the transient "internal" fallback.
execute_process(
    COMMAND "${COBRA_SIM}" ${flags} --insts 20000 --warmup-cycles 1000
            --deadlock-cycles 2 --json "${json}"
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "deadlocking warp run: expected rc=1, got ${rc}")
endif()
file(READ "${json}" doc)
string(FIND "${doc}" "\"error_class\": \"sim\"" at)
if(at EQUAL -1)
    message(FATAL_ERROR "failed warp point has the wrong error class:\n"
                        "${doc}")
endif()
file(REMOVE "${json}")
