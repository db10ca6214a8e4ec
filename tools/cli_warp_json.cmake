# Warp points in `cobra_sim --json` must report what their intervals
# did, like sweep points: the loop that ran them, and the guard:: class
# of a failure. Driven as a CMake script so the checks work on hosts
# without a POSIX shell.
set(json "${WORK_DIR}/cli_warp_json.json")
set(flags --design tagel --workload leela --warmup 2000 --warp
          --intervals 2)

# Every interval of a TAGE-L warp point runs the fused loop.
execute_process(
    COMMAND "${COBRA_SIM}" ${flags} --insts 40000 --warmup-cycles 2000
            --json "${json}"
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "warp run failed: rc=${rc}")
endif()
file(READ "${json}" doc)
string(FIND "${doc}" "\"loop\": \"specialized\"" at)
if(at EQUAL -1)
    message(FATAL_ERROR "warp point does not report the fused loop:\n"
                        "${doc}")
endif()

# A deadlocking interval fails the point with runWarp's deterministic
# "sim" class, not the transient "internal" fallback.
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
