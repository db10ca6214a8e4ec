# The sampling profiler (tools/profile): preloaded into a short
# cobra_sim run, it writes one sample file, and the symbolizer charges
# samples to the simulator's own functions. Driven as a CMake script so
# the check needs no POSIX shell.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "LD_PRELOAD=${PROF_LIB}"
            "${COBRA_SIM}" --workload leela --insts 20000 --warmup 5000
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "profiled cobra_sim run failed: rc=${rc}")
endif()
file(GLOB profiles "${WORK_DIR}/cobra-prof.*.txt")
list(LENGTH profiles n)
if(NOT n EQUAL 1)
    message(FATAL_ERROR "expected one profile file, found ${n}")
endif()
execute_process(
    COMMAND "${PYTHON}" "${SYMBOLIZE}" ${profiles} --top 10
    OUTPUT_VARIABLE table RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "symbolize.py failed: rc=${rc}")
endif()
foreach(want " samples\n" "cobra::" "[cobra_sim]")
    string(FIND "${table}" "${want}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "profile table lacks '${want}':\n${table}")
    endif()
endforeach()
# A reader that closes the pipe at once, as `| head` does once it has
# its lines: the symbolizer exits 0 and prints no traceback.
execute_process(
    COMMAND "${PYTHON}" "${SYMBOLIZE}" ${profiles}
    COMMAND "${PYTHON}" -c "import os; os.close(0)"
    RESULTS_VARIABLE rcs ERROR_VARIABLE err)
list(GET rcs 0 rc)
if(NOT rc EQUAL 0 OR NOT err STREQUAL "")
    message(FATAL_ERROR "symbolize.py into a closed pipe: rc=${rc}\n${err}")
endif()
