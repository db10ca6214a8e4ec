# cobra_sim stdout must not depend on --jobs: a detailed grid with its
# --stats/--area text, and a warp grid, each byte-compared at --jobs 1
# and --jobs 4. Driven as a CMake script so the checks work on hosts
# without a POSIX shell.
set(grid --design b2,tagel --workload mcf,leela)

# Run the grid at --jobs 1 and 4; both must succeed, print @p marker
# and print the same bytes.
function(compare_jobs name marker)
    foreach(jobs 1 4)
        execute_process(
            COMMAND "${COBRA_SIM}" ${grid} ${ARGN} --jobs ${jobs}
            OUTPUT_VARIABLE out${jobs} RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "${name} grid at --jobs ${jobs} failed: rc=${rc}")
        endif()
    endforeach()
    string(FIND "${out1}" "${marker}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${name} grid lacks '${marker}':\n${out1}")
    endif()
    if(NOT out1 STREQUAL out4)
        message(FATAL_ERROR "${name} grid: stdout differs between "
                            "--jobs 1 and --jobs 4\n--jobs 1:\n${out1}\n"
                            "--jobs 4:\n${out4}")
    endif()
endfunction()

compare_jobs(detailed "predictor area" --insts 6000 --warmup 1000
             --stats --area)
compare_jobs(warp "est IPC" --insts 40000 --warmup 2000 --warp
             --intervals 3 --sample-insts 5000 --warmup-cycles 1000)
