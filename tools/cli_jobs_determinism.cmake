# cobra_sim output must not depend on --jobs: a detailed grid's stdout
# with its --stats/--area text, a warp grid's stdout and checkpoint
# files, each byte-compared at --jobs 1 and --jobs 4. Driven as a CMake
# script so the checks work on hosts without a POSIX shell.
set(grid --design b2,tagel --workload mcf,leela)

# Run the grid at --jobs 1 and 4; both must succeed, print @p marker
# and print the same bytes. "@JOBS@" in the flags reads as the width.
function(compare_jobs name marker)
    foreach(jobs 1 4)
        string(REPLACE "@JOBS@" "${jobs}" flags "${ARGN}")
        execute_process(
            COMMAND "${COBRA_SIM}" ${grid} ${flags} --jobs ${jobs}
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
# Each warp point writes its intervals under its own --checkpoint-dir
# subdirectory. At --jobs 4 the four points run as one batch, so their
# sibling directories are created concurrently.
set(ckpt "${WORK_DIR}/cli_jobs_determinism_ckpt")
file(REMOVE_RECURSE "${ckpt}1" "${ckpt}4")
compare_jobs(warp "est IPC" --insts 40000 --warmup 2000 --warp
             --intervals 3 --sample-insts 5000 --warmup-cycles 1000
             --checkpoint-dir "${ckpt}@JOBS@")
foreach(point B2/mcf B2/leela TAGE-L/mcf TAGE-L/leela)
    foreach(i 0 1 2)
        set(f "${point}/interval-${i}.warp")
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E compare_files "${ckpt}1/${f}"
                    "${ckpt}4/${f}"
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "${f} is missing or differs between --jobs 1 and 4")
        endif()
    endforeach()
endforeach()
file(REMOVE_RECURSE "${ckpt}1" "${ckpt}4")
