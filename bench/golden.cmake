# One golden-table check: run a bench's table pass (no timing loops)
# and hold every table cell to a committed baseline. Run as
#
#   cmake -DBENCH=<bench exe> -DREPORT_DIFF=<report_diff exe>
#         -DBASELINE=<BENCH_*.json> -DOUT=<report.json>
#         [-DBENCH_ARGS=<extra;args>]
#         [-DTIMELINE=<timeline.json> [-DTIMELINE_REF=<timeline.json>]]
#         -P golden.cmake
#
# Fails when the bench exits non-zero or report_diff --ignore-timings
# finds a differing cell. TIMELINE also writes the run's sim-time
# timeline; with TIMELINE_REF that timeline must match the reference
# byte for byte, and is deleted when it does.

get_filename_component(name ${BENCH} NAME_WE)
get_filename_component(out_dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${out_dir})

set(args --benchmark_filter=^$ --json=${OUT} ${BENCH_ARGS})
if(DEFINED TIMELINE)
    list(APPEND args --timeline=${TIMELINE})
endif()
execute_process(
    COMMAND ${BENCH} ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE log
    ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}:\n${log}")
endif()

execute_process(
    COMMAND ${REPORT_DIFF} --bench=${name} --ignore-timings
            ${BASELINE} ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} tables differ from ${BASELINE}")
endif()

if(DEFINED TIMELINE_REF)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${TIMELINE_REF}
                ${TIMELINE}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${name} timeline ${TIMELINE} differs from ${TIMELINE_REF}")
    endif()
    file(REMOVE ${TIMELINE})
endif()
