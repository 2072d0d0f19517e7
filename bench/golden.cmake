# One golden-table check: run a bench's table pass (no timing loops)
# and hold every table cell to a committed baseline. Run as
#
#   cmake -DBENCH=<bench exe> -DREPORT_DIFF=<report_diff exe>
#         -DBASELINE=<BENCH_*.json> -DOUT=<report.json>
#         [-DBENCH_ARGS=<extra;args>] -P golden.cmake
#
# Fails when the bench exits non-zero or report_diff --ignore-timings
# finds a differing cell.

get_filename_component(name ${BENCH} NAME_WE)
get_filename_component(out_dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${out_dir})

execute_process(
    COMMAND ${BENCH} --benchmark_filter=^$ --json=${OUT} ${BENCH_ARGS}
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
