# One golden-table check: run a bench's table pass (no timing loops)
# and hold every table cell to a committed baseline. Run as
#
#   cmake -DBENCH=<bench exe> -DREPORT_DIFF=<report_diff exe>
#         -DBASELINE=<BENCH_*.json> -DOUT=<report.json>
#         [-DBENCH_ARGS=<extra;args>] [-DSTATS=<name,name,...>]
#         [-DTIMELINE=<timeline.json> [-DTIMELINE_REF=<timeline.json>]
#          [-DTIMELINE_SHA256=<hex>]]
#         -P golden.cmake
#
# Fails when the bench exits non-zero, report_diff --ignore-timings
# finds a differing cell or timeseries sample, or the report lacks one
# of the STATS. TIMELINE also writes the run's sim-time timeline; with
# TIMELINE_REF that timeline must match the reference byte for byte,
# and is deleted when it does; with TIMELINE_SHA256 its SHA-256 must
# equal <hex>. With DSV3_KERNEL_DISPATCH
# set to an ISA in the environment, the report's dispatch stamp must
# name that ISA as forced; when the host cannot run it the tables are
# still checked, and the test prints "golden test skipped" (which the
# ctest's SKIP_REGULAR_EXPRESSION reports as a skip).

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

file(READ ${OUT} report)
if(DEFINED STATS)
    string(REPLACE "," ";" stats "${STATS}")
    foreach(stat ${stats})
        string(JSON type ERROR_VARIABLE missing TYPE "${report}" stats
               ${stat})
        if(missing)
            message(FATAL_ERROR "${name} report ${OUT} has no stat ${stat}")
        endif()
    endforeach()
endif()

if(DEFINED ENV{DSV3_KERNEL_DISPATCH})
    string(TOLOWER "$ENV{DSV3_KERNEL_DISPATCH}" want)
    string(JSON isa GET "${report}" dispatch isa)
    string(JSON forced GET "${report}" dispatch forced)
    if(NOT (isa STREQUAL want AND forced))
        if(log MATCHES "DSV3_KERNEL_DISPATCH=.* is not supported on this host")
            message("golden test skipped: this host cannot run the "
                    "${want} kernel table (the ${isa} table ran)")
            return()
        endif()
        message(FATAL_ERROR "${name} ran with DSV3_KERNEL_DISPATCH="
            "$ENV{DSV3_KERNEL_DISPATCH} but its report's dispatch stamp is "
            "isa=${isa} forced=${forced}")
    endif()
endif()

if(DEFINED TIMELINE_SHA256)
    file(SHA256 ${TIMELINE} sha)
    if(NOT sha STREQUAL TIMELINE_SHA256)
        message(FATAL_ERROR "${name} timeline ${TIMELINE} has SHA-256 "
            "${sha}, not the pinned ${TIMELINE_SHA256}")
    endif()
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
