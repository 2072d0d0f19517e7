# Trace-shape check: run ${BENCH}'s table pass (no timing loops) with a
# report and a Chrome trace, and hold both to their shape: the report
# has the dsv3-bench-report/v1 schema and at least ${MIN_STATS} stats,
# and the trace parses, every one of its events has a category, and
# there are at least ${MIN_CATEGORIES} distinct categories.
#
#   cmake -DBENCH=<bench exe> -DOUT=<report.json> -DTRACE=<trace.json>
#         -DMIN_STATS=<n> -DMIN_CATEGORIES=<n> -P trace_report.cmake

get_filename_component(out_dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${out_dir})
execute_process(
    COMMAND ${BENCH} --benchmark_filter=^$ --json=${OUT} --trace=${TRACE}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE log
    ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${log}")
endif()

file(READ ${OUT} report)
string(JSON schema GET "${report}" schema)
if(NOT schema STREQUAL "dsv3-bench-report/v1")
    message(FATAL_ERROR "${OUT}: schema is ${schema}")
endif()
string(JSON stats LENGTH "${report}" stats)
if(stats LESS MIN_STATS)
    message(FATAL_ERROR "${OUT}: ${stats} stats, fewer than ${MIN_STATS}")
endif()

# One parse validates the whole trace; the categories are then read off
# the text, one "cat" member per event.
file(READ ${TRACE} trace)
string(JSON events LENGTH "${trace}" traceEvents)
string(REGEX MATCHALL "\"cat\"[ \t\r\n]*:[ \t\r\n]*\"[^\"]*\"" cats
       "${trace}")
list(LENGTH cats tagged)
if(NOT tagged EQUAL events)
    message(FATAL_ERROR "${TRACE}: ${tagged} categories for ${events} events")
endif()
list(TRANSFORM cats REPLACE "^\"cat\"[ \t\r\n]*:[ \t\r\n]*\"([^\"]*)\"$"
     "\\1")
list(REMOVE_DUPLICATES cats)
list(LENGTH cats distinct)
if(distinct LESS MIN_CATEGORIES)
    message(FATAL_ERROR "${TRACE}: categories ${cats}, fewer than "
        "${MIN_CATEGORIES}")
endif()
message("${OUT}: ${stats} stats; ${TRACE}: ${events} events in "
        "categories ${cats}")
