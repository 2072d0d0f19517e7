# Timed-report check: run ${BENCH}'s microbenchmarks for real, with a
# short minimum time, and hold its dsv3-bench-report/v1 JSON to the
# report shape: the schema, an unforced dispatch stamp naming a kernel
# table, at least one row whose name contains ${EXPECT}, and rows that
# each ran iterations in a positive time.
#
#   cmake -DBENCH=<bench exe> -DOUT=<report.json> -DEXPECT=<row name>
#         -P timed_report.cmake

get_filename_component(out_dir ${OUT} DIRECTORY)
file(MAKE_DIRECTORY ${out_dir})
execute_process(
    COMMAND ${BENCH} --benchmark_min_time=0.01 --json=${OUT}
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
string(JSON isa GET "${report}" dispatch isa)
string(JSON forced GET "${report}" dispatch forced)
if(NOT isa MATCHES "^(scalar|avx2|avx512)$" OR forced)
    message(FATAL_ERROR "${OUT}: dispatch stamp isa=${isa} forced=${forced}")
endif()

string(JSON rows LENGTH "${report}" benchmarks)
if(rows EQUAL 0)
    message(FATAL_ERROR "${OUT}: no benchmark rows")
endif()
set(found FALSE)
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
    string(JSON name GET "${report}" benchmarks ${i} name)
    string(JSON iters GET "${report}" benchmarks ${i} iterations)
    string(JSON secs GET "${report}" benchmarks ${i} real_seconds_per_iter)
    # A positive time: not zero and not negative in any notation.
    if(NOT iters GREATER 0 OR secs MATCHES "^-" OR
       secs MATCHES "^0(\\.0*)?([eE].*)?$")
        message(FATAL_ERROR "${OUT}: row ${name} ran ${iters} iterations "
            "at ${secs} s each")
    endif()
    string(FIND "${name}" "${EXPECT}" at)
    if(NOT at EQUAL -1)
        set(found TRUE)
    endif()
endforeach()
if(NOT found)
    message(FATAL_ERROR "${OUT}: no ${EXPECT} row among ${rows}")
endif()
message("${OUT}: ${rows} rows, dispatch ${isa}")
