# Console color check: run one short microbenchmark of ${BENCH} with
# --benchmark_color=false and with the default "auto" (ctest pipes
# stdout, so no terminal), and fail if either output holds an ESC
# byte; --benchmark_color=true must still color, so the check can see
# a color code at all.
#
#   cmake -DBENCH=<bench exe> -DFILTER=<benchmark regex>
#         -P console_color.cmake

string(ASCII 27 esc)
foreach(color false auto true)
    set(args --benchmark_filter=${FILTER} --benchmark_min_time=0.001)
    if(NOT color STREQUAL "auto")
        list(APPEND args --benchmark_color=${color})
    endif()
    execute_process(
        COMMAND ${BENCH} ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BENCH} ${args} exited with ${rc}:\n${out}")
    endif()
    string(FIND "${out}" "${esc}" at)
    if(color STREQUAL "true" AND at EQUAL -1)
        message(FATAL_ERROR "--benchmark_color=true printed no color "
            "code:\n${out}")
    elseif(NOT color STREQUAL "true" AND NOT at EQUAL -1)
        message(FATAL_ERROR "--benchmark_color=${color} output holds "
            "an ESC byte at offset ${at}")
    endif()
endforeach()
