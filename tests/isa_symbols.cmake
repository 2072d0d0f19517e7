# Hold the SIMD kernel objects (kernels_avx2, kernels_avx512) to their
# linkage rule: each may export its table provider and nothing else. A
# weak or unique global in one of them -- an inline function or a
# template instantiation emitted out of line -- is compiled with that
# object's ISA flags, and the linker may keep that copy for every
# caller, baseline code included. Run as
#
#   cmake -DNM=<nm> -DOBJECTS=<dsv3_numerics objects> -P isa_symbols.cmake
#
# Fails when either object defines a global other than its
# *KernelTable() provider (and the personality-routine word below),
# listing the offenders.

set(checked 0)
set(bad "")
foreach(obj ${OBJECTS})
    if(NOT obj MATCHES "kernels_avx(2|512)\\.cc\\.o$")
        continue()
    endif()
    math(EXPR checked "${checked} + 1")
    execute_process(
        COMMAND ${NM} -C -g --defined-only ${obj}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE syms
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${NM} failed on ${obj}: ${err}")
    endif()
    string(REPLACE "\n" ";" lines "${syms}")
    foreach(line ${lines})
        # "<value> <type> <name>": W/V weak, u unique, others strong.
        if(NOT line MATCHES "^[0-9a-fA-F]* ([A-Za-z]) (.+)$")
            continue()
        endif()
        set(type ${CMAKE_MATCH_1})
        set(symbol "${CMAKE_MATCH_2}")
        if(type STREQUAL "T" AND symbol MATCHES
               "^dsv3::numerics::detail::avx(2|512)KernelTable\\(\\)$")
            continue()
        endif()
        # Objects with exception landing pads (sanitizer builds) carry
        # a weak data word holding the C++ personality routine's
        # address: no code, the same in every object.
        if(symbol STREQUAL "DW.ref.__gxx_personality_v0")
            continue()
        endif()
        get_filename_component(name ${obj} NAME)
        string(APPEND bad "\n  ${name}: ${type} ${symbol}")
    endforeach()
endforeach()

if(NOT checked EQUAL 2)
    message(FATAL_ERROR "expected the two ISA kernel objects in OBJECTS, "
                        "found ${checked}")
endif()
if(bad)
    message(FATAL_ERROR "ISA kernel objects export more than their table "
                        "providers:${bad}")
endif()
