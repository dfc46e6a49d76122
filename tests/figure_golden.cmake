# Golden stdout checks for the paper-figure binaries, registered by
# bench/CMakeLists.txt with the tiny scale HH_REQUESTS=24
# HH_SAMPLING=64 HH_SERVERS=2 HH_SEED=1 in the environment.
#
#   cmake -DBIN=<figure binary> -DGOLDEN=<file> -P figure_golden.cmake
#     The binary's stdout (no arguments) must equal GOLDEN byte for
#     byte.
#   cmake -DBIN=<repro_all> -DGOLDEN_DIR=<dir> -P figure_golden.cmake
#     `repro_all --scale default --gate off --no-ledger` must print
#     every golden file of GOLDEN_DIR verbatim.
#
# A figure's golden file is its stdout at that scale:
#   HH_REQUESTS=24 HH_SAMPLING=64 HH_SERVERS=2 HH_SEED=1 \
#     build/bench/<binary> > tests/golden/figures/<binary>.txt

if(GOLDEN_DIR)
    set(args --scale default --gate off --no-ledger)
endif()
execute_process(COMMAND ${BIN} ${args}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}:\n${err}")
endif()

if(NOT GOLDEN_DIR)
    file(READ ${GOLDEN} want)
    if(NOT out STREQUAL want)
        get_filename_component(name ${GOLDEN} NAME)
        file(WRITE ${name}.actual "${out}")
        message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
            "it is in ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
    endif()
    return()
endif()

file(GLOB goldens ${GOLDEN_DIR}/*.txt)
set(missing)
foreach(golden IN LISTS goldens)
    file(READ ${golden} want)
    string(FIND "${out}" "${want}" at)
    if(at EQUAL -1)
        list(APPEND missing ${golden})
    endif()
endforeach()
list(LENGTH goldens n)
if(n EQUAL 0 OR missing)
    file(WRITE repro_all.actual "${out}")
    string(REPLACE ";" "\n  " missing "${missing}")
    message(FATAL_ERROR "repro_all output (in "
        "${CMAKE_CURRENT_BINARY_DIR}/repro_all.actual) lacks the "
        "blocks of:\n  ${missing}")
endif()
