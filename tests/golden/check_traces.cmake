# Trace golden: re-run every line of tests/golden/traces.txt
# ("<trace-sha256> <astra-sim arguments>") from the source root with
# --trace-file, and fail, listing every mismatch, unless each run
# writes a Chrome trace with exactly that SHA-256. The trace carries
# the network's per-dimension utilization counter lanes, which no
# metric report or digest sees. tools/update_goldens.sh regenerates
# the file.
#
# Invoked with -DASTRA_SIM=... -DSOURCE_DIR=... -DGOLDEN=...
# -DTRACE=<scratch path for the trace>

file(STRINGS "${GOLDEN}" lines)
set(checked 0)
set(failures "")
foreach(line IN LISTS lines)
    if(line MATCHES "^#" OR line STREQUAL "")
        continue()
    endif()
    if(NOT line MATCHES "^([0-9a-f]+) (.+)$")
        message(FATAL_ERROR "malformed golden line: ${line}")
    endif()
    set(want_sha "${CMAKE_MATCH_1}")
    set(argline "${CMAKE_MATCH_2}")
    separate_arguments(args UNIX_COMMAND "${argline}")
    file(REMOVE "${TRACE}")
    execute_process(
        COMMAND "${ASTRA_SIM}" ${args} --trace-file=${TRACE}
        WORKING_DIRECTORY "${SOURCE_DIR}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0 OR NOT EXISTS "${TRACE}")
        string(APPEND failures "\n  ${argline}: exit ${rc}, no trace (${err})")
    else()
        file(SHA256 "${TRACE}" got_sha)
        if(NOT got_sha STREQUAL want_sha)
            string(APPEND failures
                   "\n  ${argline}: trace sha256 ${got_sha}, want ${want_sha}")
        endif()
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()

if(checked EQUAL 0)
    message(FATAL_ERROR "no golden runs in ${GOLDEN}")
endif()
if(failures)
    message(FATAL_ERROR "trace goldens differ:${failures}")
endif()
message(STATUS "${checked} trace goldens reproduced")
