# Behaviour golden: re-run every line of tests/golden/digests.txt
# ("<digest> <report-sha256> <astra-sim arguments>") from the source
# root with --digest and --report-json, and fail, listing every
# mismatch, unless each run reproduces both its retired-event digest
# and the SHA-256 of its metric report exactly.
# tools/update_goldens.sh regenerates the file.
#
# Invoked with -DASTRA_SIM=... -DSOURCE_DIR=... -DGOLDEN=...
# -DREPORT=<scratch path for the metric report>

file(STRINGS "${GOLDEN}" lines)
set(checked 0)
set(failures "")
foreach(line IN LISTS lines)
    if(line MATCHES "^#" OR line STREQUAL "")
        continue()
    endif()
    if(NOT line MATCHES "^(0x[0-9a-f]+) ([0-9a-f]+) (.+)$")
        message(FATAL_ERROR "malformed golden line: ${line}")
    endif()
    set(want "${CMAKE_MATCH_1}")
    set(want_sha "${CMAKE_MATCH_2}")
    set(argline "${CMAKE_MATCH_3}")
    separate_arguments(args UNIX_COMMAND "${argline}")
    file(REMOVE "${REPORT}")
    execute_process(
        COMMAND "${ASTRA_SIM}" ${args} --digest --report-json=${REPORT}
        WORKING_DIRECTORY "${SOURCE_DIR}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    string(REGEX MATCH "event digest: (0x[0-9a-f]+)" found "${out}")
    set(got "${CMAKE_MATCH_1}")
    if(NOT rc EQUAL 0 OR NOT found OR NOT EXISTS "${REPORT}")
        string(APPEND failures
               "\n  ${argline}: exit ${rc}, no digest or report (${err})")
    else()
        file(SHA256 "${REPORT}" got_sha)
        if(NOT got STREQUAL want)
            string(APPEND failures
                   "\n  ${argline}: digest ${got}, want ${want}")
        endif()
        if(NOT got_sha STREQUAL want_sha)
            string(APPEND failures
                   "\n  ${argline}: report sha256 ${got_sha}, want ${want_sha}")
        endif()
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()

if(checked EQUAL 0)
    message(FATAL_ERROR "no golden runs in ${GOLDEN}")
endif()
if(failures)
    message(FATAL_ERROR "goldens differ:${failures}")
endif()
message(STATUS "${checked} digest and report goldens reproduced")
