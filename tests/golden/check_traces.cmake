# Output-file golden: re-run every line of a golden file
# ("<sha256> <astra-sim arguments>") from the source root with
# FLAG=<TRACE>, and fail, listing every mismatch, unless each run
# writes that file with exactly that SHA-256. FLAG defaults to
# --trace-file (tests/golden/traces.txt: the Chrome trace carries the
# network's per-dimension utilization counter lanes, which no metric
# report or digest sees); tests/golden/explore_report.txt uses
# --report-json (every explore candidate's full metric registry).
# tools/update_goldens.sh regenerates both files.
#
# Invoked with -DASTRA_SIM=... -DSOURCE_DIR=... -DGOLDEN=...
# -DTRACE=<scratch path for the output> [-DFLAG=--report-json]

if(NOT DEFINED FLAG)
    set(FLAG --trace-file)
endif()

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
        COMMAND "${ASTRA_SIM}" ${args} ${FLAG}=${TRACE}
        WORKING_DIRECTORY "${SOURCE_DIR}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0 OR NOT EXISTS "${TRACE}")
        string(APPEND failures "\n  ${argline}: exit ${rc}, no ${FLAG} output (${err})")
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
    message(FATAL_ERROR "${FLAG} goldens differ:${failures}")
endif()
message(STATUS "${checked} ${FLAG} goldens reproduced")
