# Behaviour golden: re-run every line of tests/golden/digests.txt
# ("<digest> <astra-sim arguments>") from the source root with --digest
# and fail, listing every mismatch, unless each run reproduces its
# digest exactly. tools/update_goldens.sh regenerates the file.
#
# Invoked with -DASTRA_SIM=... -DSOURCE_DIR=... -DGOLDEN=...

file(STRINGS "${GOLDEN}" lines)
set(checked 0)
set(failures "")
foreach(line IN LISTS lines)
    if(line MATCHES "^#" OR line STREQUAL "")
        continue()
    endif()
    if(NOT line MATCHES "^(0x[0-9a-f]+) (.+)$")
        message(FATAL_ERROR "malformed golden line: ${line}")
    endif()
    set(want "${CMAKE_MATCH_1}")
    set(argline "${CMAKE_MATCH_2}")
    separate_arguments(args UNIX_COMMAND "${argline}")
    execute_process(
        COMMAND "${ASTRA_SIM}" ${args} --digest
        WORKING_DIRECTORY "${SOURCE_DIR}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    string(REGEX MATCH "event digest: (0x[0-9a-f]+)" found "${out}")
    set(got "${CMAKE_MATCH_1}")
    if(NOT rc EQUAL 0 OR NOT found)
        string(APPEND failures
               "\n  ${argline}: exit ${rc}, no digest (${err})")
    elseif(NOT got STREQUAL want)
        string(APPEND failures "\n  ${argline}: got ${got}, want ${want}")
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()

if(checked EQUAL 0)
    message(FATAL_ERROR "no golden runs in ${GOLDEN}")
endif()
if(failures)
    message(FATAL_ERROR "digest goldens differ:${failures}")
endif()
message(STATUS "${checked} digest goldens reproduced")
