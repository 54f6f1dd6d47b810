# Figure golden: run one paper-figure harness with --csv into a fresh
# directory and fail unless it writes exactly the CSVs of
# tests/golden/figures whose names start with its prefix, each byte for
# byte. tools/update_goldens.sh regenerates the directory.
#
# Invoked with -DHARNESS=<binary> -DARGS=<extra flags, ;-list>
# -DPREFIX=<CSV name prefix> -DOUT_DIR=<output dir> -DGOLDEN_DIR=...

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
    COMMAND "${HARNESS}" ${ARGS} --csv=${OUT_DIR}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${HARNESS} ${ARGS} exited ${rc}:\n${err}")
endif()

file(GLOB want RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/${PREFIX}*.csv")
file(GLOB got RELATIVE "${OUT_DIR}" "${OUT_DIR}/*.csv")
if(NOT want)
    message(FATAL_ERROR "no golden ${GOLDEN_DIR}/${PREFIX}*.csv")
endif()
if(NOT want STREQUAL got)
    message(FATAL_ERROR "${HARNESS} wrote [${got}], the goldens are "
                        "[${want}]")
endif()
set(failures "")
foreach(csv IN LISTS want)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${OUT_DIR}/${csv}" "${GOLDEN_DIR}/${csv}"
        RESULT_VARIABLE differs)
    if(differs)
        string(APPEND failures "  ${csv}\n")
    endif()
endforeach()
if(failures)
    message(FATAL_ERROR "figure CSVs differ from ${GOLDEN_DIR} "
                        "(outputs in ${OUT_DIR}):\n${failures}")
endif()
