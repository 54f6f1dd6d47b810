# Clean-tree check with stale-suppression checking shown to be armed,
# run via ctest: the stale-suppression fixture must fail with a
# [stale-suppression] finding, and the real tree must then lint clean
# under the same binary — so no dead allow() marker hides in it.
#
# Invoked with -DLINT_TOOL=... -DSOURCE_DIR=...

execute_process(
    COMMAND "${LINT_TOOL}" "--root=${SOURCE_DIR}" --no-allowlist
            tests/lint/fixtures/stale_suppression_bad.cc
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "stale-suppression fixture exited ${rc}, want 1")
endif()
if(NOT out MATCHES "\\[stale-suppression\\]")
    message(FATAL_ERROR "stale-suppression fixture reported no "
                        "[stale-suppression] finding:\n${out}")
endif()

execute_process(
    COMMAND "${LINT_TOOL}" "--root=${SOURCE_DIR}" src tools tests
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tree is not lint-clean (exit ${rc}):\n${out}")
endif()
