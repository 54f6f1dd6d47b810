# The CLI must flag a seeded fixture: exit 1 with a [no-float]
# finding. Exit 2 (usage error, e.g. a renamed fixture path) fails.
#
# Invoked with -DLINT_TOOL=... -DSOURCE_DIR=...

execute_process(
    COMMAND "${LINT_TOOL}" "--root=${SOURCE_DIR}" --no-allowlist
            tests/lint/fixtures/no_float_bad.cc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "no-float fixture exited ${rc}, want 1:\n${out}${err}")
endif()
if(NOT out MATCHES "\\[no-float\\]")
    message(FATAL_ERROR "no-float fixture reported no [no-float] "
                        "finding:\n${out}")
endif()
