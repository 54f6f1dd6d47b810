# Workload runs keep the exit-code taxonomy (docs/robustness.md): a
# training run and a GPT-2 pipeline run that trip --max-events must
# exit 4 and report the budget-exceeded outcome, not die as a
# deadlock. Run via ctest.
#
# Invoked with -DASTRA_SIM=...

foreach(args
        "--model=resnet50"
        "--model=gpt2 --pipeline=64 --num-packages=4 --package-rows=4 --local-dim=2")
    separate_arguments(argv UNIX_COMMAND "${args} --max-events=1000")
    execute_process(
        COMMAND "${ASTRA_SIM}" ${argv}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 4)
        message(FATAL_ERROR "${args} --max-events=1000 exited ${rc}, "
                            "want 4:\n${err}")
    endif()
    if(NOT out MATCHES "outcome: budget-exceeded")
        message(FATAL_ERROR "${args} --max-events=1000 reported no "
                            "budget-exceeded outcome:\n${out}")
    endif()
endforeach()
