# The astra-sim flags and config keys parse through one checked table
# (docs/PARAMETERS.md): a bad flag value, model or collective name is a
# configuration error that exits 2 and names the flag, a config-file
# value takes effect unless a flag overrides it, and a workload file
# loads the same through --workload and the dnn-name key. Run via
# ctest.
#
# Invoked with -DASTRA_SIM=... -DWORK_DIR=...

# Macros, so that out, err and rc land in the caller's scope.
macro(run_astra_sim args)
    separate_arguments(argv UNIX_COMMAND "${args}")
    execute_process(
        COMMAND "${ASTRA_SIM}" ${argv}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
endmacro()

function(expect_config_error flag args)
    run_astra_sim("${args}")
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${args} exited ${rc}, want 2:\n${out}${err}")
    endif()
    if(NOT err MATCHES "${flag}")
        message(FATAL_ERROR "${args}: the error does not name ${flag}:\n"
                            "${err}")
    endif()
endfunction()

macro(expect_success args)
    run_astra_sim("${args}")
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${args} exited ${rc}, want 0:\n${err}")
    endif()
endmacro()

expect_config_error(--jobs "--jobs=abc")
expect_config_error(--pipeline "--model=resnet50 --pipeline=two")
expect_config_error(num-passes "--model=resnet50 --num-passes=2x")
expect_config_error(--compute-scale "--model=resnet50 --compute-scale=0")
expect_config_error(local-link-bw "--model=resnet50 --local-link-bw=inf")
expect_config_error(--top "--explore=16 --top=-1")
expect_config_error(--local-dims "--explore=16 --local-dims=99999999999")
# Fault-rule numbers parse like every other value: a non-finite
# straggler factor is a configuration error.
expect_config_error(factor
    "--collective=allreduce --bytes=64KB --fault='straggle node=0 factor=inf'")
expect_config_error(factor
    "--collective=allreduce --bytes=64KB --fault='straggle node=0 factor=nan'")
# A finite factor whose scaled delay or stretched link busy time does
# not fit a tick is a runtime fatal (exit 1), not a delay wrapped
# around to a small one.
foreach(rule "straggle node=0 factor=1e30"
             "degrade link=0 from=0 to=end factor=1e-300")
    run_astra_sim("--collective=allreduce --bytes=64KB --fault='${rule}'")
    if(NOT rc EQUAL 1 OR NOT err MATCHES "does not fit")
        message(FATAL_ERROR "'${rule}' exited ${rc}, want 1 with a "
                            "tick-range fatal:\n${out}${err}")
    endif()
endforeach()
# Model and collective names are checked with the other flags.
expect_config_error(--model "--model=bogus")
expect_config_error(collective "--collective=bogus")
expect_config_error(--collective "--collective=none")

# num-passes from a config file is what the run uses.
file(WRITE "${WORK_DIR}/three_passes.cfg" "num-passes = 3\n")
expect_success("--model=resnet50 --config=${WORK_DIR}/three_passes.cfg")
if(NOT out MATCHES "3 pass\\(es\\)")
    message(FATAL_ERROR "num-passes = 3 in a config file did not run 3 "
                        "passes:\n${out}")
endif()

# A two-layer Fig. 8 workload, given as --workload and as dnn-name.
file(WRITE "${WORK_DIR}/two_layers.txt"
     "PARALLELISM: DATA\n"
     "LAYERS: 2\n"
     "LAYER conv1\n"
     "COMPUTE 1200 1100 900\n"
     "COMM NONE 0 NONE 0 ALLREDUCE 37632\n"
     "UPDATE 2.0\n"
     "LAYER fc\n"
     "COMPUTE 800 700 600\n"
     "COMM NONE 0 NONE 0 ALLREDUCE 4096\n"
     "UPDATE 2.0\n")
file(WRITE "${WORK_DIR}/dnn_name.cfg"
     "dnn-name = ${WORK_DIR}/two_layers.txt\n")
expect_success("--workload=${WORK_DIR}/two_layers.txt")
set(by_flag "${out}")
expect_success("--config=${WORK_DIR}/dnn_name.cfg")
if(NOT out STREQUAL by_flag)
    message(FATAL_ERROR "dnn-name and --workload ran differently:\n"
                        "${by_flag}\n---\n${out}")
endif()
