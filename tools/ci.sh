#!/usr/bin/env bash
# CI driver: lint, build and test the normal configuration, then the
# sanitizer matrix.
#
#   tools/ci.sh          # lint gate, normal build + full ctest,
#                        # validated smoke, perfbench goldens, TSan
#                        # build + concurrency subset
#   tools/ci.sh --lint   # the static-analysis gate only (astra-lint
#                        # over src, tools and tests)
#   tools/ci.sh --ubsan  # + UBSan tree with -DASTRA_VALIDATE=ON, full
#                        # ctest (every integrity checker enabled)
#   tools/ci.sh --asan   # + ASan tree, full ctest
#   tools/ci.sh --tsan   # gated TSan stage only: thread-sanitized
#                        # build, *full* ctest, --jobs=4 sweep smoke
#   tools/ci.sh --full   # also run the *full* suite under TSan (slow)
#
# Build trees: build/ (normal), build-tsan/, build-ubsan/, build-asan/,
# .bench_build/ (perfbench), all gitignored.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL_TSAN=0
LINT_ONLY=0
RUN_UBSAN=0
RUN_ASAN=0
TSAN_ONLY=0
for arg in "$@"; do
    case "$arg" in
        --full) FULL_TSAN=1 ;;
        --lint) LINT_ONLY=1 ;;
        --ubsan) RUN_UBSAN=1 ;;
        --asan) RUN_ASAN=1 ;;
        --tsan) TSAN_ONLY=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

JOBS="$(nproc 2>/dev/null || echo 2)"

if [ "$TSAN_ONLY" -eq 1 ]; then
    # Gated TSan stage: everything the default run only samples. A
    # thread-sanitized build of the whole tree, the complete test
    # suite under it, and the parallel sweep smoke with the digest
    # gates. This is the concurrency gate: astra-lint has no
    # concurrency rules.
    echo "=== TSan gate: build (-DASTRA_SANITIZE=thread) ==="
    cmake -B build-tsan -S . -DASTRA_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS"
    export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
    echo "=== TSan gate: ctest (full suite) ==="
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
    echo "=== TSan gate: sweep smoke (--jobs=4) ==="
    ./build-tsan/bench/sweep_bench --quick --jobs=4 \
        --out=build-tsan/ci_tsan_bench.json
    python3 -m json.tool build-tsan/ci_tsan_bench.json >/dev/null
    grep -q '"results_identical": true' build-tsan/ci_tsan_bench.json \
        || { echo "TSan sweep smoke: results diverged" >&2; exit 1; }
    grep -q '"digests_identical": true' build-tsan/ci_tsan_bench.json \
        || { echo "TSan sweep smoke: digests diverged" >&2; exit 1; }
    echo "=== ci.sh: TSan gate green ==="
    exit 0
fi

echo "=== lint gate (astra-lint) ==="
# Fails on any diagnostic over src/, tools/ and tests/
# (docs/static-analysis.md), stale suppressions included. The target
# builds without the simulator, so this stage is quick.
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" --target astra-lint
./build/tools/astra-lint src tools tests

if [ "$LINT_ONLY" -eq 1 ]; then
    echo "=== ci.sh: lint green ==="
    exit 0
fi

echo "=== normal build ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "=== normal ctest ==="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== observability smoke (trace + metric report, --validate) ==="
# The CLI must emit a Chrome trace and a metric report that an
# independent parser accepts; run once with every integrity checker
# enabled (--validate) and the determinism digest on, then validate
# both outputs with Python's json module.
./build/tools/astra-sim --collective=allreduce --bytes=1MB \
    --validate --digest \
    --trace-file=build/ci_trace.json --report-json=build/ci_report.json
python3 -m json.tool build/ci_trace.json >/dev/null
python3 -m json.tool build/ci_report.json >/dev/null
grep -q '"ph": "C"' build/ci_trace.json \
    || { echo "trace has no counter lane" >&2; exit 1; }
grep -q 'astra-metrics-v1' build/ci_report.json \
    || { echo "report missing schema marker" >&2; exit 1; }
echo "trace and report are valid JSON"
# Garnet-lite under every checker: a multi-hop all-to-all with
# Aggressive injection drives the credit ledger hop by hop and ends on
# the drain check (empty link queues, every packet and message slot
# back on its free list).
./build/tools/astra-sim --collective=alltoall --bytes=256KB \
    --config=configs/table4_defaults.cfg --backend=garnet-lite \
    --injection-policy=aggressive --validate --digest=verify >/dev/null
echo "validated garnet-lite all-to-all drained clean"
# Every collective pass under the chunk state machine's checks: the
# ring passes on the table4 torus, the direct passes on the switch
# dimension of an 8-NPU alltoall topology. The digest goldens run
# without --validate, so this is where those checks see the passes.
for coll in allreduce reducescatter allgather alltoall; do
    ./build/tools/astra-sim --collective="$coll" --bytes=256KB \
        --config=configs/table4_defaults.cfg --validate --digest=verify \
        >/dev/null
    ./build/tools/astra-sim --collective="$coll" --bytes=256KB \
        --topology=AllToAll --num-packages=4 --package-rows=4 \
        --local-dim=2 --vertical-dim=1 --validate --digest=verify \
        >/dev/null
done
# The all-to-all receive discipline where arrivals queue at the
# endpoint: an endpoint delay near a hop time, and retried messages
# under the shipped fault plan.
for backend in analytical garnet-lite; do
    ./build/tools/astra-sim --collective=alltoall --bytes=64KB \
        --config=configs/table4_defaults.cfg --endpoint-delay=1000 \
        --backend="$backend" --validate --digest=verify >/dev/null
    ./build/tools/astra-sim --collective=alltoall --bytes=1MB \
        --config=configs/faulty_4x4x4.cfg --backend="$backend" \
        --validate --digest=verify >/dev/null
done
echo "validated ring and direct passes of all four collectives"

echo "=== fault-injection smoke (docs/faults.md) ==="
# The shipped fault scenario must complete on both backends with every
# integrity checker and the determinism digest on, and the failure
# report members must keep the metric report valid JSON.
for backend in analytical garnet-lite; do
    ./build/tools/astra-sim --collective=allreduce --bytes=256KB \
        --config=configs/faulty_4x4x4.cfg --backend="$backend" \
        --validate --digest=verify \
        --report-json="build/ci_fault_${backend}.json"
    python3 -m json.tool "build/ci_fault_${backend}.json" >/dev/null
    grep -q '"outcome": "completed"' "build/ci_fault_${backend}.json" \
        || { echo "fault smoke ($backend): not completed" >&2; exit 1; }
done
# Workload mode writes the same outcome member as collective mode.
./build/tools/astra-sim --model=transformer --num-passes=2 \
    --config=configs/faulty_4x4x4.cfg \
    --report-json=build/ci_fault_workload.json >/dev/null
python3 -m json.tool build/ci_fault_workload.json >/dev/null
grep -q '"outcome": "completed"' build/ci_fault_workload.json \
    || { echo "fault smoke (workload): not completed" >&2; exit 1; }
# Retries-exhausted must surface as the Degraded exit code (3) with a
# machine-readable failure report, not a fatal.
set +e
./build/tools/astra-sim --collective=allreduce --bytes=16KB \
    --local-dim=1 --num-packages=4 --package-rows=1 --package-rings=1 \
    --fault='down link=0 from=0 to=end' \
    --fault='down link=4 from=0 to=end' \
    --fault-timeout=10 --fault-max-retries=2 \
    --report-json=build/ci_fault_degraded.json >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] \
    || { echo "degraded run exited $rc, want 3" >&2; exit 1; }
python3 -m json.tool build/ci_fault_degraded.json >/dev/null
grep -q '"outcome": "degraded"' build/ci_fault_degraded.json \
    || { echo "degraded report missing outcome" >&2; exit 1; }
# A malformed fault rule is a config error: exit code 2, before any
# simulation runs.
set +e
./build/tools/astra-sim --collective=allreduce --bytes=1KB \
    --fault='down link=0 from=5 to=2' >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] \
    || { echo "bad fault rule exited $rc, want 2" >&2; exit 1; }
echo "fault smoke green (completed/degraded/config-error all correct)"

echo "=== perf smoke (bench/sweep_bench --quick) ==="
# Determinism gates hard: the parallel sweep must reproduce the serial
# reference bit-for-bit — ranked results AND per-candidate event
# digests. Timing is printed for the CI log but never gates (shared
# runners are too noisy for wall-clock thresholds).
./build/bench/sweep_bench --quick --jobs=4 --out=build/ci_bench.json
python3 -m json.tool build/ci_bench.json >/dev/null
grep -q '"results_identical": true' build/ci_bench.json \
    || { echo "perf smoke: parallel sweep results diverged" >&2; exit 1; }
grep -q '"digests_identical": true' build/ci_bench.json \
    || { echo "perf smoke: parallel sweep digests diverged" >&2; exit 1; }
echo "perf smoke: $(grep -o '"per_event_ns": [0-9.]*' build/ci_bench.json) (informational)"

echo "=== host-time benchmark smoke (perfbench/run.py) ==="
# Every repetition of each BENCHMARK.json workload, and of
# resnet50_train (the system-layer and chunk-tracking workload), must
# reproduce perfbench/goldens.json: "correct": true and "failed": 0
# gate hard, timing is printed only (as in the perf smoke above).
workloads="$(python3 -c 'import json
print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
workloads="$workloads resnet50_train"
for w in $workloads; do
    result="$(python3 perfbench/run.py --workload "$w" --seconds 2 | tail -n 1)"
    echo "perfbench $w: $result"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result" \
        || { echo "perfbench $w: a repetition was not correct" >&2; exit 1; }
done
# One repetition of every golden variant (seeds 0-7) of each workload:
# a changed event stream on any variant fails here, not only on seed 0.
for w in $workloads; do
    for seed in 0 1 2 3 4 5 6 7; do
        result="$(python3 perfbench/run.py --workload "$w" --seed "$seed" \
                  --seconds 0 | tail -n 1)"
        python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1])["correct"] is True else 1)' "$result" \
            || { echo "perfbench $w seed $seed: not correct" >&2; exit 1; }
    done
    echo "perfbench $w: seeds 0-7 correct"
done

echo "=== interrupt/resume smoke (docs/robustness.md) ==="
# Journaled resume gates hard: a sweep SIGINTed mid-flight and resumed
# from its journal must merge to the bit-identical result table (and
# digests) of a never-interrupted run.
./build/tools/astra-sim --explore=16 --bytes=256KB --jobs=2 --digest \
    --report-csv=build/ci_resume_base.csv >/dev/null
rm -f build/ci_resume.journal
set +e
./build/tools/astra-sim --explore=16 --bytes=256KB --jobs=2 --digest \
    --journal=build/ci_resume.journal \
    --report-csv=build/ci_resume_int.csv >/dev/null 2>&1 &
resume_pid=$!
sleep 0.3
kill -INT "$resume_pid" 2>/dev/null
wait "$resume_pid"
rc=$?
set -e
# 5 = interrupted mid-flight; 0 = the sweep won the race and finished
# first. Both are legitimate — the cmp below is the actual gate.
[ "$rc" -eq 5 ] || [ "$rc" -eq 0 ] \
    || { echo "interrupted sweep exited $rc, want 5 or 0" >&2; exit 1; }
./build/tools/astra-sim --explore=16 --bytes=256KB --jobs=2 --digest \
    --journal=build/ci_resume.journal --resume \
    --report-csv=build/ci_resume_merged.csv >/dev/null
cmp build/ci_resume_base.csv build/ci_resume_merged.csv \
    || { echo "resumed sweep table differs from uninterrupted baseline" >&2
         exit 1; }
echo "interrupt/resume smoke green (merged table bit-identical)"

if [ "$RUN_UBSAN" -eq 1 ]; then
    # UBSan doubles as the "full suite with checkers on" job: the tree
    # also sets -DASTRA_VALIDATE=ON, which compiles the hot-path
    # ASTRA_DCHECKs in and defaults the runtime level to full.
    echo "=== UBSan build (-DASTRA_SANITIZE=undefined -DASTRA_VALIDATE=ON) ==="
    cmake -B build-ubsan -S . -DASTRA_SANITIZE=undefined \
        -DASTRA_VALIDATE=ON >/dev/null
    cmake --build build-ubsan -j "$JOBS"
    echo "=== UBSan ctest (full suite, all checkers) ==="
    ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
fi

if [ "$RUN_ASAN" -eq 1 ]; then
    echo "=== ASan build (-DASTRA_SANITIZE=address) ==="
    cmake -B build-asan -S . -DASTRA_SANITIZE=address >/dev/null
    cmake --build build-asan -j "$JOBS"
    echo "=== ASan ctest (full suite) ==="
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

echo "=== TSan build (-DASTRA_SANITIZE=thread) ==="
cmake -B build-tsan -S . -DASTRA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"

# TSan aborts the process on the first detected race.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

if [ "$FULL_TSAN" -eq 1 ]; then
    echo "=== TSan ctest (full suite) ==="
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
else
    # The concurrency surface: the sweep engine, the thread pool, and
    # the event queue they drive, plus the parallelized CLI/bench paths.
    echo "=== TSan ctest (concurrency subset) ==="
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -R 'Sweep|ThreadPool|ParallelFor|EventQueue|DesignSpace|cli_explore_mode|bench_sweep_quick'
fi

echo "=== ci.sh: all green ==="
