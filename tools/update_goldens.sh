#!/usr/bin/env bash
# Regenerate tests/golden/digests.txt: the retired-event digest
# (--digest) and the SHA-256 of the metric report (--report-json) of
# an all-reduce over every configs/*.cfg under both backends, a GPT-2
# pipeline run under software and hardware routing, and a data/model/
# hybrid training run of each NodeTrainer model. The golden_digests
# ctest re-runs every line of the file and fails on any difference.
#
# Also regenerate tests/golden/explore16.csv: the ranked result table
# of a 16-NPU explore sweep with each candidate's event digest. The
# golden_explore ctest byte-compares a fresh run against it.
#
# Also regenerate tests/golden/explore_report.txt: the SHA-256 of the
# same sweep's --report-json, which holds every candidate's full
# metric registry. The golden_explore_report ctest re-runs it.
#
# Also regenerate tests/golden/traces.txt: the SHA-256 of the Chrome
# trace (--trace-file) of a 1MB table4 all-reduce on each backend,
# which pins the network's utilization counter lanes. The
# golden_traces ctest re-runs every line.
#
# And regenerate tests/golden/figures/*.csv: the --csv output of every
# paper-figure harness (Fig. 17 at --quick size), taken from the bench/
# directory of the same build tree. The golden_<harness> ctests
# byte-compare fresh runs against them.
#
#   tools/update_goldens.sh [ASTRA_SIM]   # default: build/tools/astra-sim
#
# Run it from any directory; config paths in the file are relative to
# the source root. A change that regenerates the file must explain the
# diff in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

SIM="${1:-build/tools/astra-sim}"
OUT=tests/golden/digests.txt
EXPLORE_OUT=tests/golden/explore16.csv
EXPLORE_REPORT_OUT=tests/golden/explore_report.txt
TRACE_OUT=tests/golden/traces.txt

cases=()
for cfg in configs/*.cfg; do
    for backend in analytical garnet; do
        cases+=("--collective=allreduce --bytes=1MB --config=$cfg --backend=$backend")
    done
done
# GPT-2 under GPipe: the analytical link-busy retries of its large
# activations park most of its events 16k-32k ticks ahead.
cases+=("--model=gpt2 --pipeline=64 --num-packages=4 --package-rows=4 --local-dim=2")
# The same run under hardware routing: multi-hop virtual cut-through.
# (A hardware-routed all-reduce adds nothing: its 1-hop ring routes
# retire the software-routed stream.)
cases+=("--model=gpt2 --pipeline=64 --num-packages=4 --package-rows=4 --local-dim=2 --packet-routing=hardware")
# One training run per NodeTrainer model (data, model and hybrid
# parallelism) on a 2x2x2 torus.
for model in resnet50 transformer dlrm vgg16; do
    cases+=("--model=$model --num-packages=2 --package-rows=2 --local-dim=2")
done
# Paths no single-pass line reaches: the weight-update delays of pass
# > 0, straggler compute scaling (node 5 at x1.5 in the faulty config)
# and the pass-dependent point-to-point tags of the pipeline.
cases+=("--model=transformer --num-passes=2 --num-packages=2 --package-rows=2 --local-dim=2")
cases+=("--model=transformer --num-passes=2 --config=configs/faulty_4x4x4.cfg")
cases+=("--model=gpt2 --pipeline=16 --num-passes=2 --num-packages=4 --package-rows=4 --local-dim=2")
# Garnet-lite paths the all-reduce lines miss: multi-hop all-to-all
# routes release upstream credits hop by hop, Aggressive injection
# queues a whole message at its source link, and net-coalesce
# batch-grants a busy source link's future wire slots.
cases+=("--collective=alltoall --bytes=256KB --config=configs/table4_defaults.cfg --backend=garnet --injection-policy=aggressive")
cases+=("--collective=alltoall --bytes=256KB --config=configs/table4_defaults.cfg --backend=garnet --net-coalesce=true")
# The standalone reduce-scatter, all-gather and all-to-all passes, on
# the ring dimensions of the table4 torus and on the direct (switch)
# dimension of an 8-NPU alltoall topology.
for coll in reducescatter allgather alltoall; do
    cases+=("--collective=$coll --bytes=256KB --config=configs/table4_defaults.cfg --backend=analytical")
done
for coll in reducescatter allgather alltoall; do
    cases+=("--collective=$coll --bytes=256KB --topology=AllToAll --num-packages=4 --package-rows=4 --local-dim=2 --vertical-dim=1 --backend=analytical")
done
# The receive discipline of the all-to-all passes: with an endpoint
# delay near a hop time, or with retried messages, arrivals come closer
# together than one endpoint delay and queue at the endpoint.
for backend in analytical garnet; do
    cases+=("--collective=alltoall --bytes=64KB --config=configs/table4_defaults.cfg --endpoint-delay=1000 --backend=$backend")
done
cases+=("--collective=alltoall --bytes=1MB --config=configs/faulty_4x4x4.cfg --backend=garnet")

tmp="$(mktemp)"
report="$(mktemp)"
trap 'rm -f "$tmp" "$report"' EXIT
{
    echo "# Goldens of astra-sim runs: <digest> <report-sha256> <arguments>,"
    echo "# the retired-event digest (--digest) and the SHA-256 of the metric"
    echo "# report (--report-json). Checked by the golden_digests ctest"
    echo "# (tests/golden/check_digests.cmake); regenerate with"
    echo "# tools/update_goldens.sh."
    for args in "${cases[@]}"; do
        # shellcheck disable=SC2086 # $args is a word list on purpose
        digest="$("$SIM" $args --digest --report-json="$report" |
                  sed -n 's/^event digest: //p')"
        if [ -z "$digest" ]; then
            echo "no digest printed by: $SIM $args --digest" >&2
            exit 1
        fi
        sha="$(sha256sum "$report" | cut -d' ' -f1)"
        echo "$digest $sha $args"
    done
} > "$tmp"
mv "$tmp" "$OUT"
rm -f "$report"
trap - EXIT
echo "wrote $OUT (${#cases[@]} runs)"

# The explore sweep covers the direct (switch-dimension) algorithms
# that no single-collective line above reaches.
explore="$(mktemp)"
trap 'rm -f "$explore"' EXIT
"$SIM" --explore=16 --bytes=256KB --digest --report-csv="$explore" >/dev/null
mv "$explore" "$EXPLORE_OUT"
trap - EXIT
echo "wrote $EXPLORE_OUT ($(($(wc -l < "$EXPLORE_OUT") - 1)) candidates)"

explore_args="--explore=16 --bytes=256KB"
report="$(mktemp)"
tmp="$(mktemp)"
trap 'rm -f "$report" "$tmp"' EXIT
# shellcheck disable=SC2086 # $explore_args is a word list on purpose
"$SIM" $explore_args --report-json="$report" >/dev/null
{
    echo "# Golden of an explore sweep's metric report: <report-sha256>"
    echo "# <arguments>, the SHA-256 of --report-json (every candidate's full"
    echo "# metric registry). Checked by the golden_explore_report ctest"
    echo "# (tests/golden/check_traces.cmake); regenerate with"
    echo "# tools/update_goldens.sh."
    echo "$(sha256sum "$report" | cut -d' ' -f1) $explore_args"
} > "$tmp"
mv "$tmp" "$EXPLORE_REPORT_OUT"
rm -f "$report"
trap - EXIT
echo "wrote $EXPLORE_REPORT_OUT"

trace_cases=()
for backend in analytical garnet; do
    trace_cases+=("--collective=allreduce --bytes=1MB --config=configs/table4_defaults.cfg --backend=$backend")
done
trace="$(mktemp)"
tmp="$(mktemp)"
trap 'rm -f "$trace" "$tmp"' EXIT
{
    echo "# Goldens of astra-sim traces: <trace-sha256> <arguments>, the"
    echo "# SHA-256 of the --trace-file output. Checked by the golden_traces"
    echo "# ctest (tests/golden/check_traces.cmake); regenerate with"
    echo "# tools/update_goldens.sh."
    for args in "${trace_cases[@]}"; do
        # shellcheck disable=SC2086 # $args is a word list on purpose
        "$SIM" $args --trace-file="$trace" >/dev/null
        echo "$(sha256sum "$trace" | cut -d' ' -f1) $args"
    done
} > "$tmp"
mv "$tmp" "$TRACE_OUT"
rm -f "$trace"
trap - EXIT
echo "wrote $TRACE_OUT (${#trace_cases[@]} runs)"

# The paper-figure harnesses sit next to tools/ in the build tree.
BENCH="$(dirname "$(dirname "$SIM")")/bench"
FIG_OUT=tests/golden/figures
figs="$(mktemp -d)"
trap 'rm -rf "$figs"' EXIT
for harness in fig09_1d_topology fig10_torus_dims fig11_asymmetric \
               fig12_scaling fig13_transformer fig14_resnet_comm \
               fig15_resnet_detail fig16_resnet_breakdown \
               fig18_compute_power ext_extensions; do
    "$BENCH/$harness" --csv="$figs" >/dev/null
done
"$BENCH/fig17_size_scaling" --quick --csv="$figs" >/dev/null
rm -rf "$FIG_OUT"
mkdir -p "$FIG_OUT"
cp "$figs"/*.csv "$FIG_OUT"/
echo "wrote $FIG_OUT ($(find "$FIG_OUT" -name '*.csv' | wc -l) CSVs)"
