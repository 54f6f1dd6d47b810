#!/usr/bin/env python3
"""Host-time benchmark of the simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-goldens

Run from the root of a source checkout. It builds perfbench/ (and the
simulator libraries it links) into .bench_build/perfbench, then runs the
workload in a fresh process per repetition until S seconds have passed.
Every repetition's simulated outputs are checked against
perfbench/goldens.json. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: each time is the fastest
repetition's, the peak memory the median. --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics of the fastest
traced repetition; every traced repetition must reproduce the untraced
one's outputs exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = ("explore_sweep", "resnet50_train", "garnet_allreduce",
             "gpt2_pipeline")
VARIANTS = 8  # kVariants in harness.cc
DEFAULT_SEED = 0
# One process must finish well inside the benchmark's own time limit.
PROCESS_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmds = [["cmake", "--build", BUILD, "-j",
             str(min(os.cpu_count() or 1, 4))]]
    # Once configured, the build step re-runs cmake itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in cmds:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    out = subprocess.run([BINARY, "--fingerprint"], capture_output=True,
                         text=True, check=True,
                         timeout=PROCESS_TIMEOUT_S).stdout
    fp = json.loads(out.strip().splitlines()[-1])
    fp["nproc"] = os.cpu_count()
    fp["cpu_model"] = cpu_model()
    return fp


def run_once(workload, variant, spans=None):
    cmd = [BINARY, "--workload=" + workload, "--variant=%d" % variant]
    if spans:
        cmd.append("--spans=" + spans)
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=PROCESS_TIMEOUT_S)
    if p.returncode != 0:
        raise RuntimeError("%s exited %d: %s" %
                           (" ".join(cmd), p.returncode, p.stderr.strip()))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(rep, golden, reference):
    """Reasons @p rep's simulated outputs are wrong (empty: correct)."""
    out = rep["outputs"]
    problems = []
    if out["outcome"] != "completed":
        problems.append("outcome " + out["outcome"])
    if out["net_lost"] != 0:
        problems.append("%d messages lost" % out["net_lost"])
    if golden is None:
        problems.append("no golden outputs for this variant")
    elif out != golden:
        problems.append("outputs differ from goldens.json: " +
                        ", ".join(k for k in out if out[k] != golden.get(k)))
    if reference is not None and out != reference:
        problems.append("outputs differ from the first repetition")
    return problems


def end_to_end(reps):
    # On a shared host the neighbours only ever add time, so the fastest
    # of many short repetitions is the steady estimate of the program's
    # own cost; a median follows how busy the neighbours were.
    fastest = lambda key: min(r[key] for r in reps)
    return {
        "wall_s": {"value": fastest("wall_s"), "unit": "s"},
        "cpu_s": {"value": fastest("cpu_s"), "unit": "s"},
        "setup_s": {"value": fastest("setup_s"), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in reps),
            "unit": "MB"},
    }


def per_layer(traced, untraced):
    """Per-layer metrics of the fastest traced repetition, so that its
    spans add up exactly; counts are identical in every repetition."""
    best = min(traced, key=lambda r: r["wall_s"])
    plain = min(untraced, key=lambda r: r["wall_s"])
    out = best["outputs"]

    def span(name, field):
        return best["spans"][name][field]

    def calls(*names):
        return sum(span(n, "count") for n in names)

    def self_s(*names):
        return sum(span(n, "self_s") for n in names)

    def per_call_ns(seconds, count):
        return seconds * 1e9 / count if count else 0.0

    loop_s = span("loop", "total_s")

    def share(name):
        # Not every workload has every kind of span; a share of the loop
        # reads 0 where a time would read a constant 0.0 s.
        return self_s(name) / loop_s
    send_s = self_s("net.send.coll", "net.send.p2p")
    recv_s = self_s("sys.recv.coll", "sys.recv.p2p")
    send_n = calls("net.send.coll", "net.send.p2p")
    recv_n = calls("sys.recv.coll", "sys.recv.p2p")

    values = [
        ("event_queue.events", out["events"], "count"),
        ("event_queue.ns_per_event", per_call_ns(loop_s, out["events"]),
         "ns"),
        ("event_queue.slab_bytes", best["slab_bytes"], "bytes"),
        ("loop.s", loop_s, "s"),
        # Every issue, send and delivery span lies inside the loop, so
        # loop.s = net.send.self_s + sys.recv.self_s + loop.other_s.
        ("loop.other_s", loop_s - send_s - recv_s, "s"),
        ("net.send.calls", send_n, "count"),
        ("net.send.self_s", send_s, "s"),
        ("net.send.ns_per_call", per_call_ns(send_s, send_n), "ns"),
        ("net.send.coll.calls", calls("net.send.coll"), "count"),
        ("net.send.coll.share", share("net.send.coll"), "ratio"),
        ("net.send.p2p.calls", calls("net.send.p2p"), "count"),
        ("net.send.p2p.share", share("net.send.p2p"), "ratio"),
        ("net.delivered", out["net_delivered"], "count"),
        ("net.byte_hops", out["net_byte_hops"], "count"),
        ("net.lost", out["net_lost"], "count"),
        ("sys.recv.calls", recv_n, "count"),
        ("sys.recv.self_s", recv_s, "s"),
        ("sys.recv.ns_per_call", per_call_ns(recv_s, recv_n), "ns"),
        ("sys.recv.coll.calls", calls("sys.recv.coll"), "count"),
        ("sys.recv.coll.share", share("sys.recv.coll"), "ratio"),
        ("sys.recv.p2p.calls", calls("sys.recv.p2p"), "count"),
        ("sys.recv.p2p.share", share("sys.recv.p2p"), "ratio"),
        ("sys.issue.calls", calls("sys.issue"), "count"),
        ("sys.issue.share", share("sys.issue"), "ratio"),
        ("sys.issued.chunks", out["issued_chunks"], "count"),
        ("sys.completed.chunks", out["completed_chunks"], "count"),
        ("cluster.build_s", span("cluster.build", "total_s"), "s"),
        ("workload.build_s", span("workload.build", "total_s"), "s"),
        ("cluster.export_s", span("cluster.export", "total_s"), "s"),
        ("explore.candidates", len(plain["candidate_s"]), "count"),
        ("explore.candidate_s.p50",
         statistics.median(plain["candidate_s"]), "s"),
        ("explore.candidate_s.max", max(plain["candidate_s"]), "s"),
        ("trace.overhead", best["wall_s"] / plain["wall_s"] - 1.0, "ratio"),
    ]
    return {name: {"value": v, "unit": unit} for name, v, unit in values}


def load_goldens():
    with open(GOLDENS) as f:
        return json.load(f)


def write_goldens():
    goldens = {}
    for w in WORKLOADS:
        goldens[w] = {}
        for v in range(VARIANTS):
            rep = run_once(w, v)
            if rep["outputs"]["outcome"] != "completed":
                raise RuntimeError("%s variant %d did not complete" % (w, v))
            goldens[w][str(v)] = rep["outputs"]
            log("%s variant %d: %d events" %
                (w, v, rep["outputs"]["events"]))
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


def bench(args, fp):
    variant = args.seed % VARIANTS
    golden = load_goldens().get(args.workload, {}).get(str(variant))
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(results_dir, tag + ".spans.json")

    attempted = failed = 0
    reference = None
    untraced, traced = [], []
    start = time.monotonic()
    while not untraced or time.monotonic() - start < args.seconds:
        pair = [run_once(args.workload, variant)]
        if args.trace:
            pair.append(run_once(args.workload, variant, spans))
        untraced.append(pair[0])
        traced.extend(pair[1:])
        for rep in pair:
            attempted += 1
            problems = check(rep, golden, reference)
            if reference is None:
                reference = rep["outputs"]
            if problems:
                failed += 1
                log("%s variant %d%s: %s" %
                    (args.workload, variant,
                     " (traced)" if rep["traced"] else "",
                     "; ".join(problems)))

    walls = sorted(r["wall_s"] for r in untraced)
    log("%s: %d untraced repetitions, wall_s fastest %.4f median %.4f "
        "p90 %.4f" % (args.workload, len(walls), walls[0],
                      statistics.median(walls),
                      walls[int(0.9 * (len(walls) - 1))]))
    metrics = per_layer(traced, untraced) if args.trace else \
        end_to_end(untraced)
    with open(os.path.join(results_dir, tag + ".json"), "w") as f:
        json.dump({"fingerprint": fp, "workload": args.workload,
                   "seed": args.seed, "variant": variant,
                   "repetitions": untraced + traced, "metrics": metrics},
                  f, indent=1)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true",
                    help="regenerate goldens.json from this checkout")
    args = ap.parse_args()
    if not args.write_goldens and not args.workload:
        ap.error("--workload is required")

    try:
        build()
        fp = fingerprint()
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    # The harness refuses these itself; this keeps a stale binary from
    # slipping through.
    if not fp["optimized"] or fp["astra_validate"] or \
            fp["sanitizer"] != "none":
        log("perfbench: refusing to measure this build: %s" %
            json.dumps(fp))
        return 1
    print("fingerprint " + json.dumps(fp, sort_keys=True))

    if args.write_goldens:
        write_goldens()
        return 0
    try:
        result = bench(args, fp)
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
