#!/usr/bin/env python3
"""Koios benchmark: fixed work per run, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Builds perfbench_gen and
perfbench_run into .bench_build/, generates the workload's inputs from
--seed (snapshots, query list, oracle answers), runs the measured process
and checks every answer against the oracle. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
from a separate traced run.

The work of a run is fixed by the workload (see workloads.h); it never
depends on elapsed time. --seconds is accepted for the calling convention
and recorded, but does not change what a run does.

Exit status: 0 when a result was printed, 1 otherwise (build, generation
or measurement failure).
"""

import argparse
import datetime
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("wdc-12k-refine", "opendata-verify")

END_TO_END = (
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("core.search_ms", "ms"),
    ("core.refinement_ms", "ms"),
    ("core.postprocess_ms", "ms"),
    ("core.refinement_share", "ratio"),
    ("core.postprocess_share", "ratio"),
    ("core.candidates", "count"),
    ("core.bucket_moves", "count"),
    ("core.iub_filtered", "count"),
    ("core.survivor_ratio", "ratio"),
    ("core.no_em_skipped", "count"),
    ("matching.em_computed", "count"),
    ("matching.em_early_terminated", "count"),
    ("matching.verify_ratio", "ratio"),
    ("sim.cursor_build_ms", "ms"),
    ("sim.cursor_hit_rate", "ratio"),
    ("sim.tuples_produced", "count"),
    ("net.wire_ms", "ms"),
    ("net.self_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.engine_build_ms", "ms"),
    ("io.open_ms", "ms"),
    ("io.swap_ms", "ms"),
    ("index.build_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.calib_ms", "ms"),
)

# Scores of one answer may differ from the oracle's in the last bits: the
# two sum the same similarities in different orders.
SCORE_TOLERANCE = 1e-9

# A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


class BenchError(Exception):
    pass


# ---- pure helpers (unit-tested in test_run.py) -------------------------------

def percentile(values, pct, min_beyond=MIN_BEYOND):
    """Nearest-rank pct-th percentile of `values` (pct an integer 1..100).

    Returns None unless at least `min_beyond` samples are strictly greater
    than the value returned, so a tail percentile is never read off a
    handful of samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100), exact
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return value if beyond >= min_beyond else None


def parse_answers(text):
    """Oracle file -> one list of (set, score) per query line."""
    answers = []
    for line in text.splitlines():
        entries = []
        for pair in line.split():
            set_id, score = pair.split(":")
            entries.append((int(set_id), float(score)))
        answers.append(entries)
    return answers


def _close(a, b):
    return abs(a - b) <= SCORE_TOLERANCE * max(1.0, abs(b))


def same_answer(got, want):
    """True when `got` is the oracle's top-k `want`, compared by score.

    Both are lists of (set, score). The sets of `got` must be distinct and
    the score lists must agree. Every set the oracle lists above the k-th
    score must be in `got` with the oracle's score, and `got` may list no
    other set above it; sets at the k-th score may differ, since any of the
    tied sets is a correct answer.
    """
    if len(got) != len(want) or len({i for i, _ in got}) != len(got):
        return False
    got_scores = sorted((s for _, s in got), reverse=True)
    want_scores = sorted((s for _, s in want), reverse=True)
    if not all(_close(g, w) for g, w in zip(got_scores, want_scores)):
        return False
    if not want:
        return True
    kth = want_scores[-1]
    above = lambda entries: {i: s for i, s in entries
                             if s > kth and not _close(s, kth)}
    got_above, want_above = above(got), above(want)
    return (got_above.keys() == want_above.keys()
            and all(_close(got_above[i], s) for i, s in want_above.items()))


def judge(sample, oracle):
    """True when one measured sample is a correct answer.

    `sample` is [query, send_ns, recv_ns, status, [[set, score], ...]]. A
    rejection or error (status != 0) is a failure.
    """
    query, _, _, status, topk = sample
    got = [(int(s), float(v)) for s, v in topk]
    return status == 0 and same_answer(got, oracle[query])


def latencies_ms(report, oracle):
    """Per-sample latency; a failed sample counts as infinitely late."""
    return [(s[2] - s[1]) / 1e6 if judge(s, oracle) else math.inf
            for s in report["samples"]]


def count_failures(report, oracle):
    """Samples of one measured-process report that are not correct."""
    return sum(1 for v in latencies_ms(report, oracle) if math.isinf(v))


def end_to_end_metrics(report, oracle):
    """The end-to-end metrics of one untraced report, by name."""
    lat = latencies_ms(report, oracle)
    attempted = len(lat)
    succeeded = sum(1 for v in lat if v != math.inf)
    p50 = percentile(lat, 50)
    p90 = percentile(lat, 90)
    if p50 is None or p90 is None or math.isinf(p90):
        raise BenchError("too few answered samples for p50/p90 "
                         f"({attempted} attempted)")
    return {
        "qps": succeeded / report["wall_s"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "success_rate": succeeded / attempted,
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["vmhwm_kb"] / 1024.0,
    }


def per_layer_metrics(traced, untraced_p50_ms):
    """The per-layer metrics of one traced report, by name."""
    n = traced["queries"]
    ms = {k: v / n for k, v in traced["sum_ms"].items()}
    c = traced["counters"]
    candidates = max(1, c["candidates"])
    lookups = c["cursor_hits"] + c["cursor_misses"]
    traced_p50 = percentile(traced["engine_call_ms"], 50, min_beyond=0)
    return {
        "core.search_ms": ms["search"],
        "core.refinement_ms": ms["refinement"],
        "core.postprocess_ms": ms["postprocess"],
        "core.refinement_share": ms["search_refinement"] / ms["search"],
        "core.postprocess_share": ms["search_postprocess"] / ms["search"],
        "core.candidates": c["candidates"] / n,
        "core.bucket_moves": c["bucket_moves"] / n,
        "core.iub_filtered": c["iub_filtered"] / n,
        "core.survivor_ratio": c["postprocess_sets"] / candidates,
        "core.no_em_skipped": c["no_em_skipped"] / n,
        "matching.em_computed": c["em_computed"] / n,
        "matching.em_early_terminated": c["em_early_terminated"] / n,
        "matching.verify_ratio": c["em_computed"] / candidates,
        "sim.cursor_build_ms": ms["cursor_build"],
        "sim.cursor_hit_rate": c["cursor_hits"] / lookups if lookups else 0.0,
        "sim.tuples_produced": c["tuples_produced"] / n,
        "net.wire_ms": ms["wire"],
        "net.self_ms": ms["wire"] - ms["engine"],
        "serve.engine_ms": ms["engine"],
        "serve.self_ms": ms["engine"] - ms["search"],
        "serve.rejected": c["rejected"],
        "serve.engine_build_ms": statistics.median(traced["engine_build_ms"]),
        "io.open_ms": statistics.median(traced["open_ms"]),
        "io.swap_ms": traced["swap_ms"],
        "index.build_ms": statistics.median(traced["index_build_ms"]),
        "trace.overhead_pct":
            100.0 * (traced_p50 - untraced_p50_ms) / untraced_p50_ms,
        "host.calib_ms": traced["calib_ms"],
    }


def result_line(correct, attempted, failed, values, names):
    """The final JSON line: every metric in `names` with its unit."""
    missing = [name for name, _ in names if name not in values]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    })


# ---- driving the programs -----------------------------------------------------

def _run(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; raises on failure.

    Temporary files (the compiler's, too) go under .bench_build/tmp, so a
    run writes nothing outside the checkout.
    """
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False,
                              env=dict(os.environ, TMPDIR=tmp))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        _run(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    _run(["cmake", "--build", BUILD, "-j", "4", "--target",
          "perfbench_gen", "perfbench_run"], timeout=840)


def measure(workload, dir_, trace):
    out = os.path.join(dir_, "traced.json" if trace else "untraced.json")
    cmd = [os.path.join(BUILD, "perfbench_run"), "--workload", workload,
           "--dir", dir_, "--out", out]
    if trace:
        cmd.append("--trace")
    _run(cmd, timeout=150)
    with open(out) as f:
        return json.load(f)


def log_run(entry):
    """Appends this run to .bench_build/runs.log; returns its order."""
    path = os.path.join(BUILD, "runs.log")
    order = 1
    if os.path.exists(path):
        with open(path) as f:
            order = sum(1 for _ in f) + 1
    entry = dict(entry, order=order)
    with open(path, "a") as f:
        f.write(json.dumps(entry) + "\n")
    return order


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    build()
    dir_ = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(dir_, ignore_errors=True)
    os.makedirs(dir_)
    try:
        _run([os.path.join(BUILD, "perfbench_gen"), "--workload", args.workload,
              "--seed", str(args.seed), "--dir", dir_],
             timeout=150)
        with open(os.path.join(dir_, "oracle.txt")) as f:
            oracle = parse_answers(f.read())

        untraced = measure(args.workload, dir_, trace=False)
        attempted = len(untraced["samples"])
        failed = count_failures(untraced, oracle)
        correct = failed == 0
        e2e = end_to_end_metrics(untraced, oracle)
        calib_ms = untraced["calib_ms"]
        if args.trace:
            traced = measure(args.workload, dir_, trace=True)
            attempted += len(traced["samples"])
            traced_failed = count_failures(traced, oracle)
            failed += traced_failed
            correct = (correct and traced_failed == 0
                       and traced["mismatches"] == 0
                       and traced["swap_status"] == 0)
            values = per_layer_metrics(traced, e2e["latency_p50_ms"])
            names = PER_LAYER
            calib_ms = traced["calib_ms"]
        else:
            values, names = e2e, END_TO_END
    finally:
        shutil.rmtree(dir_, ignore_errors=True)

    order = log_run({"started": started, "workload": args.workload,
                     "seed": args.seed, "trace": args.trace,
                     "host.calib_ms": calib_ms})
    print(f"run {order} in this checkout, started {started}: "
          f"{args.workload} seed {args.seed} trace {args.trace}, "
          f"host.calib_ms {calib_ms:.3f}")
    print(result_line(correct, attempted, failed, values, names))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
