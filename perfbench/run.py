"""orbhodge benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload nilpotent|orbifold|toric|cli \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.
Set-up is timed over several fresh worker interpreters (median), then one
more worker measures.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
for --trace 0 and the per-layer metrics for --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
REFERENCE_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def worker_cmd(args, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", os.getcwd()]
    return cmd + ["--setup-only"] if setup_only else cmd


def worker_env():
    return dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"), PYTHONHASHSEED="0")


def time_setup(args) -> float:
    """Reference seconds from spawning a worker until it has its first
    round ready."""
    before = [workloads.reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    t0 = time.perf_counter()
    with subprocess.Popen(worker_cmd(args, True), stdout=subprocess.PIPE, text=True,
                          env=worker_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up worker failed with exit code {code}")
    after = [workloads.reference_seconds() for _ in range(REFERENCE_SAMPLES)]
    return elapsed * workloads.REFERENCE_S / statistics.median(before + after)


def run_worker(args) -> dict:
    proc = subprocess.run(worker_cmd(args, False), stdout=subprocess.PIPE, text=True,
                          env=worker_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(min_items: int) -> int:
    """Highest whole percentile leaving at least ten items beyond it in
    every run (each run has at least min_items items)."""
    return max(100 * (min_items - 10) // min_items, 1)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, setup_s):
    raw = result["times"]
    times = [t * f for t, f in zip(raw, result["scales"])]
    q = tail_percentile(result["min_items"])
    print(f"items: {len(times)} in {result['rounds']} rounds; item_tail_s is p{q} "
          f"({len(times) - math.ceil(q * len(times) / 100)} items beyond it)")
    print(f"fail_ratio: {len(result['failures'])}/{len(times)}")
    print(f"raw seconds: {len(raw) / sum(raw):.4f} items/s, p50 {statistics.median(raw):.4f}, "
          f"p{q} {percentile(raw, q):.4f}; machine speed factor {sum(times) / sum(raw):.4f}")
    by_label = {}
    for label, t in zip(result["labels"], times):
        by_label.setdefault(label, []).append(t)
    print("median reference seconds by item: " + ", ".join(
        f"{label} {statistics.median(ts):.3f}" for label, ts in sorted(by_label.items())))
    return {
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(len(times) / sum(times), "1/s"),
        "item_p50_s": metric(statistics.median(times), "s"),
        "item_tail_s": metric(percentile(times, q), "s"),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result):
    stats = result["trace"]
    out = {}
    layer_self = {}
    for fn in stats["calls"]:
        out[f"{fn}.calls"] = metric(stats["calls"][fn], "count")
        out[f"{fn}.self_s"] = metric(stats["self_s"][fn], "s")
        layer = fn.partition(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + stats["self_s"][fn]
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = metric(value, "s")
    kernels = stats["kernels_in_construct"]
    out["exactla.max_entry_bits"] = metric(stats["max_entry_bits"], "bits")
    out["toric.construct.facet_yield"] = metric(
        stats["facets_built"] / kernels if kernels else 0.0, "facets/call")
    import_s = stats["import_s"] or [result["import_s"]]
    out["cli.import_s"] = metric(statistics.median(import_s), "s")
    traced = sum(result["traced_times"])
    untraced = sum(result["times"])
    spans = sum(layer_self.values())
    out["trace.wall_s"] = metric(traced, "s")
    out["trace.untraced_wall_s"] = metric(untraced, "s")
    out["trace.overhead_s"] = metric(traced - untraced, "s")
    out["trace.bookkeeping_s"] = metric(stats["bookkeeping_s"], "s")
    out["bench.self_s"] = metric(traced - spans - stats["bookkeeping_s"], "s")
    print(f"traced wall {traced:.3f} s = layer self {spans:.3f} s + bookkeeping "
          f"{stats['bookkeeping_s']:.3f} s + outside spans {out['bench.self_s']['value']:.3f} s; "
          f"untraced wall {untraced:.3f} s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("nilpotent", "orbifold", "toric", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "orbhodge", "__init__.py")):
        print("run.py: no src/orbhodge here; run it from the root of an orbhodge checkout",
              file=sys.stderr)
        return 2
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"load average {' '.join(f'{x:.2f}' for x in os.getloadavg())}, "
          f"PYTHONHASHSEED=0, workload {args.workload}, seed {args.seed}")
    try:
        setups = [time_setup(args) for _ in range(SETUP_RUNS)]
        result = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("input summary: " + json.dumps(result["summary"], sort_keys=True))
    print("input maxima: " + json.dumps(result["facts"], sort_keys=True))
    failures = result["failures"] + result.get("traced_failures", [])
    for line in failures[:20]:
        print("FAILED " + line)
    attempted = len(result["times"]) + len(result.get("traced_times", []))
    metrics = per_layer(result) if args.trace else end_to_end(result, statistics.median(setups))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
