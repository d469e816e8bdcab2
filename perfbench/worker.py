"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] --root CHECKOUT

Prints `ready` once the program is imported and the first round of inputs
is built; with --setup-only it exits there.  Otherwise it runs whole rounds
until the timed item calls add up to --seconds (and at least the workload's
minimum number of rounds), checks every result outside the timed region,
and prints one JSON line with the per-item times and counts.

With --trace 1 it first runs untraced, then installs the tracer and runs the
very same rounds again; the difference of the two walls is the tracing
overhead.  The cli workload traces inside each command process through
cli_launch.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import sys
import time


class SpeedSampler:
    """Samples a machine speed reference between items, at most `every`
    seconds apart, and with a timer every `timer` seconds in the middle of
    a long item.  A timer sample pauses the item; paused_s sums those
    pauses so that the item's time can leave them out."""

    def __init__(self, reference, nominal, every, timer=None):
        self.reference_seconds, self.nominal, self.every = reference, nominal, every
        self.samples = []  # (perf_counter at the start of the sample, seconds)
        self.paused_s = 0.0
        self.timer = timer

    def sample(self):
        t0 = time.perf_counter()
        self.samples.append((t0, self.reference_seconds()))
        self.paused_s += time.perf_counter() - t0

    def between_items(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.every:
            self.sample()

    def __enter__(self):
        if self.timer:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, self.timer, self.timer)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_rounds(rounds, stop=None, sampler=None):
    """Time every item of each round in turn and check it after its timer.

    rounds yields item lists; stop(rounds done, times) ends the run early.
    With a sampler, the machine speed reference is sampled as the items run
    and its pauses are left out of the items' times.
    Returns (per-item seconds, failures, rounds run, input maxima, labels,
    per-item reference scales or None).
    """
    import workloads
    times, failures, facts, labels, spans = [], [], {}, [], []
    clock = time.perf_counter
    r = 0
    for r, items in enumerate(rounds, 1):
        for item in items:
            if sampler:
                sampler.between_items()
                paused = sampler.paused_s
            error = None
            t0 = clock()
            try:
                result = item.call()
            except Exception as exc:  # a raising item counts as failed
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            times.append(t1 - t0 - (sampler.paused_s - paused if sampler else 0.0))
            spans.append((t0, t1))
            labels.append(item.label)
            if error is None:
                error = item.check(result)
                del result
            if error is not None:
                failures.append(f"round {r - 1} {item.label}: {error}")
            for key, value in item.facts.items():
                facts[key] = max(facts.get(key, 0), value)
        if stop is not None and stop(r, times):
            break
    if not sampler:
        return times, failures, r, facts, labels, None
    sampler.sample()
    return times, failures, r, facts, labels, workloads.reference_scales(
        spans, sampler.samples, sampler.nominal)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args(argv)
    if not __debug__:
        sys.exit("asserts are part of the measured work: run without -O")

    t0 = time.perf_counter()
    import orbhodge.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(orbhodge.__file__).startswith(src + os.sep):
        sys.exit(f"orbhodge imported from {orbhodge.__file__}, not from {src}")

    import workloads
    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(args.root, ".bench_build", "perfbench", str(os.getpid()))
    try:
        if cls is workloads.Cli:
            os.makedirs(workdir, exist_ok=True)
            workload = cls(args.root, workdir)
        else:
            workload = cls()
        first = workload.round(args.seed, 0)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        out = measure(args, workload, first, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["import_s"] = import_s
    out["summary"] = workload.summary()
    out["min_items"] = workload.min_items
    print(json.dumps(out), flush=True)
    return 0


def measure(args, workload, first, workdir) -> dict:
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = itertools.chain([first], (workload.round(args.seed, r) for r in itertools.count(1)))
    stop = lambda r, times: r >= workload.min_rounds and sum(times) >= seconds  # noqa: E731
    if args.trace:
        times, failures, n_rounds, facts, labels, scales = run_rounds(rounds, stop)
    else:
        import workloads
        if args.workload == "cli":
            # items run in child processes, which a timer sample would not pause
            sampler = SpeedSampler(workloads.spawn_reference_seconds,
                                   workloads.SPAWN_REFERENCE_S, 1.0)
        else:
            sampler = SpeedSampler(workloads.reference_seconds, workloads.REFERENCE_S, 0.0,
                                   timer=0.2)
        with sampler:
            times, failures, n_rounds, facts, labels, scales = run_rounds(rounds, stop, sampler)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"times": times, "scales": scales, "labels": labels, "failures": failures,
           "rounds": n_rounds,
           "facts": facts,
           # the cli workload's work happens in its command processes
           "peak_rss_kb": children_rss if args.workload == "cli" else rss}
    if not args.trace:
        return out

    import tracing
    tracer = tracing.Tracer()
    if args.workload == "cli":
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launch.py")
        workload = type(workload)(args.root, workdir, launcher=launcher)
        workload.env["PERFBENCH_TRACE_DIR"] = workdir
    # the same inputs again, built before the tracer goes in so that only
    # the timed calls make spans
    rounds = [workload.round(args.seed, r) for r in range(n_rounds)]
    if args.workload != "cli":
        tracing.install(tracer)
    ttimes, tfailures, *_ = run_rounds(rounds)
    if args.workload == "cli":
        stats = merge_launcher_stats(workdir)
    else:
        stats = tracer.stats()
        stats["import_s"] = []
    out.update(traced_times=ttimes, traced_failures=tfailures, trace=stats)
    return out


def merge_launcher_stats(workdir) -> dict:
    """Sum the stats each traced command process left in workdir."""
    import tracing
    total = tracing.Tracer().stats()
    total["import_s"] = []
    for name in sorted(os.listdir(workdir)):
        if not name.startswith("trace-"):
            continue
        with open(os.path.join(workdir, name)) as fh:
            part = json.load(fh)
        for key in ("calls", "self_s"):
            for fn, value in part[key].items():
                total[key][fn] += value
        for key in ("bookkeeping_s", "kernels_in_construct", "facets_built"):
            total[key] += part[key]
        total["max_entry_bits"] = max(total["max_entry_bits"], part["max_entry_bits"])
        total["import_s"].append(part["import_s"])
    return total


if __name__ == "__main__":
    sys.exit(main())
