#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hypermorse.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload embed-z --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's src/ directory and nowhere else;
without it the benchmark exits with code 2 and prints no result.

Each run is one process and one thread.  Set-up turns the seed into a batch
of inputs (timed three times; setup_s is the median), then the batch runs
closed-loop, one instance at a time, and every answer is checked afterwards.
The batch holds round(seconds / round length) rounds of the workload's size
classes, so a run does a fixed amount of work that takes about --seconds on
a 2-CPU machine.  With --trace 0 the last line of stdout reports the
end-to-end metrics; with --trace 1 the batch runs once untraced and once
traced, and the last line reports the per-layer metrics.  Per-run records,
answer digests and spans are written under .perfbench/out/ (out-tiny/ for
--size tiny).
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import hypermorse from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "hypermorse", "__init__.py")):
        raise LibraryMissing("no hypermorse sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import hypermorse

    if not os.path.abspath(hypermorse.__file__).startswith(SRC + os.sep):
        raise LibraryMissing("hypermorse was imported from %s" % hypermorse.__file__)
    return hypermorse


def cold_import():
    """A fresh interpreter importing the library, as a command-line user pays."""
    subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); import hypermorse", SRC],
        cwd=ROOT,
        check=True,
        timeout=120,
    )


def run_batch(wl, instances, tracer=None):
    """Run every instance closed-loop; returns (wall, per-instance times, results)."""
    times, results = [], []
    clock = time.perf_counter
    begin = clock()
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = i
        start = clock()
        try:
            res = wl.run(inst)
        except Exception as exc:  # counted as failed operations, the run goes on
            res = {"error": "%s: %s" % (type(exc).__name__, exc)}
        times.append(clock() - start)
        results.append(res)
    return clock() - begin, times, results


def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()


def check_batch(wl, instances, results):
    """Failed operations per instance, with the reasons."""
    failures = []
    for i, (inst, res) in enumerate(zip(instances, results)):
        if "error" in res:
            errors = {op: res["error"] for op in inst.ops}
        else:
            try:
                errors = wl.check(inst, res)
            except Exception as exc:  # a check that cannot run counts against the answer
                errors = {op: "check raised %s: %s" % (type(exc).__name__, exc) for op in inst.ops}
        for op, why in sorted(errors.items()):
            failures.append({"instance": i, "label": inst.label, "op": op, "why": why})
    return failures


def tail(times):
    """The highest percentile with at least TAIL_SAMPLES samples above it
    (the maximum when there are too few samples), and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def class_summary(instances, times):
    out = {}
    for inst, t in zip(instances, times):
        entry = out.setdefault(inst.label, {"instances": 0, "cells": [], "times": []})
        entry["instances"] += 1
        entry["cells"].append(inst.cells)
        entry["times"].append(t)
    return {
        label: {
            "instances": e["instances"],
            "mean_ambient_cells": statistics.mean(e["cells"]),
            "median_s": statistics.median(e["times"]),
        }
        for label, e in out.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="hypermorse end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: the tests' small inputs"
    )
    args = parser.parse_args(argv)

    try:
        hypermorse = load_library()
    except LibraryMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    import tracing
    import workloads

    catalogue = workloads.full_size() if args.size == "full" else workloads.tiny_size()
    if args.workload not in catalogue:
        parser.error("unknown workload %r; choose from %s" % (args.workload, sorted(catalogue)))
    wl = catalogue[args.workload]
    warmup = workloads.tiny_size()[args.workload]
    rounds = max(1, round(args.seconds / wl.round_seconds))

    out_dir = os.path.join(STATE, "out" if args.size == "full" else "out-" + args.size)
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(STATE, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    warmdir = os.path.join(workdir, "warmup")
    os.makedirs(warmdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            instances = wl.make(random.Random(args.seed), rounds, workdir)
            cold_import()
            warm = warmup.make(random.Random(args.seed), 1, warmdir)
            run_batch(warmup, warm[:1])
            setups.append(time.perf_counter() - start)

        wall, times, results = run_batch(wl, instances)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(hypermorse.CoeffSpec)
            with tracer:
                traced_wall, _, traced_results = run_batch(wl, instances, tracer)
        failures = check_batch(wl, instances, results)
        if tracer is not None:
            for i, (a, b) in enumerate(zip(results, traced_results)):
                if digest(a) != digest(b):
                    failures.append(
                        {"instance": i, "label": instances[i].label, "op": "*", "why": "answer changed under tracing"}
                    )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(inst.ops) for inst in instances)
    failed = min(attempted, len({(f["instance"], f["op"]) for f in failures}))
    answers = [digest(r) for r in results]
    run_digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    tail_s, tail_pct = tail(times)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "kernel_backend": hypermorse.KERNEL_BACKEND,
        "python": sys.version.split()[0],
        "rounds": rounds,
        "instances": len(instances),
        "tail_percentile": tail_pct,
        "classes": class_summary(instances, times),
        "setup_runs_s": setups,
        "instance_times_s": times,
        "answer_digest": run_digest,
        "answers": answers,
        "failures": failures,
    }

    if args.trace:
        values = tracer.metrics()
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall
        units = tracing.metric_units()
        tracer.dump(os.path.join(out_dir, "%s-seed%d.spans.jsonl" % (args.workload, args.seed)))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "instance_p50_s": statistics.median(times),
            "instance_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(
        "# workload=%s seed=%d kernel_backend=%s rounds=%d instances=%d ops=%d "
        "instance_tail_s=p%.1f answers=sha256:%s"
        % (args.workload, args.seed, hypermorse.KERNEL_BACKEND, rounds, len(instances), attempted, tail_pct, run_digest)
    )
    for label, c in record["classes"].items():
        print("# class %s: %d instances, mean |ΔH| %.1f, median %.4f s" % (
            label, c["instances"], c["mean_ambient_cells"], c["median_s"]))
    for f in failures[:20]:
        print("# FAILED instance %(instance)d (%(label)s) %(op)s: %(why)s" % f)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
