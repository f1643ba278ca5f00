"""Tests of the benchmark itself, at tiny sizes.

Run from the checkout root:  python -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_library()

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["embed-z", "embed-field", "maps", "morse"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload, trace, cwd=ROOT, seed=1):
    cmd = [sys.executable] + spec()["command"][1:]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        cmd + ["--size", "tiny"], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_reported_metric():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == tracing.metric_units()
    assert sorted(workloads.full_size()) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny_with_every_end_to_end_metric(workload):
    result = last_line(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for m in spec()["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = last_line(bench(workload, 1))
    assert result["correct"] is True
    names = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_same_seed_gives_the_same_answers():
    def answers(proc):
        return proc.stdout.split("answers=")[1].split()[0]

    assert answers(bench("morse", 0, seed=5)) == answers(bench("morse", 0, seed=5))
    assert answers(bench("morse", 0, seed=5)) != answers(bench("morse", 0, seed=6))


def test_exits_nonzero_without_the_library():
    bare = os.path.join(ROOT, ".perfbench", "bare-%d" % os.getpid())
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("embed-z", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _corrupt_embed(res):
    res["homology"]["betti"][0] += 1


def _corrupt_cli(op, edit):
    def corrupt(res):
        code, text = res[op]
        doc = json.loads(text)
        edit(doc["result"])
        res[op] = (code, json.dumps(doc))

    return corrupt


CORRUPTIONS = {
    "embed-z": _corrupt_embed,
    "embed-field": _corrupt_embed,
    "maps": _corrupt_cli("map", lambda r: r["induced"]["embedded"]["degrees"]["0"].update(source_betti=7)),
    "morse": _corrupt_cli("restricted.hyper.critical", lambda r: r["critical"].append("v0")),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_answer_is_counted_as_a_failure(workload):
    wl = workloads.tiny_size()[workload]
    workdir = os.path.join(ROOT, ".perfbench", "corrupt-%s-%d" % (workload, os.getpid()))
    os.makedirs(workdir)
    try:
        instances = wl.make(random.Random(3), 1, workdir)
        _, _, results = run.run_batch(wl, instances)
        assert run.check_batch(wl, instances, results) == []
        CORRUPTIONS[workload](results[0])
        failures = run.check_batch(wl, instances, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert [f["instance"] for f in failures] == [0]


def test_oracle_matches_the_library_on_small_hypergraphs():
    from hypermorse import Hypergraph, VertexSet, chains

    rng = random.Random(7)
    for _ in range(15):
        nv = rng.randint(4, 6)
        edges = workloads.gen.random_edges(rng, nv, rng.randint(2, 9), 2)
        h = Hypergraph(VertexSet(workloads.gen.labels(nv)), edges)
        for ring in (workloads.Q, workloads.Z3):
            got = chains.embedded_homology(h, ring).betti
            assert tuple(got) == oracle.embedded_betti(edges, workloads._field_prime(ring))


def test_tracer_restores_the_library():
    from hypermorse import _kernel, chains, exact

    before = (exact.matmul, _kernel.hnf_rows, chains.ColumnSolver.solve)
    with tracing.Tracer(workloads.CoeffSpec) as tracer:
        assert exact.matmul is not before[0]
        wl = workloads.tiny_size()["embed-z"]
        instances = wl.make(random.Random(1), 1, None)
        run.run_batch(wl, instances, tracer)
    assert (exact.matmul, _kernel.hnf_rows, chains.ColumnSolver.solve) == before
    metrics = tracer.metrics()
    assert metrics["exact.matmul.calls"] > 0 and metrics["kernel.hnf_rows.calls"] > 0
    parents = {s[0] for s in tracer.spans}
    assert all(s[1] is None or s[1] in parents for s in tracer.spans)
