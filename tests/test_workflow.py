"""The CI workflow's benchmark smoke runs cover the declared workloads."""

import json
import os
import re

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_loop_runs_every_benchmark_workload():
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        workflow = yaml.safe_load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    steps = [s for job in workflow["jobs"].values() for s in job["steps"]]
    (smoke,) = [s for s in steps if s.get("name") == "Benchmark smoke runs"]
    loop = re.search(r"for w in ([^;]*); do", smoke["run"])
    assert loop is not None
    assert loop.group(1).split() == declared
    assert "perfbench/run.py --workload \"$w\"" in smoke["run"]
