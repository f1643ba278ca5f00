"""The CI workflow's benchmark smoke runs cover the declared workloads."""

import json
import os
import re
import subprocess
import sys

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _smoke_step():
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        workflow = yaml.safe_load(fh)
    steps = [s for job in workflow["jobs"].values() for s in job["steps"]]
    (smoke,) = [s for s in steps if s.get("name") == "Benchmark smoke runs"]
    return smoke


def test_smoke_loop_runs_every_benchmark_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    smoke = _smoke_step()
    loop = re.search(r"for w in ([^;]*); do", smoke["run"])
    assert loop is not None
    assert loop.group(1).split() == declared
    assert "perfbench/run.py --workload \"$w\"" in smoke["run"]


def test_smoke_runs_fail_unless_every_answer_is_correct():
    # the step pipes the last line of each run into one python3 -c check
    (check,) = re.findall(r'tail -n 1 [^|]*\| python3 -c "([^"]*)"', _smoke_step()["run"])
    verdicts = {}
    for correct, failed in ((True, 0), (False, 0), (True, 1)):
        line = json.dumps({"correct": correct, "attempted": 3, "failed": failed})
        run = subprocess.run([sys.executable, "-c", check], input=line + "\n", text=True)
        verdicts[correct, failed] = run.returncode
    assert verdicts == {(True, 0): 0, (False, 0): 1, (True, 1): 1}
