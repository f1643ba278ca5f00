"""The integer kernel: HNF with and without transform, Smith invariant factors."""

import os
import random
import subprocess
import sys

from hypermorse import _kernel

import oracles


def _random_matrices(seed, count=120):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        out.append([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
    # a couple of big-entry matrices to exercise arbitrary precision
    for _ in range(10):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        out.append([[rng.randint(-(10**12), 10**12) for _ in range(c)] for _ in range(r)])
    return out


def _mul(a, b, cols):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)] for row in a]


def test_snf_decompose_matches_transform_oracle():
    for mat in _random_matrices(3, count=190):
        _, d, _ = oracles.snf_transform_rows(mat)
        want = [d[t][t] for t in range(min(len(d), len(d[0]) if d else 0)) if d[t][t]]
        assert _kernel.snf_decompose(mat) == want


def test_hnf_rows_is_transform_hnf_without_zero_rows():
    for mat in _random_matrices(1):
        h, u = _kernel.hnf_rows_with_transform(mat)
        assert _kernel.hnf_rows(mat) == [row for row in h if any(row)]
        cols = len(mat[0]) if mat else 0
        assert _mul(u, mat, cols) == h


def test_inputs_not_mutated():
    for mat in _random_matrices(2, count=40) + [[[2, 4], [6, 8]], [[0, 3], [-3, 0], [5, 1]]]:
        copy = [row[:] for row in mat]
        _kernel.hnf_rows(mat)
        _kernel.hnf_rows_with_transform(mat)
        _kernel.snf_decompose(mat)
        assert mat == copy


def test_removed_backend_variable_is_inert():
    env = dict(os.environ, HYPERMORSE_KERNEL="c")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", "import hypermorse; print(hypermorse.KERNEL_BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "py\n"
