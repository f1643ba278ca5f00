"""The integer elimination kernel on sparse rows: the one echelon routine
(the canonical HNF, with and without transform) against the dense oracle
steps, and Smith invariant factors by alternating row and column HNF.  The
field elimination, exact._unit_pivots, is tested in test_exact.py."""

import os
import random
import subprocess
import sys

import pytest

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


def _sparse(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def _dense(rows, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def test_snf_decompose_matches_transform_oracle():
    for mat in _random_matrices(3, count=190):
        _, d, _ = oracles.snf_transform_rows(mat)
        want = [d[t][t] for t in range(min(len(d), len(d[0]) if d else 0)) if d[t][t]]
        assert _kernel.snf_decompose(_sparse(mat)) == want


@pytest.mark.parametrize(
    "mat, want",
    [
        ([[2, 1], [0, 2]], [1, 4]),
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
        ([[6, 4], [4, 6]], [2, 10]),
        ([[0, 2], [2, 0], [0, 0]], [2, 2]),
    ],
)
def test_snf_decompose_needs_several_alternations(mat, want):
    assert _kernel.snf_decompose(_sparse(mat)) == want


def test_hnf_rows_is_transform_hnf_without_zero_rows():
    for mat in _random_matrices(1):
        h, u = _kernel.hnf_rows_with_transform(_sparse(mat))
        assert _kernel.hnf_rows(_sparse(mat)) == [row for row in h if row]
        cols = len(mat[0]) if mat else 0
        assert _mul(_dense(u, len(mat)), mat, cols) == _dense(h, cols)


def test_inputs_not_mutated():
    for mat in _random_matrices(2, count=40) + [[[2, 4], [6, 8]], [[0, 3], [-3, 0], [5, 1]]]:
        rows = _sparse(mat)
        copy = [row[:] for row in mat]
        _kernel.hnf_rows(rows)
        _kernel.hnf_rows_with_transform(rows)
        _kernel.snf_decompose(rows)
        assert mat == copy and rows == _sparse(copy)


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


def test_sparse_hnf_takes_the_dense_oracle_steps():
    # the same pivots and row operations: h and the transform u agree exactly
    rng = random.Random(5)
    sparse = [
        [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
        for r, c in ((rng.randint(0, 9), rng.randint(0, 9)) for _ in range(150))
    ]
    for mat in _random_matrices(4) + sparse:
        h, u, r = oracles.dense_hnf(mat, True)
        assert _kernel.hnf_rows_with_transform(_sparse(mat)) == (_sparse(h), _sparse(u))
        assert _kernel.hnf_rows(_sparse(mat)) == _sparse(h[:r])

