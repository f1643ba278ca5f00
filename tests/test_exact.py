import random
from fractions import Fraction

import pytest

from hypermorse.coeffs import CoeffSpec, Q, Z, _is_prime, prime_field
from hypermorse.exact import (
    ColumnSolver,
    ExactMatrix,
    canonical_basis,
    hermite_basis,
    kernel_and_image,
    kernel_basis,
    matmul,
    matvec,
    module_intersection,
    module_sum,
    normalize,
    preimage_module,
    rank,
    snf_diagonal,
)

import oracles

Z5 = prime_field(5)


def test_coeffspec_validation():
    assert Z.label() == "Z" and Q.label() == "Q" and Z5.label() == "Z/5"
    assert CoeffSpec.parse("zp:7") == prime_field(7)
    with pytest.raises(ValueError):
        prime_field(6)
    with pytest.raises(ValueError):
        CoeffSpec.parse("r")
    assert Z5.normalize(-1) == 4
    assert Q.normalize(2) == Fraction(2)
    with pytest.raises(ValueError):
        Z.normalize(Fraction(1, 2))


def test_prime_field_modulus_must_be_an_int():
    # a float modulus would let float entries into Z/p, and a large one used
    # to reach the primality test and fail there with a TypeError
    for p in (7.0, 41.0, True, Fraction(7)):
        with pytest.raises(ValueError, match="must be an int"):
            prime_field(p)


def test_normalize_reads_non_int_scalars_exactly():
    # 2.5 is 5/2: not an integer over Z and 5 * 2^-1 = 0 over Z/5, never a
    # truncation to 2
    for x in (2.5, Fraction(1, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            Z.normalize(x)
    assert Z5.normalize(2.5) == 0
    assert Z5.normalize(Fraction(5, 2)) == 0
    assert prime_field(7).normalize(2.5) == 6
    assert Z.normalize(4.0) == 4 and type(Z.normalize(4.0)) is int
    assert Q.normalize(2.5) == Fraction(5, 2)


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if oracles.is_prime_oracle(n)
    ]


def test_pseudoprimes_rejected_as_moduli():
    # Carmichael numbers 561 and 41041, strong pseudoprimes 2047 (base 2)
    # and 3215031751 (bases 2, 3, 5, 7)
    for n in (561, 41041, 2047, 3215031751):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match="prime modulus"):
            prime_field(n)


def test_moduli_from_2_64_refused():
    assert prime_field(2**64 - 59).p == 2**64 - 59  # the largest prime below 2**64
    for n in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            prime_field(n)


def test_normalize_types():
    # exact ints take the fast path; other inputs keep their old coercions
    for coeff, x, want in (
        (Z, -3, -3),
        (Z, True, 1),
        (Z, Fraction(4, 2), 2),
        (Z5, 7, 2),
        (Z5, True, 1),
        (Z5, Fraction(1, 2), 3),
    ):
        got = coeff.normalize(x)
        assert got == want and type(got) is int
    assert type(Q.normalize(2)) is Fraction


@pytest.mark.parametrize("coeff", [Z, Q, Z5], ids=["Z", "Q", "Z5"])
def test_matmul_matches_dense_oracle(coeff):
    rng = random.Random(17)

    def sparse(rows, cols):
        def entry():
            if rng.random() < 0.7:
                return 0
            x = rng.randint(-3, 3)
            return Fraction(x, rng.randint(1, 3)) if coeff is Q else x

        return ExactMatrix(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])

    for _ in range(40):
        r, k, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a, b = sparse(r, k), sparse(k, c)
        got = matmul(a, b, coeff)
        want = oracles.dense_matmul(a, b, coeff)
        assert got == want
        assert [[type(x) for x in row] for row in got.data] == [
            [type(x) for x in row] for row in want.data
        ]


def test_matmul_stores_no_entry_for_a_sum_that_vanishes():
    # a Z/3 sum of 3 is normalized to 0; a Q sum that cancels is Fraction(0)
    z3 = prime_field(3)
    ones = ExactMatrix.from_rows([[1, 1, 1]])
    got = matmul(ones, ExactMatrix.from_rows([[1], [1], [1]]), z3)
    assert got.column_entries == ({},) and got.data == ((0,),)
    assert matmul(ones, ExactMatrix.from_rows([[1], [1], [2]]), z3).column_entries == ({0: 1},)
    halves = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 2)]])
    got = matmul(halves, ExactMatrix.from_rows([[Fraction(1)], [Fraction(1)]]), Q)
    assert got.column_entries == ({},) and got.data == ((Fraction(0),),)
    assert type(got.data[0][0]) is Fraction


def test_hermite_identity():
    eye = ExactMatrix.identity(3)
    assert hermite_basis(eye) == eye


def test_hermite_zero_columns_dropped():
    m = ExactMatrix.from_columns([(0, 0), (0, 0)], 2)
    assert hermite_basis(m).cols == 0


def test_hermite_lattice_example_with_membership_oracle():
    m = ExactMatrix.from_columns([(2, 0), (0, 2), (1, 1)], 2)
    basis = hermite_basis(m)
    assert basis.cols == 2
    assert abs(oracles.det_int(basis)) == 2
    got = oracles.lattice_members_in_box(basis, Z, 3)
    expected = {
        (a * 2 + c, b * 2 + c)
        for a in range(-4, 5)
        for b in range(-4, 5)
        for c in range(-4, 5)
    }
    expected = {p for p in expected if max(abs(p[0]), abs(p[1])) <= 3}
    assert got == expected


def test_snf_correctness_random():
    rng = random.Random(42)
    for _ in range(80):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        m = oracles.random_int_matrix(rng, r, c, -7, 7)
        u, d, v = oracles.snf_transform(m)
        assert matmul(matmul(u, d, Z), v, Z) == m
        if r:
            assert abs(oracles.det_int(u)) == 1
        if c:
            assert abs(oracles.det_int(v)) == 1
        diag = [d.data[i][i] for i in range(min(r, c))]
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert all(d.data[i][j] == 0 for i in range(r) for j in range(c) if i != j)
        assert len(nz) == rank(m, Z)


def test_solve_columns_constructed_instances():
    rng = random.Random(5)
    for coeff in (Z, Q, Z5):
        for _ in range(60):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = oracles.random_int_matrix(rng, r, c)
            x = [coeff.normalize(rng.randint(-3, 3)) for _ in range(c)]
            b = [
                coeff.normalize(sum(m.data[i][k] * x[k] for k in range(c)))
                for i in range(r)
            ]
            sol = ColumnSolver(m, coeff).solve(b)
            assert sol is not None
            back = [
                coeff.normalize(sum(m.data[i][k] * sol[k] for k in range(c)))
                for i in range(r)
            ]
            assert back == b


def test_solve_columns_unsolvable():
    two = ExactMatrix.from_columns([(2,)], 1)
    assert ColumnSolver(two, Z).solve([1]) is None
    assert ColumnSolver(two, Q).solve([1]) == [Fraction(1, 2)]
    m = ExactMatrix.from_columns([(1, 0)], 2)
    assert ColumnSolver(m, Q).solve([0, 1]) is None


def test_kernel_basis_random(monkeypatch):
    rng = random.Random(9)
    for coeff in (Z, Q, Z5):
        for _ in range(50):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            m = oracles.random_int_matrix(rng, r, c)
            ker = kernel_basis(m, coeff)
            assert matmul(m, ker, coeff).is_zero()
            assert ker.cols == c - rank(m, coeff)
            assert kernel_and_image(m, coeff) == (ker, canonical_basis(m, coeff))
    # a matrix with rows but no non-zero has the identity as kernel, with no
    # elimination
    from hypermorse import exact

    factored = []
    factor = exact._factor
    monkeypatch.setattr(exact, "_factor", lambda *args: factored.append(args) or factor(*args))
    for coeff in (Z, Q, Z5):
        ker = kernel_basis(ExactMatrix.zeros(3, 4), coeff)
        assert ker == ExactMatrix.identity(4)
        im = canonical_basis(ExactMatrix.zeros(3, 4), coeff)
        assert kernel_and_image(ExactMatrix.zeros(3, 4), coeff) == (ker, im)
        assert (im.rows, im.cols) == (3, 0)
        assert {type(x) for row in ker.data for x in row} == {type(coeff.normalize(0))}
    assert factored == []


def test_kernel_basis_saturated_over_z():
    # kernel of (2  -2): the lattice (1,1)Z, not (2,2)Z
    m = ExactMatrix.from_rows([[2, -2]])
    ker = kernel_basis(m, Z)
    assert ker.columns() == [(1, 1)]


def test_module_sum_basics():
    b = ExactMatrix.from_columns([(1, 0), (0, 3)], 2)
    zero = ExactMatrix.zeros(2, 0)
    assert module_sum(b, zero, Z) == canonical_basis(b, Z)
    assert module_sum(b, b, Z) == canonical_basis(b, Z)


def test_module_intersection_basics():
    full = ExactMatrix.identity(3)
    b = ExactMatrix.from_columns([(1, 2, 0)], 3)
    assert module_intersection(b, full, Z) == canonical_basis(b, Z)
    e1 = ExactMatrix.from_columns([(1, 0)], 2)
    e2 = ExactMatrix.from_columns([(0, 1)], 2)
    assert module_intersection(e1, e2, Z).cols == 0
    # a zero-column operand on either side: the intersection is 3 x 0, and
    # the preimage of nothing is the kernel, of a map from nothing 0 x 0
    none = ExactMatrix.zeros(3, 0)
    for coeff in (Z, Q, Z5):
        a = normalize(ExactMatrix.from_rows([[1, 2, 0], [0, 0, 0], [2, 4, 1]]), coeff)
        assert module_intersection(a, none, coeff) == ExactMatrix.zeros(3, 0)
        assert module_intersection(none, a, coeff) == ExactMatrix.zeros(3, 0)
        assert module_intersection(none, none, coeff) == ExactMatrix.zeros(3, 0)
        assert preimage_module(a, none, coeff) == kernel_basis(a, coeff)
        assert preimage_module(a, none, coeff).cols == 1
        assert preimage_module(none, a, coeff) == ExactMatrix.zeros(0, 0)


def test_preimage_module_basics():
    zero_map = ExactMatrix.zeros(2, 3)
    target = ExactMatrix.from_columns([(1, 0)], 2)
    assert preimage_module(zero_map, target, Z) == ExactMatrix.identity(3)
    full_target = ExactMatrix.identity(2)
    any_map = ExactMatrix.from_rows([[1, 2, 3], [0, 1, 1]])
    assert preimage_module(any_map, full_target, Z) == ExactMatrix.identity(3)


def test_module_ops_against_box_oracle():
    rng = random.Random(77)
    for _ in range(25):
        dim = rng.randint(1, 4)
        a = oracles.random_int_matrix(rng, dim, rng.randint(0, 3), -2, 2)
        b = oracles.random_int_matrix(rng, dim, rng.randint(0, 3), -2, 2)
        s = module_sum(a, b, Z)
        inter = module_intersection(a, b, Z)
        radius = 2
        in_a = oracles.lattice_members_in_box(a, Z, radius)
        in_b = oracles.lattice_members_in_box(b, Z, radius)
        in_sum = oracles.lattice_members_in_box(s, Z, radius)
        in_concat = oracles.lattice_members_in_box(a.hstack(b), Z, radius)
        assert in_sum == in_concat
        in_inter = oracles.lattice_members_in_box(inter, Z, radius)
        assert in_inter == (in_a & in_b)


def test_preimage_against_box_oracle():
    rng = random.Random(78)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = oracles.random_int_matrix(rng, rows, cols, -2, 2)
        t = oracles.random_int_matrix(rng, rows, rng.randint(0, 2), -2, 2)
        pre = preimage_module(m, t, Z)
        got = oracles.lattice_members_in_box(pre, Z, 2)
        expected = oracles.preimage_members_in_box(m, t, Z, 2)
        assert got == expected


def test_canonical_basis_is_span_invariant():
    rng = random.Random(3)
    for coeff in (Z, Q, Z5):
        for _ in range(40):
            dim = rng.randint(1, 4)
            a = oracles.random_int_matrix(rng, dim, rng.randint(1, 4), -3, 3)
            # shuffle columns and append random combinations: same span
            cols = a.columns()
            rng.shuffle(cols)
            extra = []
            for _ in range(2):
                weights = [rng.randint(-2, 2) for _ in cols]
                extra.append(
                    tuple(
                        coeff.normalize(sum(w * c[i] for w, c in zip(weights, cols)))
                        for i in range(dim)
                    )
                )
            b = ExactMatrix.from_columns(cols + extra, dim)
            assert canonical_basis(a, coeff) == canonical_basis(b, coeff)


def test_field_rank_and_prime_field_arithmetic():
    m = ExactMatrix.from_rows([[2, 4], [1, 2]])
    assert rank(m, Q) == 1
    assert rank(m, Z5) == 1
    m2 = ExactMatrix.from_rows([[5, 0], [0, 1]])
    assert rank(m2, Q) == 2
    assert rank(m2, Z5) == 1  # 5 vanishes mod 5


def test_integer_rank_equals_rational_rank():
    # the rank over Z is the number of non-zero Smith invariant factors, and
    # a free Z-module keeps its rank after tensoring with Q
    rng = random.Random(173)
    for _ in range(200):
        m = oracles.random_int_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        if m.rows > 2 and rng.random() < 0.4:
            # a dependent last row keeps the rank below full
            data = [list(r) for r in m.data]
            data[-1] = [2 * x - 3 * y for x, y in zip(data[0], data[1])]
            m = ExactMatrix.from_rows(data)
        assert rank(m, Z) == rank(m, Q)


def test_column_solver_reuse():
    basis = ExactMatrix.from_columns([(1, 0, 1), (0, 2, 0)], 3)
    solver = ColumnSolver(basis, Z)
    assert solver.solve([1, 2, 1]) == [1, 1]
    assert solver.solve([1, 1, 1]) is None
    assert solver.solve([0, 0, 0]) == [0, 0]
    assert solver.contains([2, 4, 2])


# ---------------------------------------------------------------------------
# sparse unit-pivot Smith diagonal, sparse column solves and the field kernel
# against the dense paths they replace


def _unimodular(rng, n):
    """A random integer matrix of determinant ±1 (elementary row operations)."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return ExactMatrix(n, n, rows)


def test_snf_diagonal_matches_dense_oracle():
    rng = random.Random(401)
    for _ in range(150):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        dense = oracles.random_int_matrix(rng, r, c, -7, 7)
        sparse = ExactMatrix(r, c, [[rng.choice((0, 0, 0, 1, -1)) for _ in range(c)] for _ in range(r)])
        for m in (dense, sparse):
            assert snf_diagonal(m) == oracles.snf_diagonal_oracle(m)


def test_snf_diagonal_keeps_planted_torsion():
    rng = random.Random(402)
    for _ in range(60):
        r, c = rng.randint(3, 7), rng.randint(3, 7)
        d = ExactMatrix.zeros(r, c).row_lists()
        d[0][0], d[1][1] = 2, 6
        planted = matmul(
            matmul(_unimodular(rng, r), ExactMatrix(r, c, d), Z), _unimodular(rng, c), Z
        )
        assert snf_diagonal(planted) == oracles.snf_diagonal_oracle(planted) == [2, 6]


def test_snf_diagonal_empty_shapes():
    for r, c in ((0, 0), (0, 4), (4, 0), (3, 3)):
        m = ExactMatrix.zeros(r, c)
        assert snf_diagonal(m) == oracles.snf_diagonal_oracle(m) == []


@pytest.mark.parametrize("coeff", [Z, Q, Z5], ids=["Z", "Q", "Z5"])
def test_column_solver_matches_dense_oracle(coeff):
    rng = random.Random(403)
    outside = 0
    seen = set()  # whether the bases had independent columns
    for _ in range(120):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        m = normalize(oracles.random_int_matrix(rng, r, c, -3, 3), coeff)
        sparse, dense = ColumnSolver(m, coeff), oracles.DenseColumnSolver(m, coeff)
        independent = oracles.dense_rank(m, Q if coeff is Z else coeff) == c
        seen.add(independent)
        for _ in range(3):
            x = [rng.randint(-3, 3) for _ in range(c)]
            inside = [sum(m.data[i][k] * x[k] for k in range(c)) for i in range(r)]
            other = [rng.randint(-3, 3) for _ in range(r)]
            for vec in (inside, other):
                got, want = sparse.solve(vec), dense.solve(vec)
                if independent:
                    assert got == want
                else:
                    # the coefficients are not unique: check the combination
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert [coeff.normalize(s) for s in matvec(m, got, coeff)] == [
                            coeff.normalize(v) for v in vec
                        ]
                # the same solve on the non-zeros, as the chain layer calls it
                got_nz = sparse.solve({i: v for i, v in enumerate(vec) if v})
                assert got_nz == (None if got is None else {k: v for k, v in enumerate(got) if v})
                if got is None:
                    outside += 1
                else:
                    assert [type(v) for v in got] == [type(v) for v in want]
    assert outside > 0 and seen == {True, False}
    # columns with distinct leads, two of them not 1, and a unit e_2 alone on
    # its row: solved as they stand, dividing by the leads (over Z exactly,
    # so an odd residual at the lead 2 is outside the span)
    lead = 3 if coeff is Z5 else 2
    m = normalize(ExactMatrix.from_columns([(lead, 1, 0), (0, 3, 0), (0, 0, 1)], 3), coeff)
    sparse, dense = ColumnSolver(m, coeff), oracles.DenseColumnSolver(m, coeff)
    for vec in ([1, 0, 0], [lead, 4, 2], [0, -3, 1], [3 * lead, 1, 0]):
        got = sparse.solve(vec)
        assert got == dense.solve(vec)
        assert sparse.solve({i: v for i, v in enumerate(vec) if v}) == (
            None if got is None else {k: v for k, v in enumerate(got) if v}
        )
    assert (sparse.solve([1, 0, 0]) is None) == (coeff is Z)
    assert sparse.solve([lead, 4, 2]) == [coeff.normalize(x) for x in (1, 1, 2)]


def test_column_solver_non_divisible_over_z():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(1, 5)
        scale = rng.choice((2, 3, 6))
        m = ExactMatrix(
            n, n, [[scale if i == j else 0 for j in range(n)] for i in range(n)]
        )
        m = matmul(_unimodular(rng, n), m, Z)
        vec = [scale * rng.randint(-2, 2) for _ in range(n)]
        vec[rng.randrange(n)] += 1
        solver = ColumnSolver(m, Z)
        assert solver.solve(vec) is None
        assert oracles.DenseColumnSolver(m, Z).solve(vec) is None
        # over Q the same vector is always reachable
        assert ColumnSolver(m, Q).solve(vec) == oracles.DenseColumnSolver(m, Q).solve(vec)


@pytest.mark.parametrize(
    "coeff", [Q, prime_field(2), prime_field(3), Z5], ids=["Q", "Z2", "Z3", "Z5"]
)
def test_field_kernel_basis_matches_transform_oracle(coeff):
    rng = random.Random(405)
    zeros = 0
    for _ in range(150):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        m = ExactMatrix(
            r,
            c,
            [[coeff.normalize(rng.choice((0, 0, 0, 1, -1, 2, -3))) for _ in range(c)] for _ in range(r)],
        )
        assert kernel_basis(m, coeff) == oracles.field_kernel_basis_oracle(m, coeff)
        ker, im = kernel_and_image(m, coeff)
        assert (ker, im) == (kernel_basis(m, coeff), canonical_basis(m, coeff))
        if m.is_zero():
            assert (im.rows, im.cols) == (r, 0)
            zeros += 1
    assert zeros > 0


@pytest.mark.parametrize(
    "coeff", [Q, prime_field(2), prime_field(3), Z5], ids=["Q", "Z2", "Z3", "Z5"]
)
def test_echelon_mode_rows_are_the_dense_rref(coeff):
    # the one field elimination: in echelon mode every non-empty row pivots,
    # its pivot rows by lead are the non-zero rows of the dense RREF, and the
    # transform takes the same row operations (u * input = rows)
    from hypermorse import exact

    rng = random.Random(6)
    p = coeff.p if coeff.kind == "Zp" else 0
    mats = [[], [[]], [[], []], [[0, 0, 0]], [[0], [0]], [[0, 1], [0, 0], [2, 0]]]
    while len(mats) < 160:
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        mats.append([[rng.choice((0, 0, 0, 1, -1, 2, -3, 4)) for _ in range(c)] for _ in range(r)])
    for mat in mats:
        h, _, pivots = oracles.dense_rref_with_transform(mat, coeff)
        norm = [[coeff.normalize(x) for x in row] for row in mat]
        rows = [{j: x for j, x in enumerate(row) if x} for row in norm]
        u = [{i: coeff.normalize(1)} for i in range(len(mat))]
        got, rest = exact._unit_pivots(rows, p, True, u)
        assert rest == [] and got == {i for i, row in enumerate(rows) if row}
        want = [{j: x for j, x in enumerate(row) if x} for row in h[: len(pivots)]]
        assert sorted(filter(None, rows), key=min) == want
        cols = len(mat[0]) if mat else 0
        for ui, row in zip(u, rows):
            combo = [coeff.normalize(sum(y * norm[k][j] for k, y in ui.items())) for j in range(cols)]
            assert combo == [row.get(j, coeff.normalize(0)) for j in range(cols)]


@pytest.mark.parametrize("coeff", [Q, prime_field(2), prime_field(3)], ids=["Q", "Z2", "Z3"])
def test_field_kernel_basis_is_one_unit_pivot_pass(monkeypatch, coeff):
    # no second canonical basis and no integer echelon: one echelon-mode
    # pass, in _factor, per matrix with a non-zero entry
    from hypermorse import _kernel, exact

    def refuse(*args, **kwargs):
        raise AssertionError("a field kernel took another elimination")

    passes = []
    unit_pivots = exact._unit_pivots
    monkeypatch.setattr(exact, "_unit_pivots", lambda *args: passes.append(args) or unit_pivots(*args))
    monkeypatch.setattr(exact, "canonical_basis", refuse)
    monkeypatch.setattr(_kernel, "echelon", refuse)
    rng = random.Random(418)
    kernels = 0
    for _ in range(150):
        r, c = rng.randint(0, 8), rng.randint(0, 8)
        entries = [[rng.choice((0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(c)] for _ in range(r)]
        m = normalize(ExactMatrix(r, c, entries), coeff)
        passes.clear()
        ker = kernel_basis(m, coeff)
        assert ker == oracles.field_kernel_basis_oracle(m, coeff)
        assert len(passes) == (not m.is_zero())
        kernels += 0 < ker.cols < c
    assert kernels > 0


# ---------------------------------------------------------------------------
# sparse storage against the dense matrix it replaced, and the one pass of
# unit pivots against dense oracles


def _random_pair(rng, rows, cols, kind, zero):
    """An ExactMatrix and an oracles.DenseMatrix of the same dense rows,
    whose zeros are all `zero`."""

    def entry():
        if rng.random() < 0.6:
            return zero
        x = rng.choice((1, -1, 2, -3, 5))
        if kind == "Q" and rng.random() < 0.5:
            return Fraction(x, rng.randint(1, 4))
        return x

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    return ExactMatrix(rows, cols, data), oracles.DenseMatrix(rows, cols, data)


def _types(rows):
    return [[type(x) for x in r] for r in rows]


def _assert_same_view(m, d):
    assert (m.rows, m.cols) == (d.rows, d.cols)
    assert m.data == d.data and _types(m.data) == _types(d.data)
    assert m.row_lists() == [list(r) for r in d.data]
    columns = [d.column(j) for j in range(d.cols)]
    assert [m.column(j) for j in range(m.cols)] == columns == m.columns()
    assert _types(m.columns()) == _types(columns)
    assert m.is_zero() == d.is_zero()


@pytest.mark.parametrize("kind, zero", [("Z", 0), ("Q", 0), ("Q", Fraction(0))], ids=["Z", "Q", "Q0"])
def test_sparse_matrix_matches_dense_oracle(kind, zero):
    rng = random.Random(407)
    for _ in range(150):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        m, d = _random_pair(rng, r, c, kind, zero)
        _assert_same_view(m, d)
        _assert_same_view(m.transpose(), d.transpose())
        _assert_same_view(m.negate(), d.negate())
        right, dright = _random_pair(rng, r, rng.randint(0, 3), kind, zero)
        _assert_same_view(m.hstack(right), d.hstack(dright))
        _assert_same_view(ExactMatrix.from_columns(m.columns(), r), d)
        # equality and hashing: small shapes make equal random pairs common,
        # and an int entry equals the same Fraction
        other, dother = _random_pair(rng, r, c, kind, zero)
        assert (m == other) == (d == dother)
        if m == other:
            assert hash(m) == hash(other)
        as_fractions = ExactMatrix(r, c, [[Fraction(x) for x in row] for row in d.data])
        assert m == as_fractions and hash(m) == hash(as_fractions)
        assert ExactMatrix.from_rows(m.row_lists(), cols=c) == m
        assert (m == m.transpose()) == (d == d.transpose())
        assert (m == m.negate()) == m.is_zero()


def _shuffled(rng, rows, ncols):
    """rows (dense lists) with their rows and columns permuted at random."""
    perm = list(range(ncols))
    rng.shuffle(perm)
    rows = [[row[perm[j]] for j in range(ncols)] for row in rows]
    rng.shuffle(rows)
    return rows


def _tied_units_with_torsion(rng):
    """A graph incidence block (rows of ±1 pairs: many unit pivots, some in
    rows that earlier pivots changed) beside a block with planted torsion,
    shuffled."""
    nv = rng.randint(2, 9)
    edges = [tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(1, 14))]
    graph = [[0] * nv for _ in edges]
    for row, (a, b) in zip(graph, edges):
        row[a], row[b] = 1, -1
    k = rng.randint(2, 4)
    diag = [[0] * k for _ in range(k)]
    for i, t in enumerate(rng.sample((2, 3, 4, 6, 12), rng.randint(1, k))):
        diag[i][i] = t
    mixed = matmul(
        matmul(_unimodular(rng, k), ExactMatrix(k, k, diag), Z), _unimodular(rng, k), Z
    )
    rows = [row + [0] * k for row in graph] + [[0] * nv + list(r) for r in mixed.data]
    return ExactMatrix.from_rows(_shuffled(rng, rows, nv + k))


def test_markowitz_snf_diagonal_on_tied_unit_pivots_and_planted_torsion():
    rng = random.Random(408)
    torsion = 0
    for _ in range(150):
        m = _tied_units_with_torsion(rng)
        want = oracles.snf_diagonal_oracle(m)
        assert snf_diagonal(m) == want
        assert rank(m, Z) == len(want)
        torsion += any(x > 1 for x in want)
    assert torsion > 100


@pytest.mark.parametrize(
    "coeff", [Q, prime_field(2), prime_field(3), Z5], ids=["Q", "Z2", "Z3", "Z5"]
)
def test_rank_matches_dense_rref_oracle(coeff):
    rng = random.Random(409)
    for _ in range(200):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        if coeff is Q:
            def entry():
                return Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)), rng.randint(1, 3))
        else:
            # raw integers: the elimination reduces them mod p itself
            def entry():
                return rng.choice((0, 0, 0, 1, -1, 2, -3, 5, 6, 10))
        m = ExactMatrix(r, c, [[entry() for _ in range(c)] for _ in range(r)])
        if r > 2 and rng.random() < 0.4:
            # a dependent last row keeps the rank below full
            data = m.row_lists()
            data[-1] = [2 * x - 3 * y for x, y in zip(data[0], data[1])]
            m = ExactMatrix.from_rows(data)
        assert rank(m, coeff) == oracles.dense_rank(m, coeff)
    for _ in range(40):
        m = _tied_units_with_torsion(rng)
        assert rank(m, coeff) == oracles.dense_rank(m, coeff)


def _late_units(rng):
    """Stored columns with no ±1 entry, then the columns of a unimodular
    matrix, some scaled by planted torsion: the first columns can take a
    unit entry only from the row operations of the later ones."""
    k, n = rng.randint(2, 5), rng.randint(1, 4)
    early = []
    while len(early) < n:
        column = [rng.choice((0, 0, 2, -2, 3, -3, 4, 5)) for _ in range(k)]
        if any(column):
            early.append(column)
    u = _unimodular(rng, k)
    late = [[x * d for x in u.column(j)] for j, d in enumerate(rng.choices((1, 1, 2, 3, 6), k=k))]
    return ExactMatrix.from_columns(early + late, k)


def test_rows_given_a_unit_late_go_to_the_smith_residual(monkeypatch):
    from hypermorse import _kernel

    residual = []
    snf = _kernel.snf_decompose

    def recording(rows):
        residual.extend(dict(row) for row in rows)
        return snf(rows)

    monkeypatch.setattr(_kernel, "snf_decompose", recording)
    # (2, 3) has no unit; the pivot of (1, 1) leaves it (0, 1), and the one
    # pass does not go back to it
    m = ExactMatrix.from_columns([(2, 3), (1, 1)], 2)
    assert snf_diagonal(m) == [1, 1] == oracles.snf_diagonal_oracle(m)
    assert residual == [{1: 1}]
    rng = random.Random(416)
    matrices = [m] + [_late_units(rng) for _ in range(150)]
    for m in matrices:
        want = oracles.snf_diagonal_oracle(m)
        assert snf_diagonal(m) == want
        assert rank(m, Z) == len(want)
        for coeff in (Q, prime_field(2), prime_field(3)):
            assert rank(m, coeff) == oracles.dense_rank(m, coeff)
    late = sum(any(x in (1, -1) for x in row.values()) for row in residual)
    assert late > 50


# ---------------------------------------------------------------------------
# unit columns read off by ColumnSolver, and the one pass of unit pivots with
# fill-in against the Markowitz order of oracles.markowitz_repush_oracle


def _basis_with_units(rng, coeff):
    """A random basis, some of whose columns are made units e_p (row p then
    holds nothing else) and some traps e_p (row p keeps another non-zero)."""
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    data = [[rng.choice((0, 0, 0, 1, -1, 2, 3)) for _ in range(c)] for _ in range(r)]
    rows = rng.sample(range(r), rng.randint(1, r))
    units = traps = 0
    for j, p in zip(rng.sample(range(c), min(c, len(rows))), rows):
        for i in range(r):
            data[i][j] = 1 if i == p else 0
        if rng.random() < 0.7:
            data[p] = [1 if k == j else 0 for k in range(c)]
            units += 1
        elif any(data[p][k] for k in range(c) if k != j):
            traps += 1
    return normalize(ExactMatrix(r, c, data), coeff), units, traps


@pytest.mark.parametrize("coeff", [Z, Q, prime_field(3)], ids=["Z", "Q", "Z3"])
def test_column_solver_reads_unit_columns_off(coeff):
    rng = random.Random(414)
    seen = {"units": 0, "traps": 0, "outside": 0, "dependent": 0}
    for _ in range(150):
        m, units, traps = _basis_with_units(rng, coeff)
        seen["units"] += units
        seen["traps"] += traps
        sparse, dense = ColumnSolver(m, coeff), oracles.DenseColumnSolver(m, coeff)
        independent = oracles.dense_rank(m, Q if coeff is Z else coeff) == m.cols
        seen["dependent"] += not independent
        for _ in range(3):
            x = [rng.randint(-3, 3) for _ in range(m.cols)]
            inside = [sum(v * y for v, y in zip(row, x)) for row in m.data]
            other = [rng.randint(-3, 3) for _ in range(m.rows)]
            for vec in (inside, other):
                got, want = sparse.solve(vec), dense.solve(vec)
                got_nz = sparse.solve({i: v for i, v in enumerate(vec) if v})
                if got is None:
                    assert want is None and got_nz is None
                    seen["outside"] += 1
                    continue
                assert got_nz == {k: v for k, v in enumerate(got) if v}
                assert [type(v) for v in got] == [type(coeff.normalize(0))] * m.cols
                if independent:
                    assert got == want
                else:
                    # the coefficients are not unique: check the combination
                    assert want is not None
                    assert [coeff.normalize(s) for s in matvec(m, got, coeff)] == [
                        coeff.normalize(v) for v in vec
                    ]
    assert all(seen.values()), seen


@pytest.mark.parametrize("coeff", [Z, Q, prime_field(3)], ids=["Z", "Q", "Z3"])
def test_column_solver_reads_no_trap_column_off(coeff):
    # e_0 is a basis column, but row 0 also holds the second column, so the
    # coefficient of e_0 is not the entry at row 0
    m = ExactMatrix.from_columns([(1, 0, 0), (1, 1, 0), (0, 0, 1)], 3)
    solver = ColumnSolver(m, coeff)
    one, minus = coeff.normalize(1), coeff.normalize(-1)
    assert solver.solve([0, 1, 2]) == [minus, one, coeff.normalize(2)]
    assert solver.solve({1: 1}) == {0: minus, 1: one}
    assert solver.solve([1, 0, 0]) == [one, coeff.normalize(0), coeff.normalize(0)]
    assert oracles.DenseColumnSolver(m, coeff).solve([0, 1, 2]) == solver.solve([0, 1, 2])


def _sparse_int_matrix(rng, r, c):
    return ExactMatrix(
        r, c, [[rng.choice((0,) * 9 + (1, -1, 1, -1, 2, -2, 3)) for _ in range(c)] for _ in range(r)]
    )


def test_markowitz_with_fill_in_matches_oracles(monkeypatch):
    from hypermorse import _kernel

    fills = []
    submul = _kernel.submul

    def counting(target, source, *args):
        fills.append(sum(j not in target for j in source))
        return submul(target, source, *args)

    monkeypatch.setattr(_kernel, "submul", counting)
    rng = random.Random(415)
    for _ in range(40):
        m = _sparse_int_matrix(rng, rng.randint(10, 20), rng.randint(10, 20))
        want = oracles.snf_diagonal_oracle(m)
        assert snf_diagonal(m) == want == oracles.markowitz_repush_smith_oracle(m)
        assert rank(m, Z) == len(want)
        assert rank(m, Q) == oracles.dense_rank(m, Q) == len(want)
        z3 = prime_field(3)
        r3 = oracles.dense_rank(m, z3)
        assert rank(m, z3) == r3
        assert oracles.markowitz_repush_oracle(list(normalize(m, z3).column_entries), 3)[0] == r3
    assert sum(fills) > 1000


def test_q_results_on_int_entries_have_the_oracle_types():
    # a pivot that is already 1 is not scaled, so Q rows read in without
    # normalizing once left ints in canonical and sum bases; the dense oracles
    # on canonical values, and every Q.normalize, give Fractions
    def types(m):
        return {type(x) for row in m.data for x in row}

    def rref_oracle(m):
        rows = m.transpose().row_lists()
        return ExactMatrix.from_rows(oracles.dense_rref(rows, Q), cols=m.rows).transpose()

    rng = random.Random(15)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = oracles.random_int_matrix(rng, r, c, -3, 3)
        b = oracles.random_int_matrix(rng, r, rng.randint(1, 3), -3, 3)
        assert types(canonical_basis(a, Q)) == types(rref_oracle(a))
        assert types(module_sum(a, b, Q)) == types(rref_oracle(a.hstack(b)))
        assert types(kernel_basis(a, Q)) == types(oracles.field_kernel_basis_oracle(a, Q))
        vec = [rng.randint(-3, 3) for _ in range(r)]
        got, want = ColumnSolver(a, Q).solve(vec), oracles.DenseColumnSolver(a, Q).solve(vec)
        assert (got is None) == (want is None)
        if got is not None:
            assert [type(x) for x in got] == [type(x) for x in want] == [Fraction] * c
    m = ExactMatrix.from_rows([[1, 2], [0, 3]])
    assert types(canonical_basis(m, Q)) == types(module_sum(m, m, Q)) == {Fraction}


def test_dense_field_oracles_normalize_q_input():
    # the oracles read int input through Q.normalize and start the transform
    # as a Fraction identity, as the library does
    ker = oracles.field_kernel_basis_oracle(ExactMatrix.from_rows([[0]]), Q)
    assert ker.data == ((Fraction(1),),) and type(ker.data[0][0]) is Fraction
    h, u, _ = oracles.dense_rref_with_transform([[0, 2], [0, 0]], Q)
    assert {type(x) for row in h + u for x in row} == {Fraction}
