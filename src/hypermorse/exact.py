"""Exact matrices over Z, Q, Z/p and canonical sub-module computations.

Matrices are immutable, entries are Python ints (Z and Z/p, stored as
canonical residues) or Fractions (Q); no floating point anywhere.  Canonical
bases make span-level statements testable as structural matrix equality:
column Hermite normal form over Z, reduced column echelon form over fields.
Field elimination lives here; the integer Hermite elimination and the Smith
invariant factors live in _kernel.  Integer homology reads the Smith
diagonal from snf_diagonal, which cancels unit pivots on a sparse copy here
and hands only the block left without unit entries to _kernel.snf_decompose.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernel
from .coeffs import CoeffSpec


class ExactMatrix:
    """An immutable rows x cols matrix of exact scalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = tuple(tuple(r) for r in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, data, cols=None):
        data = [list(r) for r in data]
        if data:
            cols = len(data[0])
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(data), cols, data)

    @classmethod
    def from_columns(cls, columns, nrows):
        columns = [list(c) for c in columns]
        if any(len(c) != nrows for c in columns):
            raise ValueError("column length mismatch")
        data = [[c[i] for c in columns] for i in range(nrows)]
        return cls(nrows, len(columns), data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def row_lists(self):
        return [list(r) for r in self.data]

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return ExactMatrix(
            self.cols, self.rows, [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def hstack(self, other):
        if other.rows != self.rows:
            raise ValueError("row count mismatch in hstack")
        return ExactMatrix(
            self.rows,
            self.cols + other.cols,
            [list(a) + list(b) for a, b in zip(self.data, other.data)],
        )

    def negate(self):
        return ExactMatrix(self.rows, self.cols, [[-x for x in r] for r in self.data])

    def is_zero(self):
        return all(not x for r in self.data for x in r)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)


def normalize(m, coeff):
    return ExactMatrix(m.rows, m.cols, [[coeff.normalize(x) for x in r] for r in m.data])


def matmul(a, b, coeff):
    """Product a*b, summed only over the non-zeros of each row of b.

    Every entry is coeff.normalize of its sum (of 0 where no product is
    non-zero), with the same summation order as the dense triple loop.
    """
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matmul")
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b.data]
    norm = coeff.normalize
    zero = norm(0)
    out = []
    for ar in a.data:
        sums = {}
        for k, x in enumerate(ar):
            if x:
                for j, y in b_nonzero[k]:
                    sums[j] = sums.get(j, 0) + x * y
        row = [zero] * b.cols
        for j, s in sums.items():
            row[j] = norm(s)
        out.append(row)
    return ExactMatrix(a.rows, b.cols, out)


def matvec(a, vec, coeff):
    if a.cols != len(vec):
        raise ValueError("shape mismatch in matvec")
    out = []
    for i in range(a.rows):
        s = 0
        ar = a.data[i]
        for k in range(a.cols):
            x = ar[k]
            if x:
                y = vec[k]
                if y:
                    s += x * y
        out.append(coeff.normalize(s))
    return out


# ---------------------------------------------------------------------------
# field elimination (Q via Fractions, Z/p via canonical residues)


def _field_closures(coeff):
    if coeff.kind == "Q":
        def div(a, b):
            return Fraction(a, 1) / b if not isinstance(a, Fraction) else a / b

        def submul(a, q, b):
            return a - q * b

        return div, submul, lambda x: x
    p = coeff.p

    def div(a, b):
        return a * pow(b, p - 2, p) % p

    def submul(a, q, b):
        return (a - q * b) % p

    return div, submul, lambda x: x % p


def _row_submul(target, source, q, support, submul):
    for j in support:
        target[j] = submul(target[j], q, source[j])


def _rref_rows_with_transform(mat, coeff, transform=True):
    """Reduced row echelon form over a field with transform u (u*mat = h).

    Returns (h, u, pivots) where pivots is a list of (row, col) pairs; h keeps
    zero rows so that u stays square and kernel rows can be read off.  With
    transform=False, u is None and is never built.
    """
    div, submul, norm = _field_closures(coeff)
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows = [[norm(x) for x in row] for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = -1
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            if transform:
                u[r], u[piv] = u[piv], u[r]
        a = rows[r][c]
        if a != 1:
            inv = div(1, a)
            rows[r] = [norm(x * inv) for x in rows[r]]
            if transform:
                u[r] = [norm(x * inv) for x in u[r]]
        # entries opposite zeros of the pivot row do not change
        support = [j for j, y in enumerate(rows[r]) if y]
        u_support = [j for j, y in enumerate(u[r]) if y] if transform else ()
        for i in range(m):
            if i != r and rows[i][c]:
                q = rows[i][c]
                _row_submul(rows[i], rows[r], q, support, submul)
                if transform:
                    _row_submul(u[i], u[r], q, u_support, submul)
        pivots.append((r, c))
        r += 1
    return rows, u, pivots


def _rref_rows(mat, coeff):
    h, _, pivots = _rref_rows_with_transform(mat, coeff, transform=False)
    return h[: len(pivots)]


def pivot_columns(m, coeff):
    """Indices of the columns of m outside the span of the columns before
    them (field coefficients): the greedy rank-increasing choice, read off one
    row reduction."""
    _, _, pivots = _rref_rows_with_transform(m.row_lists(), coeff, transform=False)
    return [c for _, c in pivots]


# ---------------------------------------------------------------------------
# canonical bases, kernels, solving


def canonical_basis(m, coeff):
    """Canonical basis of the column span: HNF over Z, RCEF over fields.

    Zero columns are dropped; equal spans yield identical matrices.
    """
    rows_t = m.transpose().row_lists()
    if coeff.kind == "Z":
        reduced = _kernel.hnf_rows(rows_t)
    else:
        reduced = _rref_rows(rows_t, coeff)
    return ExactMatrix.from_rows(reduced, cols=m.rows).transpose()


def hermite_basis(m):
    """Column Hermite normal form basis of an integer column lattice."""
    return canonical_basis(m, CoeffSpec("Z"))


def kernel_basis(m, coeff):
    """Canonical basis (columns) of {x : m*x = 0} over the given ring.

    Over Z this is a basis of the full kernel lattice (which is saturated).
    Over a field it is read off the free columns of the RREF of m: each free
    column f gives x_f = 1 and x_c = -h[r][f] at the pivot column c of row r.
    """
    if coeff.kind == "Z":
        h, u = _kernel.hnf_rows_with_transform(m.transpose().row_lists())
        rows = [u[i] for i in range(len(h)) if not any(h[i])]
        rows = _kernel.hnf_rows(rows)
    else:
        h, _, pivots = _rref_rows_with_transform(m.row_lists(), coeff, transform=False)
        norm = coeff.normalize
        pivot_cols = {c for _, c in pivots}
        rows = []
        for f in range(m.cols):
            if f not in pivot_cols:
                x = [norm(0)] * m.cols
                x[f] = norm(1)
                for r, c in pivots:
                    x[c] = norm(-h[r][f])
                rows.append(x)
        rows = _rref_rows(rows, coeff)
    return ExactMatrix.from_rows(rows, cols=m.cols).transpose()


class ColumnSolver:
    """Prefactored exact solver for basis-expression problems basis*x = vec.

    solve keeps its residual as a dict of non-zeros and reads each echelon
    row h[k] and transform row u[k] of the factored transpose through a list
    of its non-zero (index, value) pairs, made the first time pivot k is used.
    """

    def __init__(self, basis, coeff):
        self.basis = basis
        self.coeff = coeff
        rows_t = basis.transpose().row_lists()
        if coeff.kind == "Z":
            h, u = _kernel.hnf_rows_with_transform(rows_t)
            pivots = []
            for i, row in enumerate(h):
                for j, x in enumerate(row):
                    if x:
                        pivots.append((i, j))
                        break
        else:
            h, u, pivots = _rref_rows_with_transform(rows_t, coeff)
        self._h = h
        self._u = u
        self._pivots = pivots
        self._nonzeros = {}

    def solve(self, vec):
        """Coefficients x with basis*x = vec, or None if vec is outside the span."""
        coeff = self.coeff
        if len(vec) != self.basis.rows:
            raise ValueError("vector length mismatch")
        norm = coeff.normalize
        res = {}
        for j, x in enumerate(vec):
            if x:
                x = norm(x)
                if x:
                    res[j] = x
        over_z = coeff.kind == "Z"
        if not over_z:
            div, _, _ = _field_closures(coeff)
        p_mod = coeff.p if coeff.kind == "Zp" else 0
        weights = []
        for k, p in self._pivots:
            b = res.get(p)
            if not b:
                continue
            a = self._h[k][p]
            if over_z:
                if b % a:
                    return None
                q = b // a
            else:
                q = div(b, a)
            nz = self._nonzeros.get(k)
            if nz is None:
                nz = self._nonzeros[k] = (
                    [(j, y) for j, y in enumerate(self._h[k]) if y],
                    [(i, y) for i, y in enumerate(self._u[k]) if y],
                )
            for j, y in nz[0]:
                x = res.get(j, 0) - q * y
                if p_mod:
                    x %= p_mod
                if x:
                    res[j] = x
                else:
                    res.pop(j, None)
            weights.append((q, nz[1]))
        if res:
            return None
        out = [0] * self.basis.cols
        for q, u_nz in weights:
            for i, y in u_nz:
                out[i] += q * y
        if over_z:
            return out  # integer sums are already canonical
        return [norm(x) for x in out]

    def contains(self, vec):
        return self.solve(vec) is not None


def rank(m, coeff):
    if coeff.kind == "Z":
        return len(snf_diagonal(m))
    return len(_rref_rows(m.row_lists(), coeff))


def snf_diagonal(m):
    """The non-zero diagonal entries of the Smith normal form.

    Unit entries are cancelled pair by pair on a sparse copy first: a ±1
    pivot of lowest Markowitz cost (row nnz - 1)*(col nnz - 1), ties to the
    lowest row and then column, clears its column by integer row operations,
    and its row and column then split off as an invariant factor 1.  Only
    the block left without unit entries is densified for the kernel SNF.
    The Smith form is unique, so the result is that of the whole matrix.
    """
    rows = {}
    in_col = [set() for _ in range(m.cols)]
    for i, r in enumerate(m.data):
        row = {j: x for j, x in enumerate(r) if x}
        if row:
            rows[i] = row
            for j in row:
                in_col[j].add(i)
    units = 0
    while True:
        # rows run in increasing order, so a later row wins only on a
        # strictly lower cost, and nothing beats cost 0 from an earlier row
        best, p, c = -1, -1, -1
        for i, row in rows.items():
            if best == 0:
                break
            spare = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    key = spare * (len(in_col[j]) - 1)
                    if best < 0 or key < best or (key == best and i == p and j < c):
                        best, p, c = key, i, j
        if best < 0:
            break
        prow = rows.pop(p)
        sign = prow[c]
        for i in list(in_col[c]):
            if i == p:
                continue
            row = rows[i]
            q = row[c] * sign
            for j, x in prow.items():
                y = row.get(j, 0) - q * x
                if y:
                    if j not in row:
                        in_col[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    in_col[j].discard(i)
            if not row:
                del rows[i]
        for j in prow:
            in_col[j].discard(p)
        units += 1
    out = [1] * units
    if rows:
        # the residual block without unit entries, empty rows and columns dropped
        cols = [j for j, used in enumerate(in_col) if used]
        out.extend(_kernel.snf_decompose([[row.get(j, 0) for j in cols] for row in rows.values()]))
    return out


# ---------------------------------------------------------------------------
# module-level operations (sums, intersections, preimages of spans)


def module_sum(a, b, coeff):
    """Canonical basis of span(a) + span(b) in a common ambient."""
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch")
    return canonical_basis(a.hstack(b), coeff)


def module_intersection(a, b, coeff):
    """Canonical basis of span(a) ∩ span(b) via the kernel of [a | -b]."""
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch")
    if a.cols == 0 or b.cols == 0:
        return ExactMatrix.zeros(a.rows, 0)
    block = a.hstack(b.negate())
    ker = kernel_basis(block, coeff)
    xpart = ExactMatrix(a.cols, ker.cols, ker.data[: a.cols])
    return canonical_basis(matmul(a, xpart, coeff), coeff)


def preimage_module(map_matrix, target_basis, coeff):
    """Canonical basis of {x : map_matrix*x ∈ span(target_basis)}."""
    if map_matrix.rows != target_basis.rows:
        raise ValueError("codomain dimension mismatch")
    s = map_matrix.cols
    if s == 0:
        return ExactMatrix.zeros(0, 0)
    if target_basis.cols == 0:
        return kernel_basis(map_matrix, coeff)
    block = map_matrix.hstack(target_basis.negate())
    ker = kernel_basis(block, coeff)
    xpart = ExactMatrix(s, ker.cols, ker.data[:s])
    return canonical_basis(xpart, coeff)


def unit_column(n, i):
    return [1 if k == i else 0 for k in range(n)]
