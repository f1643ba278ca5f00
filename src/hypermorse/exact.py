"""Exact matrices over Z, Q, Z/p and canonical sub-module computations.

An ExactMatrix stores only its non-zeros: `column_entries` holds one {row:
value} dict per column, the orientation in which the chain layer builds
everything.  Entries are Python ints (Z and Z/p, stored as canonical
residues) or Fractions (Q); there is no floating point.  The dense views
`data`, `row_lists()` and `column()` are built on demand, for the public
API and for small printed results; the homology path never builds them.
Products, stacks and the zero test run on the non-zeros.

The eliminations take a matrix's stored columns as their rows; over Q and
Z/p the only one is _unit_pivots, one pass over the rows in which each row
pivots on its unit entry in the least column, if it has one.  In rank mode
over Z only ±1 entries pivot and the rows left without unit entries go,
still sparse, to _kernel.snf_decompose; over Z/p every non-zero pivots;
over Q each row is scaled to integers and the rank is the number of
non-zero invariant factors.  _unit_pivots reports the rows that pivoted,
and _reduce can leave given entries out of the copy it eliminates:
chains.subcomplex_homology drops each degree's pivot rows from the next
boundary (the reduction of the chain complex).  rank and snf_diagonal
eliminate one whole matrix.

Canonical bases make span-level statements testable as structural matrix
equality: column Hermite normal form over Z (_kernel.hnf_rows) and reduced
column echelon form over fields (_unit_pivots in echelon mode).  Every
basis is eliminated in one place, _factor: over Z the HNF, with its
transform when one is read; over a field one echelon-mode pass, which
takes the columns last first when it records the transform.  Its
non-empty rows are the canonical basis, and kernel_and_image reads the
kernel off the transform rows opposite its empty rows, so one elimination
gives both.  A ColumnSolver solves on lines with distinct leading rows:
the basis columns as they stand when their leads are distinct already
(every basis of the chain layer), else the echelon rows of _factor.
module_intersection is a times the preimage of b.
"""

from __future__ import annotations

import collections
import math

from . import _kernel
from .coeffs import CoeffSpec


def _dense(nonzeros, length, zero):
    """The dense tuple of one sparse row or column: every dense view of an
    ExactMatrix is built here."""
    line = [zero] * length
    for j, x in nonzeros.items():
        line[j] = x
    return tuple(line)


def _flip(lines, n):
    """The n sparse lines crossing sparse lines: the rows of a matrix from
    its columns, or the columns from its rows."""
    out = [{} for _ in range(n)]
    for j, line in enumerate(lines):
        for i, x in line.items():
            out[i][j] = x
    return out


def _first_zero(lines):
    # the zero a dense view shows: the first one given (0 or Fraction(0))
    for line in lines:
        for x in line:
            if not x:
                return x
    return 0


class ExactMatrix:
    """An immutable rows x cols matrix of exact scalars, stored sparse.

    column_entries[j] is a {row: value} dict of the non-zeros of column j.
    The dicts may be shared between matrices and are never changed after
    construction.  zero is the zero shown in the dense views.
    """

    __slots__ = ("rows", "cols", "column_entries", "zero", "_data")

    def __init__(self, rows, cols, data):
        data = [tuple(r) for r in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.column_entries = tuple(_flip(({j: x for j, x in enumerate(r) if x} for r in data), cols))
        self.zero = _first_zero(data)
        self._data = None

    @classmethod
    def from_sparse_columns(cls, rows, cols, columns, zero=0):
        """A matrix from one {row: value} dict of non-zeros per column.  The
        dicts are taken over, not copied or checked, and must not change."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.column_entries = tuple(columns)
        m.zero = zero
        m._data = None
        return m

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
        columns = [tuple(c) for c in columns]
        if any(len(c) != nrows for c in columns):
            raise ValueError("column length mismatch")
        sparse = [{i: x for i, x in enumerate(c) if x} for c in columns]
        return cls.from_sparse_columns(nrows, len(columns), sparse, _first_zero(columns))

    @classmethod
    def identity(cls, n):
        return cls.from_sparse_columns(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls.from_sparse_columns(rows, cols, [{}] * cols)

    @property
    def data(self):
        """The dense rows as a tuple of tuples, built on first use."""
        if self._data is None:
            rows = _flip(self.column_entries, self.rows)
            self._data = tuple(_dense(r, self.cols, self.zero) for r in rows)
        return self._data

    def row_lists(self):
        return [list(r) for r in self.data]

    def column(self, j):
        return _dense(self.column_entries[j], self.rows, self.zero)

    def columns(self):
        return [_dense(c, self.rows, self.zero) for c in self.column_entries]

    def transpose(self):
        rows = _flip(self.column_entries, self.rows)
        return ExactMatrix.from_sparse_columns(self.cols, self.rows, rows, self.zero)

    def hstack(self, other):
        if other.rows != self.rows:
            raise ValueError("row count mismatch in hstack")
        # the zero the dense view shows first
        full = sum(map(len, self.column_entries)) == self.rows * self.cols
        zero = other.zero if full else self.zero
        columns = self.column_entries + other.column_entries
        return ExactMatrix.from_sparse_columns(self.rows, self.cols + other.cols, columns, zero)

    def negate(self):
        columns = [{i: -x for i, x in c.items()} for c in self.column_entries]
        return ExactMatrix.from_sparse_columns(self.rows, self.cols, columns, self.zero)

    def is_zero(self):
        return not any(self.column_entries)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.column_entries == other.column_entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(c.items()) for c in self.column_entries)))

    def __repr__(self):
        return "ExactMatrix(%dx%d)" % (self.rows, self.cols)


def _normalized(lines, coeff):
    """Fresh sparse lines of the canonical values of lines' entries, those
    that vanish dropped."""
    norm = coeff.normalize
    out = []
    for line in lines:
        fresh = {}
        for j, x in line.items():
            x = norm(x)
            if x:
                fresh[j] = x
        out.append(fresh)
    return out


def normalize(m, coeff):
    columns = _normalized(m.column_entries, coeff)
    return ExactMatrix.from_sparse_columns(m.rows, m.cols, columns, coeff.normalize(0))


def matmul(a, b, coeff):
    """Product a*b on the non-zeros; every entry is coeff.normalize of its
    sum, and the zeros of the dense view are coeff.normalize(0)."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matmul")
    a_cols = a.column_entries
    norm = coeff.normalize
    out = []
    for bc in b.column_entries:
        sums = {}
        for k, y in bc.items():
            for i, x in a_cols[k].items():
                sums[i] = sums.get(i, 0) + x * y
        col = {}
        for i, s in sums.items():
            # most sums of a ∂∂ product cancel, and normalize(0) is zero
            if s:
                s = norm(s)
                if s:
                    col[i] = s
        out.append(col)
    return ExactMatrix.from_sparse_columns(a.rows, b.cols, out, norm(0))


def matvec(a, vec, coeff):
    if a.cols != len(vec):
        raise ValueError("shape mismatch in matvec")
    out = [0] * a.rows
    for y, col in zip(vec, a.column_entries):
        if y:
            for i, x in col.items():
                out[i] += x * y
    return [coeff.normalize(s) for s in out]


def _modulus(coeff):
    """The modulus of row operations over coeff: p over Z/p, else 0 (which is
    also _unit_pivots' p over Q)."""
    return coeff.p if coeff.kind == "Zp" else 0


# ---------------------------------------------------------------------------
# canonical bases, kernels, solving


def _factor(columns, coeff, transform=True):
    """(h, u): the echelon form h of sparse columns taken as rows, and the
    transform u with u * columns = h (None unless transform); every basis
    is eliminated here.  Over Z h is the HNF, its zero rows last (dropped
    without transform), and the rows of u opposite them are a basis of the
    relations among the columns.  Over a field one echelon-mode pass gives
    the RREF rows as the non-empty rows of h.  With a transform it takes
    the columns last first and h and u come back in column order: the
    transform row of a column left empty holds 1 there and else only
    entries at later columns that pivoted, which no other such row holds,
    so in column order these rows are the kernel's RREF already.  Without
    one the columns are taken as given: the RREF is the same, and a
    homology basis's boundary coordinates fill in less in that order."""
    if coeff.kind == "Z":
        if transform:
            return _kernel.hnf_rows_with_transform(columns)
        return _kernel.hnf_rows(columns), None
    step = -1 if transform else 1
    h = _normalized(columns[::step], coeff)
    u = [{j: coeff.normalize(1)} for j in reversed(range(len(h)))] if transform else None
    _unit_pivots(h, _modulus(coeff), True, u)
    return h[::step], u[::-1] if transform else None


def canonical_basis(m, coeff):
    """Canonical basis of the column span: HNF over Z, RCEF over fields.

    Zero columns are dropped; equal spans yield identical matrices.  A zero
    matrix has no basis column, with no elimination.
    """
    h = [] if m.is_zero() else filter(None, _factor(m.column_entries, coeff, False)[0])
    h = sorted(h, key=min)
    return ExactMatrix.from_sparse_columns(m.rows, len(h), h, coeff.normalize(0))


def hermite_basis(m):
    """Column Hermite normal form basis of an integer column lattice."""
    return canonical_basis(m, CoeffSpec("Z"))


def kernel_and_image(m, coeff):
    """(kernel_basis(m, coeff), canonical_basis(m, coeff)) from one _factor.

    The kernel is spanned by the transform rows opposite the empty echelon
    rows: in RREF already over a field, and put in HNF over Z (the kernel
    lattice is saturated).  The non-empty echelon rows, by lead, are the
    image's canonical basis.  A zero matrix (no rows, say) has the identity
    as kernel and no image, with no elimination.
    """
    if m.is_zero():
        ker, im = [{i: coeff.normalize(1)} for i in range(m.cols)], []
    else:
        h, u = _factor(m.column_entries, coeff)
        ker = [u[t] for t, row in enumerate(h) if not row]
        if coeff.kind == "Z":
            ker = _kernel.hnf_rows(ker)
        im = sorted(filter(None, h), key=min)
    zero = coeff.normalize(0)
    ker = ExactMatrix.from_sparse_columns(m.cols, len(ker), ker, zero)
    return ker, ExactMatrix.from_sparse_columns(m.rows, len(im), im, zero)


def kernel_basis(m, coeff):
    """Canonical basis (columns) of {x : m*x = 0} over the given ring."""
    return kernel_and_image(m, coeff)[0]


class ColumnSolver:
    """Prefactored exact solver for basis-expression problems basis*x = vec.

    It solves on lines with distinct leads (least non-zero indices).  When
    the basis columns already have distinct leads they are the lines, as
    they stand: every basis the chain layer builds is so (unit columns,
    canonical bases and their merge by lead).  Otherwise the whole basis is
    reduced once with its transform (_factor): HNF over Z, RREF over
    fields, on sparse lines, and the non-zero echelon rows are the lines.
    """

    def __init__(self, basis, coeff):
        self.basis = basis
        self.coeff = coeff
        lines = basis.column_entries
        if coeff.kind != "Z":
            lines = _normalized(lines, coeff)
        leads = {k: min(line) for k, line in enumerate(lines) if line}
        self._u = None  # line k is column k
        if len(set(leads.values())) < len(lines):
            lines, self._u = _factor(lines, coeff)
            leads = {k: min(line) for k, line in enumerate(lines) if line}
        hits = collections.Counter(i for line in lines for i in line)
        self._lines = lines
        self._line_at = {}  # lead p -> the line k leading there
        self._unit_at = {}  # row p -> the line k = e_p, alone on row p
        for k, p in leads.items():
            if len(lines[k]) == 1 and hits[p] == 1 and lines[k][p] == 1:
                self._unit_at[p] = k
            else:
                self._line_at[p] = k

    def solve(self, vec):
        """Coefficients x with basis*x = vec, or None if vec is outside the
        span.  vec is a dense sequence, or a {index: value} dict of its
        non-zeros, and x comes back in the same form, its values canonical.

        The coefficient of a line e_p alone on row p is the entry at p, read
        off.  Otherwise the residual's least index is cleared by the line
        leading there, divided exactly by its lead, which leaves entries only
        at larger indices; a least index with no line leading there (or,
        over Z, not divisible by the lead) is outside the span.  Over a
        factored basis the transform rows of the lines used are summed.
        """
        coeff = self.coeff
        norm = coeff.normalize
        dense = not isinstance(vec, dict)
        if dense:
            if len(vec) != self.basis.rows:
                raise ValueError("vector length mismatch")
            vec = {j: x for j, x in enumerate(vec) if x}
        unit_at = self._unit_at
        res = {}
        x = {}  # line -> its coefficient
        for j, v in vec.items():
            v = norm(v)
            if v:
                k = unit_at.get(j)
                if k is None:
                    res[j] = v
                else:
                    x[k] = v
        over_z = coeff.kind == "Z"
        p_mod = _modulus(coeff)
        while res:
            p = min(res)
            k = self._line_at.get(p)
            if k is None:
                return None
            line = self._lines[k]
            q = res[p]
            a = line[p]
            if a != 1:
                if over_z:
                    if q % a:
                        return None
                    q //= a
                elif p_mod:
                    q = q * pow(a, p_mod - 2, p_mod) % p_mod
                else:
                    q /= a
            _kernel.submul(res, line, q, p_mod)
            x[k] = q
        if self._u is not None:
            out = {}
            for k, q in x.items():
                for i, y in self._u[k].items():
                    out[i] = out.get(i, 0) + q * y
            x = {i: y for i, y in ((i, norm(y)) for i, y in out.items()) if y}
        return list(_dense(x, self.basis.cols, norm(0))) if dense else x

    def contains(self, vec):
        return self.solve(vec) is not None


# ---------------------------------------------------------------------------
# one pass of unit pivots per ring: ranks, Smith factors, field echelon forms


def _unit_pivots(rows, p=0, echelon=False, u=None):
    """Sparse elimination of rows, in place, in one pass over them.

    The rows are the stored columns of a matrix (rank and the Smith form do
    not depend on the orientation).  With p == 0 they are integer and only
    ±1 entries pivot, or rational in echelon mode; with a prime p they are
    residues mod p.  Over a field every non-zero pivots.  Each row in turn,
    as the earlier pivots left it, pivots on its unit entry in the least
    column, if it has one: row operations clear that column from every other
    row, and from the transform rows u alike.  In rank mode the pivot row
    and column split off, and a row left without a unit entry is not visited
    again: whichever rows pivot, a 1 per pivot and the Smith form of the
    rows left over make the Smith form of the whole.  In echelon mode the
    pivot row is scaled to lead with 1 and stays, so later pivots clear it
    too (Gauss–Jordan); a row is subtracted only at its lead, before which
    it is empty, so the non-empty rows end as those of the RREF.  Returns
    the set of rows that took a pivot and the non-zero rows left over.
    """
    col = _kernel.column_index(rows)
    pivots = set()
    for i, prow in enumerate(rows):
        units = [j for j, x in prow.items() if p or echelon or x == 1 or x == -1]
        if not units:
            continue
        c = min(units)
        x = prow[c]
        # over Z, x = ±1 is its own inverse
        inv = pow(x, p - 2, p) if p else 1 / x if echelon else x
        if echelon:
            if inv != 1:
                rows[i] = prow = _kernel.scaled(prow, inv, p)
                if u is not None:
                    u[i] = _kernel.scaled(u[i], inv, p)
                inv = 1
            col[c].discard(i)
        else:
            for j in prow:
                col[j].discard(i)
        for k in list(col[c]):
            q = rows[k][c] * inv
            _kernel.submul(rows[k], prow, q, p, col, k)
            if u is not None:
                _kernel.submul(u[k], u[i], q, p)
        pivots.add(i)
    return pivots, [row for i, row in enumerate(rows) if row and i not in pivots]


def _reduce(m, coeff, drop=frozenset()):
    """(pivots, factors) of m's stored columns, less their entries at the
    rows in drop.  pivots is the set of columns (the elimination's rows)
    that took a unit pivot; factors are the non-zero Smith invariant
    factors, one 1 per unit pivot, then over Z and Q those of the rows left
    without unit entries, from _kernel.snf_decompose.  The Smith form is
    unique, so they are those of the whole matrix, and their number is its
    rank.  Each ring eliminates its own fresh copy: residues over Z/p, where
    every non-zero pivots; over Q each column scaled to integers, which
    keeps the rank over Q.
    """
    rows = [{i: x for i, x in c.items() if i not in drop} for c in m.column_entries]
    if coeff.kind == "Zp":
        pivots, _ = _unit_pivots(_normalized(rows, coeff), coeff.p)
        return pivots, [1] * len(pivots)
    if coeff.kind == "Q":
        for k, row in enumerate(rows):
            scale = math.lcm(*(x.denominator for x in row.values()))
            rows[k] = {i: x.numerator * (scale // x.denominator) for i, x in row.items()}
    pivots, rest = _unit_pivots(rows)
    return pivots, [1] * len(pivots) + (_kernel.snf_decompose(rest) if rest else [])


def rank(m, coeff):
    return len(_reduce(m, coeff)[1])


def snf_diagonal(m):
    """The non-zero diagonal entries of the Smith normal form, in
    divisibility order: unit pivots are cancelled sparsely in one pass over
    the rows and the rows left without unit entries go to
    _kernel.snf_decompose.  The Smith form of the transpose is the same, so
    the stored columns are eliminated as they are."""
    return _reduce(m, CoeffSpec("Z"))[1]


# ---------------------------------------------------------------------------
# module-level operations (sums, intersections, preimages of spans)


def module_sum(a, b, coeff):
    """Canonical basis of span(a) + span(b) in a common ambient."""
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch")
    return canonical_basis(a.hstack(b), coeff)


def module_intersection(a, b, coeff):
    """Canonical basis of span(a) ∩ span(b): a times the preimage of b."""
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch")
    return canonical_basis(matmul(a, preimage_module(a, b, coeff), coeff), coeff)


def preimage_module(map_matrix, target_basis, coeff):
    """Canonical basis of {x : map_matrix*x ∈ span(target_basis)}: the top
    rows of the kernel of [map_matrix | -target_basis]."""
    if map_matrix.rows != target_basis.rows:
        raise ValueError("codomain dimension mismatch")
    s = map_matrix.cols
    if s == 0:
        return ExactMatrix.zeros(0, 0)
    if target_basis.cols == 0:
        return kernel_basis(map_matrix, coeff)
    ker = kernel_basis(map_matrix.hstack(target_basis.negate()), coeff)
    top = [{i: x for i, x in c.items() if i < s} for c in ker.column_entries]
    return canonical_basis(ExactMatrix.from_sparse_columns(s, ker.cols, top, ker.zero), coeff)
