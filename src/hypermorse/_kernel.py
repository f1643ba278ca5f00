"""Exact sparse elimination kernels over Z.

These are the inner loops of the integer path: the row operation on sparse
rows, one row echelon routine (the canonical row Hermite normal form, with
or without a recorded transform) and the Smith invariant factors it yields.
A sparse row is a {column: value} dict of its non-zeros.  echelon reduces
its rows in place; hnf_rows, hnf_rows_with_transform and snf_decompose work
on copies and leave their input alone.  exact.snf_diagonal cancels unit
pivots sparsely and hands only the rows left without unit entries to
snf_decompose, which alternates row and column Hermite forms.  Over Q and
Z/p, exact._unit_pivots eliminates with the row operation (mod p over Z/p)
and scaled.  Arbitrary precision is relied upon throughout, there is no
floating point.  Pivoting follows the fraction-free, minimal-absolute-value
strategy: at desk scale this keeps intermediate entries small without
sacrificing exactness.
"""

import math


def submul(target, source, q, p=0, col=None, i=0):
    """target -= q * source on sparse rows, reduced mod p when p is non-zero.

    When col is given it maps each column to the set of rows with a non-zero
    there, and the membership of row i (the target) is kept up to date.
    """
    for j, s in source.items():
        t = target.get(j)
        if t is None:
            t = -q * s
            if p:
                t %= p
            if t:
                target[j] = t
                if col is not None:
                    col[j].add(i)
        else:
            t -= q * s
            if p:
                t %= p
            if t:
                target[j] = t
            else:
                del target[j]
                if col is not None:
                    col[j].discard(i)


def swap_rows(rows, col, a, b):
    """Exchange rows a and b, keeping the column index col in step."""
    for j in rows[a]:
        col[j].discard(a)
    for j in rows[b]:
        col[j].discard(b)
    rows[a], rows[b] = rows[b], rows[a]
    for j in rows[a]:
        col[j].add(a)
    for j in rows[b]:
        col[j].add(b)


def column_index(rows):
    """{column: set of the rows with a non-zero in it} of sparse rows."""
    col = {}
    for i, row in enumerate(rows):
        for j in row:
            if j in col:
                col[j].add(i)
            else:
                col[j] = {i}
    return col


def scaled(row, x, p=0):
    """row times x, reduced mod p when p is non-zero."""
    if p:
        return {j: y * x % p for j, y in row.items()}
    return {j: y * x for j, y in row.items()}


def _clear(rows, u, col, r, c, targets):
    """Subtract from each target row the multiple of pivot row r that reduces
    its entry in column c into [0, pivot) (the floor quotient), and the same
    multiple of u[r] from u[i]."""
    prow = rows[r]
    a = prow[c]
    for i in targets:
        q = rows[i][c] // a
        if q:
            submul(rows[i], prow, q, 0, col, i)
            if u is not None:
                submul(u[i], u[r], q)


def echelon(rows, transform=False):
    """The canonical row HNF of sparse integer rows, reduced in place.

    Column by column, the pivot is the entry of least absolute value at or
    below the next pivot row (ties to the lowest row), cleared below by
    Euclidean steps until it is alone, made positive, and the entries above
    it reduced into [0, pivot): the steps of the dense textbook loop.  The
    rows after the last pivot are left empty.  Returns u (sparse rows, None
    unless transform) with u * input = rows.
    """
    m = len(rows)
    u = [{i: 1} for i in range(m)] if transform else None
    col = column_index(rows)
    r = 0
    # row operations only add entries in columns that already hold one, so
    # the columns with an entry are known up front
    for c in sorted(col):
        if r == m:
            break
        here = col[c]
        while True:
            below = [i for i in here if i >= r]
            if not below:
                break
            piv = min(below, key=lambda i: (abs(rows[i][c]), i))
            if piv != r:
                swap_rows(rows, col, r, piv)
                if transform:
                    u[r], u[piv] = u[piv], u[r]
            if len(below) > 1:
                _clear(rows, u, col, r, c, [i for i in here if i > r])
                if any(i > r for i in here):
                    continue  # a remainder, smaller than the pivot, pivots next
            if rows[r][c] < 0:
                rows[r] = scaled(rows[r], -1)
                if transform:
                    u[r] = scaled(u[r], -1)
            if len(here) > 1:
                _clear(rows, u, col, r, c, [i for i in here if i < r])
            r += 1
            break
    return u


def hnf_rows(rows):
    """Canonical row Hermite normal form of sparse integer rows; zero rows
    are dropped.

    Pivots are positive, pivot columns strictly increase, and every entry
    above a pivot is reduced into [0, pivot).  Two integer matrices have the
    same row lattice iff their canonical forms are identical.
    """
    h = [dict(row) for row in rows]
    echelon(h)
    return [row for row in h if row]


def hnf_rows_with_transform(rows):
    """Row HNF together with a unimodular u such that u * rows = h.

    Returns (h, u) where h keeps its zero rows, empty and last (so u stays
    square); the rows of u opposite zero rows of h form a basis of the
    left-kernel lattice.
    """
    h = [dict(row) for row in rows]
    return h, echelon(h, transform=True)


def _transpose(rows):
    """The non-empty columns of sparse rows, in order, as sparse rows."""
    out = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return [out[j] for j in sorted(out)]


def snf_decompose(rows):
    """The non-zero invariant factors of sparse integer rows, in divisibility
    order: the non-zero diagonal entries of the Smith normal form, all
    positive, each dividing the next.

    Row HNFs of the rows and of their transpose alternate until each row has
    one entry (Kannan and Bachem 1979); the entries are then the diagonal of
    an equivalent matrix, and replacing each pair (d_i, d_j), i < j, in order
    by (gcd, lcm) puts them in divisibility order.  The alternation ends:
    each pass keeps the equivalence class, and the first pivot not yet alone
    in its row and column shrinks, because a remainder below it pivots next,
    until it divides its row and column; from then on every pass leaves it
    alone.
    """
    h = hnf_rows(rows)
    while any(len(row) > 1 for row in h):
        h = hnf_rows(_transpose(h))
    d = [x for row in h for x in row.values()]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return d
