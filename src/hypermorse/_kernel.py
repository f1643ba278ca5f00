"""Exact integer elimination kernels.

These are the inner loops of the package: the row operation on sparse rows,
canonical row Hermite normal form, with and without a recorded unimodular
transform, and the Smith invariant factors of a dense block.  A sparse row
is a {column: value} dict of its non-zeros.  hnf_rows and
hnf_rows_with_transform take and return lists of sparse integer rows;
exact.snf_diagonal cancels unit pivots sparsely and hands only the block
left without unit entries to snf_decompose, which takes a list of
equal-length lists of Python ints and carries no transforms.  No kernel
mutates its input.  Arbitrary precision is relied upon throughout, there is
no floating point.

Pivoting follows the fraction-free, minimal-absolute-value strategy: at desk
scale this keeps intermediate entries small without sacrificing exactness.
"""


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


def _hnf(rows, transform):
    """Row HNF of a list of sparse integer rows, reduced in place.

    Returns (rows, u): the non-zero rows of the canonical form come first
    and the rest are empty; u (sparse rows, None unless transform) is
    unimodular with u * input = rows.  Each column is cleared by its entry of
    least absolute value at or below the next pivot row (ties to the lowest
    row), so the steps, and u, are those of the dense textbook loop.
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
            piv = -1
            best = 0
            for i in here:
                if i >= r:
                    a = abs(rows[i][c])
                    if piv < 0 or a < best or (a == best and i < piv):
                        piv = i
                        best = a
            if piv < 0:
                break
            if piv != r:
                swap_rows(rows, col, r, piv)
                if transform:
                    u[r], u[piv] = u[piv], u[r]
            prow = rows[r]
            a = prow[c]
            clean = True
            for i in [i for i in here if i > r]:
                q = rows[i][c] // a
                if q:
                    submul(rows[i], prow, q, 0, col, i)
                    if transform:
                        submul(u[i], u[r], q)
                if c in rows[i]:
                    clean = False
            if clean:
                if a < 0:
                    for j in prow:
                        prow[j] = -prow[j]
                    if transform:
                        urow = u[r]
                        for j in urow:
                            urow[j] = -urow[j]
                    a = -a
                for i in [i for i in here if i < r]:
                    q = rows[i][c] // a
                    if q:
                        submul(rows[i], prow, q, 0, col, i)
                        if transform:
                            submul(u[i], u[r], q)
                r += 1
                break
    return rows, u


def hnf_rows(rows):
    """Canonical row Hermite normal form of sparse integer rows; zero rows
    are dropped.

    Pivots are positive, pivot columns strictly increase, and every entry
    above a pivot is reduced into [0, pivot).  Two integer matrices have the
    same row lattice iff their canonical forms are identical.
    """
    h, _ = _hnf([dict(row) for row in rows], False)
    return [row for row in h if row]


def hnf_rows_with_transform(rows):
    """Row HNF together with a unimodular u such that u * rows = h.

    Returns (h, u) where h keeps its zero rows, empty and last (so u stays
    square); the rows of u opposite zero rows of h form a basis of the
    left-kernel lattice.
    """
    return _hnf([dict(row) for row in rows], True)


def _row_submul(target, source, q, start):
    for j in range(start, len(target)):
        s = source[j]
        if s:
            target[j] -= q * s


def snf_decompose(mat):
    """The non-zero invariant factors of mat, in divisibility order.

    These are the non-zero diagonal entries of the Smith normal form: all
    positive, each dividing the next.
    """
    d = [list(row) for row in mat]
    m = len(d)
    n = len(d[0]) if m else 0
    out = []
    for t in range(min(m, n)):
        while True:
            # an entry of least absolute value in the block becomes the pivot;
            # ties go to (t, t), so after a fold the pivot stays and clearing
            # row t leaves a smaller remainder: every round shrinks the pivot
            piv_i = -1
            piv_j = -1
            best = 0
            for i in range(t, m):
                di = d[i]
                for j in range(t, n):
                    a = di[j]
                    if a:
                        if a < 0:
                            a = -a
                        if piv_i < 0 or a < best:
                            piv_i = i
                            piv_j = j
                            best = a
            if piv_i < 0:
                return out
            if piv_i != t:
                d[t], d[piv_i] = d[piv_i], d[t]
            if piv_j != t:
                for row in d:
                    row[t], row[piv_j] = row[piv_j], row[t]
            # clear column t below the pivot, then row t to its right; a
            # remainder is smaller than the pivot and becomes the next one
            a = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    _row_submul(d[i], d[t], d[i][t] // a, t)
                    if d[i][t]:
                        dirty = True
            if dirty:
                continue
            prow = d[t]
            for j in range(t + 1, n):
                if prow[j]:
                    prow[j] %= a
                    if prow[j]:
                        dirty = True
            if dirty:
                continue
            # divisibility: the pivot must divide every remaining entry;
            # otherwise fold the offending row into row t and go again
            bad_i = -1
            for i in range(t + 1, m):
                di = d[i]
                for j in range(t + 1, n):
                    if di[j] % a:
                        bad_i = i
                        break
                if bad_i >= 0:
                    break
            if bad_i < 0:
                break
            _row_submul(d[t], d[bad_i], -1, t)
        out.append(abs(d[t][t]))
    return out
