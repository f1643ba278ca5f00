"""Exact integer elimination kernels.

These are the integer inner loops of the package: canonical row Hermite
normal form, with and without a recorded unimodular transform, and the
Smith invariant factors.  exact.snf_diagonal cancels unit pivots sparsely
and hands only the block left without unit entries to snf_decompose, so
the Smith form here carries no transforms.  Matrices are lists of
equal-length lists of Python ints; arbitrary precision is relied upon
throughout, there is no floating point.  No function mutates its input.

Pivoting follows the fraction-free, minimal-absolute-value strategy: at desk
scale this keeps intermediate entries small without sacrificing exactness.
"""


def _row_submul(target, source, q, start):
    for j in range(start, len(target)):
        s = source[j]
        if s:
            target[j] -= q * s


def _hnf(mat, transform):
    """Row HNF of mat as (h, u, r): h keeps its zero rows, which follow the
    r non-zero ones, and u * mat = h.  With transform=False, u is None and
    is never built."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows = [list(row) for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if transform else None
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            piv = -1
            best = 0
            for i in range(r, m):
                a = rows[i][c]
                if a:
                    if a < 0:
                        a = -a
                    if piv < 0 or a < best:
                        piv = i
                        best = a
            if piv < 0:
                break
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                if transform:
                    u[r], u[piv] = u[piv], u[r]
            a = rows[r][c]
            clean = True
            for i in range(r + 1, m):
                b = rows[i][c]
                if b:
                    q = b // a
                    if q:
                        _row_submul(rows[i], rows[r], q, c)
                        if transform:
                            _row_submul(u[i], u[r], q, 0)
                    if rows[i][c]:
                        clean = False
            if clean:
                if rows[r][c] < 0:
                    row = rows[r]
                    for j in range(c, n):
                        row[j] = -row[j]
                    if transform:
                        urow = u[r]
                        for j in range(m):
                            urow[j] = -urow[j]
                a = rows[r][c]
                for i in range(r):
                    q = rows[i][c] // a
                    if q:
                        _row_submul(rows[i], rows[r], q, c)
                        if transform:
                            _row_submul(u[i], u[r], q, 0)
                r += 1
                break
    return rows, u, r


def hnf_rows(mat):
    """Canonical row Hermite normal form; zero rows are dropped.

    Pivots are positive, pivot columns strictly increase, and every entry
    above a pivot is reduced into [0, pivot).  Two integer matrices have the
    same row lattice iff their canonical forms are identical.
    """
    h, _, r = _hnf(mat, False)
    return h[:r]


def hnf_rows_with_transform(mat):
    """Row HNF together with a unimodular u such that u * mat = h.

    Returns (h, u) where h keeps its zero rows (so u stays square); the rows
    of u opposite zero rows of h form a basis of the left-kernel lattice.
    """
    h, u, _ = _hnf(mat, True)
    return h, u


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
