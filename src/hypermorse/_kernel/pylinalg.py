"""Exact integer elimination kernels, pure Python twin.

These are the integer inner loops of the package: canonical row Hermite
normal form (with and without a recorded unimodular transform) and Smith
normal form with transforms.  The Smith form serves exact.snf and, for
homology, only the block that exact.snf_diagonal leaves after cancelling
unit pivots sparsely.  Matrices are lists of equal-length lists of Python
ints; arbitrary precision is relied upon throughout, there is no floating
point.
The compiled twin in _speedups.pyx implements the same algorithms with the
same semantics; keep the two in lockstep.

Pivoting follows the fraction-free, minimal-absolute-value strategy: at desk
scale this keeps intermediate entries small without sacrificing exactness.
"""


def _row_submul(target, source, q, start):
    for j in range(start, len(target)):
        s = source[j]
        if s:
            target[j] -= q * s


def hnf_rows(mat):
    """Canonical row Hermite normal form; zero rows are dropped.

    Pivots are positive, pivot columns strictly increase, and every entry
    above a pivot is reduced into [0, pivot).  Two integer matrices have the
    same row lattice iff their canonical forms are identical.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows = [list(row) for row in mat]
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
            a = rows[r][c]
            clean = True
            for i in range(r + 1, m):
                b = rows[i][c]
                if b:
                    q = b // a
                    if q:
                        _row_submul(rows[i], rows[r], q, c)
                    if rows[i][c]:
                        clean = False
            if clean:
                if rows[r][c] < 0:
                    row = rows[r]
                    for j in range(c, n):
                        row[j] = -row[j]
                a = rows[r][c]
                for i in range(r):
                    q = rows[i][c] // a
                    if q:
                        _row_submul(rows[i], rows[r], q, c)
                r += 1
                break
    return rows[:r]


def hnf_rows_with_transform(mat):
    """Row HNF together with a unimodular u such that u * mat = h.

    Returns (h, u) where h keeps its zero rows (so u stays square); the rows
    of u opposite zero rows of h form a basis of the left-kernel lattice.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows = [list(row) for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
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
                u[r], u[piv] = u[piv], u[r]
            a = rows[r][c]
            clean = True
            for i in range(r + 1, m):
                b = rows[i][c]
                if b:
                    q = b // a
                    if q:
                        _row_submul(rows[i], rows[r], q, c)
                        _row_submul(u[i], u[r], q, 0)
                    if rows[i][c]:
                        clean = False
            if clean:
                if rows[r][c] < 0:
                    row = rows[r]
                    for j in range(c, n):
                        row[j] = -row[j]
                    urow = u[r]
                    for j in range(m):
                        urow[j] = -urow[j]
                a = rows[r][c]
                for i in range(r):
                    q = rows[i][c] // a
                    if q:
                        _row_submul(rows[i], rows[r], q, c)
                        _row_submul(u[i], u[r], q, 0)
                r += 1
                break
    return rows, u


def snf_decompose(mat):
    """Smith normal form with transforms: returns (u, d, v) with mat = u*d*v.

    u (m x m) and v (n x n) are unimodular; d is diagonal with non-negative
    entries, each dividing the next.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    d = [list(row) for row in mat]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    limit = m if m < n else n
    while t < limit:
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
            break
        if piv_i != t:
            d[t], d[piv_i] = d[piv_i], d[t]
            for row in u:
                row[t], row[piv_i] = row[piv_i], row[t]
        if piv_j != t:
            for row in d:
                row[t], row[piv_j] = row[piv_j], row[t]
            v[t], v[piv_j] = v[piv_j], v[t]
        while True:
            # clear column t below the pivot
            a = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                b = d[i][t]
                if b:
                    q = b // a
                    if q:
                        _row_submul(d[i], d[t], q, t)
                        for jj in range(m):
                            u[jj][t] += q * u[jj][i]
                    if d[i][t]:
                        dirty = True
            if dirty:
                _move_min_to_pivot(d, u, v, t, m, n)
                continue
            # clear row t to the right of the pivot
            a = d[t][t]
            for j in range(t + 1, n):
                b = d[t][j]
                if b:
                    q = b // a
                    if q:
                        for i in range(t, m):
                            d[i][j] -= q * d[i][t]
                        _row_addmul(v[t], v[j], q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                _move_min_to_pivot(d, u, v, t, m, n)
                continue
            # divisibility: pivot must divide every remaining entry
            a = d[t][t]
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
            # fold the offending row into row t and restart elimination
            _row_addmul_int(d[t], d[bad_i], 1, t)
            for jj in range(m):
                u[jj][bad_i] -= u[jj][t]
        if d[t][t] < 0:
            row = d[t]
            for j in range(t, n):
                row[j] = -row[j]
            for jj in range(m):
                u[jj][t] = -u[jj][t]
        t += 1
    return u, d, v


def _move_min_to_pivot(d, u, v, t, m, n):
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
        return
    if piv_i != t:
        d[t], d[piv_i] = d[piv_i], d[t]
        for row in u:
            row[t], row[piv_i] = row[piv_i], row[t]
    if piv_j != t:
        for row in d:
            row[t], row[piv_j] = row[piv_j], row[t]
        v[t], v[piv_j] = v[piv_j], v[t]


def _row_addmul(target, source, q):
    for j in range(len(target)):
        s = source[j]
        if s:
            target[j] += q * s


def _row_addmul_int(target, source, q, start):
    for j in range(start, len(target)):
        s = source[j]
        if s:
            target[j] += q * s
