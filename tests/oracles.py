"""Brute-force oracles, independent of the implementation paths they check."""

import heapq
import itertools
import json
from fractions import Fraction

from hypermorse import _kernel, exact, hypercore
from hypermorse.chains import (
    HomologyResult,
    SubChainComplex,
    boundary_matrix,
    edge_module_matrix,
    full_complex,
    inf_complex,
    subcomplex_homology,
    sup_complex,
)
from hypermorse.cli import _parse_rational
from hypermorse.coeffs import Q
from hypermorse.errors import InvalidDocumentError, MalformedSubcomplexError, NotMorseError
from hypermorse.exact import ColumnSolver, ExactMatrix
from hypermorse.hypercore import Hypergraph, SimplicialComplex, VertexSet, edge_sort_key
from hypermorse.morse import CriticalReport, GradientField, MorseViolation


def powerset_nonempty(indices):
    out = []
    for k in range(1, len(indices) + 1):
        out.extend(itertools.combinations(indices, k))
    return out


def delta_closure_oracle(h):
    """Every non-empty vertex subset that sits inside some hyperedge."""
    universe = powerset_nonempty(tuple(range(len(h.vertex_set))))
    edge_sets = [set(e) for e in h.edges]
    return {s for s in universe if any(set(s) <= es for es in edge_sets)}


def delta_closure_subsets_oracle(h):
    """The associated complex from every non-empty subset of every hyperedge."""
    if isinstance(h, SimplicialComplex):
        return h
    simplices = set()
    for e in h.edges:
        simplices.update(powerset_nonempty(e))
    return SimplicialComplex._trusted(h.vertex_set, sorted(simplices, key=edge_sort_key))


def lower_complex_subsets_oracle(h):
    """The lower-associated complex by testing every non-empty subset."""
    keep = [e for e in h.edges if all(h.contains_edge(t) for t in powerset_nonempty(e))]
    return SimplicialComplex._trusted(h.vertex_set, keep)


def closure_error_oracle(h):
    """The subset-by-subset closure check of SimplicialComplex: None when h
    is downward closed, else the error text naming the first edge, in
    edge_sort_key order, and its first missing non-empty subset."""
    for e in h.edges:
        for tau in powerset_nonempty(e):
            if not h.contains_edge(tau):
                return "not downward closed: %r misses face %r" % (e, tau)
    return None


def from_labels_oracle(vertex_labels, edge_label_lists):
    """Hypergraph.from_labels through the fully validating constructor."""
    vs = VertexSet(vertex_labels)
    return Hypergraph(vs, [tuple(sorted(vs.index(l) for l in e)) for e in edge_label_lists])


def parse_document_oracle(doc, where="document"):
    """The command line's document parse, key by key: (h, values, complex),
    the complex built whenever there is a morse block."""
    if not isinstance(doc, dict):
        raise InvalidDocumentError("%s: expected a JSON object" % where)
    unknown = set(doc) - {"vertices", "hyperedges", "morse"}
    if unknown:
        raise InvalidDocumentError("%s: unknown fields %s" % (where, sorted(unknown)))
    vertices = doc.get("vertices")
    edges = doc.get("hyperedges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InvalidDocumentError("%s: 'vertices' must be a list of strings" % where)
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise InvalidDocumentError("%s: 'hyperedges' must be a list of lists" % where)
    try:
        h = from_labels_oracle(vertices, edges)
    except ValueError as exc:
        raise InvalidDocumentError("%s: %s" % (where, exc)) from exc
    values = delta = None
    if "morse" in doc:
        block = doc["morse"]
        if not isinstance(block, dict):
            raise InvalidDocumentError("%s: 'morse' must be an object" % where)
        delta = delta_closure_subsets_oracle(h)
        values = {}
        for key, raw in block.items():
            labels = key.split(",")
            try:
                edge = tuple(sorted(h.vertex_set.index(l) for l in labels))
            except ValueError as exc:
                raise InvalidDocumentError("%s: morse key %r: %s" % (where, key, exc)) from exc
            if ",".join(h.edge_labels(edge)) != key:
                raise InvalidDocumentError(
                    "%s: morse key %r is not in canonical vertex order" % (where, key)
                )
            if not delta.contains_edge(edge):
                raise InvalidDocumentError(
                    "%s: morse key %r is outside the associated complex" % (where, key)
                )
            if edge in values:
                raise InvalidDocumentError("%s: duplicate morse key %r" % (where, key))
            values[edge] = _parse_rational(raw, "%s: morse[%r]" % (where, key))
        for e in h.edges:
            if e not in values:
                raise InvalidDocumentError(
                    "%s: morse block misses hyperedge %r" % (where, ",".join(h.edge_labels(e)))
                )
    return h, values, delta


def emit_oracle(report, fmt, out):
    """A report through json.dumps, or as text one line per write."""
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return

    def walk(value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)):
                    out.write("%s%s:\n" % (pad, k))
                    walk(v, indent + 1)
                else:
                    out.write("%s%s: %s\n" % (pad, k, v))
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                else:
                    out.write("%s- %s\n" % (pad, v))
        else:
            out.write("%s%s\n" % (pad, value))

    out.write("hypermorse %s (%s)\n" % (report["version"], report["command"]))
    walk({k: v for k, v in report.items() if k not in ("tool", "version", "command")}, 0)


def lower_complex_oracle(h):
    """Every vertex subset all of whose non-empty subsets are hyperedges."""
    universe = powerset_nonempty(tuple(range(len(h.vertex_set))))
    return {
        s
        for s in universe
        if all(h.contains_edge(t) for t in powerset_nonempty(s))
    }


def morse_counts_oracle(f, alpha):
    """(low-coface count, high-face count) by scanning every edge pair."""
    low = 0
    high = 0
    fa = f.values[alpha]
    for other in f.host.edges:
        if len(other) == len(alpha) + 1 and set(alpha) < set(other):
            if f.values[other] <= fa:
                low += 1
        if len(other) == len(alpha) - 1 and set(other) < set(alpha):
            if f.values[other] >= fa:
                high += 1
    return low, high


def closed_vpath_exists_oracle(pairs):
    """Exhaustive enumeration of closed paths alpha_0, beta_0, ..., alpha_0
    where consecutive faces differ and every step has both pairs matched."""
    pair_set = set(pairs)
    uppers = {}
    for a, b in pairs:
        uppers.setdefault(a, []).append(b)
    alphas = sorted(uppers)
    bound = 2 * max(1, len(pairs))

    def extend(start, current, steps):
        if steps > bound:
            return False
        for b in uppers.get(current, ()):
            for a2, b2 in pair_set:
                if b2 == b and a2 != current:
                    if a2 == start:
                        return True
                    if extend(start, a2, steps + 1):
                        return True
        return False

    return any(extend(a, a, 1) for a in alphas)


def box_points(dim, radius):
    return list(itertools.product(range(-radius, radius + 1), repeat=dim))


def lattice_members_in_box(basis, coeff, radius):
    """Box points lying in the span, via exact solving against the raw basis."""
    solver = ColumnSolver(basis, coeff)
    return {p for p in box_points(basis.rows, radius) if solver.solve(list(p)) is not None}


def preimage_members_in_box(map_matrix, target_basis, coeff, radius):
    """Box points of the source whose image lies in the target span."""
    out = set()
    target_solver = ColumnSolver(target_basis, coeff)
    for p in box_points(map_matrix.cols, radius):
        image = []
        for i in range(map_matrix.rows):
            image.append(sum(map_matrix.data[i][k] * p[k] for k in range(map_matrix.cols)))
        if target_solver.solve(image) is not None:
            out.add(p)
    return out


def is_prime_oracle(n):
    """Primality by trial division."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def random_int_matrix(rng, rows, cols, lo=-4, hi=4):
    return ExactMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


class DenseMatrix:
    """A matrix stored as a tuple of dense row tuples: the storage and the
    operations ExactMatrix had before it kept only its non-zeros."""

    def __init__(self, rows, cols, data):
        data = tuple(tuple(r) for r in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def transpose(self):
        return DenseMatrix(
            self.cols, self.rows, [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def hstack(self, other):
        return DenseMatrix(
            self.rows, self.cols + other.cols, [a + b for a, b in zip(self.data, other.data)]
        )

    def negate(self):
        return DenseMatrix(self.rows, self.cols, [[-x for x in r] for r in self.data])

    def is_zero(self):
        return all(not x for r in self.data for x in r)

    def __eq__(self, other):
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))


def dense_matmul(a, b, coeff):
    """Textbook triple-loop product; every entry is coeff.normalize of its sum."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            s = 0
            for k in range(a.cols):
                x = a.data[i][k]
                if x:
                    y = b.data[k][j]
                    if y:
                        s += x * y
            row.append(coeff.normalize(s))
        out.append(row)
    return ExactMatrix(a.rows, b.cols, out)


def inf_complex_oracle(h, coeff, delta=None):
    """The infimum complex by general module algebra: the degree-n hyperedge
    module intersected with the boundary preimage of the degree-(n-1) one."""
    if delta is None:
        delta = hypercore.delta_closure(h)
    basis = []
    for n in range(delta.max_dimension() + 1):
        edges_n = edge_module_matrix(h, delta, n)
        if n == 0:
            basis.append(exact.canonical_basis(edges_n, coeff))
            continue
        bnd = boundary_matrix(delta, n, coeff)
        pre = exact.preimage_module(bnd, edge_module_matrix(h, delta, n - 1), coeff)
        basis.append(exact.module_intersection(edges_n, pre, coeff))
    return SubChainComplex(delta, coeff, basis)


def sup_complex_oracle(h, coeff, delta=None):
    """The supremum complex by general module algebra: the degree-n hyperedge
    module plus the boundaries of the degree-(n+1) one."""
    if delta is None:
        delta = hypercore.delta_closure(h)
    top = delta.max_dimension()
    basis = []
    for n in range(top + 1):
        edges_n = edge_module_matrix(h, delta, n)
        if n == top:
            basis.append(exact.canonical_basis(edges_n, coeff))
            continue
        bnd = boundary_matrix(delta, n + 1, coeff)
        image = dense_matmul(bnd, edge_module_matrix(h, delta, n + 1), coeff)
        basis.append(exact.module_sum(edges_n, image, coeff))
    return SubChainComplex(delta, coeff, basis)


def embedded_homology_q_oracle(h):
    """Embedded homology over Q from the infimum and supremum complexes
    built over Q, whose homologies must agree."""
    delta = hypercore.delta_closure(h)
    via_inf = subcomplex_homology(inf_complex(h, Q, delta))
    via_sup = subcomplex_homology(sup_complex(h, Q, delta))
    if via_inf != via_sup:
        raise AssertionError("inf and sup homology over Q disagree: %r vs %r" % (via_inf, via_sup))
    return via_inf


def simplicial_homology_q_oracle(k):
    """Homology over Q of the full chain complex built over Q."""
    return subcomplex_homology(full_complex(k, Q))


def greedy_homology_representatives(scc, n):
    """Kernel columns that raise the rank of the image, one rank call each."""
    coeff = scc.coeff
    ker = exact.kernel_basis(scc.restricted[n], coeff)
    if n < scc.top:
        current = exact.canonical_basis(scc.restricted[n + 1], coeff)
    else:
        current = ExactMatrix.zeros(scc.rank_at(n), 0)
    reps = []
    for j in range(ker.cols):
        trial = current.hstack(ExactMatrix.from_columns([ker.column(j)], ker.rows))
        if exact.rank(trial, coeff) > current.cols:
            reps.append(list(ker.column(j)))
            current = trial
    return reps


# ---------------------------------------------------------------------------
# dense integer SNF with transforms, determinants, dense column solves and
# the transform-based field kernel


def _row_submul(target, source, q, start):
    for j in range(start, len(target)):
        s = source[j]
        if s:
            target[j] -= q * s


def dense_hnf(mat, transform):
    """Row HNF on dense lists as (h, u, r): h keeps its zero rows, which
    follow the r non-zero ones, and u * mat = h (u is None without
    transform).  Each column is cleared by its entry of least absolute value
    at or below row r, ties to the lowest row."""
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
                    rows[r] = [-x for x in rows[r]]
                    if transform:
                        u[r] = [-x for x in u[r]]
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


def dense_field_closures(coeff):
    """(div, submul, norm) of the dense field elimination."""
    if coeff.kind == "Q":
        def div(a, b):
            return Fraction(a, 1) / b if not isinstance(a, Fraction) else a / b

        def submul(a, q, b):
            return a - q * b

        return div, submul, coeff.normalize
    p = coeff.p

    def div(a, b):
        return a * pow(b, p - 2, p) % p

    def submul(a, q, b):
        return (a - q * b) % p

    return div, submul, lambda x: x % p


def dense_rref_with_transform(mat, coeff, transform=True):
    """Reduced row echelon form over a field on dense lists, with transform
    u (u*mat = h): (h, u, pivots) with the (row, col) pairs of the pivots;
    h keeps its zero rows.  Pivots are taken column by column from the
    first row at or below the current one."""
    div, submul, norm = dense_field_closures(coeff)
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows = [[norm(x) for x in row] for row in mat]
    one, zero = norm(1), norm(0)
    u = [[one if i == j else zero for j in range(m)] for i in range(m)] if transform else None
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), -1)
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
        for i in range(m):
            if i != r and rows[i][c]:
                q = rows[i][c]
                rows[i] = [submul(x, q, y) for x, y in zip(rows[i], rows[r])]
                if transform:
                    u[i] = [submul(x, q, y) for x, y in zip(u[i], u[r])]
        pivots.append((r, c))
        r += 1
    return rows, u, pivots


def dense_rref(mat, coeff):
    """The non-zero rows of the dense RREF."""
    h, _, pivots = dense_rref_with_transform(mat, coeff, transform=False)
    return h[: len(pivots)]


def dense_rank(m, coeff):
    """Rank over a field from the dense RREF."""
    return len(dense_rref(m.row_lists(), coeff))


def snf_transform_rows(mat):
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


def snf_transform(m):
    """Smith normal form over Z: (u, d, v) with m = u*d*v, u and v unimodular,
    d diagonal with a non-negative divisibility chain."""
    if m.rows == 0 or m.cols == 0:
        return (
            ExactMatrix.identity(m.rows),
            ExactMatrix.zeros(m.rows, m.cols),
            ExactMatrix.identity(m.cols),
        )
    u, d, v = snf_transform_rows(m.row_lists())
    return (
        ExactMatrix.from_rows(u, cols=m.rows),
        ExactMatrix.from_rows(d, cols=m.cols),
        ExactMatrix.from_rows(v, cols=m.cols),
    )


def det_int(m):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), -1)
            if piv < 0:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf_diagonal_oracle(m):
    """Non-zero SNF diagonal from the dense transform SNF of the whole matrix."""
    if m.rows == 0 or m.cols == 0:
        return []
    _, d, _ = snf_transform_rows(m.row_lists())
    return [d[t][t] for t in range(min(m.rows, m.cols)) if d[t][t]]


class DenseColumnSolver:
    """basis*x = vec solved on dense rows of the factored transpose."""

    def __init__(self, basis, coeff):
        self.basis = basis
        self.coeff = coeff
        rows_t = basis.transpose().row_lists()
        if coeff.kind == "Z":
            h, u, _ = dense_hnf(rows_t, True)
            pivots = []
            for i, row in enumerate(h):
                for j, x in enumerate(row):
                    if x:
                        pivots.append((i, j))
                        break
        else:
            h, u, pivots = dense_rref_with_transform(rows_t, coeff)
        self._h = h
        self._u = u
        self._pivots = pivots

    def solve(self, vec):
        coeff = self.coeff
        if len(vec) != self.basis.rows:
            raise ValueError("vector length mismatch")
        res = [coeff.normalize(x) for x in vec]
        weights = {}
        if coeff.kind == "Z":
            for k, p in self._pivots:
                b = res[p]
                if b:
                    a = self._h[k][p]
                    if b % a:
                        return None
                    q = b // a
                    row = self._h[k]
                    for j in range(p, len(res)):
                        if row[j]:
                            res[j] -= q * row[j]
                    weights[k] = q
        else:
            div, submul, _ = dense_field_closures(coeff)
            for k, p in self._pivots:
                b = res[p]
                if b:
                    q = div(b, self._h[k][p])
                    row = self._h[k]
                    for j in range(p, len(res)):
                        if row[j]:
                            res[j] = submul(res[j], q, row[j])
                    weights[k] = q
        if any(res):
            return None
        n = self.basis.cols
        out = [0] * n
        for k, q in weights.items():
            urow = self._u[k]
            for i in range(n):
                if urow[i]:
                    out[i] += q * urow[i]
        return [coeff.normalize(x) for x in out]


def field_kernel_basis_oracle(m, coeff):
    """Field kernel from the rows of the transform u opposite the zero rows
    of the RREF of the transpose, brought to RREF."""
    rows_t = m.transpose().row_lists()
    h, u, pivots = dense_rref_with_transform(rows_t, coeff)
    rows = [u[i] for i in range(len(pivots), len(h))]
    rows = dense_rref(rows, coeff)
    return ExactMatrix.from_rows(rows, cols=m.cols).transpose()


def snf_homology_oracle(scc):
    """Integer homology of a sub-chain complex from the dense SNF diagonals."""
    top = scc.top
    ranks = [0] * (top + 2)
    torsions = [()] * (top + 2)
    for n in range(1, top + 1):
        diag = snf_diagonal_oracle(scc.restricted[n])
        ranks[n] = len(diag)
        torsions[n] = tuple(d for d in diag if d > 1)
    return tuple(
        (scc.rank_at(n) - ranks[n] - ranks[n + 1], torsions[n + 1]) for n in range(top + 1)
    )


def per_degree_homology_oracle(scc):
    """Homology of a sub-chain complex with each restricted boundary
    eliminated alone: the Smith diagonal over Z, the rank over a field, and
    the ∂∂ = 0 check on each pair of neighbours."""
    coeff = scc.coeff
    top = scc.top
    ranks = [0] * (top + 2)
    torsions = [()] * (top + 2)
    for n in range(1, top + 1):
        mat = scc.restricted[n]
        if n >= 2 and not exact.matmul(scc.restricted[n - 1], mat, coeff).is_zero():
            raise MalformedSubcomplexError("restricted boundaries do not compose to zero")
        if coeff.kind == "Z":
            diag = exact.snf_diagonal(mat)
            ranks[n] = len(diag)
            torsions[n] = tuple(d for d in diag if d > 1)
        else:
            ranks[n] = exact.rank(mat, coeff)
    groups = []
    for n in range(top + 1):
        betti = scc.rank_at(n) - ranks[n] - ranks[n + 1]
        groups.append((betti, torsions[n + 1]))
    return HomologyResult(coeff, tuple(groups))


# ---------------------------------------------------------------------------
# restricted boundaries by product and solve, and the Markowitz elimination
# that pushes every entry of a changed row again


def restricted_boundaries_oracle(scc):
    """The restricted boundaries of a sub-chain complex by product and solve:
    ∂_n times the degree-n basis (dense product), each image column solved
    against the whole degree-(n-1) basis, unit columns included."""
    coeff = scc.coeff
    out = []
    for n in range(scc.top + 1):
        if n == 0:
            out.append(ExactMatrix.zeros(0, scc.basis[0].cols))
            continue
        image = dense_matmul(boundary_matrix(scc.ambient, n, coeff), scc.basis[n], coeff)
        solver = DenseColumnSolver(scc.basis[n - 1], coeff)
        cols = [solver.solve(image.column(j)) for j in range(image.cols)]
        if None in cols:
            raise MalformedSubcomplexError("boundary leaves the span below")
        out.append(ExactMatrix.from_columns(cols, scc.basis[n - 1].cols))
    return tuple(out)


def markowitz_repush_oracle(rows, p=0):
    """Sparse elimination in Markowitz order whose row operations push every
    entry of the changed row back onto the heap, not only the entries they
    created or changed.  It takes the unit pivots in another order than the
    one pass of exact._unit_pivots, so the two give the same rank and Smith
    factors by different row operations.  Returns (the number of pivots,
    the rows left over); rows is consumed."""
    live = {i: row for i, row in enumerate(rows) if row}
    col = _kernel.column_index(rows)
    heap = [
        ((len(row) - 1) * (len(col[j]) - 1), i, j)
        for i, row in live.items()
        for j, x in row.items()
        if p or x == 1 or x == -1
    ]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        cost, i, c = heapq.heappop(heap)
        prow = live.get(i)
        if prow is None:
            continue
        x = prow.get(c)
        if x is None or not (p or x == 1 or x == -1):
            continue
        now = (len(prow) - 1) * (len(col[c]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, i, c))
            continue
        del live[i]
        for j in prow:
            col[j].discard(i)
        inv = pow(x, p - 2, p) if p else x
        for k in list(col[c]):
            row = live[k]
            _kernel.submul(row, prow, row[c] * inv, p, col, k)
            if not row:
                del live[k]
                continue
            spare = len(row) - 1
            for j, y in row.items():
                if p or y == 1 or y == -1:
                    heapq.heappush(heap, (spare * (len(col[j]) - 1), k, j))
        pivots += 1
    return pivots, list(live.values())


def markowitz_repush_smith_oracle(m):
    """Non-zero Smith invariant factors of an integer matrix: a 1 per unit
    pivot of markowitz_repush_oracle, then the dense SNF of the rest."""
    units, rest = markowitz_repush_oracle([dict(c) for c in m.column_entries])
    if not rest:
        return [1] * units
    cols = sorted({j for row in rest for j in row})
    block = ExactMatrix.from_rows([[row.get(j, 0) for j in cols] for row in rest])
    return [1] * units + snf_diagonal_oracle(block)


# ---------------------------------------------------------------------------
# the Morse layer on Fraction comparisons and a sorted adjacency


def morse_adjacency_oracle(h):
    """faces[e] and cofaces[e] inside h, each sorted by edge_sort_key."""
    faces = {e: [] for e in h.edges}
    cofaces = {e: [] for e in h.edges}
    for e in h.edges:
        for f in hypercore.codim1_faces(e):
            if h.contains_edge(f):
                faces[e].append(f)
                cofaces[f].append(e)
    for e in h.edges:
        faces[e].sort(key=edge_sort_key)
        cofaces[e].sort(key=edge_sort_key)
    return faces, cofaces


def is_morse_oracle(f):
    faces, cofaces = morse_adjacency_oracle(f.host)
    violations = []
    for alpha in f.host.edges:
        fa = f.values[alpha]
        low = tuple(b for b in cofaces[alpha] if f.values[b] <= fa)
        if len(low) > 1:
            violations.append(MorseViolation(alpha, "low_cofaces", low))
        high = tuple(g for g in faces[alpha] if f.values[g] >= fa)
        if len(high) > 1:
            violations.append(MorseViolation(alpha, "high_faces", high))
    return (not violations, tuple(violations))


def _require_morse_oracle(f):
    ok, violations = is_morse_oracle(f)
    if not ok:
        raise NotMorseError(violations)


def critical_set_oracle(f):
    _require_morse_oracle(f)
    faces, cofaces = morse_adjacency_oracle(f.host)
    critical = []
    witnesses = {}
    for alpha in f.host.edges:
        fa = f.values[alpha]
        low = tuple(b for b in cofaces[alpha] if f.values[b] <= fa)
        high = tuple(g for g in faces[alpha] if f.values[g] >= fa)
        if low or high:
            witnesses[alpha] = {"low_cofaces": low, "high_faces": high}
        else:
            critical.append(alpha)
    return CriticalReport(tuple(critical), witnesses)


def gradient_oracle(f):
    _require_morse_oracle(f)
    _, cofaces = morse_adjacency_oracle(f.host)
    pairs = []
    for alpha in f.host.edges:
        fa = f.values[alpha]
        for beta in cofaces[alpha]:
            if f.values[beta] <= fa:
                pairs.append((alpha, beta))
    return GradientField(f.host, pairs)


def extension_obstruction_oracle(f):
    _require_morse_oracle(f)
    faces, cofaces = morse_adjacency_oracle(f.host)
    out = []
    for alpha in f.host.edges:
        fa = f.values[alpha]
        has_low = any(f.values[b] <= fa for b in cofaces[alpha])
        has_high = any(f.values[g] >= fa for g in faces[alpha])
        if has_low and has_high:
            out.append(alpha)
    return tuple(out)


def candidate_levels_oracle(values, per_gap):
    """Existing values plus per_gap fresh levels inside every gap and beyond
    both ends, as a sorted list of rationals."""
    distinct = sorted(set(values))
    levels = list(distinct)
    if not distinct:
        return [Fraction(i) for i in range(per_gap)]
    lo, hi = distinct[0], distinct[-1]
    for i in range(1, per_gap + 1):
        levels.append(lo - i)
        levels.append(hi + i)
    for a, b in zip(distinct, distinct[1:]):
        step = Fraction(b - a, per_gap + 1)
        for i in range(1, per_gap + 1):
            levels.append(a + i * step)
    return sorted(set(levels))


def search_extension_oracle(f, grid_levels=None):
    """Depth-first search over the rational candidate levels, unknown cells
    in edge_sort_key order and levels in increasing order; returns the values
    of the first Morse extension to the associated complex, or None."""
    _require_morse_oracle(f)
    delta = hypercore.delta_closure(f.host)
    unknowns = sorted((e for e in delta.edges if not f.host.contains_edge(e)), key=edge_sort_key)
    if not unknowns:
        return dict(f.values)
    k = len(unknowns)
    per_gap = k if grid_levels is None else max(grid_levels, k)
    levels = candidate_levels_oracle(f.values.values(), per_gap)
    faces_d, cofaces_d = morse_adjacency_oracle(delta)
    values = dict(f.values)

    def violates(cell):
        fc = values[cell]
        low = 0
        for b in cofaces_d[cell]:
            if b in values and values[b] <= fc:
                low += 1
                if low > 1:
                    return True
        high = 0
        for g in faces_d[cell]:
            if g in values and values[g] >= fc:
                high += 1
                if high > 1:
                    return True
        for g in faces_d[cell]:
            if g in values and fc <= values[g]:
                cnt = 0
                for b in cofaces_d[g]:
                    if b in values and values[b] <= values[g]:
                        cnt += 1
                        if cnt > 1:
                            return True
        for b in cofaces_d[cell]:
            if b in values and fc >= values[b]:
                cnt = 0
                for g in faces_d[b]:
                    if g in values and values[g] >= values[b]:
                        cnt += 1
                        if cnt > 1:
                            return True
        return False

    def dfs(i):
        if i == len(unknowns):
            return True
        cell = unknowns[i]
        for level in levels:
            values[cell] = level
            if not violates(cell) and dfs(i + 1):
                return True
            del values[cell]
        return False

    return values if dfs(0) else None
