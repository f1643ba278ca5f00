"""Brute-force oracles, independent of the implementation paths they check."""

import itertools

from hypermorse import exact, hypercore
from hypermorse.chains import SubChainComplex, boundary_matrix, edge_module_matrix
from hypermorse.exact import ColumnSolver, ExactMatrix


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


def random_int_matrix(rng, rows, cols, lo=-4, hi=4):
    return ExactMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


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
