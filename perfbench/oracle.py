"""Independent answers used by the benchmark's output checks.

Nothing here calls the library.  Betti numbers come from ranks of sparse
boundary submatrices: for a hypergraph H with associated complex ΔH, the
infimum complex in degree n is the kernel of π∂_n restricted to span(H_n),
where π drops the rows of (n-1)-cells that are hyperedges.  Since
ker ∂_n ∩ span(H_n) lies inside it, the embedded Betti numbers over a field
are

    b_n = |H_n| - rank ∂_n|H_n - rank ∂_{n+1}|H_{n+1} + rank π∂_{n+1}|H_{n+1}.

For a simplicial complex the last term vanishes and this is ordinary
simplicial homology.  Ranks over Q are taken modulo the prime 2^61 - 1.
"""

from gen import closure, edge_key, faces

RATIONAL_PRIME = (1 << 61) - 1


def sparse_rank(columns, p):
    """Rank over Z/p of a matrix given as sparse columns {row: value}."""
    pivots = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            factor = col[low] * pow(other[low], p - 2, p) % p
            for r, v in other.items():
                x = (col.get(r, 0) - factor * v) % p
                if x:
                    col[r] = x
                else:
                    col.pop(r, None)
    return rank


def _boundary_columns(cells, keep_row):
    """Sparse boundary columns of the given n-cells, restricted to the rows
    (faces) accepted by keep_row; rows are indexed by the face itself."""
    out = []
    for cell in cells:
        col = {}
        for i, face in enumerate(faces(cell)):
            if keep_row(face):
                col[face] = -1 if i % 2 else 1
        out.append(col)
    return out


def embedded_betti(edges, p=RATIONAL_PRIME):
    """Embedded Betti numbers over Z/p (p = 2^61 - 1 stands for Q), degree
    0 up to the top degree of the associated complex.  Given every cell of
    a simplicial complex, these are its simplicial Betti numbers."""
    edges = set(edges)
    cells = closure(edges)
    top = max((len(c) for c in cells), default=0) - 1
    by_dim = {}
    for e in edges:
        by_dim.setdefault(len(e) - 1, []).append(e)
    index = {c: i for i, c in enumerate(cells)}

    def rank_of(n, keep_row):
        cols = _boundary_columns(by_dim.get(n, ()), keep_row)
        return sparse_rank(({index[f]: v for f, v in c.items()} for c in cols), p)

    full = [0] * (top + 2)
    proj = [0] * (top + 2)
    for n in range(1, top + 1):
        full[n] = rank_of(n, lambda f: True)
        proj[n] = rank_of(n, lambda f: f not in edges)
    return tuple(
        len(by_dim.get(n, ())) - full[n] - full[n + 1] + proj[n + 1] for n in range(top + 1)
    )


def lower_cells(edges):
    """Edges of the lower-associated complex: those with every face present."""
    edges = set(edges)
    return sorted(
        (e for e in edges if all(c in edges for c in closure([e]))), key=edge_key
    )


def morse_violations(values):
    """Cells of a complete value table that break the discrete Morse
    conditions inside the set of cells the table covers."""
    cofaces = {c: [] for c in values}
    for c in values:
        for f in faces(c):
            if f in cofaces:
                cofaces[f].append(c)
    bad = []
    for c, fc in values.items():
        low = sum(1 for b in cofaces[c] if values[b] <= fc)
        high = sum(1 for f in faces(c) if f in values and values[f] >= fc)
        if low > 1 or high > 1:
            bad.append(c)
    return bad
