"""Seeded input generators for the end-to-end benchmark.

Everything here is plain data: hypergraphs are sorted lists of edge
tuples over vertices 0..nv-1 and documents are JSON-ready dicts, so the
library under test only ever sees the generated inputs.
"""

import itertools


def edge_key(edge):
    """The library's canonical edge order: by size, then lexicographic."""
    return (len(edge), edge)


def random_edges(rng, nv, ne, maxdim):
    """ne distinct edges on nv vertices: d = randint(0, maxdim), then
    sorted(sample(range(nv), d + 1)), repeated until ne are distinct."""
    edges = set()
    while len(edges) < ne:
        d = rng.randint(0, maxdim)
        edges.add(tuple(sorted(rng.sample(range(nv), d + 1))))
    return sorted(edges, key=edge_key)


def closure(edges):
    """All non-empty subsets of the given edges: the associated complex."""
    cells = set()
    for e in edges:
        for k in range(1, len(e) + 1):
            cells.update(itertools.combinations(e, k))
    return sorted(cells, key=edge_key)


def simplex_edges(k):
    """Every face of the k-simplex."""
    return closure([tuple(range(k + 1))])


def labels(nv, prefix="v"):
    return ["%s%d" % (prefix, i) for i in range(nv)]


def document(nv, edges, values=None, prefix="v"):
    """A hypergraph document for the command line, with an optional morse block."""
    names = labels(nv, prefix)
    doc = {"vertices": names, "hyperedges": [[names[i] for i in e] for e in edges]}
    if values is not None:
        doc["morse"] = {",".join(names[i] for i in e): v for e, v in values.items()}
    return doc


# ---------------------------------------------------------------------------
# morphisms


def quotient_morphism(rng, nv, ne, maxdim, target_nv):
    """A vertex-collapse quotient of a random hypergraph onto target_nv
    vertices; the target is the image hypergraph, so the map is a morphism."""
    edges = random_edges(rng, nv, ne, maxdim)
    vmap = [rng.randrange(target_nv) for _ in range(nv)]
    for w, v in enumerate(rng.sample(range(nv), target_nv)):
        vmap[v] = w
    image = sorted({tuple(sorted({vmap[i] for i in e})) for e in edges}, key=edge_key)
    src, dst = labels(nv, "v"), labels(target_nv, "w")
    return {
        "source": document(nv, edges),
        "target": document(target_nv, image, prefix="w"),
        "map": {src[i]: dst[vmap[i]] for i in range(nv)},
    }


def inclusion_morphism(rng, nv, ne, maxdim, keep=0.6):
    """The inclusion of a random sub-hypergraph into a random hypergraph."""
    edges = random_edges(rng, nv, ne, maxdim)
    sub = [e for e in edges if rng.random() < keep]
    names = labels(nv)
    return {
        "source": document(nv, sub),
        "target": document(nv, edges),
        "map": {v: v for v in names},
    }


# ---------------------------------------------------------------------------
# discrete Morse functions


def faces(edge):
    """The codimension-1 faces of an edge."""
    return [edge[:i] + edge[i + 1 :] for i in range(len(edge))] if len(edge) > 1 else []


def random_morse_values(rng, cells):
    """Integer values of a random discrete Morse function on a hypergraph.

    A random matching of face/coface pairs is grown one pair at a time and
    kept only while the modified Hasse digraph (boundary arrows downwards,
    matched arrows upwards) stays acyclic.  Values then decrease along a
    random topological order, so every cell has at most one neighbour on the
    wrong side: its partner.
    """
    present = set(cells)
    down = {c: [f for f in faces(c) if f in present] for c in cells}
    pairs = [(a, b) for b in cells for a in down[b]]
    rng.shuffle(pairs)
    partner = {}
    arrows = {c: list(down[c]) for c in cells}

    def reaches(start, goal):
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in arrows[node]:
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for a, b in pairs:
        if a in partner or b in partner:
            continue
        arrows[b].remove(a)
        if reaches(b, a):
            arrows[b].append(a)
            continue
        arrows[a].append(b)
        partner[a] = b
        partner[b] = a
    indeg = {c: 0 for c in cells}
    for c in cells:
        for nxt in arrows[c]:
            indeg[nxt] += 1
    ready = [c for c in cells if not indeg[c]]
    order = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for nxt in arrows[node]:
            indeg[nxt] -= 1
            if not indeg[nxt]:
                ready.append(nxt)
    n = len(order)
    return {c: n - i for i, c in enumerate(order)}


def morse_pair(rng, nv, ne, maxdim, removed):
    """Two Morse documents on one hypergraph: ΔH of a random hypergraph with
    `removed` non-maximal cells taken out.

    The first carries a random Morse function on all of ΔH, so its
    restriction to the hypergraph extends; the second carries a random Morse
    function drawn on the hypergraph itself, which may or may not extend.
    """
    delta = closure(random_edges(rng, nv, ne, maxdim))
    non_maximal = sorted({f for c in delta for f in faces(c)}, key=edge_key)
    gone = set(rng.sample(non_maximal, removed))
    host = [c for c in delta if c not in gone]
    restricted = document(nv, host, random_morse_values(rng, delta))
    free = document(nv, host, random_morse_values(rng, host))
    return restricted, free
