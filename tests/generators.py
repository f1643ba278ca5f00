"""Seeded random instance generators, and a fixed complex with torsion, shared
by the property and acceptance tests."""

from fractions import Fraction

from hypermorse.hypercore import (
    Hypergraph,
    VertexSet,
    codim1_faces,
    delta_closure,
    edge_sort_key,
)
from hypermorse.morse import GradientField, MorseFunction, is_morse


def mod3_moore_document():
    """A triangulated mod-3 Moore space as a document of its 27 triangles: a
    9-gon x0..x8 coned to c, joined by a band of triangles to the circle
    a0 a1 a2, which its boundary wraps three times.  H_1 over Z is Z/3."""
    triangles = []
    for i in range(9):
        a, b = "a%d" % (i % 3), "a%d" % ((i + 1) % 3)
        x, y = "x%d" % i, "x%d" % ((i + 1) % 9)
        triangles += [[a, b, x], [x, y, b], [x, y, "c"]]
    vertices = ["a0", "a1", "a2"] + ["x%d" % i for i in range(9)] + ["c"]
    return {"vertices": vertices, "hyperedges": triangles}


def random_hypergraph(rng, max_vertices=8, max_edges=20, dim_weights=(30, 35, 25, 10)):
    nv = rng.randint(1, max_vertices)
    labels = ["v%d" % i for i in range(nv)]
    edges = set()
    for _ in range(rng.randint(0, max_edges)):
        d = rng.choices(range(len(dim_weights)), weights=dim_weights)[0]
        d = min(d, nv - 1)
        edges.add(tuple(sorted(rng.sample(range(nv), d + 1))))
    return Hypergraph(VertexSet(labels), sorted(edges, key=edge_sort_key))


def random_simplicial_complex(rng, max_vertices=8, max_edges=12):
    return delta_closure(random_hypergraph(rng, max_vertices, max_edges))


def random_subhypergraph(rng, h, keep=0.6):
    edges = [e for e in h.edges if rng.random() < keep]
    return Hypergraph(h.vertex_set, edges)


def _hasse_arrows(h, matched):
    arrows = {e: [] for e in h.edges}
    for b in h.edges:
        for a in codim1_faces(b):
            if h.contains_edge(a):
                if (a, b) in matched:
                    arrows[a].append(b)
                else:
                    arrows[b].append(a)
    return arrows


def _has_directed_cycle(arrows):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in arrows}
    for start in arrows:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(arrows[start]))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(arrows[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def random_morse_function(rng, h, tie_chance=0.35):
    """A random discrete Morse function built from a random proper matching
    whose modified Hasse digraph is acyclic; values follow a randomized
    topological order, with optional exact ties on matched pairs."""
    if h.is_empty():
        return MorseFunction(h, {})
    candidates = [
        (a, b) for b in h.edges for a in codim1_faces(b) if h.contains_edge(a)
    ]
    rng.shuffle(candidates)
    matched = set()
    used = set()
    for a, b in candidates:
        if a in used or b in used:
            continue
        matched.add((a, b))
        if _has_directed_cycle(_hasse_arrows(h, matched)):
            matched.discard((a, b))
        else:
            used.add(a)
            used.add(b)
    arrows = _hasse_arrows(h, matched)
    indeg = {e: 0 for e in h.edges}
    for src, dsts in arrows.items():
        for dst in dsts:
            indeg[dst] += 1
    ready = sorted((e for e, d in indeg.items() if d == 0), key=edge_sort_key)
    order = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for dst in arrows[node]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    assert len(order) == len(h.edges)
    n = len(order)
    values = {cell: Fraction(n - i) for i, cell in enumerate(order)}
    if tie_chance and rng.random() < 0.7:
        for a, b in matched:
            if rng.random() < tie_chance:
                old = values[b]
                values[b] = values[a]
                if not is_morse(MorseFunction(h, values))[0]:
                    values[b] = old
    f = MorseFunction(h, values)
    assert is_morse(f)[0]
    return f


def random_gradient_field(rng, h, pair_chance=0.4, allow_cycles=False):
    """A random pair set; with allow_cycles=False each upper edge is matched
    at most once, which makes the field acyclic while still permitting
    chained (non-semi-proper) and multi-matched-lower configurations."""
    pairs = []
    seen_upper = set()
    candidates = [
        (a, b) for b in h.edges for a in codim1_faces(b) if h.contains_edge(a)
    ]
    rng.shuffle(candidates)
    for a, b in candidates:
        if rng.random() >= pair_chance:
            continue
        if not allow_cycles and b in seen_upper:
            continue
        seen_upper.add(b)
        pairs.append((a, b))
    return GradientField(h, pairs)


def random_morphism(rng, source, max_extra_edges=4):
    """A random morphism out of `source`: random vertex images plus a target
    hypergraph containing all collapsed edge images."""
    nt = rng.randint(1, 6)
    target_labels = ["w%d" % i for i in range(nt)]
    vmap = {name: rng.choice(target_labels) for name in source.vertex_set.names}
    tindex = {name: i for i, name in enumerate(target_labels)}
    edges = set()
    for e in source.edges:
        edges.add(tuple(sorted({tindex[vmap[source.vertex_set.names[i]]] for i in e})))
    for _ in range(rng.randint(0, max_extra_edges)):
        d = rng.choice([0, 1, 2])
        d = min(d, nt - 1)
        edges.add(tuple(sorted(rng.sample(range(nt), d + 1))))
    target = Hypergraph(VertexSet(target_labels), sorted(edges, key=edge_sort_key))
    return vmap, target


def _random_edges(rng, nv, ne, maxdim):
    """ne distinct edges on nv vertices, each of dimension at most maxdim."""
    edges = set()
    while len(edges) < ne:
        d = rng.randint(0, maxdim)
        edges.add(tuple(sorted(rng.sample(range(nv), d + 1))))
    return sorted(edges, key=edge_sort_key)


def _labelled(prefix, nv, edges):
    names = ["%s%d" % (prefix, i) for i in range(nv)]
    return {"vertices": names, "hyperedges": [[names[i] for i in e] for e in edges]}


def quotient_morphism_document(rng, nv, ne, maxdim, target_nv):
    """A morphism document collapsing a random hypergraph on nv vertices onto
    target_nv vertices; the target is the image hypergraph."""
    edges = _random_edges(rng, nv, ne, maxdim)
    vmap = [rng.randrange(target_nv) for _ in range(nv)]
    for w, v in enumerate(rng.sample(range(nv), target_nv)):
        vmap[v] = w
    image = sorted({tuple(sorted({vmap[i] for i in e})) for e in edges}, key=edge_sort_key)
    return {
        "source": _labelled("v", nv, edges),
        "target": _labelled("w", target_nv, image),
        "map": {"v%d" % i: "w%d" % vmap[i] for i in range(nv)},
    }


def inclusion_morphism_document(rng, nv, ne, maxdim, keep=0.6):
    """A morphism document including a random sub-hypergraph (each edge kept
    with probability keep) into a random hypergraph."""
    edges = _random_edges(rng, nv, ne, maxdim)
    sub = [e for e in edges if rng.random() < keep]
    return {
        "source": _labelled("v", nv, sub),
        "target": _labelled("v", nv, edges),
        "map": {"v%d" % i: "v%d" % i for i in range(nv)},
    }
