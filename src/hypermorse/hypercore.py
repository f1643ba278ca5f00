"""Hypergraphs, their associated and lower-associated simplicial complexes.

A hypergraph is a set of non-empty subsets (hyperedges) of a totally ordered
finite vertex set.  The vertex order is the declaration order of the labels.
Hyperedges are stored as strictly increasing tuples of vertex indices and the
edge list is kept sorted by (dimension, lexicographic order), so iteration and
serialization are deterministic.  All types are immutable after construction
and every operation here is a pure function.  What is derived from an
immutable object may be kept on it by derived(), built on first use; only
the module that owns a key reads or writes it.  A closure that one
hyperedge alone would push past MAX_CLOSURE_CELLS is refused before it is
built.
"""

from __future__ import annotations

import itertools
import json
import warnings

from .errors import SizeCapExceeded

# The most cells a closure may hold: Δ^19, with 2^20 - 1 cells, passes, and
# the largest complex the tests and the benchmark build is Δ^12.
MAX_CLOSURE_CELLS = 1 << 20


class DuplicateEdgeWarning(UserWarning):
    """Emitted when duplicate hyperedges in the input are merged."""


def edge_dimension(edge):
    """Dimension of a hyperedge: one less than its number of vertices."""
    return len(edge) - 1


def edge_sort_key(edge):
    """Canonical (dimension, lexicographic) sort key used everywhere."""
    return (len(edge), edge)


def codim1_faces(edge):
    """The codimension-1 faces of an edge, each obtained by dropping one vertex."""
    if len(edge) == 1:
        return []
    return [edge[:i] + edge[i + 1 :] for i in range(len(edge))]


def nonempty_subsets(edge):
    """The non-empty subsets of an edge as sorted index tuples, by size and
    then in lexicographic order, generated one at a time."""
    for k in range(1, len(edge) + 1):
        yield from itertools.combinations(edge, k)


class VertexSet:
    """An ordered set of distinct vertex labels; list order is the total order."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise ValueError("vertex labels must be pairwise distinct")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index(self, name):
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValueError("unknown vertex label %r" % (name,)) from None

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        try:
            return name in self._index
        except TypeError:  # an unhashable name is no label
            return False

    def __eq__(self, other):
        return isinstance(other, VertexSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VertexSet(%r)" % (list(self.names),)


def _validate_edge(edge, nvertices):
    t = tuple(edge)
    if not t:
        raise ValueError("hyperedges must be non-empty")
    for v in t:
        if not isinstance(v, int) or v < 0 or v >= nvertices:
            raise ValueError("vertex index %r out of range" % (v,))
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError("hyperedge %r is not strictly increasing" % (t,))
    return t


class Hypergraph:
    """A collection of hyperedges over a fixed ordered vertex set.

    Isolated vertices (present in the vertex set but in no hyperedge) are
    allowed and are not implicit 0-hyperedges.  Duplicate edges in the input
    are merged with a DuplicateEdgeWarning.  The empty hypergraph is legal.
    """

    __slots__ = ("vertex_set", "edges", "_edge_set", "_by_dim", "_memo")

    def __init__(self, vertex_set, edges):
        if not isinstance(vertex_set, VertexSet):
            vertex_set = VertexSet(vertex_set)
        n = len(vertex_set)
        self._build(vertex_set, [_validate_edge(e, n) for e in edges])

    def _build(self, vertex_set, edges):
        """Store valid edges: duplicates merge with a DuplicateEdgeWarning,
        the rest are sorted."""
        self.vertex_set = vertex_set
        seen = set()
        dups = []
        canonical = []
        for t in edges:
            if t in seen:
                dups.append(t)
            else:
                seen.add(t)
                canonical.append(t)
        if dups:
            warnings.warn(
                "merged %d duplicate hyperedge(s): %s" % (len(dups), sorted(dups)),
                DuplicateEdgeWarning,
                stacklevel=3,
            )
        # edge_sort_key order: lexicographic, then stably by size
        canonical.sort()
        canonical.sort(key=len)
        self._set_edges(canonical)

    def _set_edges(self, edges):
        """Store edges that are valid, distinct and in edge_sort_key order."""
        self.edges = tuple(edges)
        self._edge_set = frozenset(self.edges)
        self._by_dim = {n - 1: tuple(es) for n, es in itertools.groupby(self.edges, len)}
        self._memo = {}

    @classmethod
    def from_labels(cls, vertex_labels, edge_label_lists):
        vs = VertexSet(vertex_labels)
        index = vs.index
        # every label is mapped before any edge is checked, so an unknown
        # label anywhere is the first error; indices from vs are in range
        edges = [tuple(sorted(map(index, e))) for e in edge_label_lists]
        for t in edges:
            if not t:
                raise ValueError("hyperedges must be non-empty")
            if len(set(t)) < len(t):
                raise ValueError("hyperedge %r is not strictly increasing" % (t,))
        self = cls.__new__(cls)
        self._build(vs, edges)
        return self

    def contains_edge(self, edge):
        return tuple(edge) in self._edge_set

    def edges_of_dim(self, n):
        return self._by_dim.get(n, ())

    def max_dimension(self):
        """Largest edge dimension, or -1 for the empty hypergraph."""
        return max(self._by_dim) if self._by_dim else -1

    def is_empty(self):
        return not self.edges

    def edge_labels(self, edge):
        return tuple(self.vertex_set.names[i] for i in edge)

    def edge_key(self, edge):
        """Canonical string key: labels in vertex order joined by a comma."""
        names = self.vertex_set.names
        return ",".join([names[i] for i in edge])

    def to_document(self):
        return {
            "vertices": list(self.vertex_set.names),
            "hyperedges": [list(self.edge_labels(e)) for e in self.edges],
        }

    def canonical_json(self):
        return json.dumps(self.to_document(), sort_keys=True, indent=2) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.vertex_set == other.vertex_set
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_set, self.edges))

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __repr__(self):
        return "%s(%d vertices, %d edges)" % (
            type(self).__name__,
            len(self.vertex_set),
            len(self.edges),
        )


class SimplicialComplex(Hypergraph):
    """A downward-closed hypergraph.  Closure is validated at construction."""

    __slots__ = ()

    def _build(self, vertex_set, edges):
        super()._build(vertex_set, edges)
        e = _first_unclosed(self)
        if e is not None:
            tau = next(t for t in nonempty_subsets(e) if t not in self._edge_set)
            raise ValueError("not downward closed: %r misses face %r" % (e, tau))

    @classmethod
    def _trusted(cls, vertex_set, edges):
        """A complex from edges that are already valid, distinct, downward
        closed and in edge_sort_key order: no check is repeated."""
        self = cls.__new__(cls)
        self.vertex_set = vertex_set
        self._set_edges(edges)
        return self


def derived(obj, key, build, *args):
    """build(*args), kept in the memo of the immutable obj under key: built
    on the first call, read on every later one."""
    memo = obj._memo
    if key not in memo:
        memo[key] = build(*args)
    return memo[key]


# the public name of edge_dimension
dimension = edge_dimension


def power_complex(vertex_set, edge):
    """The simplicial complex of all non-empty subsets of a single edge;
    SizeCapExceeded when there are more than MAX_CLOSURE_CELLS."""
    return delta_closure(Hypergraph(vertex_set, [edge]))


def delta_closure(h):
    """Smallest simplicial complex containing h: the union of the subset
    complexes of its hyperedges.  A SimplicialComplex is its own closure.
    SizeCapExceeded, before any cell is built, when the largest hyperedge
    alone has more than MAX_CLOSURE_CELLS faces."""
    if isinstance(h, SimplicialComplex):
        return h
    faces = (1 << (h.max_dimension() + 1)) - 1
    if faces > MAX_CLOSURE_CELLS:
        raise SizeCapExceeded(
            "a %d-vertex hyperedge has %d faces, over the cap of %d cells"
            % (h.max_dimension() + 1, faces, MAX_CLOSURE_CELLS)
        )
    # walk down one dimension at a time: the n-cells are the n-edges plus the
    # codimension-1 faces of the (n+1)-cells, each face kept once
    levels = []
    cells = set()
    for n in range(h.max_dimension(), -1, -1):
        cells.update(h.edges_of_dim(n))
        levels.append(sorted(cells))
        cells = {f for e in cells for f in itertools.combinations(e, n)}
    return SimplicialComplex._trusted(
        h.vertex_set, [e for level in reversed(levels) for e in level]
    )


def lower_complex(h):
    """Largest simplicial complex contained in h: the edges all of whose
    non-empty subsets are edges of h."""
    # h.edges run up by dimension, so an edge's faces are decided before it
    # is; all its non-empty subsets are edges iff its codimension-1 faces
    # are kept (a vertex has none)
    keep = set()
    for e in h.edges:
        if len(e) == 1 or all(f in keep for f in itertools.combinations(e, len(e) - 1)):
            keep.add(e)
    return SimplicialComplex._trusted(h.vertex_set, [e for e in h.edges if e in keep])


def _first_unclosed(h):
    """The first edge of h, in edge_sort_key order, that misses one of its
    non-empty subsets, or None.  It is the first edge that misses a
    codimension-1 face: a smaller missing subset lies in a codimension-1
    face, which is either missing or an earlier edge that misses it."""
    for e in h.edges:
        if not h._edge_set.issuperset(codim1_faces(e)):
            return e
    return None


def is_simplicial(h):
    """True iff every non-empty subset of every edge is itself an edge."""
    return _first_unclosed(h) is None


def as_simplicial(h):
    """View a downward-closed hypergraph as a SimplicialComplex."""
    if isinstance(h, SimplicialComplex):
        return h
    return SimplicialComplex(h.vertex_set, h.edges)


def is_subhypergraph(inner, outer):
    """True iff every edge of inner, matched by vertex labels, is an edge of
    outer.  Raises ValueError if an inner label does not exist in outer."""
    if inner.vertex_set == outer.vertex_set:
        return inner._edge_set <= outer._edge_set
    mapping = [outer.vertex_set.index(name) for name in inner.vertex_set.names]
    for e in inner.edges:
        image = tuple(sorted(mapping[i] for i in e))
        if image not in outer._edge_set:
            return False
    return True
