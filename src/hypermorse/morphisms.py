"""Hypergraph morphisms and the maps they induce on homology.

A morphism is a vertex map sending every hyperedge, after collapsing repeated
images, to a hyperedge of the target.  It induces simplicial maps between the
associated and between the lower-associated complexes, chain maps with the
usual degenerate-image and orientation-sign conventions, and homomorphisms
between the three homology groups fitting in a commuting diagram with the
inclusion-induced maps.  Induced maps are computed over field coefficients.

A morphism keeps what is derived from it, built on first use: the assoc
simplicial map, which gives ΔH of both sides, and one private object per
field that holds the rest of the diagram: the chain map of the assoc map,
and for each side and kind (lower, embedded, assoc) the sub-chain complex of
ΔH and its homology basis.  So every induced map and the diagram check of
one morphism share them.  The boundary matrices of each ΔH are kept on the
complex itself (see chains), so its sub-chain complexes and the chain map's
check read the same ∂_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from . import chains, exact, hypercore
from .chains import HomologyBasis
from .coeffs import CoeffSpec, Q
from .errors import InternalConsistencyError, MorphismError
from .exact import ExactMatrix


class HypergraphMorphism:
    """A vertex map between hypergraphs; edge images are validated lazily.
    vertex_map is read-only: the maps phi induces are kept on phi."""

    __slots__ = ("source", "target", "vertex_map", "_memo")

    def __init__(self, source, target, vertex_map):
        for name in source.vertex_set.names:
            if name not in vertex_map:
                raise MorphismError("vertex map is not total: missing %r" % (name,))
        for name, image in vertex_map.items():
            if name not in source.vertex_set:
                raise MorphismError("unknown source vertex %r" % (name,))
            if image not in target.vertex_set:
                raise MorphismError("unknown target vertex %r" % (image,))
        self.source = source
        self.target = target
        self.vertex_map = MappingProxyType(dict(vertex_map))
        self._memo = {}

    def index_map(self):
        src = self.source.vertex_set
        dst = self.target.vertex_set
        return [dst.index(self.vertex_map[name]) for name in src.names]

    def image_edge(self, edge):
        """Image of an edge with repeated vertices collapsed, as a sorted tuple."""
        imap = self.index_map()
        return tuple(sorted({imap[i] for i in edge}))


def validate_morphism(phi):
    """True iff every edge's collapsed image is a target edge; on failure the
    offending source edge is returned."""
    imap = phi.index_map()
    for edge in phi.source.edges:
        image = tuple(sorted({imap[i] for i in edge}))
        if not phi.target.contains_edge(image):
            return (False, edge)
    return (True, None)


def compose(psi, phi):
    """The composite morphism psi ∘ phi."""
    if phi.target.vertex_set != psi.source.vertex_set:
        raise MorphismError("composition mismatch")
    vm = {name: psi.vertex_map[phi.vertex_map[name]] for name in phi.source.vertex_set.names}
    return HypergraphMorphism(phi.source, psi.target, vm)


@dataclass(frozen=True)
class SimplicialMap:
    source: object  # SimplicialComplex
    target: object  # SimplicialComplex
    vertex_map: tuple  # index map, source vertex index -> target vertex index

    def image_simplex(self, simplex):
        return tuple(sorted({self.vertex_map[i] for i in simplex}))


def _as_simplicial_map(phi, complex_of):
    ok, bad = validate_morphism(phi)
    if not ok:
        raise MorphismError(
            "not a morphism: edge %r has no image" % (phi.source.edge_key(bad),), bad
        )
    source_complex, target_complex = complex_of(phi.source), complex_of(phi.target)
    sm = SimplicialMap(source_complex, target_complex, tuple(phi.index_map()))
    for simplex in source_complex.edges:
        if not target_complex.contains_edge(sm.image_simplex(simplex)):
            raise InternalConsistencyError(
                "induced map is not simplicial at %r" % (simplex,)
            )
    return sm


def induced_assoc_map(phi):
    """The simplicial map between the associated complexes, kept on phi."""
    return hypercore.derived(phi, "assoc", _as_simplicial_map, phi, hypercore.delta_closure)


def induced_lower_map(phi):
    """The simplicial map between the lower-associated complexes."""
    return _as_simplicial_map(phi, hypercore.lower_complex)


def _permutation_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def chain_map(sm, coeff):
    """Per-degree matrices of the chain map of a simplicial map: a simplex
    goes to zero when vertex images repeat, else to the image simplex with
    the sign of the sorting permutation.  The boundary-commutation identity
    is verified and a failure raises (it would be a bug)."""
    src, dst = sm.source, sm.target
    top = src.max_dimension()
    mats = []
    for n in range(top + 1):
        dom = src.edges_of_dim(n)
        cod = dst.edges_of_dim(n)
        index = {e: i for i, e in enumerate(cod)}
        columns = []
        for simplex in dom:
            images = [sm.vertex_map[i] for i in simplex]
            if len(set(images)) != len(images):
                columns.append({})
            else:
                sign = coeff.normalize(_permutation_sign(images))
                columns.append({index[tuple(sorted(images))]: sign})
        mats.append(ExactMatrix.from_sparse_columns(len(cod), len(dom), columns))
    for n in range(1, top + 1):
        left = exact.matmul(chains._boundary(dst, n, coeff), mats[n], coeff)
        right = exact.matmul(mats[n - 1], chains._boundary(src, n, coeff), coeff)
        if left != right:
            raise InternalConsistencyError("chain map does not commute with the boundary")
    return mats


@dataclass(frozen=True)
class HomologyMap:
    """Induced map on homology with the bases it is written in."""

    which: str
    coeff: CoeffSpec
    matrices: tuple  # per degree
    source_basis: tuple  # per degree: representatives as {edge: coefficient}
    target_basis: tuple

    def betti_source(self):
        return tuple(m.cols for m in self.matrices)

    def betti_target(self):
        return tuple(m.rows for m in self.matrices)


def _chain_dicts(hb, n):
    edges = hb.scc.ambient.edges_of_dim(n)
    return [{edges[i]: x for i, x in rep.items()} for rep in hb.representatives(n)]


_KINDS = ("lower", "embedded", "assoc")
# the two squares of the diagram, each as (name, lower kind, upper kind)
_SQUARES = (("lower-embedded", "lower", "embedded"), ("embedded-assoc", "embedded", "assoc"))


class _InducedMaps:
    """The objects of one morphism's diagram over one field, each built once.

    Constructing it checks the field and then the morphism, through the
    assoc simplicial map kept on phi, which also gives ΔH of both sides.
    The chain map of the assoc map, the sub-chain complex and homology basis
    of each side and kind, and the induced matrices of each kind are built
    on first use.  Every sub-chain complex lives in ΔH of its own side, so
    one chain map of the ΔH serves all three kinds.  Read it through
    _induced, which keeps one per field on phi.
    """

    def __init__(self, phi, coeff):
        if not coeff.is_field:
            raise ValueError("induced homology maps need field coefficients")
        self.coeff = coeff
        self.hypergraphs = (phi.source, phi.target)
        self.assoc_map = induced_assoc_map(phi)
        self.deltas = (self.assoc_map.source, self.assoc_map.target)
        self.top = max(self.deltas[0].max_dimension(), self.deltas[1].max_dimension())
        self._chain_map = None
        self._bases = {}
        self._matrices = {}

    def basis(self, side, kind):
        """HomologyBasis of the kind's sub-chain complex; side 0 is the
        source, 1 the target."""
        key = (side, kind)
        if key not in self._bases:
            h, delta = self.hypergraphs[side], self.deltas[side]
            if kind == "lower":
                scc = chains.coordinate_subcomplex(delta, hypercore.lower_complex(h), self.coeff)
            elif kind == "embedded":
                scc = chains.inf_complex(h, self.coeff, delta)
            else:
                scc = chains.full_complex(delta, self.coeff)
            self._bases[key] = HomologyBasis(scc)
        return self._bases[key]

    def matrices(self, kind):
        """Per-degree matrices of the induced homology map of one kind."""
        if kind not in _KINDS:
            raise ValueError("unknown induced-map kind %r" % (kind,))
        if kind not in self._matrices:
            if self._chain_map is None:
                self._chain_map = chain_map(self.assoc_map, self.coeff)
            self._matrices[kind] = tuple(
                chains.induced_on_homology(
                    self.basis(0, kind), self.basis(1, kind), self._chain_map, top=self.top
                )
            )
        return self._matrices[kind]

    def homology_map(self, kind):
        mats = self.matrices(kind)
        src, dst = self.basis(0, kind), self.basis(1, kind)
        return HomologyMap(
            kind,
            self.coeff,
            mats,
            tuple(tuple(_chain_dicts(src, n)) for n in range(self.top + 1)),
            tuple(tuple(_chain_dicts(dst, n)) for n in range(self.top + 1)),
        )

    def diagram(self):
        """(True, None) when both squares commute, else (False, (square,
        degree)) for the first failure, by degree and then square."""
        coeff = self.coeff
        maps = {kind: self.matrices(kind) for kind in _KINDS}
        incl = {
            (side, lo): chains.induced_on_homology(
                self.basis(side, lo), self.basis(side, hi), None, top=self.top
            )
            for side in (0, 1)
            for _, lo, hi in _SQUARES
        }
        for n in range(self.top + 1):
            for name, lo, hi in _SQUARES:
                left = exact.matmul(incl[1, lo][n], maps[lo][n], coeff)
                right = exact.matmul(maps[hi][n], incl[0, lo][n], coeff)
                if left != right:
                    return (False, (name, n))
        return (True, None)


def _induced(phi, coeff):
    """The _InducedMaps of phi over the field coeff, built once and kept on phi."""
    return hypercore.derived(phi, ("induced", coeff), _InducedMaps, phi, coeff)


def induced_homology_map(phi, which, coeff=Q):
    """Matrix of the induced homology map for 'lower', 'embedded' or 'assoc'.

    The embedded case restricts the associated-complex chain map to the
    infimum complexes; that the image stays inside the target infimum complex
    is verified at runtime.  Every call on phi shares the objects kept on it."""
    return _induced(phi, coeff).homology_map(which)


def check_commuting_diagram(phi, coeff=Q):
    """Verify both squares relating the induced maps and the inclusion-induced
    maps on homology; returns (True, None) or (False, (square, degree)).
    It reuses the complexes, bases and induced matrices kept on phi."""
    if not coeff.is_field:
        raise ValueError("the diagram check needs field coefficients")
    return _induced(phi, coeff).diagram()
