"""Boundary matrices, infimum/supremum sub-chain complexes, and homology.

Everything here works inside the chain complex of an associated simplicial
complex.  Sub-modules are represented by canonical basis matrices (columns in
the ambient degree basis), so module equality is matrix equality.  Every
matrix is built sparse, one column at a time as the formulas give it, and
none is transposed: boundaries, inclusions, placed and merged bases,
restricted boundaries, homology classes and their induced coordinates; the
entries, zeros included, are the ring's canonical scalars (Fractions over
Q).  Every operation is a pure function, but ∂_n of a complex over a ring
is built once and kept on the (immutable) complex, so the sub-chain
complexes and chain maps on one ΔH share it, and the infimum and supremum
complexes read their blocks off its columns.  Each block π∂_n|H_n is
eliminated once: its kernel is Inf_n, and its image, merged with H_{n-1},
is Sup_{n-1}.  Every basis built here has distinct leading rows, so its
ColumnSolver solves against it as it stands.  The restricted boundaries are
read off ∂'s columns, with no matrix product: a unit generator e_i has
column i of ∂ as its image, only other generators combine columns, and each
image is solved one non-zero dict at a time.  Homology over Z uses the
Smith invariant factors (Betti numbers and torsion coefficients); over Z/p
it uses ranks.  Both come from reducing the chain complex degree by degree:
the generators of each degree that took a unit pivot are left out of the
next boundary's elimination, which keeps its rank and Smith form
(subcomplex_homology).  Embedded and simplicial homology over Q are
computed over Z, whose free ranks are the Betti numbers over Q (Q is flat
over Z), so no Fraction is formed; a caller's own Q complex, the inf/sup
bases the command line prints and HomologyBasis are still reduced over Q.
HomologyBasis reads its classes off the canonical kernel basis, in two
eliminations per degree (one unit-pivot pass for the kernel, one for the
canonical basis of the boundaries' coordinates), and solves a cycle with
the complex's own ColumnSolver.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact, hypercore
from .coeffs import CoeffSpec, Z
from .errors import InternalConsistencyError, MalformedSubcomplexError
from .exact import ColumnSolver, ExactMatrix


def incidence(beta, alpha):
    """Coefficient of alpha in the boundary of beta: 0 unless alpha is a
    codimension-1 face, else (-1)^i with i the position of the omitted vertex."""
    if len(beta) != len(alpha) + 1:
        return 0
    omitted = -1
    j = 0
    for i, v in enumerate(beta):
        if j < len(alpha) and alpha[j] == v:
            j += 1
        elif omitted < 0:
            omitted = i
        else:
            return 0
    if j != len(alpha):
        return 0
    return -1 if omitted % 2 else 1


def boundary_matrix(complex_, n, coeff):
    """Matrix of the degree-n boundary map of a simplicial complex, from the
    canonical n-simplex basis to the (n-1)-simplex basis."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    cells = complex_.edges_of_dim(n)
    rows = complex_.edges_of_dim(n - 1)
    if not rows:
        return ExactMatrix.zeros(0, len(cells))
    index = {e: i for i, e in enumerate(rows)}
    signs = (coeff.normalize(1), coeff.normalize(-1))
    columns = []
    for e in cells:
        col = {}
        for i in range(len(e)):
            r = index.get(e[:i] + e[i + 1 :])
            if r is not None:
                col[r] = signs[i % 2]
        columns.append(col)
    return ExactMatrix.from_sparse_columns(len(rows), len(cells), columns, coeff.normalize(0))


def _boundary(complex_, n, coeff):
    """boundary_matrix(complex_, n, coeff), built once and kept on complex_."""
    return hypercore.derived(complex_, ("boundary", n, coeff), boundary_matrix, complex_, n, coeff)


def _inclusion_matrix(ambient_edges, sub_edges, coeff):
    index = {e: i for i, e in enumerate(ambient_edges)}
    one = coeff.normalize(1)
    columns = [{index[e]: one} for e in sub_edges]
    return ExactMatrix.from_sparse_columns(len(ambient_edges), len(sub_edges), columns, coeff.normalize(0))


def _pi_block(h, delta, n, coeff):
    """(at, π∂_n|H_n): at lists the positions of h's n-edges among ΔH's
    n-cells, and the block holds the columns of the kept ∂_n at them less
    their entries at the (n-1)-hyperedges; its rows keep ΔH's indices.
    With no column or no row kept the block is zero, and ∂_n is not read."""
    cells, below = delta.edges_of_dim(n), delta.edges_of_dim(n - 1)
    at = [i for i, e in enumerate(cells) if h.contains_edge(e)]
    hyper = {i for i, e in enumerate(below) if h.contains_edge(e)}
    if not at or len(hyper) == len(below):
        return at, ExactMatrix.zeros(len(below), len(at))
    faces = _boundary(delta, n, coeff).column_entries
    cols = [{r: x for r, x in faces[i].items() if r not in hyper} for i in at]
    return at, ExactMatrix.from_sparse_columns(len(below), len(at), cols, coeff.normalize(0))


class SubChainComplex:
    """A sub-chain complex of C_*(ΔH), given by per-degree basis matrices.

    basis[n] has the chosen degree-n generators as columns in the ambient
    basis; restricted[n] expresses the boundary of each generator in the
    degree-(n-1) generators.  Construction fails with
    MalformedSubcomplexError when a boundary leaves the span below.
    """

    __slots__ = ("ambient", "coeff", "basis", "restricted", "_solvers")

    def __init__(self, ambient, coeff, basis):
        self.ambient = ambient
        self.coeff = coeff
        top = ambient.max_dimension()
        basis = list(basis)
        while len(basis) < top + 1:
            basis.append(ExactMatrix.zeros(len(ambient.edges_of_dim(len(basis))), 0))
        self.basis = tuple(basis)
        self._solvers = [None] * (top + 1)
        zero = coeff.normalize(0)
        restricted = []
        for n in range(top + 1):
            if n == 0:
                restricted.append(ExactMatrix.zeros(0, self.basis[0].cols))
                continue
            faces = _boundary(ambient, n, coeff).column_entries
            solver = self._solver(n - 1)
            columns = []
            for j, gen in enumerate(self.basis[n].column_entries):
                if len(gen) == 1 and 1 in gen.values():
                    # a unit generator e_i: its image is column i of ∂_n
                    (i,) = gen
                    image = faces[i]
                else:
                    # the solve normalizes these sums, as matmul would
                    image = {}
                    for i, b in gen.items():
                        for r, s in faces[i].items():
                            image[r] = image.get(r, 0) + b * s
                x = solver.solve(image)
                if x is None:
                    raise MalformedSubcomplexError(
                        "boundary of degree-%d generator %d leaves the span below" % (n, j)
                    )
                columns.append(x)
            restricted.append(
                ExactMatrix.from_sparse_columns(self.basis[n - 1].cols, len(columns), columns, zero)
            )
        self.restricted = tuple(restricted)

    @property
    def top(self):
        return self.ambient.max_dimension()

    def rank_at(self, n):
        if 0 <= n <= self.top:
            return self.basis[n].cols
        return 0

    def _solver(self, n):
        if self._solvers[n] is None:
            self._solvers[n] = ColumnSolver(self.basis[n], self.coeff)
        return self._solvers[n]

    def contains(self, n, ambient_vector):
        """Membership of a dense or {index: value} degree-n vector in the module."""
        if not 0 <= n <= self.top:
            values = ambient_vector.values() if isinstance(ambient_vector, dict) else ambient_vector
            return not any(map(self.coeff.normalize, values))
        return self._solver(n).solve(ambient_vector) is not None

    def to_ambient(self, n, internal_vector):
        return exact.matvec(self.basis[n], internal_vector, self.coeff)


def full_complex(k, coeff):
    """C_*(K) of a simplicial complex as a sub-chain complex of itself."""
    k = hypercore.as_simplicial(k)
    return coordinate_subcomplex(k, k, coeff)


def coordinate_subcomplex(ambient, sub, coeff):
    """C_*(sub) inside C_*(ambient) for a subcomplex given by its simplices.

    ValueError, before anything is built, unless sub has the ambient's
    vertex set and each of its simplices is one of the ambient's."""
    if sub.vertex_set != ambient.vertex_set:
        raise ValueError("the subcomplex must have the ambient's vertex set")
    if not all(map(ambient.contains_edge, sub.edges)):
        raise ValueError("not a subcomplex of the ambient: it has a simplex outside")
    basis = []
    for n in range(ambient.max_dimension() + 1):
        basis.append(_inclusion_matrix(ambient.edges_of_dim(n), sub.edges_of_dim(n), coeff))
    return SubChainComplex(ambient, coeff, basis)


def edge_module_matrix(h, delta, n):
    """Inclusion matrix of the degree-n hyperedge module of h into C_n(ΔH)."""
    return _inclusion_matrix(delta.edges_of_dim(n), h.edges_of_dim(n), Z)


def _inf_and_images(h, delta, coeff):
    """(inf, images) from one elimination of each block M_n = π∂_n|H_n
    (_pi_block), n = 0 … top+1: inf[n] is ker M_n put at the H_n positions,
    which increase, so it stays canonical, and images[n] pairs these
    positions with the canonical basis of im M_{n+1}, on the n-cells."""
    zero = coeff.normalize(0)
    inf, hyper, images = [], [], []
    for n in range(delta.max_dimension() + 2):
        at, block = _pi_block(h, delta, n, coeff)
        ker, im = exact.kernel_and_image(block, coeff)
        cols = [{at[i]: x for i, x in col.items()} for col in ker.column_entries]
        inf.append(ExactMatrix.from_sparse_columns(len(delta.edges_of_dim(n)), len(cols), cols, zero))
        hyper.append(at)
        images.append(im)
    return inf[:-1], list(zip(hyper, images[1:]))


def _sup_bases(images, coeff):
    """The bases of H_n ⊕ im M_{n+1}, merged by lead (the least key): the
    supports are disjoint, so the merge is already canonical."""
    one, zero = coeff.normalize(1), coeff.normalize(0)
    basis = []
    for at, im in images:
        cols = sorted([{i: one} for i in at] + list(im.column_entries), key=min)
        basis.append(ExactMatrix.from_sparse_columns(im.rows, len(cols), cols, zero))
    return basis


def inf_complex(h, coeff=Z, delta=None):
    """Largest sub-chain complex of C_*(ΔH) contained in the hyperedge modules.

    Degree n is the intersection of the degree-n hyperedge module H_n with
    the boundary preimage of H_{n-1}.  H_n is a coordinate submodule, so this
    is Inf_n = ker(π ∂_n|H_n), where π keeps only the (n-1)-cells of ΔH that
    are not hyperedges: the kernel half of _inf_and_images, with no merge.
    """
    if delta is None:
        delta = hypercore.delta_closure(h)
    return SubChainComplex(delta, coeff, _inf_and_images(h, delta, coeff)[0])


def sup_complex(h, coeff=Z, delta=None):
    """Smallest sub-chain complex of C_*(ΔH) containing the hyperedge modules.

    Degree n is H_n + ∂H_{n+1}.  H_n is a coordinate submodule, so this is
    Sup_n = H_n ⊕ π'∂_{n+1}(H_{n+1}), where π' keeps only the n-cells that
    are not hyperedges: the image of the block whose kernel is Inf_{n+1}.
    """
    if delta is None:
        delta = hypercore.delta_closure(h)
    images = _inf_and_images(h, delta, coeff)[1]
    return SubChainComplex(delta, coeff, _sup_bases(images, coeff))


@dataclass(frozen=True)
class HomologyResult:
    """Per-degree Betti number and torsion coefficients (empty over a field)."""

    coeff: CoeffSpec
    groups: tuple  # tuple of (betti, torsion-tuple), degree 0 upward

    @property
    def betti(self):
        return tuple(b for b, _ in self.groups)

    @property
    def torsion(self):
        return tuple(t for _, t in self.groups)

    def group(self, n):
        if 0 <= n < len(self.groups):
            return self.groups[n]
        return (0, ())


def subcomplex_homology(scc):
    """Homology of a sub-chain complex from its restricted boundary matrices,
    reduced as a chain complex: degrees run upward, and R_{n+1} is
    eliminated without the rows of the n-generators that took a unit pivot
    in R_n (algebraic discrete Morse theory: a pair of generators joined by
    a unit cancels without changing the homology, torsion included).

    The pivots of R_n pair a set A of n-generators with a set C of
    (n-1)-generators, and R_n[C, A] is unimodular: in the one pass each
    pivot row has only earlier pivot rows subtracted from it, so, in pivot
    order, R_n[C, A] is a unit triangular matrix times a triangular one
    with ±1 on the diagonal, and its determinant is ±1.  Let π forget the
    A-coordinates.
    - π is injective on ker R_n: R_n x = 0 with x zero off A gives
      R_n[C, A] x_A = 0, so x_A = 0.
    - L = π(ker R_n) is saturated: if k y = π(x) with x in ker R_n and y
      integral, let x' be y off A and, on A, the integral solution of
      R_n[C, A] x'_A = -R_n[C, ~A] y.  Then k x' = x (both solve the rows C
      for k y), so R_n x' = 0.
    As im R_{n+1} ⊂ ker R_n (∂∂ = 0), π maps ker R_n / im R_{n+1}
    isomorphically onto L / im(π R_{n+1}).  Both lattices are saturated, so
    these quotients carry the torsion of the cokernels of R_{n+1} and of the
    dropped matrix π R_{n+1}, whose ranks agree: the two have the same rank
    and Smith invariant factors, with no correction term.  Over a field the
    injectivity alone keeps the rank.  C lies among the rows R_n kept, so
    the argument holds although R_n lost the rows carried from below.

    The ∂∂ = 0 check multiplies the whole restricted boundaries.
    """
    coeff = scc.coeff
    top = scc.top
    ranks = [0] * (top + 2)
    torsions = [()] * (top + 2)
    carried = frozenset()
    for n in range(1, top + 1):
        mat = scc.restricted[n]
        if n >= 2 and not exact.matmul(scc.restricted[n - 1], mat, coeff).is_zero():
            raise MalformedSubcomplexError("restricted boundaries do not compose to zero")
        carried, factors = exact._reduce(mat, coeff, carried)
        ranks[n] = len(factors)
        if coeff.kind == "Z":
            torsions[n] = tuple(d for d in factors if d > 1)
    groups = []
    for n in range(top + 1):
        betti = scc.rank_at(n) - ranks[n] - ranks[n + 1]
        groups.append((betti, torsions[n + 1]))
    return HomologyResult(coeff, tuple(groups))


def _integral(coeff):
    """The ring embedded and simplicial homology over coeff are computed in:
    Z in place of Q, coeff itself otherwise."""
    return Z if coeff.kind == "Q" else coeff


def _over(coeff, res):
    """res, computed over _integral(coeff), as homology over coeff: over Q
    the torsion is dropped and the free ranks are the Betti numbers."""
    if res.coeff == coeff:
        return res
    return HomologyResult(coeff, tuple((betti, ()) for betti, _ in res.groups))


def simplicial_homology(k, coeff=Z):
    """Homology of a simplicial complex via its full chain complex.

    Over Q it is computed over Z.  C_*(K; Q) = C_*(K; Z) ⊗ Q, and Q is flat
    over Z, so H_n(K; Q) = H_n(K; Z) ⊗ Q: its dimension is the free rank of
    H_n(K; Z), and the torsion dies.  Z/p keeps its own rank computation:
    H_n(K; Z/p) is not H_n(K; Z) ⊗ Z/p, since p-torsion in degree n - 1
    adds classes (the Tor term of the universal coefficient theorem).
    """
    return _over(coeff, subcomplex_homology(full_complex(k, _integral(coeff))))


def embedded_homology(h, coeff=Z):
    """Embedded homology of a hypergraph: homology of the infimum complex,
    cross-checked against the supremum complex (they must agree).

    Over Q both complexes, the cross-check and the ∂∂=0 checks run over Z.
    Q is flat over Z, so kernels and images of integer maps commute with
    ⊗ Q: Inf_n(H; Q) = ker(π ∂_n|H_n) ⊗ Q = Inf_n(H; Z) ⊗ Q, and likewise
    Sup_n(H; Q) = Sup_n(H; Z) ⊗ Q.  Homology commutes with ⊗ Q as well, so
    the Betti numbers over Q are the free ranks over Z and the torsion
    dies.  Z/p is not flat: Inf_n(H; Z/p) = ker(π ∂_n|H_n mod p) is larger
    than Inf_n(H; Z) ⊗ Z/p when coker(π ∂_n|H_n) has p-torsion, so Z/p is
    computed over Z/p.
    """
    ring = _integral(coeff)
    delta = hypercore.delta_closure(h)
    inf, images = _inf_and_images(h, delta, ring)
    via_inf = subcomplex_homology(SubChainComplex(delta, ring, inf))
    del inf  # as with two calls, no infimum basis is held while Sup is built
    via_sup = subcomplex_homology(SubChainComplex(delta, ring, _sup_bases(images, ring)))
    if via_inf != via_sup:
        raise InternalConsistencyError(
            "infimum- and supremum-derived homology disagree: %r vs %r"
            % (via_inf, via_sup)
        )
    return _over(coeff, via_inf)


def projection(ambient_h, sub_h, chain):
    """Canonical projection of a hyperedge chain: keep coefficients of edges
    of the sub-hypergraph, kill the rest."""
    for e in chain:
        if not ambient_h.contains_edge(e):
            raise ValueError("chain references an edge outside the ambient: %r" % (e,))
    return {e: c for e, c in chain.items() if sub_h.contains_edge(e) and c}


# ---------------------------------------------------------------------------
# homology with explicit bases (field coefficients; feeds induced maps)


class HomologyBasis:
    """Deterministic homology representatives of a sub-chain complex over a
    field, with reduction of cycles to class coordinates.

    In each degree the representatives are the columns K_j of the canonical
    kernel basis K that raise the rank of the boundaries, taken greedily:
    those j at which no boundary's K-coordinates (its entries at K's RREF
    pivot rows) end.  Indexed from the last (k - 1 - j), the other j are the
    pivots of the canonical basis of those K-coordinates, whose rows reduce
    a solved cycle's K-coordinates to class coordinates.
    """

    def __init__(self, scc):
        if not scc.coeff.is_field:
            raise ValueError("homology bases require field coefficients")
        self.scc = scc
        self._reps, self._reduce = [], []
        for n in range(scc.top + 1):
            ker = exact.kernel_basis(scc.restricted[n], scc.coeff)
            cols, k = ker.column_entries, ker.cols
            at = {min(col): k - 1 - j for j, col in enumerate(cols)}  # K_j's pivot row -> k-1-j
            im = scc.restricted[n + 1].column_entries if n < scc.top else ()
            im = [{at[p]: x for p, x in col.items() if p in at} for col in im]
            ends = {}  # k-1-j -> the boundary basis row starting there
            if any(im):
                im = ExactMatrix.from_sparse_columns(k, len(im), im)
                ends = {min(r): r for r in exact.canonical_basis(im, scc.coeff).column_entries}
            chosen = [j for j in range(k) if k - 1 - j not in ends]
            reps = ExactMatrix.from_sparse_columns(ker.rows, len(chosen), [cols[j] for j in chosen])
            self._reps.append(exact.matmul(scc.basis[n], reps, scc.coeff).column_entries)
            self._reduce.append((at, ends, {k - 1 - j: i for i, j in enumerate(chosen)}))

    def betti(self, n):
        return len(self.representatives(n))

    def representatives(self, n):
        """Class representatives as {ambient cell index: value} dicts of
        their non-zeros, which must not be changed."""
        return self._reps[n] if 0 <= n < len(self._reps) else ()

    def coordinates(self, n, cycle):
        """Class coordinates {j: value} of an ambient degree-n cycle, given
        as a {cell index: value} dict.  InternalConsistencyError for a chain
        outside the cycles of the complex, such as any non-empty chain in a
        degree above its top."""
        scc = self.scc
        x = scc._solver(n).solve(cycle) if 0 <= n <= scc.top else None if cycle else {}
        if x:
            chain = ExactMatrix.from_sparse_columns(scc.rank_at(n), 1, [x])
            x = x if exact.matmul(scc.restricted[n], chain, scc.coeff).is_zero() else None
        if x is None:
            raise InternalConsistencyError("degree-%d chain is not a cycle of the complex" % n)
        if not x:
            return {}
        at, ends, index = self._reduce[n]
        c = {at[p]: y for p, y in x.items() if p in at}
        for r, row in ends.items():
            q = c.get(r)
            if q:
                for i, y in row.items():
                    c[i] = scc.coeff.normalize(c.get(i, 0) - q * y)
        return {index[r]: y for r, y in c.items() if r in index and y}


def induced_on_homology(src, dst, ambient_map=None, top=None):
    """Matrices of the map induced on homology by a chain map of ambients.

    src and dst are HomologyBasis objects; ambient_map gives per-degree
    matrices C_n(src ambient) -> C_n(dst ambient) (None means the identity,
    for inclusion-induced maps within one ambient complex).  Each image of a
    representative is reduced by one dst.coordinates solve, which raises
    InternalConsistencyError when it is not a cycle of the target.
    """
    coeff = src.scc.coeff
    if top is None:
        top = max(src.scc.top, dst.scc.top)
    zero = coeff.normalize(0)
    mats = []
    for n in range(top + 1):
        images = src.representatives(n)
        # representatives only exist up to the source top degree, where the
        # (padded) chain map always has a matrix
        if images and ambient_map is not None:
            reps = ExactMatrix.from_sparse_columns(ambient_map[n].cols, len(images), images)
            images = exact.matmul(ambient_map[n], reps, coeff).column_entries
        cols = [dst.coordinates(n, image) for image in images]
        mats.append(ExactMatrix.from_sparse_columns(dst.betti(n), len(cols), cols, zero))
    return mats
