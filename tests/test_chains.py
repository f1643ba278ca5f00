import random

import pytest

from hypermorse import exact
from hypermorse.chains import (
    HomologyBasis,
    SubChainComplex,
    boundary_matrix,
    coordinate_subcomplex,
    edge_module_matrix,
    embedded_homology,
    full_complex,
    incidence,
    inf_complex,
    projection,
    simplicial_homology,
    subcomplex_homology,
    sup_complex,
)
from hypermorse.coeffs import Q, Z, prime_field
from hypermorse.errors import InternalConsistencyError, MalformedSubcomplexError
from hypermorse.exact import ExactMatrix, canonical_basis, matmul
from hypermorse.hypercore import Hypergraph, delta_closure, lower_complex

import generators
import oracles

Z7 = prime_field(7)


def test_incidence_signs():
    assert incidence((0, 1), (1,)) == 1
    assert incidence((0, 1), (0,)) == -1
    assert incidence((0, 1, 2), (0, 2)) == -1
    assert incidence((0, 1, 2), (1, 2)) == 1
    assert incidence((0, 1, 2), (0, 1)) == 1
    assert incidence((0, 1), (2,)) == 0
    assert incidence((0, 1, 2), (3, 4)) == 0
    assert incidence((0, 1), (0, 1)) == 0


def test_boundary_of_edge_and_triangle():
    k = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b", "c"]]))
    d1 = boundary_matrix(k, 1, Z)
    # columns: (0,1), (0,2), (1,2); rows: (0,), (1,), (2,)
    assert d1.column(0) == (-1, 1, 0)
    d2 = boundary_matrix(k, 2, Z)
    assert d2.column(0) == (1, -1, 1)
    assert matmul(d1, d2, Z).is_zero()


def test_boundary_squared_zero_tetrahedron(h_224):
    delta = delta_closure(h_224)
    for n in range(1, 4):
        a = boundary_matrix(delta, n, Z)
        b = boundary_matrix(delta, n + 1, Z)
        assert matmul(a, b, Z).is_zero()


def test_boundary_squared_zero_random():
    rng = random.Random(21)
    for _ in range(60):
        delta = delta_closure(generators.random_hypergraph(rng, 6, 10))
        for n in range(1, delta.max_dimension() + 1):
            a = boundary_matrix(delta, n, Z)
            b = boundary_matrix(delta, n + 1, Z)
            assert matmul(a, b, Z).is_zero()


def test_inf_sup_section6(h_section6):
    delta = delta_closure(h_section6)
    inf = inf_complex(h_section6, Z, delta)
    sup = sup_complex(h_section6, Z, delta)
    # degree 1 basis of C_1(delta): (0,1),(0,2),(0,3),(1,2),(1,3)
    assert inf.basis[0] == ExactMatrix.identity(4)
    assert inf.basis[1].columns() == [
        (1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1),
    ]
    assert inf.basis[2].cols == 0
    assert sup.basis[2].columns() == [(1,)]
    expected_sup1 = canonical_basis(
        ExactMatrix.from_columns(
            [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0, -1, 0, 1, 0)], 5
        ),
        Z,
    )
    assert sup.basis[1] == expected_sup1


def test_inf_sup_of_simplicial_complex_is_everything():
    k = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b", "c"]]))
    inf = inf_complex(k, Z)
    sup = sup_complex(k, Z)
    for n in range(k.max_dimension() + 1):
        size = len(k.edges_of_dim(n))
        assert canonical_basis(inf.basis[n], Z) == ExactMatrix.identity(size)
        assert canonical_basis(sup.basis[n], Z) == ExactMatrix.identity(size)


def test_inf_sup_lone_edge():
    h = Hypergraph.from_labels(["a", "b"], [["a", "b"]])
    inf = inf_complex(h, Z)
    sup = sup_complex(h, Z)
    assert inf.basis[1].cols == 0
    assert inf.basis[0].cols == 0
    # boundary image spans (b - a)
    assert sup.basis[0].columns() == [(-1, 1)] or sup.basis[0].columns() == [(1, -1)]
    assert sup.basis[1].cols == 1


def test_homology_hollow_triangle_and_tetrahedron(h_226, h_224):
    circle = delta_closure(h_226)
    res = simplicial_homology(circle, Z)
    assert res.betti == (1, 1)
    assert res.torsion == ((), ())
    solid = delta_closure(h_224)
    res = simplicial_homology(solid, Z)
    assert res.betti == (1, 0, 0, 0)


def test_embedded_homology_fixture_values(h_224, hp_224, h_225, hp_225, h_226, hp_226):
    assert embedded_homology(h_224, Z).betti == (1, 0, 0, 0)
    assert embedded_homology(hp_224, Z).betti == (1, 3, 0, 0)
    assert embedded_homology(h_225, Z).betti == (6, 0, 0)
    assert embedded_homology(hp_225, Z).betti == (6, 0, 0)
    assert embedded_homology(h_226, Z).betti == (0, 1)
    assert embedded_homology(hp_226, Z).betti == (0, 0, 0)


def test_embedded_homology_section6_all_coefficients(h_section6):
    for coeff in (Z, Q, Z7):
        assert embedded_homology(h_section6, coeff).betti == (2, 1, 0)


def test_inf_homology_section6(h_section6):
    res = subcomplex_homology(inf_complex(h_section6, Z))
    assert res.betti == (2, 1, 0)
    assert all(t == () for t in res.torsion)


def test_torsion_visible_in_quotient_complex():
    # span{b-a} in degree 0, span{2*edge} in degree 1: the restricted
    # boundary is multiplication by 2, so H_0 of the subcomplex is Z/2
    k = delta_closure(Hypergraph.from_labels(["a", "b"], [["a", "b"]]))
    diff = ExactMatrix.from_columns([(-1, 1)], 2)
    twice_edge = ExactMatrix.from_columns([(2,)], 1)
    from hypermorse.chains import SubChainComplex

    sub = SubChainComplex(k, Z, [diff, twice_edge])
    assert sub.restricted[1].data == ((2,),)
    res = subcomplex_homology(sub)
    assert res.groups[0] == (0, (2,))


def test_malformed_subcomplex_rejected():
    k = delta_closure(Hypergraph.from_labels(["a", "b"], [["a", "b"]]))
    from hypermorse.chains import SubChainComplex

    only_a = ExactMatrix.from_columns([(1, 0)], 2)
    edge = ExactMatrix.from_columns([(1,)], 1)
    with pytest.raises(MalformedSubcomplexError):
        SubChainComplex(k, Z, [only_a, edge])


def test_projection(h_section6):
    low = lower_complex(h_section6)
    delta = delta_closure(h_section6)
    chain = {(0, 1): 1, (0,): 2}
    assert projection(h_section6, h_section6, chain) == chain
    assert projection(delta, h_section6, {(0, 2): 1}) == {}
    assert projection(h_section6, low, {(0, 1): 1, (0,): 2}) == {(0, 1): 1, (0,): 2}
    assert projection(h_section6, low, {(0, 1, 2): 5, (0,): 2}) == {(0,): 2}
    with pytest.raises(ValueError):
        projection(low, low, {(0, 1, 2): 1})


def test_inclusion_chain_inf_inside_sup():
    rng = random.Random(33)
    for _ in range(40):
        h = generators.random_hypergraph(rng, 6, 10)
        delta = delta_closure(h)
        inf = inf_complex(h, Z, delta)
        sup = sup_complex(h, Z, delta)
        for n in range(delta.max_dimension() + 1):
            for j in range(inf.basis[n].cols):
                assert sup.contains(n, inf.basis[n].column(j))
            for j in range(sup.basis[n].cols):
                assert len(sup.basis[n].column(j)) == len(delta.edges_of_dim(n))


def test_contains_reads_sparse_chains_by_index():
    # the hollow triangle's closure, and its coordinate subcomplex without ab
    tri = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]))
    assert tri.edges_of_dim(1) == ((0, 1), (0, 2), (1, 2))
    sub = coordinate_subcomplex(tri, Hypergraph(tri.vertex_set, [(0,), (1,), (2,), (0, 2), (1, 2)]), Z)
    # e0 + e1 + e2 uses ab, in whatever order its entries come
    assert not sub.contains(1, {0: 1, 1: 1, 2: 1})
    assert not sub.contains(1, {2: 1, 1: 1, 0: 1})
    assert sub.contains(1, {2: 1, 1: -3})
    assert sub.contains(1, (0, 1, 2)) and not sub.contains(1, [1, 0, 0])
    # above the top degree only zero chains, dense or sparse, are members
    assert sub.contains(5, {1: 0}) and sub.contains(5, (0, 0))
    assert not sub.contains(5, {0: 1}) and not sub.contains(5, [0, 1])


def test_embedded_equals_simplicial_on_complexes():
    rng = random.Random(34)
    for _ in range(30):
        k = generators.random_simplicial_complex(rng, 6, 8)
        a = embedded_homology(k, Z)
        b = simplicial_homology(k, Z)
        assert a == b
        # the same complex given as a plain Hypergraph is converted first
        plain = Hypergraph(k.vertex_set, k.edges)
        assert type(plain) is Hypergraph
        for coeff in (Z, Q, Z7):
            via, direct = full_complex(plain, coeff), full_complex(k, coeff)
            assert via.ambient.edges == k.edges
            assert (via.basis, via.restricted) == (direct.basis, direct.restricted)
            assert simplicial_homology(plain, coeff) == simplicial_homology(k, coeff)
    hollow = Hypergraph.from_labels(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])
    for build in (full_complex, simplicial_homology):
        with pytest.raises(ValueError, match="not downward closed"):
            build(hollow, Z)


def test_euler_characteristic_matches_betti_over_field():
    rng = random.Random(35)
    for _ in range(30):
        h = generators.random_hypergraph(rng, 6, 10)
        inf = inf_complex(h, Q)
        res = subcomplex_homology(inf)
        chi_chain = sum((-1) ** n * inf.rank_at(n) for n in range(inf.top + 1))
        chi_homology = sum((-1) ** n * b for n, b in enumerate(res.betti))
        assert chi_chain == chi_homology


def test_homology_basis_reduction_roundtrip(h_section6):
    inf = inf_complex(h_section6, Q)
    hb = HomologyBasis(inf)
    assert [hb.betti(n) for n in range(3)] == [2, 1, 0]
    for n in range(3):
        for j, rep in enumerate(hb.representatives(n)):
            assert hb.coordinates(n, rep) == {j: 1}
    # every boundary reduces to zero, and a cycle plus a boundary to the
    # coordinates of the cycle
    for n in (1, 2):
        images = matmul(boundary_matrix(inf.ambient, n, Q), inf.basis[n], Q).column_entries
        for image in images:
            assert hb.coordinates(n - 1, image) == {}
        if n == 1:
            boundary = images[0]
    assert boundary
    first, second = hb.representatives(0)
    cells = set(first) | set(second) | set(boundary)
    chain = {i: first.get(i, 0) - 2 * second.get(i, 0) + boundary.get(i, 0) for i in cells}
    assert hb.coordinates(0, chain) == {0: 1, 1: -2}


def test_homology_basis_refuses_chains_outside_the_cycles(h_section6):
    inf = inf_complex(h_section6, Q)
    hb = HomologyBasis(inf)
    edges = inf.ambient.edges_of_dim(1)
    # v0v1 lies in Inf_1 but is not a cycle; v0v2 is not in Inf_1 at all
    for chain in ({edges.index((0, 1)): 1}, {edges.index((0, 2)): 1}):
        with pytest.raises(InternalConsistencyError):
            hb.coordinates(1, chain)
    # above the top degree only the empty chain is a cycle
    assert hb.coordinates(3, {}) == {}
    with pytest.raises(InternalConsistencyError):
        hb.coordinates(3, {0: 1})


def test_coordinate_subcomplex_lower(h_section6):
    # the same complex computed in two ambients agrees degree by degree
    # (the larger ambient reports extra trailing zero degrees)
    delta = delta_closure(h_section6)
    low = lower_complex(h_section6)
    res = subcomplex_homology(coordinate_subcomplex(delta, low, Z))
    direct = simplicial_homology(low, Z)
    for n in range(max(len(res.groups), len(direct.groups))):
        assert res.group(n) == direct.group(n)


def test_coordinate_subcomplex_refuses_a_sub_outside_the_ambient():
    # the filled triangle is not a subcomplex of the hollow one: dropping
    # its 2-cell would report (1, 1) for its homology, (1, 0, 0)
    filled = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b", "c"]]))
    hollow = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]]))
    assert subcomplex_homology(coordinate_subcomplex(filled, filled, Z)).betti == (1, 0, 0)
    with pytest.raises(ValueError, match="not a subcomplex"):
        coordinate_subcomplex(hollow, filled, Z)
    # a sub on another vertex set
    bigger = delta_closure(Hypergraph.from_labels(["a", "b", "c", "d"], [["c", "d"]]))
    with pytest.raises(ValueError, match="vertex set"):
        coordinate_subcomplex(hollow, bigger, Z)
    assert subcomplex_homology(coordinate_subcomplex(filled, hollow, Z)).betti == (1, 1, 0)


def test_edge_module_matrix(h_section6):
    delta = delta_closure(h_section6)
    m = edge_module_matrix(h_section6, delta, 1)
    assert m.cols == 3
    assert m.rows == 5


RP2_TRIANGLES = [
    [0, 1, 4],
    [0, 1, 5],
    [0, 2, 3],
    [0, 2, 5],
    [0, 3, 4],
    [1, 2, 3],
    [1, 2, 4],
    [1, 3, 5],
    [2, 4, 5],
    [3, 4, 5],
]


def _rp2_hypergraph():
    labels = ["v%d" % i for i in range(6)]
    return Hypergraph.from_labels(labels, [[labels[i] for i in t] for t in RP2_TRIANGLES])


def test_projective_plane_torsion():
    k = delta_closure(_rp2_hypergraph())
    res = simplicial_homology(k, Z)
    assert res.betti == (1, 0, 0)
    assert res.torsion == ((), (2,), ())
    assert embedded_homology(k, Z) == res
    # mod 2 the torsion class becomes a Betti number in two degrees
    from hypermorse.coeffs import prime_field

    assert simplicial_homology(k, prime_field(2)).betti == (1, 1, 1)
    assert simplicial_homology(k, Q).betti == (1, 0, 0)


def test_embedded_cross_check_on_torsion_carrying_hypergraphs():
    # deleting cells from a torsion-carrying complex still keeps the
    # infimum- and supremum-derived homologies equal (checked internally)
    rng = random.Random(88)
    full = delta_closure(_rp2_hypergraph())
    for _ in range(15):
        kept = [e for e in full.edges if len(e) == 3 or rng.random() < 0.75]
        h = Hypergraph(full.vertex_set, kept)
        embedded_homology(h, Z)


def test_embedded_betti_over_q_equal_free_rank_over_z():
    # Inf over Z is a free sub-complex, and H(C ⊗ Q) = H(C) ⊗ Q for free C;
    # embedded_homology(h, Q) is computed over Z, so the Q side is the oracle
    # that builds Inf and Sup over Q
    rng = random.Random(91)
    for _ in range(300):
        h = generators.random_hypergraph(rng, 7, 14)
        over_q = oracles.embedded_homology_q_oracle(h)
        assert over_q.betti == embedded_homology(h, Z).betti
        assert embedded_homology(h, Q) == over_q


def _moore_hypergraph():
    doc = generators.mod3_moore_document()
    return Hypergraph.from_labels(doc["vertices"], doc["hyperedges"])


def test_rational_homology_matches_q_built_oracle():
    # embedded and simplicial homology over Q come from the integer lattice;
    # the oracle reduces complexes built over Q.  RP^2 and the mod-3 Moore
    # space carry Z/2 and Z/3 torsion, which must vanish over Q: as full
    # complexes (embedded, assoc and lower all see it) and as triangles only
    rng = random.Random(94)
    cases = [generators.random_hypergraph(rng, 7, 14) for _ in range(300)]
    for h, torsion in ((_rp2_hypergraph(), (2,)), (_moore_hypergraph(), (3,))):
        k = delta_closure(h)
        assert simplicial_homology(k, Z).groups == ((1, ()), (0, torsion), (0, ()))
        assert embedded_homology(k, Z) == simplicial_homology(lower_complex(k), Z)
        cases += [k, h]
    for h in cases:
        delta, lower = delta_closure(h), lower_complex(h)
        for got, want in (
            (embedded_homology(h, Q), oracles.embedded_homology_q_oracle(h)),
            (simplicial_homology(delta, Q), oracles.simplicial_homology_q_oracle(delta)),
            (simplicial_homology(lower, Q), oracles.simplicial_homology_q_oracle(lower)),
        ):
            assert got == want and got.coeff == Q
            assert all(type(b) is int for b in got.betti)
            assert not any(got.torsion)


def _universal_coefficient_betti(over_z, p):
    """dim H_n(K; Z/p) = b_n + #(p | t in T_n) + #(p | t in T_{n-1}) for the
    integral groups (b_n, T_n) of K."""
    out = []
    for n, (betti, torsion) in enumerate(over_z.groups):
        below = over_z.group(n - 1)[1] if n else ()
        out.append(betti + sum(t % p == 0 for t in torsion) + sum(t % p == 0 for t in below))
    return tuple(out)


def test_simplicial_homology_mod_p_follows_universal_coefficients():
    # RP^2 carries Z/2 torsion in degree 1: mod 2 it adds a class in degrees
    # 1 and 2, mod 3 it vanishes; the random complexes are mostly torsion-free
    rng = random.Random(92)
    rp2 = delta_closure(_rp2_hypergraph())
    # RP^2 less one triangle is a Möbius band: no torsion left
    mobius = Hypergraph(rp2.vertex_set, [e for e in rp2.edges if e != (0, 1, 4)])
    complexes = [rp2, delta_closure(mobius)]
    complexes += [generators.random_simplicial_complex(rng, 7, 12) for _ in range(40)]
    for k in complexes:
        over_z = simplicial_homology(k, Z)
        for p in (2, 3):
            assert simplicial_homology(k, prime_field(p)).betti == _universal_coefficient_betti(
                over_z, p
            )
    assert _universal_coefficient_betti(simplicial_homology(rp2, Z), 2) == (1, 1, 1)
    assert _universal_coefficient_betti(simplicial_homology(rp2, Z), 3) == (1, 0, 0)
    assert simplicial_homology(delta_closure(mobius), Z).groups == ((1, ()), (1, ()), (0, ()))


def test_preimage_of_edge_module_section6(h_section6):
    # within the degree-2 hyperedge module, nothing has a boundary landing in
    # the degree-1 hyperedge module
    from hypermorse.exact import module_intersection, preimage_module

    delta = delta_closure(h_section6)
    bnd = boundary_matrix(delta, 2, Z)
    pre = preimage_module(bnd, edge_module_matrix(h_section6, delta, 1), Z)
    inside = module_intersection(edge_module_matrix(h_section6, delta, 2), pre, Z)
    assert inside.cols == 0


# ---------------------------------------------------------------------------
# the direct inf/sup formulas against general module algebra


@pytest.mark.parametrize("coeff", [Z, Q, prime_field(3)], ids=["Z", "Q", "Z3"])
def test_inf_sup_match_module_algebra_oracle(coeff):
    rng = random.Random(101)
    for _ in range(40):
        h = generators.random_hypergraph(rng, 7, 16)
        delta = delta_closure(h)
        for build, oracle in (
            (inf_complex, oracles.inf_complex_oracle),
            (sup_complex, oracles.sup_complex_oracle),
        ):
            got = build(h, coeff, delta)
            want = oracle(h, coeff, delta)
            for n in range(delta.max_dimension() + 1):
                assert got.basis[n] == want.basis[n]
                assert got.restricted[n] == want.restricted[n]


@pytest.mark.parametrize("coeff", [Q, prime_field(3)], ids=["Q", "Z3"])
def test_homology_basis_is_greedy_choice(coeff):
    rng = random.Random(102)
    for _ in range(30):
        h = generators.random_hypergraph(rng, 7, 16)
        delta = delta_closure(h)
        complexes = (
            inf_complex(h, coeff, delta),
            sup_complex(h, coeff, delta),
            full_complex(delta, coeff),
            coordinate_subcomplex(delta, lower_complex(h), coeff),
        )
        for scc in complexes:
            hb = HomologyBasis(scc)
            for n in range(scc.top + 1):
                # the oracle's internal vectors in the ambient basis, as
                # sparse columns; the degree basis is injective
                want = [
                    {i: x for i, x in enumerate(scc.to_ambient(n, rep)) if x}
                    for rep in oracles.greedy_homology_representatives(scc, n)
                ]
                reps = hb.representatives(n)
                assert list(reps) == want
                # a seeded combination of the classes plus a seeded boundary
                # reduces to the combination's coefficients
                coords = [coeff.normalize(rng.randint(-2, 2)) for _ in reps]
                terms = list(zip(coords, reps))
                if n < scc.top:
                    bnd = boundary_matrix(delta, n + 1, coeff)
                    images = matmul(bnd, scc.basis[n + 1], coeff).column_entries
                    terms += [(rng.randint(-2, 2), image) for image in images]
                chain = {}
                for c, column in terms:
                    for i, x in column.items():
                        chain[i] = coeff.normalize(chain.get(i, 0) + c * x)
                chain = {i: x for i, x in chain.items() if x}
                assert hb.coordinates(n, chain) == {j: c for j, c in enumerate(coords) if c}


def test_homology_basis_builds_no_solver_of_its_own(monkeypatch, h_section6):
    scc = inf_complex(h_section6, Q)
    built = []
    init = exact.ColumnSolver.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(exact.ColumnSolver, "__init__", counting)
    hb = HomologyBasis(scc)
    for n in range(scc.top + 1):
        assert hb.coordinates(n, {}) == {}
        for j, rep in enumerate(hb.representatives(n)):
            assert hb.coordinates(n, rep) == {j: 1}
    # only the complex's own solver in its top degree, built on first use
    assert len(built) <= 1


def _refuse(*args, **kwargs):
    raise AssertionError("general module algebra or rank is off the hot path")


def test_hot_paths_avoid_module_algebra_and_rank(monkeypatch, h_section6, hp_224):
    for name in ("preimage_module", "module_intersection", "module_sum"):
        monkeypatch.setattr(exact, name, _refuse)
    for coeff in (Z, Q, Z7):
        assert embedded_homology(h_section6, coeff).betti == (2, 1, 0)
        assert embedded_homology(hp_224, coeff).betti == (1, 3, 0, 0)
    monkeypatch.setattr(exact, "rank", _refuse)
    for coeff in (Q, Z7):
        hb = HomologyBasis(inf_complex(h_section6, coeff))
        assert [hb.betti(n) for n in range(3)] == [2, 1, 0]


# ---------------------------------------------------------------------------
# integer homology on the sparse unit-pivot Smith diagonal


def _simplex(k):
    labels = ["v%d" % i for i in range(k + 1)]
    return delta_closure(Hypergraph.from_labels(labels, [labels]))


def test_snf_diagonal_on_simplex_and_rp2_boundaries():
    complexes = [_simplex(k) for k in range(8)] + [delta_closure(_rp2_hypergraph())]
    for k in complexes:
        for n in range(1, k.max_dimension() + 1):
            bnd = boundary_matrix(k, n, Z)
            assert exact.snf_diagonal(bnd) == oracles.snf_diagonal_oracle(bnd)


def test_unimodular_boundaries_never_reach_kernel_snf(monkeypatch):
    from hypermorse import _kernel

    def refuse(mat):
        raise AssertionError("the kernel SNF ran on a unimodular boundary")

    monkeypatch.setattr(_kernel, "snf_decompose", refuse)
    res = simplicial_homology(_simplex(8), Z)
    assert res.betti == (1,) + (0,) * 8
    assert not any(res.torsion)


def test_full_simplices_leave_no_smith_residual(monkeypatch):
    # every row of a full simplex's boundaries takes a unit pivot in the one
    # pass, both as a hypergraph and as a simplicial complex
    from hypermorse import _kernel

    calls = []
    snf = _kernel.snf_decompose

    def counting(rows):
        calls.append(len(rows))
        return snf(rows)

    monkeypatch.setattr(_kernel, "snf_decompose", counting)
    for k in range(9):
        acyclic = ((1, ()),) + ((0, ()),) * k
        assert embedded_homology(_simplex(k), Z).groups == acyclic
        assert simplicial_homology(_simplex(k), Z).groups == acyclic
    assert calls == []


# ---------------------------------------------------------------------------
# homology by reducing the chain complex: unit pivots carried upward


def _rp2_beside_suspended_rp2():
    """RP^2 beside the suspension of a second RP^2 (its triangles coned to n
    and to s): H_0 = Z^2, H_1 = Z/2 from the first, H_2 = Z/2 from the
    second."""
    labels = ["v%d" % i for i in range(6)] + ["w%d" % i for i in range(6)] + ["n", "s"]
    edges = [["v%d" % i for i in t] for t in RP2_TRIANGLES]
    for apex in ("n", "s"):
        edges += [["w%d" % i for i in t] + [apex] for t in RP2_TRIANGLES]
    return Hypergraph.from_labels(labels, edges)


def test_carried_reduction_matches_per_degree_oracle(monkeypatch):
    # the library drops each degree's pivot rows from the next boundary; the
    # oracle eliminates every restricted boundary alone
    carried = []
    reduce = exact._reduce

    def counting(m, coeff, drop=frozenset()):
        carried.append(len(drop))
        return reduce(m, coeff, drop)

    monkeypatch.setattr(exact, "_reduce", counting)
    twice = _rp2_beside_suspended_rp2()
    assert simplicial_homology(delta_closure(twice), Z).groups == (
        (2, ()),
        (0, (2,)),
        (0, (2,)),
        (0, ()),
    )
    rng = random.Random(424)
    hypergraphs = [generators.random_hypergraph(rng) for _ in range(300)]
    hypergraphs += [_rp2_hypergraph(), _moore_hypergraph(), twice]
    closed = [_simplex(k) for k in range(9)] + [delta_closure(h) for h in hypergraphs[-3:]]
    torsion = 0
    for coeff in (Z, prime_field(2), prime_field(3), Q):
        # over Q every complex here is built over Q, as a caller would
        complexes = [full_complex(k, coeff) for k in closed]
        for h in hypergraphs:
            delta = delta_closure(h)
            complexes += [inf_complex(h, coeff, delta), sup_complex(h, coeff, delta)]
        for scc in complexes:
            got = subcomplex_homology(scc)
            assert got == oracles.per_degree_homology_oracle(scc)
            torsion += any(got.torsion)
    assert torsion >= 3
    assert sum(map(bool, carried)) > 1000


def test_dd_check_multiplies_the_rows_the_carry_drops():
    # R_1 R_2 != 0 only through edge v0v1, which the degree-1 elimination
    # pivots on (every cost ties at 1, and ties go to the lowest row): the
    # carry drops its row from R_2, leaving a zero matrix, but the ∂∂ = 0
    # check multiplies the whole R_1 and R_2
    k = _simplex(2)
    r1 = boundary_matrix(k, 1, Z)
    assert 0 in exact._reduce(r1, Z)[0]
    scc = object.__new__(SubChainComplex)
    scc.ambient = k
    scc.coeff = Z
    scc.basis = tuple(ExactMatrix.identity(len(k.edges_of_dim(n))) for n in range(3))
    scc.restricted = (ExactMatrix.zeros(0, 3), r1, ExactMatrix.from_sparse_columns(3, 1, [{0: 1}]))
    scc._solvers = [None] * 3
    with pytest.raises(MalformedSubcomplexError):
        subcomplex_homology(scc)


def _assert_snf_oracle_homology(h):
    delta = delta_closure(h)
    want = oracles.snf_homology_oracle(inf_complex(h, Z, delta))
    assert oracles.snf_homology_oracle(sup_complex(h, Z, delta)) == want
    assert embedded_homology(h, Z).groups == want


def test_embedded_homology_matches_snf_oracle_on_random_hypergraphs():
    rng = random.Random(406)
    for _ in range(40):
        _assert_snf_oracle_homology(generators.random_hypergraph(rng, 7, 16))


def test_embedded_homology_matches_snf_oracle_on_rp2_deletions():
    # the same deletions as test_embedded_cross_check_on_torsion_carrying_hypergraphs
    rng = random.Random(88)
    full = delta_closure(_rp2_hypergraph())
    for _ in range(15):
        kept = [e for e in full.edges if len(e) == 3 or rng.random() < 0.75]
        h = Hypergraph(full.vertex_set, kept)
        _assert_snf_oracle_homology(h)
        # every triangle is kept, and with them the Z/2 torsion in degree 1
        assert embedded_homology(h, Z).torsion[1] == (2,)


# ---------------------------------------------------------------------------
# the homology path on the non-zeros, with each boundary matrix built once


def test_embedded_homology_builds_no_dense_matrix(monkeypatch):
    rng = random.Random(410)
    hypergraphs = [_simplex(6)] + [generators.random_hypergraph(rng, 7, 16) for _ in range(30)]
    rings = (Z, Q, prime_field(3))
    want = [[embedded_homology(h, coeff) for coeff in rings] for h in hypergraphs]

    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was built on the homology path")

    # every dense view and the dense constructor
    monkeypatch.setattr(exact, "_dense", refuse)
    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    with pytest.raises(AssertionError, match="dense matrix"):
        ExactMatrix.identity(2).data
    for h, results in zip(hypergraphs, want):
        assert [embedded_homology(h, coeff) for coeff in rings] == results


def test_homology_path_builds_no_transpose(monkeypatch):
    # every matrix on the homology path is built and read as columns
    rng = random.Random(413)
    hypergraphs = [_simplex(4)] + [generators.random_hypergraph(rng, 7, 16) for _ in range(20)]
    rings = (Z, Q, prime_field(3))

    def results():
        out = []
        for h, coeff in ((h, coeff) for h in hypergraphs for coeff in rings):
            delta = delta_closure(h)
            out.append(embedded_homology(h, coeff))
            out.append(simplicial_homology(delta, coeff))
            out.append(subcomplex_homology(inf_complex(h, coeff, delta)))
            out.append(subcomplex_homology(sup_complex(h, coeff, delta)))
        return out

    want = results()

    def refuse(self):
        raise AssertionError("a transpose was built on the homology path")

    monkeypatch.setattr(ExactMatrix, "transpose", refuse)
    assert results() == want


def test_embedded_homology_builds_each_boundary_once(monkeypatch, h_section6, hp_224):
    from hypermorse import chains

    calls = []
    build = chains.boundary_matrix

    def counting(k, n, coeff):
        calls.append(n)
        return build(k, n, coeff)

    monkeypatch.setattr(chains, "boundary_matrix", counting)
    rng = random.Random(411)
    for h in [h_section6, hp_224, _simplex(5)] + [generators.random_hypergraph(rng, 7, 16) for _ in range(10)]:
        calls.clear()
        embedded_homology(h, Z)
        assert sorted(calls) == list(range(1, delta_closure(h).max_dimension() + 1))


@pytest.mark.parametrize("coeff", [Z, Q, prime_field(3)], ids=["Z", "Q", "Z3"])
def test_each_pi_block_is_eliminated_once(monkeypatch, coeff, h_section6, hp_224):
    # Inf_n = ker M_n and Sup_{n-1} = H_{n-1} ⊕ im M_n come from one
    # elimination of each block M_n, n = 0 … top+1; inf_complex alone
    # merges no supremum basis
    from hypermorse import chains

    blocks = []
    cut = chains._pi_block

    def counting(h, delta, n, ring):
        blocks.append(n)
        return cut(h, delta, n, ring)

    def refuse(*args):
        raise AssertionError("a block was eliminated twice")

    monkeypatch.setattr(chains, "_pi_block", counting)
    monkeypatch.setattr(exact, "canonical_basis", refuse)
    rng = random.Random(432)
    hs = [h_section6, hp_224] + [generators.random_hypergraph(rng, 7, 16) for _ in range(10)]
    for h in hs:
        blocks.clear()
        embedded_homology(h, coeff)
        assert sorted(blocks) == list(range(delta_closure(h).max_dimension() + 2))
    monkeypatch.setattr(chains, "_sup_bases", refuse)
    for h in hs:
        blocks.clear()
        inf_complex(h, coeff)
        assert sorted(blocks) == list(range(delta_closure(h).max_dimension() + 2))


def test_boundaries_are_kept_on_the_complex_per_ring(monkeypatch, h_section6):
    from hypermorse import chains

    calls = []
    build = chains.boundary_matrix

    def counting(k, n, coeff):
        calls.append((n, coeff))
        return build(k, n, coeff)

    monkeypatch.setattr(chains, "boundary_matrix", counting)
    delta = delta_closure(h_section6)
    first = inf_complex(h_section6, Z, delta)
    assert sorted(calls) == [(1, Z), (2, Z)]
    calls.clear()
    again = inf_complex(h_section6, Z, delta)
    assert calls == [] and again.restricted == first.restricted
    sup_complex(h_section6, Z, delta)
    assert calls == []
    # another ring builds its own ∂, and embedded_homology keeps nothing on
    # the hypergraph it is given: its ΔH is built per call
    inf_complex(h_section6, Q, delta)
    assert sorted(calls) == [(1, Q), (2, Q)]
    assert embedded_homology(h_section6, Z) == subcomplex_homology(first)
    assert h_section6._memo == {}


def test_derived_data_is_no_parameter():
    # boundary matrices and the Morse scan are kept on the objects they come
    # from, so no signature hands them over
    import inspect

    from hypermorse import chains, morphisms, morse

    for fn, name in (
        (chains.SubChainComplex, "_boundaries"),
        (chains.full_complex, "_boundaries"),
        (chains.coordinate_subcomplex, "_boundaries"),
        (chains.inf_complex, "_boundaries"),
        (chains.sup_complex, "_boundaries"),
        (morphisms.chain_map, "_boundaries"),
        (morse.search_extension, "_obstruction"),
    ):
        assert name not in inspect.signature(fn).parameters, fn.__name__


# ---------------------------------------------------------------------------
# restricted boundaries read off ∂'s columns and the unit basis columns,
# against the product-and-solve path


@pytest.mark.parametrize("coeff", [Z, Q, prime_field(3)], ids=["Z", "Q", "Z3"])
def test_restricted_boundaries_match_product_and_solve_oracle(coeff):
    from hypermorse.chains import full_complex

    rng = random.Random(412)
    hypergraphs = [generators.random_hypergraph(rng, 7, 16) for _ in range(12)]
    for h in hypergraphs + [_simplex(k) for k in (4, 5, 6)]:
        delta = delta_closure(h)
        complexes = (
            inf_complex(h, coeff, delta),
            sup_complex(h, coeff, delta),
            full_complex(delta, coeff),
            coordinate_subcomplex(delta, lower_complex(h), coeff),
        )
        for scc in complexes:
            assert scc.restricted == oracles.restricted_boundaries_oracle(scc)


def test_unit_columns_save_the_products_and_solves(monkeypatch):
    # on Δ^6 every π-block is empty and every basis column is a unit: the
    # only products left are the ∂∂=0 checks, 5 per sub-chain complex, and
    # no basis is factored with a transform
    from hypermorse import _kernel

    calls = {"matmul": 0, "hnf_rows_with_transform": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(exact, "matmul")
    counting(_kernel, "hnf_rows_with_transform")
    k = _simplex(6)
    assert embedded_homology(k, Z).betti == (1,) + (0,) * 6
    assert calls == {"matmul": 10, "hnf_rows_with_transform": 0}
    calls.update(matmul=0)
    assert simplicial_homology(k, Z).betti == (1,) + (0,) * 6
    assert calls == {"matmul": 5, "hnf_rows_with_transform": 0}


def _four_complexes(h, coeff):
    delta = delta_closure(h)
    return (
        inf_complex(h, coeff, delta),
        sup_complex(h, coeff, delta),
        full_complex(delta, coeff),
        coordinate_subcomplex(delta, lower_complex(h), coeff),
    )


@pytest.mark.parametrize("coeff", [Z, Q, prime_field(3)], ids=["Z", "Q", "Z3"])
def test_chain_layer_bases_are_solved_as_they_stand(monkeypatch, coeff):
    # every basis the chain layer builds has distinct leading rows, so its
    # ColumnSolver factors nothing; each column solves to its unit vector
    def refuse(*args):
        raise AssertionError("a chain-layer basis was factored")

    rng = random.Random(416)
    hypergraphs = [generators.random_hypergraph(rng, 7, 16) for _ in range(12)]
    one = coeff.normalize(1)
    for h in hypergraphs + [_simplex(k) for k in (4, 5, 6)]:
        complexes = _four_complexes(h, coeff)
        with monkeypatch.context() as patch:
            patch.setattr(exact, "_factor", refuse)
            for scc in complexes:
                for n in range(scc.top + 1):
                    solver = exact.ColumnSolver(scc.basis[n], coeff)
                    for j, col in enumerate(scc.basis[n].column_entries):
                        assert solver.solve(col) == {j: one}


@pytest.mark.parametrize("coeff", [Z, Q, prime_field(3)], ids=["Z", "Q", "Z3"])
def test_bases_hold_the_scalars_of_their_ring_only(coeff):
    # Q results hold Fractions only, their zeros included; Z and Z/p hold ints
    want = {type(coeff.normalize(0))}
    rng = random.Random(417)
    for h in [generators.random_hypergraph(rng, 7, 16) for _ in range(12)] + [_simplex(3)]:
        for scc in _four_complexes(h, coeff):
            for n in range(scc.top + 1):
                for m in (scc.basis[n], scc.restricted[n]):
                    assert {type(x) for row in m.data for x in row} <= want
