import collections
import random
from fractions import Fraction

import pytest

from hypermorse.coeffs import Q, Z, prime_field
from hypermorse.errors import MorphismError
from hypermorse.exact import ExactMatrix, matmul
from hypermorse.hypercore import Hypergraph, delta_closure, is_simplicial, lower_complex
from hypermorse.morphisms import (
    HypergraphMorphism,
    chain_map,
    check_commuting_diagram,
    compose,
    induced_assoc_map,
    induced_homology_map,
    induced_lower_map,
    validate_morphism,
)

import generators


def _identity(h):
    return HypergraphMorphism(h, h, {v: v for v in h.vertex_set.names})


def _inclusion(small, big):
    return HypergraphMorphism(small, big, {v: v for v in small.vertex_set.names})


def test_validate_identity(h_section6):
    assert validate_morphism(_identity(h_section6)) == (True, None)


def test_validate_inclusion_226(h_226, hp_226):
    assert validate_morphism(_inclusion(h_226, hp_226)) == (True, None)


def test_validate_collapse_missing_target():
    src = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    dst = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    phi = HypergraphMorphism(src, dst, {"v0": "v0", "v1": "v0"})
    ok, bad = validate_morphism(phi)
    assert not ok and bad == (0, 1)


def test_morphism_requires_total_map(h_226):
    with pytest.raises(MorphismError):
        HypergraphMorphism(h_226, h_226, {"v0": "v0"})
    with pytest.raises(MorphismError):
        HypergraphMorphism(h_226, h_226, {"v0": "v0", "v1": "v1", "v2": "zz"})


def test_induced_maps_example_226(h_226, hp_226):
    phi = _inclusion(h_226, hp_226)
    assoc = induced_assoc_map(phi)
    assert set(assoc.source.edges) == set(delta_closure(h_226).edges)
    lower = induced_lower_map(phi)
    assert lower.source.edges == ()
    assert lower.target.edges == ()


def test_induced_map_collapse_to_point():
    src = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    dst = Hypergraph.from_labels(["u"], [["u"]])
    phi = HypergraphMorphism(src, dst, {"v0": "u", "v1": "u"})
    sm = induced_assoc_map(phi)
    assert sm.image_simplex((0, 1)) == (0,)
    assert sm.image_simplex((0,)) == (0,)


def test_chain_map_identity(h_section6):
    sm = induced_assoc_map(_identity(h_section6))
    mats = chain_map(sm, Q)
    for n, m in enumerate(mats):
        size = len(delta_closure(h_section6).edges_of_dim(n))
        assert m == ExactMatrix.identity(size)


def test_chain_map_collapse_kills_edge():
    src = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    dst = Hypergraph.from_labels(["u"], [["u"]])
    sm = induced_assoc_map(HypergraphMorphism(src, dst, {"v0": "u", "v1": "u"}))
    mats = chain_map(sm, Q)
    assert mats[1].is_zero()
    assert mats[0].data == ((1, 1),)


def test_chain_map_orientation_sign():
    # swapping the two vertices of an edge reverses orientation
    src = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    dst = Hypergraph.from_labels(["w0", "w1"], [["w0", "w1"]])
    phi = HypergraphMorphism(src, dst, {"v0": "w1", "v1": "w0"})
    sm = induced_assoc_map(phi)
    mats = chain_map(sm, Q)
    assert mats[1].data == ((-1,),)


def test_chain_map_commutes_with_boundary_random():
    rng = random.Random(70)
    for _ in range(40):
        source = generators.random_hypergraph(rng, 5, 8)
        vmap, target = generators.random_morphism(rng, source)
        phi = HypergraphMorphism(source, target, vmap)
        sm = induced_assoc_map(phi)
        chain_map(sm, Q)  # raises InternalConsistencyError on violation


def test_induced_homology_maps_example_226(h_226, hp_226):
    phi = _inclusion(h_226, hp_226)
    embedded = induced_homology_map(phi, "embedded", Q)
    # H0: 0 -> 0; H1: Q -> 0 (the zero map)
    assert embedded.matrices[0].rows == 0 and embedded.matrices[0].cols == 0
    assert embedded.matrices[1].rows == 0 and embedded.matrices[1].cols == 1
    assoc = induced_homology_map(phi, "assoc", Q)
    assert assoc.matrices[0].data == ((Fraction(1),),)
    assert assoc.matrices[1].rows == 0 and assoc.matrices[1].cols == 1
    lower = induced_homology_map(phi, "lower", Q)
    assert lower.matrices[0].rows == 0 and lower.matrices[0].cols == 0


def test_induced_homology_identity(h_section6):
    phi = _identity(h_section6)
    for which, betti in (("embedded", (2, 1, 0)), ("assoc", (1, 1, 0)), ("lower", (2, 1, 0))):
        hm = induced_homology_map(phi, which, Q)
        for n, m in enumerate(hm.matrices):
            assert m == ExactMatrix.identity(betti[n] if n < len(betti) else 0)


def test_induced_homology_rejects_integer_coefficients(h_226, hp_226):
    with pytest.raises(ValueError, match="^induced homology maps need field coefficients$"):
        induced_homology_map(_inclusion(h_226, hp_226), "embedded", Z)


def test_diagram_check_rejects_integer_coefficients(h_226, hp_226):
    with pytest.raises(ValueError, match="^the diagram check needs field coefficients$"):
        check_commuting_diagram(_inclusion(h_226, hp_226), Z)


def test_induced_homology_rejects_unknown_kind(h_226, hp_226):
    with pytest.raises(ValueError, match="unknown induced-map kind 'bogus'"):
        induced_homology_map(_inclusion(h_226, hp_226), "bogus", Q)


def test_non_morphism_rejected_by_induced_maps_and_diagram():
    # the field is checked first, then the morphism, then the kind
    src = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    dst = Hypergraph.from_labels(["u"], [])
    phi = HypergraphMorphism(src, dst, {"v0": "u", "v1": "u"})
    for which in ("lower", "embedded", "assoc", "bogus"):
        with pytest.raises(MorphismError, match="not a morphism"):
            induced_homology_map(phi, which, Q)
    with pytest.raises(MorphismError, match="not a morphism"):
        check_commuting_diagram(phi, prime_field(3))
    with pytest.raises(ValueError, match="field coefficients"):
        induced_homology_map(phi, "embedded", Z)
    with pytest.raises(ValueError, match="field coefficients"):
        check_commuting_diagram(phi, Z)


def test_induced_homology_prime_field(h_226, hp_226):
    phi = _inclusion(h_226, hp_226)
    hm = induced_homology_map(phi, "embedded", prime_field(5))
    assert hm.matrices[1].rows == 0 and hm.matrices[1].cols == 1


def test_check_commuting_diagram_example_226(h_226, hp_226):
    assert check_commuting_diagram(_inclusion(h_226, hp_226), Q) == (True, None)


def test_check_commuting_diagram_identity(h_section6):
    assert check_commuting_diagram(_identity(h_section6), Q) == (True, None)


def test_check_commuting_diagram_random():
    rng = random.Random(71)
    for _ in range(30):
        source = generators.random_hypergraph(rng, 5, 8)
        vmap, target = generators.random_morphism(rng, source)
        phi = HypergraphMorphism(source, target, vmap)
        assert check_commuting_diagram(phi, Q) == (True, None)


def test_functoriality_random():
    rng = random.Random(72)
    for _ in range(20):
        a = generators.random_hypergraph(rng, 4, 6)
        vmap1, b = generators.random_morphism(rng, a)
        phi = HypergraphMorphism(a, b, vmap1)
        vmap2, c = generators.random_morphism(rng, b)
        psi = HypergraphMorphism(b, c, vmap2)
        comp = compose(psi, phi)
        for which in ("embedded", "assoc", "lower"):
            m_phi = induced_homology_map(phi, which, Q).matrices
            m_psi = induced_homology_map(psi, which, Q).matrices
            m_comp = induced_homology_map(comp, which, Q).matrices
            for n in range(min(len(m_phi), len(m_psi), len(m_comp))):
                assert m_comp[n] == matmul(m_psi[n], m_phi[n], Q)


def test_simplicial_degeneration():
    # for simplicial source and target the three induced maps agree after
    # aligning bases through the (invertible) inclusion-induced maps
    rng = random.Random(73)
    checked = 0
    for _ in range(30):
        k = generators.random_simplicial_complex(rng, 5, 6)
        vmap, target_raw = generators.random_morphism(rng, k)
        target = delta_closure(target_raw)
        phi = HypergraphMorphism(k, target, vmap)
        assert is_simplicial(k) and is_simplicial(target)
        hm_low = induced_homology_map(phi, "lower", Q).matrices
        hm_emb = induced_homology_map(phi, "embedded", Q).matrices
        hm_ass = induced_homology_map(phi, "assoc", Q).matrices
        from hypermorse import chains

        def hb(h, kind):
            delta = delta_closure(h)
            if kind == "lower":
                return chains.HomologyBasis(
                    chains.coordinate_subcomplex(delta, lower_complex(h), Q)
                )
            if kind == "embedded":
                return chains.HomologyBasis(chains.inf_complex(h, Q, delta))
            return chains.HomologyBasis(chains.full_complex(delta, Q))

        top = max(delta_closure(k).max_dimension(), target.max_dimension(), -1)
        i_src_lo = chains.induced_on_homology(hb(k, "lower"), hb(k, "embedded"), None, top=top)
        i_src_hi = chains.induced_on_homology(hb(k, "embedded"), hb(k, "assoc"), None, top=top)
        i_dst_lo = chains.induced_on_homology(hb(target, "lower"), hb(target, "embedded"), None, top=top)
        i_dst_hi = chains.induced_on_homology(hb(target, "embedded"), hb(target, "assoc"), None, top=top)
        for n in range(top + 1):
            # inclusion-induced maps are isomorphisms here: square matrices
            assert i_src_lo[n].rows == i_src_lo[n].cols
            assert i_dst_hi[n].rows == i_dst_hi[n].cols
            assert matmul(i_dst_lo[n], hm_low[n], Q) == matmul(hm_emb[n], i_src_lo[n], Q)
            assert matmul(i_dst_hi[n], hm_emb[n], Q) == matmul(hm_ass[n], i_src_hi[n], Q)
        checked += 1
    assert checked == 30


def test_compose_mismatch_rejected(h_226, hp_226):
    phi = _inclusion(h_226, hp_226)
    other = Hypergraph.from_labels(["x"], [["x"]])
    psi = HypergraphMorphism(other, other, {"x": "x"})
    with pytest.raises(MorphismError):
        compose(psi, phi)


def _count_builds(monkeypatch):
    from hypermorse import chains, hypercore, morphisms

    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(hypercore, "delta_closure", counting("closure", hypercore.delta_closure))
    monkeypatch.setattr(morphisms, "chain_map", counting("chain_map", morphisms.chain_map))
    monkeypatch.setattr(
        chains.HomologyBasis, "__init__", counting("basis", chains.HomologyBasis.__init__)
    )
    return counts


def test_library_calls_on_one_morphism_share_its_objects(monkeypatch, h_226, hp_226):
    # the CLI's sequence, three maps and the diagram, from the library: the
    # assoc map and the diagram's objects are kept on phi
    counts = _count_builds(monkeypatch)
    phi = _inclusion(h_226, hp_226)
    for kind in ("lower", "embedded", "assoc"):
        induced_homology_map(phi, kind, Q)
    assert check_commuting_diagram(phi, Q) == (True, None)
    assert counts == {"closure": 2, "chain_map": 1, "basis": 6}
    # a second, equal morphism keeps its own set
    counts.clear()
    again = _inclusion(h_226, hp_226)
    for kind in ("lower", "embedded", "assoc"):
        induced_homology_map(again, kind, Q)
    assert check_commuting_diagram(again, Q) == (True, None)
    assert counts == {"closure": 2, "chain_map": 1, "basis": 6}
    # another field builds its own diagram on the kept assoc map
    counts.clear()
    assert check_commuting_diagram(phi, prime_field(3)) == (True, None)
    assert counts == {"chain_map": 1, "basis": 6}


def test_removed_morphism_hand_off_stays_removed():
    # handing one morphism's assoc map to another's diagram gave the swap's
    # -1 on H_1 for the identity; no call can hand it over now
    import inspect

    from hypermorse.morphisms import _InducedMaps

    assert list(inspect.signature(_InducedMaps).parameters) == ["phi", "coeff"]
    names = ["a", "b", "c"]
    hollow = Hypergraph.from_labels(names, [["a", "b"], ["b", "c"], ["a", "c"]])
    identity = _identity(hollow)
    swap = HypergraphMorphism(hollow, hollow, {"a": "b", "b": "a", "c": "c"})
    with pytest.raises(TypeError):
        _InducedMaps(identity, Q, induced_assoc_map(swap))
    for kind in ("embedded", "assoc"):
        assert induced_homology_map(swap, kind, Q).matrices[1].data == ((-1,),)
        assert induced_homology_map(identity, kind, Q).matrices[1].data == ((1,),)
    # the maps kept on phi stay true to its vertex map
    with pytest.raises(TypeError):
        identity.vertex_map["a"] = "b"


def test_library_names_the_offending_edge_by_its_labels():
    src = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    dst = Hypergraph.from_labels(["u"], [])
    phi = HypergraphMorphism(src, dst, {"v0": "u", "v1": "u"})
    for induced in (induced_assoc_map, induced_lower_map):
        with pytest.raises(MorphismError, match="^not a morphism: edge 'v0,v1' has no image$") as exc:
            induced(phi)
        assert exc.value.offending_edge == (0, 1)


def _refuse_dense(*args, **kwargs):
    raise AssertionError("the induced-map path builds no dense vector")


@pytest.mark.parametrize("coeff", [Q, prime_field(3)], ids=["Q", "Z3"])
def test_induced_maps_build_no_dense_vector(monkeypatch, coeff):
    from hypermorse import exact

    rng = random.Random(119)
    docs = [generators.quotient_morphism_document(rng, 7, 14, 2, 5) for _ in range(4)]
    docs += [generators.inclusion_morphism_document(rng, 7, 14, 2) for _ in range(4)]
    phis = []
    for doc in docs:
        source, target = (
            Hypergraph.from_labels(doc[side]["vertices"], doc[side]["hyperedges"])
            for side in ("source", "target")
        )
        phis.append(HypergraphMorphism(source, target, doc["map"]))
    monkeypatch.setattr(exact, "_dense", _refuse_dense)
    monkeypatch.setattr(exact, "matvec", _refuse_dense)
    classes = 0
    for phi in phis:
        for kind in ("lower", "embedded", "assoc"):
            hm = induced_homology_map(phi, kind, coeff)
            classes += sum(hm.betti_source())
        assert check_commuting_diagram(phi, coeff) == (True, None)
    assert classes


def test_induced_map_of_a_non_chain_map_is_refused(h_226):
    # on the hollow triangle, a degree-1 map keeping only v0v1 sends the
    # 1-cycle to v0v1, which is not a cycle; degree 0 is the identity
    from hypermorse import chains
    from hypermorse.errors import InternalConsistencyError

    delta = delta_closure(h_226)
    edges = delta.edges_of_dim(1)
    keep_01 = [{edges.index((0, 1)): 1} if e == (0, 1) else {} for e in edges]
    ambient_map = [ExactMatrix.identity(3), ExactMatrix.from_sparse_columns(3, 3, keep_01)]
    for scc in (chains.inf_complex(h_226, Q, delta), chains.full_complex(delta, Q)):
        hb = chains.HomologyBasis(scc)
        assert hb.betti(1) == 1
        with pytest.raises(InternalConsistencyError):
            chains.induced_on_homology(hb, hb, ambient_map)
