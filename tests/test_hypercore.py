import itertools
import json
import random
import time

import pytest

from hypermorse import hypercore
from hypermorse.errors import SizeCapExceeded
from hypermorse.hypercore import (
    DuplicateEdgeWarning,
    Hypergraph,
    SimplicialComplex,
    VertexSet,
    delta_closure,
    dimension,
    is_simplicial,
    is_subhypergraph,
    lower_complex,
    power_complex,
)

import generators
import oracles


V4 = VertexSet(["v0", "v1", "v2", "v3"])


def test_dimension():
    assert dimension((0,)) == 0
    assert dimension((0, 1, 2, 3)) == 3
    assert dimension((0, 2)) == 1


def test_power_complex_small():
    assert power_complex(V4, (0,)).edges == ((0,),)
    assert power_complex(V4, (0, 1)).edges == ((0,), (1,), (0, 1))


def test_power_complex_matches_bitmask_enumeration():
    edge = (0, 1, 2)
    got = set(power_complex(V4, edge).edges)
    expected = set()
    for mask in range(1, 8):
        expected.add(tuple(edge[i] for i in range(3) if mask >> i & 1))
    assert got == expected
    assert len(got) == 7


def test_power_complex_count():
    rng = random.Random(7)
    for _ in range(40):
        nv = rng.randint(1, 6)
        vs = VertexSet(["v%d" % i for i in range(nv)])
        edge = tuple(sorted(rng.sample(range(nv), rng.randint(1, nv))))
        assert len(power_complex(vs, edge)) == 2 ** len(edge) - 1


def test_delta_closure_tetrahedron(h_224):
    delta = delta_closure(h_224)
    assert len(delta) == 15
    assert isinstance(delta, SimplicialComplex)


def test_delta_closure_fixed_point():
    k = Hypergraph.from_labels(["a", "b"], [["a"], ["b"], ["a", "b"]])
    assert delta_closure(k).edges == k.edges
    assert lower_complex(k).edges == k.edges


def test_delta_closure_hollow_triangle(h_226):
    delta = delta_closure(h_226)
    assert delta.edges == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2))
    assert lower_complex(h_226).edges == ()


def test_lower_complex_224(h_224, hp_224):
    assert lower_complex(h_224).edges == ((0,),)
    assert lower_complex(hp_224).edges == ((0,),)


def test_is_simplicial(h_section6):
    assert is_simplicial(Hypergraph.from_labels(["a", "b"], [["a"], ["b"], ["a", "b"]]))
    assert not is_simplicial(Hypergraph.from_labels(["a", "b"], [["a", "b"]]))
    assert not is_simplicial(h_section6)


def test_is_subhypergraph(h_section6):
    low = lower_complex(h_section6)
    assert is_subhypergraph(low, h_section6)
    a = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"]])
    b = Hypergraph.from_labels(["v0", "v1"], [["v0", "v1"], ["v0"]])
    assert is_subhypergraph(a, b)
    c = Hypergraph.from_labels(["v0", "v1", "v2"], [["v0", "v2"]])
    d = Hypergraph.from_labels(["v0", "v1", "v2"], [["v0", "v1"]])
    assert not is_subhypergraph(c, d)
    # an inner hypergraph on other labels is matched label by label, not by
    # vertex index: {a, c} is no edge, though its indices (0, 1) are those of
    # {a, b}
    outer = Hypergraph.from_labels(["a", "b", "c"], [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"]])
    assert is_subhypergraph(Hypergraph.from_labels(["c", "b"], [["b", "c"], ["c"]]), outer)
    assert not is_subhypergraph(Hypergraph.from_labels(["a", "c"], [["a", "c"]]), outer)


def test_is_subhypergraph_unknown_label():
    a = Hypergraph.from_labels(["x"], [["x"]])
    b = Hypergraph.from_labels(["y"], [["y"]])
    with pytest.raises(ValueError):
        is_subhypergraph(a, b)


def test_closures_idempotent_and_sandwich():
    rng = random.Random(11)
    for _ in range(120):
        h = generators.random_hypergraph(rng, max_vertices=6, max_edges=10)
        delta = delta_closure(h)
        low = lower_complex(h)
        assert set(low.edges) <= set(h.edges) <= set(delta.edges)
        assert delta_closure(delta).edges == delta.edges
        assert lower_complex(low).edges == low.edges
        simp = is_simplicial(h)
        assert (low.edges == h.edges) == simp
        assert (delta.edges == h.edges) == simp


def test_monotonicity_against_subset_oracle():
    rng = random.Random(13)
    for _ in range(120):
        big = generators.random_hypergraph(rng, max_vertices=5, max_edges=10)
        small = generators.random_subhypergraph(rng, big)
        assert set(delta_closure(small).edges) <= set(delta_closure(big).edges)
        assert set(lower_complex(small).edges) <= set(lower_complex(big).edges)
        assert set(delta_closure(big).edges) == oracles.delta_closure_oracle(big)
        assert set(lower_complex(big).edges) == oracles.lower_complex_oracle(big)


def test_duplicate_edges_merged_with_warning():
    with pytest.warns(DuplicateEdgeWarning):
        h = Hypergraph.from_labels(["a", "b"], [["a", "b"], ["b", "a"]])
    assert h.edges == ((0, 1),)


def test_empty_hypergraph_legal():
    h = Hypergraph.from_labels(["a", "b"], [])
    assert h.is_empty()
    assert delta_closure(h).edges == ()
    assert lower_complex(h).edges == ()
    assert is_simplicial(h)


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        Hypergraph(V4, [()])
    with pytest.raises(ValueError):
        Hypergraph(V4, [(1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(V4, [(0, 9)])
    with pytest.raises(ValueError):
        VertexSet(["a", "a"])


def test_serialization_deterministic(h_section6):
    a = h_section6.canonical_json()
    b = Hypergraph.from_labels(
        ["v0", "v1", "v2", "v3"],
        [["v0", "v1", "v2"], ["v1", "v3"], ["v0", "v3"], ["v0", "v1"], ["v3"], ["v2"], ["v1"], ["v0"]],
    ).canonical_json()
    assert a == b
    doc = json.loads(a)
    assert doc["hyperedges"][0] == ["v0"]


def test_vertex_order_is_declaration_order():
    h = Hypergraph.from_labels(["z", "a"], [["z", "a"]])
    assert h.edges == ((0, 1),)
    assert h.edge_labels((0, 1)) == ("z", "a")
    assert h.edge_key((0, 1)) == "z,a"


def test_closure_fast_path_matches_validated_complex():
    k = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b", "c"]]))
    assert delta_closure(k) is k
    rng = random.Random(17)
    for _ in range(120):
        h = generators.random_hypergraph(rng, max_vertices=6, max_edges=12)
        for fast in (delta_closure(h), lower_complex(h)):
            assert isinstance(fast, SimplicialComplex)
            checked = SimplicialComplex(h.vertex_set, fast.edges)
            assert fast == checked and fast.edges == checked.edges
            for n in range(-1, 7):
                assert fast.edges_of_dim(n) == checked.edges_of_dim(n)
            assert fast.max_dimension() == checked.max_dimension()
            for e in oracles.powerset_nonempty(tuple(range(len(h.vertex_set)))):
                assert fast.contains_edge(e) == checked.contains_edge(e)


def test_closures_match_subset_enumeration():
    rng = random.Random(19)
    cases = [generators.random_hypergraph(rng, max_vertices=7, max_edges=14) for _ in range(150)]
    cases.append(Hypergraph(VertexSet(["a", "b"]), []))
    for k in range(9):
        labels = ["v%d" % i for i in range(k + 1)]
        cases.append(Hypergraph.from_labels(labels, [labels]))
    for h in cases:
        for fast, slow in (
            (delta_closure(h), oracles.delta_closure_subsets_oracle(h)),
            (lower_complex(h), oracles.lower_complex_subsets_oracle(h)),
        ):
            assert isinstance(fast, SimplicialComplex)
            assert fast.vertex_set == slow.vertex_set and fast.edges == slow.edges
            for n in range(-1, 10):
                assert fast.edges_of_dim(n) == tuple(e for e in slow.edges if len(e) == n + 1)
    assert len(delta_closure(cases[-1]).edges) == 2**9 - 1


def test_closure_check_matches_subset_oracle():
    # random hypergraphs, their closures, and closures less one random cell
    rng = random.Random(23)
    cases = []
    for _ in range(200):
        h = generators.random_hypergraph(rng, max_vertices=7, max_edges=14)
        closed = delta_closure(h)
        cases += [h, closed]
        if closed.edges:
            drop = rng.choice(closed.edges)
            cases.append(Hypergraph(h.vertex_set, [e for e in closed.edges if e != drop]))
    outcomes = set()
    for h in cases:
        expected = oracles.closure_error_oracle(h)
        assert is_simplicial(h) == (expected is None)
        if expected is None:
            assert SimplicialComplex(h.vertex_set, h.edges).edges == h.edges
        else:
            with pytest.raises(ValueError) as exc:
                SimplicialComplex(h.vertex_set, h.edges)
            assert str(exc.value) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_unclosed_edge_names_its_missing_face_without_listing_its_subsets():
    # the 2^40 - 1 subsets of the edge are searched lazily, by size and then
    # in lexicographic order, so the first one missing is found at once
    vs = VertexSet(["v%d" % i for i in range(40)])
    with pytest.raises(ValueError, match=r"misses face \(0,\)$"):
        SimplicialComplex(vs, [tuple(range(40))])


def _refuse_trusted(monkeypatch):
    def refuse(*args):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(SimplicialComplex, "_trusted", classmethod(refuse))


def test_one_huge_hyperedge_is_refused_before_any_closure(monkeypatch):
    _refuse_trusted(monkeypatch)
    vs = VertexSet(["v%d" % i for i in range(30)])
    edge = tuple(range(30))
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded, match="30-vertex hyperedge"):
        delta_closure(Hypergraph(vs, [edge, (0, 1)]))
    with pytest.raises(SizeCapExceeded):
        power_complex(vs, edge)
    assert time.perf_counter() - start < 0.1


def test_closure_cap_counts_the_faces_of_one_edge(monkeypatch):
    # only the largest edge is read: the 9 cells of two edges pass a cap of 7
    monkeypatch.setattr(hypercore, "MAX_CLOSURE_CELLS", 7)
    assert len(delta_closure(Hypergraph(V4, [(0, 1, 2), (1, 3)]))) == 9
    assert len(power_complex(V4, (0, 1, 2))) == 7
    with pytest.raises(SizeCapExceeded):
        delta_closure(Hypergraph(V4, [(0, 1, 2, 3)]))
    with pytest.raises(SizeCapExceeded):
        power_complex(V4, (0, 1, 2, 3))


def test_power_complex_builds_through_the_closure(monkeypatch):
    # a power set is closed by construction, so no closure check runs on it
    def refuse(h):
        raise AssertionError("the closure of a power set was checked")

    monkeypatch.setattr(hypercore, "_first_unclosed", refuse)
    for edge in [(0, 1, 2, 3), (1, 3), (2,)]:
        got = power_complex(V4, edge)
        assert isinstance(got, SimplicialComplex)
        assert got.edges == tuple(c for k in range(1, 5) for c in itertools.combinations(edge, k))


def test_unhashable_label_is_unknown():
    vs = VertexSet(["a", "b"])
    assert ["a"] not in vs and {"a": 1} not in vs and "a" in vs
    with pytest.raises(ValueError, match="unknown vertex label"):
        vs.index(["a"])
    with pytest.raises(ValueError, match=r"unknown vertex label \['a'\]"):
        Hypergraph.from_labels(["a"], [[["a"]]])


def test_edge_key_joins_labels_in_vertex_order():
    h = Hypergraph.from_labels(["z", "a,b", ""], [["z", "", "a,b"], [""]])
    assert [h.edge_key(e) for e in h.edges] == ["", "z,a,b,"]
    assert all(h.edge_key(e) == ",".join(h.edge_labels(e)) for e in h.edges)
