import random
import re
from fractions import Fraction

import pytest

from hypermorse import morse
from hypermorse.coeffs import Z
from hypermorse.errors import NotMorseError, SizeCapExceeded
from hypermorse.exact import ExactMatrix, matmul
from hypermorse.hypercore import Hypergraph, delta_closure, lower_complex
from hypermorse.morse import (
    GradientField,
    MorseFunction,
    apply_linear_map,
    critical_discrepancy,
    critical_set,
    critical_via_gradient,
    dim_function,
    extend_gradient,
    extension_obstruction,
    gradient,
    is_acyclic,
    is_morse,
    is_proper,
    is_semi_proper,
    linear_map,
    restrict,
    satisfies_condition_C,
    search_extension,
)

import generators
import oracles


def _f(h, assignments):
    return MorseFunction(h, {e: Fraction(v) for e, v in assignments.items()})


# ---------------------------------------------------------------------------
# is_morse


def test_is_morse_example_311(f_311):
    ok, violations = is_morse(f_311)
    assert ok and violations == ()


def test_dim_function_always_morse_every_edge_critical(h_section6, h_224):
    for h in (h_section6, h_224, delta_closure(h_224)):
        f = dim_function(h)
        assert is_morse(f)[0]
        assert critical_set(f).critical == h.edges
        assert gradient(f).pairs == ()
        assert critical_via_gradient(f) == h.edges


def test_is_morse_two_low_cofaces_rejected():
    h = Hypergraph.from_labels(["v0", "v1", "v2"], [["v0"], ["v0", "v1"], ["v0", "v2"]])
    f = _f(h, {(0,): 5, (0, 1): 0, (0, 2): 0})
    ok, violations = is_morse(f)
    assert not ok
    assert violations[0].alpha == (0,)
    assert violations[0].kind == "low_cofaces"
    assert violations[0].witnesses == ((0, 1), (0, 2))


def test_is_morse_counts_match_oracle_on_random_values():
    rng = random.Random(50)
    for _ in range(80):
        h = generators.random_hypergraph(rng, 5, 8)
        values = {e: Fraction(rng.randint(0, 4)) for e in h.edges}
        f = MorseFunction(h, values)
        ok, violations = is_morse(f)
        flagged = {(v.alpha, v.kind) for v in violations}
        for alpha in h.edges:
            low, high = oracles.morse_counts_oracle(f, alpha)
            assert ((alpha, "low_cofaces") in flagged) == (low > 1)
            assert ((alpha, "high_faces") in flagged) == (high > 1)


# ---------------------------------------------------------------------------
# critical sets


def test_critical_set_example_315(f_315):
    report = critical_set(f_315)
    assert report.critical == f_315.host.edges
    assert report.witnesses == {}


def test_critical_set_example_311_empty(f_311):
    assert critical_set(f_311).critical == ()
    w = critical_set(f_311).witnesses
    assert w[(0, 1)]["low_cofaces"] == ((0, 1, 2),)
    assert w[(0, 1)]["high_faces"] == ((0,),)


def test_critical_set_requires_morse():
    h = Hypergraph.from_labels(["v0", "v1", "v2"], [["v0"], ["v0", "v1"], ["v0", "v2"]])
    f = _f(h, {(0,): 5, (0, 1): 0, (0, 2): 0})
    with pytest.raises(NotMorseError):
        critical_set(f)


def test_section6_critical_sets(fbar_section6, h_section6):
    assert critical_set(fbar_section6).critical == (
        (1,),
        (2,),
        (3,),
        (0, 3),
        (1, 2),
        (1, 3),
    )
    f = restrict(fbar_section6, h_section6)
    assert critical_set(f).critical == ((1,), (2,), (3,), (0, 3), (1, 3), (0, 1, 2))


# ---------------------------------------------------------------------------
# restriction


def test_restrict_identity(fbar_section6):
    assert restrict(fbar_section6, fbar_section6.host) == fbar_section6


def test_restrict_section6_chain(fbar_section6, h_section6):
    f = restrict(fbar_section6, h_section6)
    assert f.values[(0,)] == 1
    assert (0, 2) not in f.values
    low = lower_complex(h_section6)
    f_low = restrict(f, low)
    assert f_low.values[(0,)] == 1
    assert [f_low.values[(i,)] for i in range(4)] == [1, 0, 0, 0]
    assert is_morse(f_low)[0]


def test_restriction_of_morse_is_morse_random():
    rng = random.Random(51)
    for _ in range(60):
        h = generators.random_hypergraph(rng, 6, 12)
        f = generators.random_morse_function(rng, h)
        sub = generators.random_subhypergraph(rng, h)
        assert is_morse(restrict(f, sub))[0]


def test_critical_monotonicity_random():
    rng = random.Random(52)
    for _ in range(60):
        h = generators.random_hypergraph(rng, 6, 12)
        f = generators.random_morse_function(rng, h)
        sub = generators.random_subhypergraph(rng, h)
        m_big = set(critical_set(f).critical)
        m_small = set(critical_set(restrict(f, sub)).critical)
        assert m_big & set(sub.edges) <= m_small


# ---------------------------------------------------------------------------
# gradient fields and the induced linear map


def test_gradient_section6(fbar_section6, h_section6):
    vbar = gradient(fbar_section6)
    assert vbar.pairs == (((0,), (0, 1)), ((0, 2), (0, 1, 2)))
    f = restrict(fbar_section6, h_section6)
    assert gradient(f).pairs == (((0,), (0, 1)),)
    f_low = restrict(f, lower_complex(h_section6))
    assert gradient(f_low).pairs == (((0,), (0, 1)),)


def test_gradient_of_dim_function_empty(h_section6):
    assert gradient(dim_function(h_section6)).pairs == ()


def test_gradient_example_411_composition(f_311):
    v = gradient(f_311)
    assert v.pairs == (((0,), (0, 1)), ((0, 1), (0, 1, 2)))
    glm = linear_map(v, Z)
    once = apply_linear_map(glm, {(0,): 1})
    assert once == {(0, 1): 1}
    twice = apply_linear_map(glm, once)
    assert twice == {(0, 1, 2): -1}
    assert not glm.square_is_zero()


def test_linear_map_empty_field(h_section6):
    glm = linear_map(GradientField(h_section6, []), Z)
    assert all(m.is_zero() for m in glm.matrices)


def test_linear_map_section6_sign(fbar_section6):
    glm = linear_map(gradient(fbar_section6), Z)
    assert apply_linear_map(glm, {(0, 2): 1}) == {(0, 1, 2): 1}


def test_linear_map_sums_multiple_pairs():
    h = Hypergraph.from_labels(["v0", "v1", "v2"], [["v0"], ["v0", "v1"], ["v0", "v2"]])
    v = GradientField(h, [((0,), (0, 1)), ((0,), (0, 2))])
    glm = linear_map(v, Z)
    assert apply_linear_map(glm, {(0,): 1}) == {(0, 1): 1, (0, 2): 1}
    # an edge above the host's top dimension, or any other edge outside the
    # host, is refused by name
    for outside in ((0, 1, 2), (1,)):
        with pytest.raises(ValueError, match="outside the host: %s" % re.escape(repr(outside))):
            apply_linear_map(glm, {(0,): 1, outside: 1})


def test_is_proper(fbar_section6, f_311):
    assert is_proper(gradient(fbar_section6))
    assert not is_proper(gradient(f_311))
    assert is_proper(GradientField(f_311.host, []))


def test_is_semi_proper(fbar_section6, f_311):
    assert is_semi_proper(gradient(fbar_section6))
    assert not is_semi_proper(gradient(f_311))
    assert is_semi_proper(GradientField(f_311.host, []))


def test_semi_proper_iff_squared_zero_random():
    rng = random.Random(53)
    seen_improper = 0
    for _ in range(120):
        h = generators.random_hypergraph(rng, 6, 12)
        v = generators.random_gradient_field(rng, h)
        assert is_acyclic(v)[0]
        semi = is_semi_proper(v)
        assert semi == linear_map(v, Z).square_is_zero()
        if not semi:
            seen_improper += 1
    assert seen_improper > 5


def test_is_acyclic_gradients_and_triangle(f_311, fbar_section6):
    assert is_acyclic(gradient(f_311))[0]
    assert is_acyclic(gradient(fbar_section6))[0]
    tri = Hypergraph.from_labels(
        ["v0", "v1", "v2"],
        [["v0"], ["v1"], ["v2"], ["v0", "v1"], ["v1", "v2"], ["v0", "v2"]],
    )
    pairs = [
        ((0,), (0, 1)),
        ((1,), (0, 1)),
        ((1,), (1, 2)),
        ((2,), (1, 2)),
        ((2,), (0, 2)),
        ((0,), (0, 2)),
    ]
    ok, witness = is_acyclic(GradientField(tri, pairs))
    assert not ok
    assert witness == ((0,), (0, 1), (1,), (0, 1), (0,))
    # witness steps satisfy the closed-path conditions
    pair_set = set(pairs)
    for i in range(0, len(witness) - 2, 2):
        a, b, a2 = witness[i], witness[i + 1], witness[i + 2]
        assert (a, b) in pair_set and (a2, b) in pair_set and a != a2
    assert witness[0] == witness[-1]


def test_is_acyclic_matches_path_enumeration_oracle():
    rng = random.Random(54)
    disagreements = 0
    for _ in range(100):
        h = generators.random_hypergraph(rng, 5, 10)
        v = generators.random_gradient_field(rng, h, pair_chance=0.5, allow_cycles=True)
        ok, witness = is_acyclic(v)
        assert ok == (not oracles.closed_vpath_exists_oracle(v.pairs))
        if not ok:
            disagreements += 1
            pair_set = set(v.pairs)
            for i in range(0, len(witness) - 2, 2):
                a, b, a2 = witness[i], witness[i + 1], witness[i + 2]
                assert (a, b) in pair_set and (a2, b) in pair_set and a != a2
    assert disagreements > 3


def test_gradient_of_random_morse_is_acyclic_and_unit_columns():
    rng = random.Random(55)
    for _ in range(60):
        h = generators.random_hypergraph(rng, 6, 12)
        f = generators.random_morse_function(rng, h)
        v = gradient(f)
        assert is_acyclic(v)[0]


# ---------------------------------------------------------------------------
# condition (C)


def test_condition_c_examples(f_311, f_315):
    ok, witness = satisfies_condition_C(f_311.host)
    assert not ok and witness == ((0,), (0, 1), (0, 1, 2))
    ok, witness = satisfies_condition_C(f_315.host)
    assert not ok and witness == ((0,), (0, 1), (0, 1, 2))


def test_condition_c_simplicial_always_true():
    rng = random.Random(56)
    for _ in range(40):
        k = generators.random_simplicial_complex(rng, 6, 8)
        assert satisfies_condition_C(k)[0]


def test_condition_c_mutual_exclusion_random():
    rng = random.Random(57)
    checked = 0
    for _ in range(200):
        h = generators.random_hypergraph(rng, 6, 12)
        if not satisfies_condition_C(h)[0]:
            continue
        f = generators.random_morse_function(rng, h)
        checked += 1
        assert extension_obstruction(f) == ()
        v = gradient(f)
        assert is_proper(v)
        assert linear_map(v, Z).square_is_zero()
        assert critical_via_gradient(f) == critical_set(f).critical
    assert checked > 50


# ---------------------------------------------------------------------------
# extension analysis


def test_one_scan_is_kept_on_a_read_only_function(monkeypatch, f_315):
    scans = []
    scan = morse._scan

    def counting(f):
        scans.append(f)
        return scan(f)

    monkeypatch.setattr(morse, "_scan", counting)
    for analysis in (is_morse, critical_set, gradient, extension_obstruction, search_extension):
        analysis(f_315)
    assert scans == [f_315]
    # a changed value would leave the kept scan stale, so none can change
    with pytest.raises(TypeError):
        f_315.values[(0,)] = Fraction(5)


def test_obstruction_examples(f_311, f_315, h_section6):
    assert extension_obstruction(f_311) == ((0, 1),)
    assert extension_obstruction(f_315) == ()
    assert extension_obstruction(dim_function(h_section6)) == ()


def test_search_extension_obstructed_and_unobstructed(f_311, f_315):
    assert search_extension(f_311) is None
    assert search_extension(f_315) is None


def test_search_extension_grid_is_a_lower_bound():
    h = Hypergraph.from_labels(["a", "b"], [["a", "b"]])
    f = MorseFunction(h, {(0, 1): Fraction(0)})
    for grid in (0, 1, None):
        ext = search_extension(f, grid_levels=grid)
        assert ext is not None
        assert ext.values[(0,)] < 0 and ext.values[(1,)] < 0


def test_search_extension_simplicial_returns_same_values():
    k = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b", "c"]]))
    f = dim_function(k)
    ext = search_extension(f)
    assert ext is not None
    assert ext.values == f.values


def test_search_extension_finds_known_extension(fbar_section6, h_section6):
    f = restrict(fbar_section6, h_section6)
    ext = search_extension(f)
    assert ext is not None
    assert ext.host == delta_closure(h_section6)
    assert is_morse(ext)[0]
    for e in h_section6.edges:
        assert ext.values[e] == f.values[e]


def test_search_extension_size_cap():
    h = Hypergraph.from_labels(
        ["a", "b", "c", "d", "e"], [["a", "b", "c", "d", "e"]]
    )
    f = dim_function(h)
    with pytest.raises(SizeCapExceeded):
        search_extension(f)  # 29 unknown cells
    with pytest.raises(SizeCapExceeded):
        search_extension(f, max_unknowns=10)


def test_search_extension_completeness_random():
    # whenever the search fails, the obstruction analysis must already rule
    # out half the cases; and whenever it succeeds the result restricts back
    rng = random.Random(58)
    found = 0
    for _ in range(40):
        h = generators.random_hypergraph(rng, 5, 6, dim_weights=(40, 40, 20))
        f = generators.random_morse_function(rng, h)
        delta = delta_closure(h)
        if len(delta.edges) - len(h.edges) > 4:
            continue
        ext = search_extension(f)
        if ext is not None:
            found += 1
            assert is_morse(ext)[0]
            for e in h.edges:
                assert ext.values[e] == f.values[e]
    assert found > 5


def test_search_extension_none_at_once_on_an_obstruction(f_311, f_315, monkeypatch):
    class LevelSearchRan(Exception):
        pass

    def no_levels(*args):
        raise LevelSearchRan

    monkeypatch.setattr(morse, "_candidate_levels", no_levels)
    assert extension_obstruction(f_311) != ()
    assert search_extension(f_311) is None
    # the size cap still comes first
    with pytest.raises(SizeCapExceeded):
        search_extension(f_311, max_unknowns=0)
    # an unobstructed function still needs the search
    assert extension_obstruction(f_315) == ()
    with pytest.raises(LevelSearchRan):
        search_extension(f_315)


# ---------------------------------------------------------------------------
# the integer-key Morse layer against the Fraction-comparing oracles

DENOMINATORS = (1, 2, 3, 7)


def _fractional(rng, f):
    """f with its distinct values sent to rationals of denominators 1, 2, 3
    and 7 by a random increasing map, which keeps every comparison and tie."""
    new = {}
    level = Fraction(rng.randint(-5, 5), rng.choice(DENOMINATORS))
    for v in sorted(set(f.values.values())):
        new[v] = level
        level += Fraction(rng.randint(1, 4), rng.choice(DENOMINATORS))
    return MorseFunction(f.host, {e: new[v] for e, v in f.values.items()})


def _oracle_draws(seed, count, max_vertices, max_edges):
    """Morse functions with fractional values and ties, and arbitrary value
    tables (mostly not Morse) on the same seeded hypergraphs."""
    rng = random.Random(seed)
    for _ in range(count):
        h = generators.random_hypergraph(rng, max_vertices, max_edges)
        yield _fractional(rng, generators.random_morse_function(rng, h))
        yield MorseFunction(
            h, {e: Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS)) for e in h.edges}
        )


def test_morse_layer_matches_fraction_oracles():
    morse_count = rejected = 0
    for f in _oracle_draws(71, 150, 7, 16):
        ok, violations = is_morse(f)
        assert (ok, violations) == oracles.is_morse_oracle(f)
        if not ok:
            rejected += 1
            for analysis in (critical_set, gradient, extension_obstruction, search_extension):
                with pytest.raises(NotMorseError):
                    analysis(f)
            continue
        morse_count += 1
        assert critical_set(f) == oracles.critical_set_oracle(f)
        assert gradient(f) == oracles.gradient_oracle(f)
        assert extension_obstruction(f) == oracles.extension_obstruction_oracle(f)
    assert morse_count > 150 and rejected > 20


def test_search_extension_matches_grid_oracle():
    verdicts = {"extended": 0, "obstructed": 0, "searched": 0}
    # draws with an unknown that is a face of another: the search meets that
    # pair only when it places the second of them
    nested = 0
    for f in _oracle_draws(73, 300, 4, 10):
        if not is_morse(f)[0]:
            continue
        unknowns = [e for e in delta_closure(f.host).edges if not f.host.contains_edge(e)]
        if not 0 < len(unknowns) <= 4:
            continue
        nested += any(
            len(b) == len(g) + 1 and set(g) < set(b) for g in unknowns for b in unknowns
        )
        for grid in (None, 0, 1, 3):
            expected = oracles.search_extension_oracle(f, grid_levels=grid)
            ext = search_extension(f, grid_levels=grid)
            if expected is None:
                assert ext is None
                verdicts["obstructed" if extension_obstruction(f) else "searched"] += 1
            else:
                assert ext is not None
                assert sorted(ext.values) == sorted(expected)
                for e, v in expected.items():
                    assert ext.values[e] == v
                verdicts["extended"] += 1
    assert verdicts["extended"] > 200 and verdicts["obstructed"] > 0 and verdicts["searched"] > 10
    assert nested > 0


# ---------------------------------------------------------------------------
# critical sets via the gradient, discrepancy classification


def test_critical_via_gradient_matches_definition(fbar_section6, h_section6, f_311):
    f = restrict(fbar_section6, h_section6)
    assert critical_via_gradient(f) == critical_set(f).critical
    assert critical_via_gradient(f_311) == critical_set(f_311).critical == ()


def test_critical_via_gradient_random():
    rng = random.Random(59)
    for _ in range(60):
        h = generators.random_hypergraph(rng, 6, 12)
        f = generators.random_morse_function(rng, h)
        assert critical_via_gradient(f) == critical_set(f).critical


def test_discrepancy_section6(fbar_section6, h_section6):
    assert critical_discrepancy(fbar_section6, h_section6) == (((0, 1, 2), "iii"),)


def test_discrepancy_dim_function(h_section6):
    fbar = dim_function(delta_closure(h_section6))
    assert critical_discrepancy(fbar, h_section6) == ()


def test_discrepancy_simplicial_empty():
    k = delta_closure(Hypergraph.from_labels(["a", "b", "c"], [["a", "b", "c"]]))
    rng = random.Random(60)
    f = generators.random_morse_function(rng, k)
    assert critical_discrepancy(f, k) == ()


def test_discrepancy_rejects_wrong_host(fbar_section6, h_section6):
    bigger = Hypergraph.from_labels(
        ["v0", "v1", "v2", "v3"],
        [list(h_section6.edge_labels(e)) for e in delta_closure(h_section6).edges]
        + [["v2", "v3"]],
    )
    values = dict(fbar_section6.values)
    values[(2, 3)] = Fraction(9)
    f_big = MorseFunction(
        Hypergraph(h_section6.vertex_set, list(fbar_section6.host.edges) + [(2, 3)]), values
    )
    with pytest.raises(ValueError):
        critical_discrepancy(f_big, h_section6)


def test_discrepancy_checks_the_host_without_a_closure(monkeypatch):
    # the dimension function on the filled triangle does not live on ΔH of
    # {a, b, ab}; no parameter hands the check a complex to compare with
    import inspect

    from hypermorse import hypercore

    assert "_delta" not in inspect.signature(critical_discrepancy).parameters
    assert "_critical" not in inspect.signature(critical_discrepancy).parameters
    names = ["a", "b", "c"]
    h = Hypergraph.from_labels(names, [["a"], ["b"], ["a", "b"]])
    triangle = dim_function(delta_closure(Hypergraph.from_labels(names, [["a", "b", "c"]])))
    on_delta = dim_function(delta_closure(h))

    def refuse(*args):
        raise AssertionError("the host check built a closure")

    monkeypatch.setattr(hypercore, "delta_closure", refuse)
    with pytest.raises(ValueError, match="exactly the associated complex"):
        critical_discrepancy(triangle, h)
    assert critical_discrepancy(on_delta, h) == ()
    # ΔH as a plain hypergraph is the same host
    plain = MorseFunction(Hypergraph(h.vertex_set, on_delta.host.edges), on_delta.values)
    assert critical_discrepancy(plain, h) == ()
    wrong_hosts = [
        # other vertex labels
        Hypergraph.from_labels(["a", "b"], [["a"], ["b"], ["a", "b"]]),
        # not downward closed
        Hypergraph.from_labels(names, [["a"], ["a", "b"]]),
        # closed, but missing the edge c of h + c
        Hypergraph.from_labels(names, [["a"], ["b"], ["a", "b"]]),
    ]
    h_c = Hypergraph.from_labels(names, [["a"], ["b"], ["c"], ["a", "b"]])
    for host, target in zip(wrong_hosts, (h, h, h_c)):
        f = MorseFunction(host, {e: Fraction(len(e) - 1) for e in host.edges})
        with pytest.raises(ValueError, match="exactly the associated complex"):
            critical_discrepancy(f, target)


def test_discrepancy_random_restriction_setups():
    rng = random.Random(61)
    for _ in range(50):
        h = generators.random_hypergraph(rng, 6, 10)
        delta = delta_closure(h)
        fbar = generators.random_morse_function(rng, delta)
        tagged = critical_discrepancy(fbar, h)  # raises on any mismatch
        for edge, case in tagged:
            assert case in ("i", "ii", "iii")
            assert h.contains_edge(edge)


# ---------------------------------------------------------------------------
# gradient extension (re-hosting)


def test_extend_gradient_section6(fbar_section6, h_section6):
    f = restrict(fbar_section6, h_section6)
    v = gradient(f)
    delta = delta_closure(h_section6)
    ext = extend_gradient(v, delta)
    assert ext.pairs == v.pairs
    assert ext.host == delta
    assert is_proper(ext) and is_acyclic(ext)[0]


def test_extend_gradient_empty(h_section6):
    ext = extend_gradient(GradientField(h_section6, []), delta_closure(h_section6))
    assert ext.pairs == ()


def test_extend_gradient_requires_proper_and_acyclic(f_311):
    v = gradient(f_311)  # not proper
    with pytest.raises(ValueError):
        extend_gradient(v, delta_closure(f_311.host))


def test_extend_gradient_random_property():
    rng = random.Random(62)
    for _ in range(50):
        h = generators.random_hypergraph(rng, 6, 10)
        v = generators.random_gradient_field(rng, h, pair_chance=0.3)
        if not is_proper(v):
            # thin out to a proper field deterministically
            chosen = []
            used = set()
            for a, b in v.pairs:
                if a not in used and b not in used:
                    chosen.append((a, b))
                    used.update((a, b))
            v = GradientField(h, chosen)
        assert is_acyclic(v)[0]
        ext = extend_gradient(v, delta_closure(h))
        assert is_proper(ext) and is_acyclic(ext)[0]
        assert ext.pairs == v.pairs


# ---------------------------------------------------------------------------
# the commuting restriction squares of the induced linear maps


def _inclusion_and_projection(ambient, sub, n):
    amb = ambient.edges_of_dim(n)
    sub_edges = sub.edges_of_dim(n)
    incl = ExactMatrix.from_columns(
        [[1 if a == s else 0 for a in amb] for s in sub_edges], len(amb)
    )
    proj = incl.transpose()
    return incl, proj


def test_restriction_squares_of_linear_maps(fbar_section6, h_section6):
    delta = delta_closure(h_section6)
    low = lower_complex(h_section6)
    f = restrict(fbar_section6, h_section6)
    f_low = restrict(f, low)
    r_bar = linear_map(gradient(fbar_section6), Z)
    r_mid = linear_map(gradient(f), Z)
    r_low = linear_map(gradient(f_low), Z)
    for n in range(delta.max_dimension()):
        incl, _ = _inclusion_and_projection(delta, h_section6, n)
        _, proj = _inclusion_and_projection(delta, h_section6, n + 1)
        lhs = matmul(proj, matmul(r_bar.matrices[n], incl, Z), Z)
        assert lhs == r_mid.matrices[n]
    for n in range(low.max_dimension()):
        incl, _ = _inclusion_and_projection(h_section6, low, n)
        _, proj = _inclusion_and_projection(h_section6, low, n + 1)
        lhs = matmul(proj, matmul(r_mid.matrices[n], incl, Z), Z)
        assert lhs == r_low.matrices[n]


def test_restriction_squares_random():
    rng = random.Random(63)
    for _ in range(40):
        h = generators.random_hypergraph(rng, 5, 8)
        delta = delta_closure(h)
        fbar = generators.random_morse_function(rng, delta)
        f = restrict(fbar, h)
        r_bar = linear_map(gradient(fbar), Z)
        r_mid = linear_map(gradient(f), Z)
        for n in range(delta.max_dimension()):
            incl, _ = _inclusion_and_projection(delta, h, n)
            _, proj = _inclusion_and_projection(delta, h, n + 1)
            lhs = matmul(proj, matmul(r_bar.matrices[n], incl, Z), Z)
            assert lhs == r_mid.matrices[n]


def test_analyses_keep_their_results_on_the_objects(fbar_section6, h_section6):
    import inspect

    from hypermorse.hypercore import SimplicialComplex

    report = critical_set(fbar_section6)
    assert critical_set(fbar_section6) is report
    # a kept report is read-only, so no caller can change what the next reads
    alpha = next(iter(report.witnesses))
    with pytest.raises(TypeError):
        report.witnesses[alpha] = {}
    with pytest.raises(TypeError):
        report.witnesses[alpha]["low_cofaces"] = ()
    # one restriction per sub-hypergraph and type: an equal complex and
    # hypergraph compare equal, yet each restriction keeps its host's type
    f = restrict(fbar_section6, h_section6)
    assert restrict(fbar_section6, h_section6) is f and type(f.host) is Hypergraph
    sub = lower_complex(h_section6)
    plain = Hypergraph(sub.vertex_set, sub.edges)
    assert plain == sub
    assert type(restrict(fbar_section6, sub).host) is SimplicialComplex
    assert type(restrict(fbar_section6, plain).host) is Hypergraph
    # the field keeps its linear map per ring and its acyclicity check
    v = gradient(fbar_section6)
    assert linear_map(v, Z) is linear_map(v) and is_acyclic(v) is is_acyclic(v)
    assert linear_map(v, Z) is not linear_map(gradient(fbar_section6), Z)
    # the hand-offs these replace are gone
    assert not hasattr(morse, "_semi_proper")
    assert list(inspect.signature(critical_discrepancy).parameters) == ["f_bar", "h"]
    with pytest.raises(TypeError):
        critical_discrepancy(fbar_section6, h_section6, _critical=((), ()))
