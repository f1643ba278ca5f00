"""Discrete Morse functions on hypergraphs and their gradient vector fields.

A discrete Morse function assigns an exact rational to every hyperedge such
that each edge has at most one coface with a value not above its own and at
most one face with a value not below its own, counted inside the hypergraph.
Gradient fields pair faces with cofaces; properness, semi-properness and the
no-closed-path condition are checked combinatorially and cross-validated
against the induced degree-raising linear map.  Every operation is a pure
function.  What the analyses share is kept on the immutable object it comes
from, built on first use: on a MorseFunction the one scan of its values (read
by the Morse check, the critical report, the gradient, the obstruction and the
extension search, whose pair counts start from it), its critical report and
its restrictions; on a GradientField its linear map per ring and its
acyclicity check.  Callers share them by calling the public functions again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import chains, exact, hypercore
from .coeffs import CoeffSpec, Z
from .errors import (
    InternalConsistencyError,
    NotMorseError,
    SizeCapExceeded,
)
from .exact import ExactMatrix
from .hypercore import edge_sort_key


def _as_fraction(x):
    # a Fraction is immutable and exact already; only other numbers convert
    return x if type(x) is Fraction else Fraction(x)


class MorseFunction:
    """A total assignment of exact rationals to the hyperedges of a host.
    values is read-only: the scan of the values is kept on the function."""

    __slots__ = ("host", "values", "_memo")

    def __init__(self, host, values):
        missing = [e for e in host.edges if e not in values]
        if missing:
            raise ValueError("no value for hyperedge(s) %s" % (missing,))
        extra = [e for e in values if not host.contains_edge(e)]
        if extra:
            raise ValueError("value for unknown hyperedge(s) %s" % (sorted(extra),))
        self.host = host
        self.values = MappingProxyType({e: _as_fraction(values[e]) for e in host.edges})
        self._memo = {}

    def __call__(self, edge):
        return self.values[edge]

    def __eq__(self, other):
        return (
            isinstance(other, MorseFunction)
            and self.host == other.host
            and self.values == other.values
        )

    def __repr__(self):
        return "MorseFunction(on %d edges)" % len(self.values)


@dataclass(frozen=True)
class MorseViolation:
    alpha: tuple
    kind: str  # "low_cofaces" or "high_faces"
    witnesses: tuple


def _scan(f):
    """One pass over the host: (low, high, violations).

    low[e] holds the cofaces of e at values not above it and high[e] the faces
    at values not below it, both in edge_sort_key order.  A face g of b with
    f(b) <= f(g) is at once a low coface pair for g and a high face pair for b.
    Values are compared as exact integers in the same order: each value times
    the least common multiple of all denominators.  Read it through _scanned.
    """
    h = f.host
    scale = math.lcm(*(v.denominator for v in f.values.values()))
    key = {e: v.numerator * (scale // v.denominator) for e, v in f.values.items()}
    edge_set = h._edge_set
    low = {e: [] for e in h.edges}
    high = {e: [] for e in h.edges}
    for b in h.edges:
        kb = key[b]
        # dropping a later vertex gives a smaller face, so reversed is sorted;
        # low[g] grows while h.edges is walked in sorted order
        for g in reversed(hypercore.codim1_faces(b)):
            if g in edge_set and key[g] >= kb:
                low[g].append(b)
                high[b].append(g)
    violations = []
    for alpha in h.edges:
        if len(low[alpha]) > 1:
            violations.append(MorseViolation(alpha, "low_cofaces", tuple(low[alpha])))
        if len(high[alpha]) > 1:
            violations.append(MorseViolation(alpha, "high_faces", tuple(high[alpha])))
    return low, high, tuple(violations)


def _scanned(f):
    """_scan(f), run once per function and kept on it."""
    return hypercore.derived(f, "scan", _scan, f)


def is_morse(f):
    """Check the discrete Morse conditions; returns (ok, violations).

    A violation records an edge with two or more cofaces at values not above
    it, or two or more faces at values not below it.
    """
    _, _, violations = _scanned(f)
    return (not violations, violations)


def _require_morse(f):
    """The (low, high) tables of _scan; raises NotMorseError on a violation."""
    low, high, violations = _scanned(f)
    if violations:
        raise NotMorseError(violations)
    return low, high


@dataclass(frozen=True)
class CriticalReport:
    critical: tuple
    # read-only: non-critical edge -> {"low_cofaces": (...), "high_faces": (...)}
    witnesses: MappingProxyType


def critical_set(f):
    """Critical hyperedges: no coface at a value not above, no face at a value
    not below.  Witnesses explain every non-critical edge.  The report is
    kept on f."""
    return _critical(f)


def _critical(f):
    """The critical report of f, built once and kept on it."""
    return hypercore.derived(f, "critical", _critical_report, f)


def _critical_report(f):
    low, high = _require_morse(f)
    critical = []
    witnesses = {}
    for alpha in f.host.edges:
        if low[alpha] or high[alpha]:
            witnesses[alpha] = MappingProxyType(
                {"low_cofaces": tuple(low[alpha]), "high_faces": tuple(high[alpha])}
            )
        else:
            critical.append(alpha)
    return CriticalReport(tuple(critical), MappingProxyType(witnesses))


def restrict(f, sub):
    """Restriction of a Morse function to a sub-hypergraph (Morse again),
    kept on f.  An equal Hypergraph and SimplicialComplex each get their own,
    so the restriction's host has the type of sub."""
    return hypercore.derived(f, ("restrict", type(sub), sub), _restriction, f, sub)


def _restriction(f, sub):
    if sub.vertex_set != f.host.vertex_set:
        raise ValueError("restriction requires the same vertex set")
    if not all(f.host.contains_edge(e) for e in sub.edges):
        raise ValueError("sub-hypergraph has edges outside the host")
    return MorseFunction(sub, {e: f.values[e] for e in sub.edges})


class GradientField:
    """A set of face/coface pairs (alpha, beta) with dim beta = dim alpha + 1."""

    __slots__ = ("host", "pairs", "_memo")

    def __init__(self, host, pairs):
        canon = set()
        for a, b in pairs:
            a, b = tuple(a), tuple(b)
            if len(b) != len(a) + 1 or chains.incidence(b, a) == 0:
                raise ValueError("pair %r < %r is not a codimension-1 face pair" % (a, b))
            if not (host.contains_edge(a) and host.contains_edge(b)):
                raise ValueError("pair %r < %r uses edges outside the host" % (a, b))
            canon.add((a, b))
        self.host = host
        self.pairs = tuple(sorted(canon, key=lambda p: (edge_sort_key(p[0]), edge_sort_key(p[1]))))
        self._memo = {}

    def __eq__(self, other):
        return (
            isinstance(other, GradientField)
            and self.host == other.host
            and self.pairs == other.pairs
        )

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return "GradientField(%d pairs)" % len(self.pairs)


def gradient(f):
    """The gradient field of a Morse function: all pairs alpha < beta with
    the coface's value not above the face's value."""
    low, _ = _require_morse(f)
    return GradientField(f.host, [(alpha, beta) for alpha in f.host.edges for beta in low[alpha]])


@dataclass(frozen=True)
class GradedLinearMap:
    """Per-degree matrices of the degree-raising map induced by a field."""

    host: object
    coeff: CoeffSpec
    matrices: tuple  # matrices[n]: degree-n edge basis -> degree-(n+1) edge basis

    def square_is_zero(self):
        for n in range(len(self.matrices) - 1):
            if not exact.matmul(self.matrices[n + 1], self.matrices[n], self.coeff).is_zero():
                return False
        return True


def linear_map(v, coeff=Z):
    """Matrix family of the induced map: a matched face goes to minus the
    incidence number times its coface, summed over all pairs containing it.
    Kept on v per ring."""
    return hypercore.derived(v, ("linear_map", coeff), _linear_map, v, coeff)


def _linear_map(v, coeff):
    host = v.host
    top = host.max_dimension()
    by_pair = {}
    for a, b in v.pairs:
        by_pair.setdefault(a, []).append(b)
    mats = []
    for n in range(top + 1):
        dom = host.edges_of_dim(n)
        cod = host.edges_of_dim(n + 1)
        index = {e: i for i, e in enumerate(cod)}
        columns = []
        for alpha in dom:
            col = {}
            for beta in by_pair.get(alpha, ()):
                i = index[beta]
                x = coeff.normalize(col.get(i, 0) - chains.incidence(beta, alpha))
                if x:
                    col[i] = x
                else:
                    col.pop(i, None)
            columns.append(col)
        mats.append(ExactMatrix.from_sparse_columns(len(cod), len(dom), columns))
    return GradedLinearMap(host, coeff, tuple(mats))


def apply_linear_map(glm, chain):
    """Apply a graded linear map to a chain given as {edge: coefficient}.
    ValueError if the chain names an edge outside the host."""
    host = glm.host
    for e in chain:
        if not host.contains_edge(e):
            raise ValueError("chain references an edge outside the host: %r" % (e,))
    out = {}
    for alpha, c in chain.items():
        if not c:
            continue
        n = hypercore.edge_dimension(alpha)
        cod = host.edges_of_dim(n + 1)
        col = glm.matrices[n].column_entries[host.edges_of_dim(n).index(alpha)]
        for i, x in sorted(col.items()):
            out[cod[i]] = glm.coeff.normalize(out.get(cod[i], 0) + c * x)
    return {e: c for e, c in out.items() if c}


def is_proper(v):
    """Each hyperedge occurs in at most one pair."""
    seen = set()
    for a, b in v.pairs:
        if a in seen or b in seen:
            return False
        seen.add(a)
        seen.add(b)
    return True


def is_acyclic(v):
    """No non-trivial closed path: returns (ok, witness).

    A closed path chains steps alpha_i, beta_i, alpha_{i+1} where the upper
    edge beta_i is matched with both alpha_i and alpha_{i+1} != alpha_i; the
    minimal cycle walks one doubly-matched upper edge back and forth.  The
    witness is the lexicographically least such minimal cycle.  Kept on v.
    """
    return hypercore.derived(v, "acyclic", _acyclic, v)


def _acyclic(v):
    matched_faces = {}
    for a, b in v.pairs:
        matched_faces.setdefault(b, []).append(a)
    best = None
    for b, alphas in matched_faces.items():
        if len(alphas) < 2:
            continue
        alphas = sorted(alphas, key=edge_sort_key)
        a0, a1 = alphas[0], alphas[1]
        cand = (a0, b, a1, b, a0)
        key = tuple(edge_sort_key(e) for e in cand)
        if best is None or key < best[0]:
            best = (key, cand)
    if best is None:
        return (True, None)
    return (False, best[1])


def is_semi_proper(v):
    """No chained pairs gamma < alpha < beta with both pairs in the field;
    cross-validated against the square of the induced linear map being zero
    whenever the field is acyclic.  Reads the linear map and the acyclicity
    check kept on v."""
    uppers = {b for _, b in v.pairs}
    lowers = {a for a, _ in v.pairs}
    combinatorial = not (uppers & lowers)
    if is_acyclic(v)[0]:
        algebraic = linear_map(v, Z).square_is_zero()
        if combinatorial != algebraic:
            raise InternalConsistencyError(
                "semi-properness check disagrees with the squared linear map"
            )
    return combinatorial


def satisfies_condition_C(h):
    """Every chain beta > alpha > gamma (beta, gamma hyperedges, alpha any
    middle cell) admits an alternative middle hyperedge; returns (ok, witness
    triple (gamma, alpha, beta)) with the lexicographically least violation."""
    best = None
    for beta in h.edges:
        if len(beta) < 3:
            continue
        for gamma in itertools.combinations(beta, len(beta) - 2):
            if not h.contains_edge(gamma):
                continue
            extra = [x for x in beta if x not in gamma]
            middles = [tuple(sorted(gamma + (x,))) for x in extra]
            middles.sort(key=edge_sort_key)
            for alpha in middles:
                others = [m for m in middles if m != alpha and h.contains_edge(m)]
                if not others:
                    key = (edge_sort_key(gamma), edge_sort_key(alpha), edge_sort_key(beta))
                    if best is None or key < best[0]:
                        best = (key, (gamma, alpha, beta))
    if best is None:
        return (True, None)
    return (False, best[1])


def extension_obstruction(f):
    """Edges carrying both a low coface and a high face inside the host; a
    non-empty set proves the function extends to no Morse function on the
    associated complex."""
    low, high = _require_morse(f)
    return tuple(alpha for alpha in f.host.edges if low[alpha] and high[alpha])


def dim_function(h):
    """The dimension function: always Morse, every hyperedge critical."""
    return MorseFunction(h, {e: Fraction(len(e) - 1) for e in h.edges})


def _candidate_levels(distinct, per_gap):
    """Integer slots of the candidate levels for the sorted distinct values.

    Value j sits at slot per_gap + j*(per_gap+1); the slots between and
    beyond the values are per_gap fresh levels inside every gap and beyond
    both ends, which is complete for order-based conditions.  Returns the
    slot of each value and the number of slots.
    """
    slots = [per_gap + j * (per_gap + 1) for j in range(len(distinct))]
    return slots, len(distinct) + (len(distinct) + 1) * per_gap


def _level(distinct, per_gap, slot):
    """The rational at a slot of _candidate_levels: lo - i below the values,
    hi + i above them and a + i*(b-a)/(per_gap+1) in the gap from a to b."""
    j, i = divmod(slot - per_gap, per_gap + 1)
    if j < 0:
        return distinct[0] - (per_gap - slot)
    if i == 0:
        return distinct[j]
    if j == len(distinct) - 1:
        return distinct[j] + i
    a, b = distinct[j], distinct[j + 1]
    return a + i * Fraction(b - a, per_gap + 1)


def search_extension(f, grid_levels=None, max_unknowns=6):
    """Exhaustive search for a Morse extension to the associated complex.

    Unknown cells take candidate levels: the existing values plus per_gap
    fresh levels inside every gap between them and beyond both ends.
    Because the Morse conditions only compare values, these levels realize
    every weak order of the unknowns against the fixed values, so the search
    is complete.  It runs over integer slots that stand for the levels in
    increasing order, and turns the chosen slots into rationals at the end.
    A slot is tested on counts, not by rescanning: which cells already have a
    low coface or a high face starts from the scan kept on f, and placing a
    cell reads and updates them only at its own faces and cofaces, so the
    slots that fit are one run read off its highest face and lowest coface.
    grid_levels is a lower bound on the fresh levels per value gap; it never
    drops below the number of unknowns, which completeness needs.  When some
    hyperedge has both a low coface and a high face (a non-empty
    extension_obstruction), the answer is None at once: no Morse function on
    a simplicial complex has such a cell.
    Returns the extension with host the associated complex, or None.
    """
    obstruction = extension_obstruction(f)
    delta = hypercore.delta_closure(f.host)
    in_host = f.host._edge_set
    unknowns = [e for e in delta.edges if e not in in_host]
    if not unknowns:
        return MorseFunction(delta, dict(f.values))
    k = len(unknowns)
    if k > max_unknowns:
        raise SizeCapExceeded(
            "%d unknown cells exceed the configured cap of %d" % (k, max_unknowns)
        )
    if obstruction:
        return None
    per_gap = k if grid_levels is None else max(grid_levels, k)
    distinct = sorted(set(f.values.values()))
    slots, nslots = _candidate_levels(distinct, per_gap)
    slot_of = dict(zip(distinct, slots))

    values = {e: slot_of[v] for e, v in f.values.items()}
    # the cells that have a low coface or a high face: seeded from the scan
    # kept on f and updated as unknowns are placed
    low, high = _require_morse(f)
    has_low = {e for e in f.host.edges if low[e]}
    has_high = {e for e in f.host.edges if high[e]}
    # unknowns are placed by size, so when one is placed all its faces are
    # valued and, of its cofaces, only the hyperedges
    nv = len(f.host.vertex_set)
    plan = []
    for u in unknowns:
        grown = (tuple(sorted(u + (v,))) for v in range(nv) if v not in u)
        plan.append((u, hypercore.codim1_faces(u), [b for b in grown if b in in_host]))

    def dfs(i):
        if i == k:
            return True
        cell, faces, cofaces = plan[i]
        # at most one face may sit at or above the slot and one coface at or
        # below it, and that neighbour must have no such partner yet: the
        # slots that fit run from lo to hi
        faces = sorted(faces, key=values.__getitem__, reverse=True)
        cofaces = sorted(cofaces, key=values.__getitem__)
        top = faces[0] if faces else None
        bottom = cofaces[0] if cofaces else None
        lo = values[faces[1]] + 1 if len(faces) > 1 else 0
        if top in has_low:
            lo = values[top] + 1
        hi = values[cofaces[1]] - 1 if len(cofaces) > 1 else nslots - 1
        if bottom in has_high:
            hi = values[bottom] - 1
        for slot in range(lo, hi + 1):
            values[cell] = slot
            # the exceptional pairs (face, coface) the slot makes: the face
            # gains a low coface and the coface a high face
            pairs = []
            if top is not None and values[top] >= slot:
                pairs.append((top, cell))
            if bottom is not None and values[bottom] <= slot:
                pairs.append((cell, bottom))
            for g, b in pairs:
                has_low.add(g)
                has_high.add(b)
            if dfs(i + 1):
                return True
            for g, b in pairs:
                has_low.discard(g)
                has_high.discard(b)
        return False

    if not dfs(0):
        return None
    extension_values = dict(f.values)
    for cell in unknowns:
        extension_values[cell] = _level(distinct, per_gap, values[cell])
    extension = MorseFunction(delta, extension_values)
    ok, violations = is_morse(extension)
    if not ok:
        raise InternalConsistencyError("extension search produced a non-Morse function")
    return extension


def critical_via_gradient(f):
    """Critical edges read off the induced linear map of the gradient: edges
    with zero column that are not (up to sign) the image of any edge."""
    image = _column_images(gradient(f))
    targets = set(image.values())
    return tuple(e for e in f.host.edges if image[e] is None and e not in targets)


def extend_gradient(v, to):
    """Re-host a proper acyclic field on a larger hypergraph (typically the
    associated complex); the pairs are unchanged and the result stays proper
    and acyclic."""
    if not is_proper(v):
        raise ValueError("extend_gradient requires a proper field")
    if not is_acyclic(v)[0]:
        raise ValueError("extend_gradient requires an acyclic field")
    if to.vertex_set != v.host.vertex_set:
        raise ValueError("target must share the vertex set")
    if not all(to.contains_edge(e) for e in v.host.edges):
        raise ValueError("target must contain the host")
    return GradientField(to, v.pairs)


def _column_images(v):
    """{edge: the cell its column of linear_map(v, Z) sends it to, or None
    for a zero column}.  Each column of a Morse gradient's map is zero or
    plus/minus a unit vector; anything else raises."""
    host = v.host
    image = {}
    for n, mat in enumerate(linear_map(v, Z).matrices):
        cod = host.edges_of_dim(n + 1)
        for alpha, col in zip(host.edges_of_dim(n), mat.column_entries):
            if len(col) > 1 or any(x not in (1, -1) for x in col.values()):
                raise InternalConsistencyError("gradient column is not a signed unit vector")
            image[alpha] = cod[next(iter(col))] if col else None
    return image


def _is_closure_of(host, h):
    """host == ΔH(h), decided without building ΔH: host has h's vertex set,
    is downward closed, holds every edge of h, and each of its maximal cells
    (no coface in host) is an edge of h.  Then every host cell lies under an
    edge of h, and ΔH(h), the least closed set holding h, is inside host."""
    if host.vertex_set != h.vertex_set or not hypercore.is_simplicial(host):
        return False
    if not all(host.contains_edge(e) for e in h.edges):
        return False
    covered = {f for e in host.edges for f in hypercore.codim1_faces(e)}
    return all(h.contains_edge(e) for e in host.edges if e not in covered)


def critical_discrepancy(f_bar, h):
    """Critical edges of the restriction that are not critical upstairs,
    classified by the behaviour of the ambient gradient map.

    Cases: (i) the edge is matched into the complement and nothing maps onto
    it; (ii) matched into the complement and some complement cell maps onto
    it; (iii) unmatched but some complement cell maps onto it.  The set is
    computed both from the definitions and from this classification; any
    disagreement raises.  f_bar must live on exactly ΔH of h.  The critical
    reports of f_bar and of its restriction to h are the ones kept on them.
    """
    if not _is_closure_of(f_bar.host, h):
        raise ValueError("the Morse function must live on exactly the associated complex")
    in_h = set(h.edges)
    m_bar = set(_critical(f_bar).critical)
    m_low = set(_critical(restrict(f_bar, h)).critical)
    definition_side = m_low - (m_bar & in_h)

    col_of = _column_images(gradient(f_bar))
    preimages = {}
    for tau, target in col_of.items():
        if target is not None:
            preimages.setdefault(target, []).append(tau)

    classified = {}
    for sigma in h.edges:
        target = col_of[sigma]
        outside_preimages = [
            tau for tau in preimages.get(sigma, ()) if tau not in in_h
        ]
        any_preimage = bool(preimages.get(sigma))
        if target is not None and target not in in_h:
            if not any_preimage:
                classified[sigma] = "i"
            elif outside_preimages:
                classified[sigma] = "ii"
        elif target is None and outside_preimages:
            classified[sigma] = "iii"

    if set(classified) != definition_side:
        raise InternalConsistencyError(
            "discrepancy classification %r does not match the definition side %r"
            % (sorted(classified), sorted(definition_side))
        )
    return tuple(sorted(classified.items(), key=lambda kv: edge_sort_key(kv[0])))
