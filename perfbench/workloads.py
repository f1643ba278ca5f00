"""The benchmark's four closed-loop workloads.

A workload turns a seed into a batch of instances (setup), runs one
instance at a time (the timed part) and checks every answer afterwards.
Each instance is made of one or more operations: one library or command-line
call each.  An operation fails when it raises, exits non-zero, or its
answer fails a check; failures are counted, never fatal.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import gen
import oracle
from hypermorse import chains, cli, morse
from hypermorse.coeffs import CoeffSpec
from hypermorse.hypercore import Hypergraph, VertexSet

Z = CoeffSpec("Z")
Q = CoeffSpec("Q")
Z3 = CoeffSpec("Zp", 3)


@dataclass
class Instance:
    label: str  # size class, e.g. "R150/Z"
    ops: tuple  # operation names, in run order
    cells: int  # |ΔH| of the input (largest side for morphisms)
    data: dict = field(default_factory=dict)


def _call_cli(argv):
    """Run the command line in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _field_prime(coeff):
    return coeff.p if coeff.kind == "Zp" else oracle.RATIONAL_PRIME


def _pad(values, length):
    values = list(values)
    return values + [0] * (length - len(values))


# ---------------------------------------------------------------------------
# embedded homology through the library


class EmbeddedHomology:
    """embedded_homology(h, ring) on random hypergraphs and full simplices."""

    def __init__(self, classes, round_seconds):
        # (label, kind, size, ring, count per round)
        self.classes = classes
        self.round_seconds = round_seconds

    def make(self, rng, rounds, workdir):
        out = []
        for _ in range(rounds):
            for label, kind, size, ring, count in self.classes:
                for _ in range(count):
                    if kind == "simplex":
                        nv, edges = size + 1, gen.simplex_edges(size)
                    else:
                        nv, edges = size[0], gen.random_edges(rng, *size)
                    h = Hypergraph(VertexSet(gen.labels(nv)), edges)
                    out.append(
                        Instance(
                            label,
                            ("homology",),
                            len(gen.closure(edges)),
                            {"h": h, "edges": edges, "ring": ring, "simplex": kind == "simplex"},
                        )
                    )
        return out

    def run(self, inst):
        res = chains.embedded_homology(inst.data["h"], inst.data["ring"])
        return {"homology": {"betti": list(res.betti), "torsion": [list(t) for t in res.torsion]}}

    def check(self, inst, results):
        answer = results["homology"]
        ring = inst.data["ring"]
        betti = answer["betti"]
        if inst.data["simplex"]:
            acyclic = [1] + [0] * (len(betti) - 1)
            if betti != acyclic or any(answer["torsion"]):
                return {"homology": "full simplex is not acyclic: %r" % (answer,)}
        expected = oracle.embedded_betti(inst.data["edges"], _field_prime(ring))
        if betti != list(expected):
            return {"homology": "Betti numbers %r, independent ranks give %r" % (betti, expected)}
        if ring.kind == "Q":
            over_z = list(chains.embedded_homology(inst.data["h"], Z).betti)
            if over_z != betti:
                return {"homology": "Betti numbers over Q %r differ from Z %r" % (betti, over_z)}
        return {}


# ---------------------------------------------------------------------------
# induced maps through the command line


class InducedMaps:
    """`hypermorse map DOC --induced all --check-diagram --coeff c` in-process."""

    def __init__(self, classes, round_seconds):
        # (label, kind, size, coeff text, count per round)
        self.classes = classes
        self.round_seconds = round_seconds

    def make(self, rng, rounds, workdir):
        out = []
        for r in range(rounds):
            for label, kind, size, coeff, count in self.classes:
                for i in range(count):
                    if kind == "quotient":
                        doc = gen.quotient_morphism(rng, *size)
                    else:
                        doc = gen.inclusion_morphism(rng, *size[:3])
                    path = os.path.join(workdir, "map-%d-%s-%d.json" % (r, label.replace("/", "-"), i))
                    with open(path, "w") as fh:
                        json.dump(doc, fh)
                    src = self._edges(doc["source"])
                    dst = self._edges(doc["target"])
                    cells = max(len(gen.closure(src)), len(gen.closure(dst)))
                    out.append(
                        Instance(
                            label,
                            ("map",),
                            cells,
                            {"path": path, "coeff": coeff, "source": src, "target": dst},
                        )
                    )
        return out

    @staticmethod
    def _edges(doc):
        index = {name: i for i, name in enumerate(doc["vertices"])}
        return [tuple(sorted(index[v] for v in e)) for e in doc["hyperedges"]]

    def run(self, inst):
        argv = ["map", inst.data["path"], "--induced", "all", "--check-diagram"]
        return {"map": _call_cli(argv + ["--coeff", inst.data["coeff"]])}

    def check(self, inst, results):
        code, text = results["map"]
        if code != 0:
            return {"map": "exit code %d" % code}
        result = json.loads(text)["result"]
        if result.get("diagram_commutes") is not True:
            return {"map": "diagram does not commute: %r" % (result.get("failing_square"),)}
        p = _field_prime(CoeffSpec.parse(inst.data["coeff"]))
        for side in ("source", "target"):
            edges = inst.data[side]
            expected = {
                "lower": oracle.embedded_betti(oracle.lower_cells(edges), p),
                "embedded": oracle.embedded_betti(edges, p),
                "assoc": oracle.embedded_betti(gen.closure(edges), p),
            }
            for kind, betti in expected.items():
                degrees = result["induced"][kind]["degrees"]
                got = [degrees[str(n)][side + "_betti"] for n in range(len(degrees))]
                if len(betti) > len(got) or got != _pad(betti, len(got)):
                    return {"map": "%s %s Betti numbers %r, expected %r" % (kind, side, got, betti)}
        return {}


# ---------------------------------------------------------------------------
# Morse analysis through the command line


class MorseAnalysis:
    """`hypermorse morse DOC check|critical|gradient|extend --on HOST` and
    `hypermorse discrepancy DOC`.

    An instance is one hypergraph with two Morse documents: "restricted"
    (the restriction of a Morse function on ΔH, which always extends) and
    "free" (a Morse function drawn on the hypergraph, which may not).  Each
    is analysed on the hypergraph and on its lower-associated complex, the
    restricted one also on ΔH, in both report formats, and by `discrepancy`.
    The extra analyses of the restricted document keep a batch that fills
    the run to about 55 instances, so that only a handful of exhaustive
    extension searches (about 8% of free documents) fall into it and the
    tail percentile stays off the boundary between the two kinds.
    """

    SUBCOMMANDS = ("check", "critical", "gradient", "extend")
    HOSTS = {"restricted": ("hyper", "lower", "assoc"), "free": ("hyper", "lower")}

    def __init__(self, classes, round_seconds):
        # (label, size, removed cells, count per round)
        self.classes = classes
        self.round_seconds = round_seconds

    def make(self, rng, rounds, workdir):
        ops = tuple(
            "%s.%s.%s" % (doc, host, sub)
            for doc, hosts in self.HOSTS.items()
            for host in hosts
            for sub in self.SUBCOMMANDS
        )
        ops += tuple(
            "restricted.%s.%s.text" % (host, sub)
            for host in self.HOSTS["restricted"]
            for sub in self.SUBCOMMANDS
        ) + ("restricted.discrepancy",)
        out = []
        for r in range(rounds):
            for label, size, removed, count in self.classes:
                for i in range(count):
                    data = {}
                    for which, doc in zip(self.HOSTS, gen.morse_pair(rng, *size, removed)):
                        path = os.path.join(workdir, "morse-%d-%s-%d-%s.json" % (r, label, i, which))
                        with open(path, "w") as fh:
                            json.dump(doc, fh)
                        h, values = cli.parse_hypergraph_document(doc)
                        data[which] = {"path": path, "h": h, "values": values}
                    cells = len(gen.closure(data["free"]["h"].edges))
                    out.append(Instance(label, ops, cells, data))
        return out

    def run(self, inst):
        results = {}
        for op in inst.ops:
            which, *rest = op.split(".")
            path = inst.data[which]["path"]
            if rest == ["discrepancy"]:
                results[op] = _call_cli(["discrepancy", path])
            else:
                fmt = ["--format", "text"] if rest[-1] == "text" else []
                results[op] = _call_cli(["morse", path, rest[1], "--on", rest[0]] + fmt)
        return results

    def check(self, inst, results):
        errors = {}
        for which, hosts in self.HOSTS.items():
            h, values = inst.data[which]["h"], inst.data[which]["values"]
            for host_name in hosts:
                if host_name == "hyper":
                    host = h
                elif host_name == "lower":
                    host = Hypergraph(h.vertex_set, oracle.lower_cells(h.edges))
                else:
                    host = Hypergraph(h.vertex_set, gen.closure(h.edges))
                prefix = "%s.%s." % (which, host_name)
                mine = {op[len(prefix):]: r for op, r in results.items() if op.startswith(prefix)}
                if host_name == "hyper" and which == "restricted":
                    mine["discrepancy"] = results["restricted.discrepancy"]
                # only a free function on the hypergraph itself may fail to extend
                may_fail = which == "free" and host_name == "hyper"
                found = self._check_doc(host, values, not may_fail, mine)
                for op, why in found.items():
                    errors["restricted.discrepancy" if op == "discrepancy" else prefix + op] = why
        return errors

    def _check_doc(self, h, values, must_extend, results):
        on_host = {e: values[e] for e in h.edges}
        key = h.edge_key
        order = lambda cells: [key(e) for e in sorted(cells, key=gen.edge_key)]  # noqa: E731
        cofaces = {e: [] for e in h.edges}
        for e in h.edges:
            for f in gen.faces(e):
                if f in cofaces:
                    cofaces[f].append(e)

        def low_cofaces(table, adjacency, e):
            return [b for b in adjacency[e] if table[b] <= table[e]]

        def high_faces(table, e):
            return [f for f in gen.faces(e) if f in table and table[f] >= table[e]]

        def critical(table, adjacency):
            return [e for e in table if not low_cofaces(table, adjacency, e) and not high_faces(table, e)]

        errors = {}
        parsed = {}
        for op, (code, text) in results.items():
            if code != 0:
                errors[op] = "exit code %d" % code
            elif op.endswith(".text"):
                if not text.startswith("hypermorse "):
                    errors[op] = "text report without its header"
            else:
                parsed[op] = json.loads(text)["result"]

        if "check" in parsed and parsed["check"]["is_morse"] is not True:
            errors["check"] = "a generated Morse function was rejected"
        if "critical" in parsed:
            via_gradient = morse.critical_via_gradient(morse.MorseFunction(h, on_host))
            if parsed["critical"]["critical"] != order(via_gradient):
                errors["critical"] = "critical set differs from critical_via_gradient"
            elif set(parsed["critical"]["critical"]) != set(order(critical(on_host, cofaces))):
                errors["critical"] = "critical set differs from the definition"
        if "gradient" in parsed:
            pairs = sorted(
                [key(a), key(b)] for b in h.edges for a in gen.faces(b)
                if a in on_host and on_host[b] <= on_host[a]
            )
            g = parsed["gradient"]
            if sorted(g["pairs"]) != pairs or not (g["proper"] and g["acyclic"]):
                errors["gradient"] = "gradient pairs differ from the definition"
        if "extend" in parsed:
            ext = parsed["extend"]
            obstruction = [
                e for e in h.edges
                if low_cofaces(on_host, cofaces, e) and high_faces(on_host, e)
            ]
            if ext["obstruction"] != order(obstruction):
                errors["extend"] = "obstruction differs from the definition"
            elif ext["verdict"] == "extended":
                table = self._extension_table(h, ext["extension"])
                if set(table) != set(gen.closure(h.edges)):
                    errors["extend"] = "extension does not cover the associated complex"
                elif any(table[e] != on_host[e] for e in h.edges):
                    errors["extend"] = "extension disagrees with f on the host"
                elif oracle.morse_violations(table):
                    errors["extend"] = "extension is not a Morse function"
            elif ext["verdict"] != "none" or must_extend:
                errors["extend"] = "verdict %r on an extendable instance" % ext["verdict"]
        if "discrepancy" in parsed:
            full = {e: values[e] for e in gen.closure(h.edges)}
            adjacency = {e: [] for e in full}
            for e in full:
                for f in gen.faces(e):
                    adjacency[f].append(e)
            upstairs = critical(full, adjacency)
            downstairs = critical(on_host, cofaces)
            d = parsed["discrepancy"]
            definition_side = set(downstairs) - set(upstairs)
            if d["critical_assoc"] != order(upstairs) or d["critical_hyper"] != order(downstairs):
                errors["discrepancy"] = "critical sets differ from the definition"
            elif {x["edge"] for x in d["discrepancy"]} != set(order(definition_side)):
                errors["discrepancy"] = "discrepancy differs from the definition"
        return errors

    @staticmethod
    def _extension_table(h, extension):
        table = {}
        for k, v in extension.items():
            table[tuple(sorted(h.vertex_set.index(x) for x in k.split(",")))] = Fraction(v)
        return table


# ---------------------------------------------------------------------------


def full_size():
    """The workloads as measured; counts are per round of round_seconds."""
    return {
        "embed-z": EmbeddedHomology(
            [
                ("R30/Z", "random", (10, 30, 3), Z, 3),
                ("R60/Z", "random", (14, 60, 3), Z, 2),
                ("R100/Z", "random", (18, 100, 3), Z, 5),
                ("R150/Z", "random", (22, 150, 3), Z, 2),
                # the tail percentile lands among the Δ^7 copies, whose time
                # does not depend on the seed
                ("simplex7/Z", "simplex", 7, Z, 3),
                ("simplex8/Z", "simplex", 8, Z, 1),
            ],
            6.2,
        ),
        "embed-field": EmbeddedHomology(
            [
                ("R30/Q", "random", (10, 30, 3), Q, 13),
                ("R100/Z3", "random", (18, 100, 3), Z3, 4),
                ("R150/Z3", "random", (22, 150, 3), Z3, 2),
            ],
            9.8,
        ),
        "maps": InducedMaps(
            [
                ("quotient/q", "quotient", (8, 20, 2, 6), "q", 3),
                ("inclusion/q", "inclusion", (8, 20, 2), "q", 3),
                ("quotient/zp3", "quotient", (12, 40, 2, 8), "zp:3", 10),
                ("inclusion/zp3", "inclusion", (12, 40, 2), "zp:3", 10),
            ],
            10.0,
        ),
        "morse": MorseAnalysis([("R40-2", (10, 40, 3), 2, 18)], 6.7),
    }


def tiny_size():
    """The same workloads on inputs small enough for the benchmark's tests."""
    return {
        "embed-z": EmbeddedHomology(
            [("R8/Z", "random", (6, 8, 2), Z, 2), ("simplex3/Z", "simplex", 3, Z, 1)],
            1.0,
        ),
        "embed-field": EmbeddedHomology(
            [("R6/Q", "random", (5, 6, 2), Q, 2), ("R8/Z3", "random", (6, 8, 2), Z3, 1)],
            1.0,
        ),
        "maps": InducedMaps(
            [
                ("quotient/q", "quotient", (5, 6, 1, 3), "q", 1),
                ("inclusion/zp3", "inclusion", (5, 6, 1), "zp:3", 1),
            ],
            1.0,
        ),
        "morse": MorseAnalysis([("R8-2", (5, 8, 2), 2, 1)], 1.0),
    }
