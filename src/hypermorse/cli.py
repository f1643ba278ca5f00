"""Command-line front end: JSON documents in, deterministic reports out.

Subcommands: complex, homology, morse, map, discrepancy.  Reports are JSON by
default, byte-deterministic and laid out exactly as
json.dumps(report, sort_keys=True, indent=2) with ASCII escapes (written by
_json, since the stdlib's indenting encoder is pure Python), or a plain text
rendering with --format text.  Exit codes: 0 success, 2 parse error, 3
invalid document (a non-string or unknown vertex label included), 4 invalid
morphism, 5 size cap exceeded, 6 internal error (a consistency check failed;
this is a bug).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction

from . import __version__, chains, hypercore, morphisms, morse
from .coeffs import CoeffSpec, Z
from .errors import (
    InternalConsistencyError,
    InvalidDocumentError,
    MalformedSubcomplexError,
    MorphismError,
    NotMorseError,
    SizeCapExceeded,
)
from .hypercore import Hypergraph, edge_sort_key

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BAD_DOCUMENT = 3
EXIT_BAD_MORPHISM = 4
EXIT_SIZE_CAP = 5
EXIT_INTERNAL = 6

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _parse_rational(value, where):
    if isinstance(value, bool):
        raise InvalidDocumentError("%s: boolean is not a rational" % where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.match(value.strip()):
        return Fraction(value.strip())
    raise InvalidDocumentError(
        "%s: rationals must be integers or 'p/q' strings, got %r" % (where, value)
    )


def _format_rational(x):
    # x is an int or a Fraction, both already in lowest terms
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_hypergraph_document(doc, where="document"):
    """Validate a HypergraphDocument and return (hypergraph, morse values or None)."""
    return _parse_document(doc, where)[:2]


def _parse_document(doc, where="document"):
    """parse_hypergraph_document plus the associated complex it builds to
    check the morse keys: (hypergraph, values, complex), or (h, None, None)
    without a morse block."""
    if not isinstance(doc, dict):
        raise InvalidDocumentError("%s: expected a JSON object" % where)
    unknown = set(doc) - {"vertices", "hyperedges", "morse"}
    if unknown:
        raise InvalidDocumentError("%s: unknown fields %s" % (where, sorted(unknown)))
    vertices = doc.get("vertices")
    edges = doc.get("hyperedges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InvalidDocumentError("%s: 'vertices' must be a list of strings" % where)
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise InvalidDocumentError("%s: 'hyperedges' must be a list of lists" % where)
    try:
        h = Hypergraph.from_labels(vertices, edges)
    except ValueError as exc:
        raise InvalidDocumentError("%s: %s" % (where, exc)) from exc
    values = delta = None
    if "morse" in doc:
        block = doc["morse"]
        if not isinstance(block, dict):
            raise InvalidDocumentError("%s: 'morse' must be an object" % where)
        delta = hypercore.delta_closure(h)
        label_index = h.vertex_set._index.__getitem__
        hyperedges = h._edge_set
        values = {}
        for key, raw in block.items():
            try:
                edge = tuple(map(label_index, key.split(",")))
            except KeyError as exc:
                raise InvalidDocumentError(
                    "%s: morse key %r: unknown vertex label %r" % (where, key, exc.args[0])
                ) from None
            # a hyperedge is canonical and in the complex; any other key is
            # canonical iff its indices do not decrease (a repeated label
            # passes here and is then outside the complex)
            if edge not in hyperedges:
                if list(edge) != sorted(edge):
                    raise InvalidDocumentError(
                        "%s: morse key %r is not in canonical vertex order" % (where, key)
                    )
                if not delta.contains_edge(edge):
                    raise InvalidDocumentError(
                        "%s: morse key %r is outside the associated complex" % (where, key)
                    )
            if edge in values:
                raise InvalidDocumentError("%s: duplicate morse key %r" % (where, key))
            if type(raw) is int:
                values[edge] = Fraction(raw)
            else:
                values[edge] = _parse_rational(raw, "%s: morse[%r]" % (where, key))
        for e in h.edges:
            if e not in values:
                raise InvalidDocumentError(
                    "%s: morse block misses hyperedge %r" % (where, h.edge_key(e))
                )
    return h, values, delta


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidDocumentError("cannot read %s: %s" % (path, exc)) from exc
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _ParseFailure("parse error in %s: %s" % (path, exc)) from exc


class _ParseFailure(Exception):
    pass


def _digest(raw):
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _edge_keys(h, edges):
    return [h.edge_key(e) for e in sorted(edges, key=edge_sort_key)]


def _chain_to_json(h, chain):
    items = sorted(chain.items(), key=lambda kv: edge_sort_key(kv[0]))
    return [[_format_rational(c), h.edge_key(e)] for e, c in items if c]


def _matrix_to_json(mat):
    return [[_format_rational(x) for x in row] for row in mat.data]


def _notes_for(h):
    notes = []
    if h.is_empty():
        notes.append("empty hypergraph")
    return notes


def _report(command, raw, coeff, result, notes, timestamp):
    report = {
        "tool": "hypermorse",
        "version": __version__,
        "command": command,
        "input_digest": _digest(raw),
        "coefficients": coeff.label() if coeff is not None else None,
        "notes": notes,
        "result": result,
    }
    if timestamp:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return report


_encode_str = json.encoder.encode_basestring_ascii
_JSON_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_CONTAINERS = {dict, list}


def _json(value, indent=""):
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for the
    types a report holds: dicts with string keys, lists, str, int, bool and
    None.  The stdlib runs its pure-Python encoder whenever indent is set."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if type(value) is dict:
        if not value:
            return "{}"
        body = sep.join([_encode_str(k) + ": " + _json(value[k], inner) for k in sorted(value)])
        return "{\n" + inner + body + "\n" + indent + "}"
    if type(value) is list:
        if not value:
            return "[]"
        types = set(map(type, value))
        scalar = _JSON_SCALARS.get(types.pop()) if len(types) == 1 else None
        body = sep.join(map(scalar, value) if scalar else [_json(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _text(report):
    lines = ["hypermorse %s (%s)" % (report["version"], report["command"])]

    def walk(value, pad):
        if isinstance(value, dict):
            for k in sorted(value):
                v = value[k]
                if isinstance(v, (dict, list)):
                    lines.append("%s%s:" % (pad, k))
                    walk(v, pad + "  ")
                else:
                    lines.append("%s%s: %s" % (pad, k, v))
        elif isinstance(value, list):
            item = pad + "- "
            if _CONTAINERS.isdisjoint(map(type, value)):
                lines.extend([item + str(v) for v in value])
                return
            for v in value:
                if isinstance(v, (dict, list)):
                    walk(v, pad)
                else:
                    lines.append(item + str(v))
        else:
            lines.append("%s%s" % (pad, value))

    walk({k: v for k, v in report.items() if k not in ("tool", "version", "command")}, "")
    return "\n".join(lines) + "\n"


def _emit(report, fmt, out):
    out.write(_json(report) + "\n" if fmt == "json" else _text(report))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_complex(args, out):
    doc, raw = _load_json(args.file)
    h, _ = parse_hypergraph_document(doc)
    complex_ = (
        hypercore.delta_closure(h) if args.mode == "assoc" else hypercore.lower_complex(h)
    )
    counts = {}
    for n in range(complex_.max_dimension() + 1):
        counts[str(n)] = len(complex_.edges_of_dim(n))
    result = {
        "mode": args.mode,
        "complex": {
            "vertices": list(complex_.vertex_set.names),
            "hyperedges": _edge_keys(complex_, complex_.edges),
        },
        "simplex_counts": counts,
    }
    return _report("complex", raw, None, result, _notes_for(h), args.timestamp)


def _homology_to_json(res):
    return {
        "betti": list(res.betti),
        "torsion": [list(t) for t in res.torsion],
    }


def _cmd_homology(args, out):
    doc, raw = _load_json(args.file)
    h, _ = parse_hypergraph_document(doc)
    coeff = CoeffSpec.parse(args.coeff)
    which = args.which
    result = {"which": which}
    if which == "embedded":
        result.update(_homology_to_json(chains.embedded_homology(h, coeff)))
    elif which == "assoc":
        result.update(_homology_to_json(chains.simplicial_homology(hypercore.delta_closure(h), coeff)))
    elif which == "lower":
        result.update(_homology_to_json(chains.simplicial_homology(hypercore.lower_complex(h), coeff)))
    else:
        delta = hypercore.delta_closure(h)
        builder = chains.inf_complex if which == "inf" else chains.sup_complex
        scc = builder(h, coeff, delta)
        result.update(_homology_to_json(chains.subcomplex_homology(scc)))
        bases = {}
        for n in range(scc.top + 1):
            edges = scc.ambient.edges_of_dim(n)
            cols = [
                _chain_to_json(delta, {edges[i]: x for i, x in col.items()})
                for col in scc.basis[n].column_entries
            ]
            bases[str(n)] = cols
        result["bases"] = bases
    return _report("homology", raw, coeff, result, _notes_for(h), args.timestamp)


def _morse_host(on, h, values, delta):
    """The Morse function of the document's values on the host named by on:
    "assoc" (ΔH, which the values must cover), "lower" or "hyper"."""
    if values is None:
        raise InvalidDocumentError("this command needs a 'morse' block")
    if on == "assoc":
        missing = [e for e in delta.edges if e not in values]
        if missing:
            raise InvalidDocumentError(
                "morse block must cover the associated complex; missing %s"
                % [delta.edge_key(e) for e in missing]
            )
        return morse.MorseFunction(delta, {e: values[e] for e in delta.edges})
    if on == "lower":
        lower = hypercore.lower_complex(h)
        return morse.MorseFunction(lower, {e: values[e] for e in lower.edges})
    return morse.MorseFunction(h, {e: values[e] for e in h.edges})


def _violations_to_json(h, violations):
    return [
        {
            "alpha": h.edge_key(v.alpha),
            "kind": v.kind,
            "witnesses": _edge_keys(h, v.witnesses),
        }
        for v in violations
    ]


def _cmd_morse(args, out):
    doc, raw = _load_json(args.file)
    h, values, delta = _parse_document(doc)
    f = _morse_host(args.on, h, values, delta)
    host = f.host
    result = {"on": args.on}
    if args.sub == "check":
        ok, violations = morse.is_morse(f)
        result["is_morse"] = ok
        result["violations"] = _violations_to_json(host, violations)
    elif args.sub == "critical":
        report = morse.critical_set(f)
        result["critical"] = _edge_keys(host, report.critical)
        result["witnesses"] = {
            host.edge_key(e): {
                "low_cofaces": _edge_keys(host, w["low_cofaces"]),
                "high_faces": _edge_keys(host, w["high_faces"]),
            }
            for e, w in sorted(report.witnesses.items(), key=lambda kv: edge_sort_key(kv[0]))
        }
    elif args.sub == "gradient":
        field = morse.gradient(f)
        glm = morse.linear_map(field, Z)
        result["pairs"] = [
            [host.edge_key(a), host.edge_key(b)] for a, b in field.pairs
        ]
        result["proper"] = morse.is_proper(field)
        result["semi_proper"] = morse.is_semi_proper(field)
        result["acyclic"] = morse.is_acyclic(field)[0]
        result["linear_map"] = {
            str(n): [[x for x in row] for row in glm.matrices[n].data]
            for n in range(len(glm.matrices))
        }
    else:  # extend
        result["obstruction"] = _edge_keys(host, morse.extension_obstruction(f))
        try:
            extension = morse.search_extension(f, grid_levels=args.grid)
        except SizeCapExceeded:
            result["verdict"] = "size-capped"
            result["extension"] = None
            report = _report("morse", raw, Z, result, _notes_for(h), args.timestamp)
            _emit(report, args.format, out)
            return EXIT_SIZE_CAP
        if extension is None:
            result["verdict"] = "none"
            result["extension"] = None
        else:
            result["verdict"] = "extended"
            result["extension"] = {
                extension.host.edge_key(e): _format_rational(x)
                for e, x in sorted(extension.values.items(), key=lambda kv: edge_sort_key(kv[0]))
            }
    return _report("morse", raw, Z, result, _notes_for(h), args.timestamp)


def _load_morphism(args):
    doc, raw = _load_json(args.file)
    if not isinstance(doc, dict):
        raise InvalidDocumentError("morphism document must be a JSON object")
    unknown = set(doc) - {"source", "target", "map"}
    if unknown:
        raise InvalidDocumentError("morphism document: unknown fields %s" % sorted(unknown))

    def side(which):
        value = doc.get(which)
        if isinstance(value, str):
            inner, _ = _load_json(value)
            return parse_hypergraph_document(inner, where=which)[0]
        return parse_hypergraph_document(value, where=which)[0]

    source = side("source")
    target = side("target")
    vmap = doc.get("map")
    if not isinstance(vmap, dict):
        raise InvalidDocumentError("morphism document: 'map' must be an object")
    try:
        phi = morphisms.HypergraphMorphism(source, target, vmap)
    except MorphismError as exc:
        raise InvalidDocumentError(str(exc)) from exc
    return phi, raw


def _cmd_map(args, out):
    phi, raw = _load_morphism(args)
    # the morphism check comes before --coeff is read
    morphisms.induced_assoc_map(phi)
    coeff = CoeffSpec.parse(args.coeff)
    result = {"valid": True}
    kinds = ["lower", "embedded", "assoc"] if args.induced == "all" else [args.induced]
    induced = {}
    # the maps and the diagram check share the complexes, bases and induced
    # matrices kept on phi
    for kind in kinds:
        hm = morphisms.induced_homology_map(phi, kind, coeff)
        induced[kind] = {
            "degrees": {
                str(n): {
                    "matrix": _matrix_to_json(hm.matrices[n]),
                    "source_betti": hm.matrices[n].cols,
                    "target_betti": hm.matrices[n].rows,
                }
                for n in range(len(hm.matrices))
            },
            "source_basis": [
                [_chain_to_json(phi.source, rep) for rep in level]
                for level in hm.source_basis
            ],
            "target_basis": [
                [_chain_to_json(phi.target, rep) for rep in level]
                for level in hm.target_basis
            ],
        }
    result["induced"] = induced
    if args.check_diagram:
        commutes, failing = morphisms.check_commuting_diagram(phi, coeff)
        result["diagram_commutes"] = commutes
        result["failing_square"] = list(failing) if failing else None
    return _report("map", raw, coeff, result, [], args.timestamp)


def _cmd_discrepancy(args, out):
    doc, raw = _load_json(args.file)
    h, values, delta = _parse_document(doc)
    f_bar = _morse_host("assoc", h, values, delta)
    m_bar = morse.critical_set(f_bar).critical
    m_low = morse.critical_set(morse.restrict(f_bar, h)).critical
    tagged = morse.critical_discrepancy(f_bar, h)
    inter = [e for e in m_bar if h.contains_edge(e)]
    result = {
        "critical_assoc": _edge_keys(delta, m_bar),
        "critical_hyper": _edge_keys(h, m_low),
        "intersection": _edge_keys(h, inter),
        "discrepancy": [
            {"edge": h.edge_key(e), "case": case} for e, case in tagged
        ],
    }
    return _report("discrepancy", raw, Z, result, _notes_for(h), args.timestamp)


# ---------------------------------------------------------------------------


def _non_negative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % (text,)) from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative, got %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypermorse",
        description="Hypergraph homology and discrete Morse analysis over exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version="hypermorse " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument(
            "--timestamp", action="store_true", help="include a timestamp field (breaks byte determinism)"
        )

    p = sub.add_parser("complex", help="associated or lower-associated complex")
    p.add_argument("file")
    p.add_argument("--mode", choices=["assoc", "lower"], required=True)
    common(p)

    p = sub.add_parser("homology", help="Betti numbers and torsion")
    p.add_argument("file")
    p.add_argument("--coeff", default="z", help="z, q, or zp:<prime>")
    p.add_argument(
        "--which",
        choices=["embedded", "assoc", "lower", "inf", "sup"],
        default="embedded",
    )
    common(p)

    p = sub.add_parser("morse", help="discrete Morse analysis")
    p.add_argument("file")
    p.add_argument("sub", choices=["check", "critical", "gradient", "extend"])
    p.add_argument("--on", choices=["hyper", "assoc", "lower"], default="hyper")
    p.add_argument(
        "--grid",
        type=_non_negative_int,
        default=None,
        help="lower bound on the levels per value gap for extend",
    )
    common(p)

    p = sub.add_parser("map", help="induced homology maps of a morphism")
    p.add_argument("file")
    p.add_argument("--induced", choices=["lower", "assoc", "embedded", "all"], default="all")
    p.add_argument("--coeff", default="q", help="q or zp:<prime>")
    p.add_argument("--check-diagram", action="store_true")
    common(p)

    p = sub.add_parser("discrepancy", help="critical sets downstairs vs upstairs")
    p.add_argument("file")
    common(p)

    return parser


_DISPATCH = {
    "complex": _cmd_complex,
    "homology": _cmd_homology,
    "morse": _cmd_morse,
    "map": _cmd_map,
    "discrepancy": _cmd_discrepancy,
}


@functools.cache
def _parser():
    # argparse keeps no state between parse_args calls, so one parser serves
    # every call of main in the process
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    out = sys.stdout
    try:
        outcome = _DISPATCH[args.command](args, out)
    except _ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except InvalidDocumentError as exc:
        print("invalid document: %s" % exc, file=sys.stderr)
        return EXIT_BAD_DOCUMENT
    except NotMorseError as exc:
        print("invalid document: %s" % exc, file=sys.stderr)
        return EXIT_BAD_DOCUMENT
    except MorphismError as exc:
        print("invalid morphism: %s" % exc, file=sys.stderr)
        return EXIT_BAD_MORPHISM
    except SizeCapExceeded as exc:
        print("size cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_SIZE_CAP
    except (InternalConsistencyError, MalformedSubcomplexError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print("invalid document: %s" % exc, file=sys.stderr)
        return EXIT_BAD_DOCUMENT
    if isinstance(outcome, int):
        return outcome
    _emit(outcome, args.format, out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
