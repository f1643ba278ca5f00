import collections
import contextlib
import hashlib
import io
import itertools
import json
import random
import time
import warnings
from fractions import Fraction

import pytest

from hypermorse import chains, cli, hypercore, morphisms
from hypermorse.hypercore import delta_closure

import generators
import oracles

SECTION6_DOC = {
    "vertices": ["v0", "v1", "v2", "v3"],
    "hyperedges": [
        ["v0"],
        ["v1"],
        ["v2"],
        ["v3"],
        ["v0", "v1"],
        ["v0", "v3"],
        ["v1", "v3"],
        ["v0", "v1", "v2"],
    ],
    "morse": {
        "v0": "1",
        "v1": 0,
        "v2": 0,
        "v3": 0,
        "v0,v1": 1,
        "v1,v2": 1,
        "v1,v3": 1,
        "v0,v2": 2,
        "v0,v3": 2,
        "v0,v1,v2": 2,
    },
}

DOC_311 = {
    "vertices": ["v0", "v1", "v2"],
    "hyperedges": [["v0"], ["v0", "v1"], ["v0", "v1", "v2"]],
    "morse": {"v0": 2, "v0,v1": 1, "v0,v1,v2": 0},
}

DOC_315 = {
    "vertices": ["v0", "v1", "v2"],
    "hyperedges": [["v0"], ["v1"], ["v2"], ["v0", "v1", "v2"]],
    "morse": {"v0": 2, "v1": 2, "v2": 2, "v0,v1,v2": 0},
}

DOC_226 = {
    "vertices": ["v0", "v1", "v2"],
    "hyperedges": [["v0", "v1"], ["v1", "v2"], ["v0", "v2"]],
}

DOC_226_PRIME = {
    "vertices": ["v0", "v1", "v2"],
    "hyperedges": [["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0", "v1", "v2"]],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _result(out):
    return json.loads(out)["result"]


def test_complex_assoc_section6(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["complex", path, "--mode", "assoc"])
    assert code == 0
    result = _result(out)
    assert result["complex"]["hyperedges"] == [
        "v0",
        "v1",
        "v2",
        "v3",
        "v0,v1",
        "v0,v2",
        "v0,v3",
        "v1,v2",
        "v1,v3",
        "v0,v1,v2",
    ]
    assert result["simplex_counts"] == {"0": 4, "1": 5, "2": 1}


def test_complex_lower_section6(tmp_path, capsys):
    # the three 1-hyperedges stay: every face of each is itself a hyperedge
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["complex", path, "--mode", "lower"])
    assert code == 0
    result = _result(out)
    assert result["complex"]["hyperedges"] == [
        "v0",
        "v1",
        "v2",
        "v3",
        "v0,v1",
        "v0,v3",
        "v1,v3",
    ]


def test_complex_empty(tmp_path, capsys):
    path = _write(tmp_path, "empty.json", {"vertices": ["a"], "hyperedges": []})
    code, out, err = _run(capsys, ["complex", path, "--mode", "assoc"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["complex"]["hyperedges"] == []
    assert "empty hypergraph" in report["notes"]


def test_homology_embedded_section6(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["homology", path])
    assert code == 0
    result = _result(out)
    assert result["betti"] == [2, 1, 0]
    assert result["torsion"] == [[], [], []]
    assert json.loads(out)["coefficients"] == "Z"


def test_homology_2_24_prime(tmp_path, capsys):
    doc = {
        "vertices": ["v0", "v1", "v2", "v3"],
        "hyperedges": [
            ["v0", "v1", "v2", "v3"],
            ["v0", "v1"],
            ["v0", "v2"],
            ["v0", "v3"],
            ["v1", "v2"],
            ["v1", "v3"],
            ["v2", "v3"],
            ["v0"],
        ],
    }
    path = _write(tmp_path, "hp24.json", doc)
    code, out, err = _run(capsys, ["homology", path, "--which", "embedded"])
    assert code == 0
    assert _result(out)["betti"] == [1, 3, 0, 0]


def test_homology_single_vertex_all_coeffs(tmp_path, capsys):
    path = _write(tmp_path, "pt.json", {"vertices": ["a"], "hyperedges": [["a"]]})
    for coeff in ("z", "q", "zp:3"):
        code, out, err = _run(capsys, ["homology", path, "--coeff", coeff])
        assert code == 0
        assert _result(out)["betti"] == [1]


def test_homology_large_prime_moduli(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["homology", path, "--coeff", "zp:1000000000000000003"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert json.loads(out)["coefficients"] == "Z/1000000000000000003"
    assert _result(out)["betti"] == [2, 1, 0]
    code, out, err = _run(capsys, ["homology", path, "--coeff", "zp:1000000000000000001"])
    assert (code, out) == (3, "")
    assert err == "invalid document: prime field needs a prime modulus, got 1000000000000000001\n"
    code, out, err = _run(capsys, ["homology", path, "--coeff", "zp:%d" % (2**64 + 13)])
    assert (code, out) == (3, "")
    assert err == "invalid document: prime field modulus must be below 2**64, got %d\n" % (2**64 + 13)


def test_homology_inf_sup_bases(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["homology", path, "--which", "inf"])
    assert code == 0
    result = _result(out)
    assert result["betti"] == [2, 1, 0]
    assert result["bases"]["1"] == [
        [["1", "v0,v1"]],
        [["1", "v0,v3"]],
        [["1", "v1,v3"]],
    ]
    code, out, err = _run(capsys, ["homology", path, "--which", "sup"])
    result = _result(out)
    assert result["bases"]["2"] == [[["1", "v0,v1,v2"]]]
    assert len(result["bases"]["1"]) == 4


def test_homology_assoc_and_lower(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["homology", path, "--which", "assoc"])
    assert _result(out)["betti"] == [1, 1, 0]
    code, out, err = _run(capsys, ["homology", path, "--which", "lower"])
    assert _result(out)["betti"] == [2, 1]


def test_homology_builds_the_closure_only_where_it_is_read(tmp_path, capsys, monkeypatch):
    # embedded_homology builds its own ΔH; the lower complex needs none
    calls = []
    build = hypercore.delta_closure

    def counting(h):
        calls.append(h)
        return build(h)

    monkeypatch.setattr(hypercore, "delta_closure", counting)
    doc = {k: v for k, v in SECTION6_DOC.items() if k != "morse"}
    path = _write(tmp_path, "h6.json", doc)
    for which, closures in (("embedded", 1), ("assoc", 1), ("lower", 0), ("inf", 1), ("sup", 1)):
        calls.clear()
        code, out, err = _run(capsys, ["homology", path, "--which", which])
        assert code == 0 and len(calls) == closures, which


# homology --coeff q on RP^2 and the mod-3 Moore space, each given by its
# triangles and edges (no vertices): over Z, H_1 holds Z/2 or Z/3 in the
# embedded, assoc, inf and sup homology, and over Q it must vanish.  The
# reports were recorded while embedded and simplicial homology over Q were
# still eliminated over Q; inf and sup print the RREF bases of complexes
# built over Q.

RP2_DOC = {
    "vertices": ["v1", "v2", "v3", "v4", "v5", "v6"],
    "hyperedges": [
        ["v1", "v2", "v3"], ["v1", "v3", "v4"], ["v1", "v4", "v5"], ["v1", "v5", "v6"],
        ["v1", "v2", "v6"], ["v2", "v3", "v5"], ["v3", "v4", "v6"], ["v2", "v4", "v5"],
        ["v3", "v5", "v6"], ["v2", "v4", "v6"],
    ],
}


def _with_edges(doc):
    edges = {tuple(sorted(p)) for t in doc["hyperedges"] for p in itertools.combinations(t, 2)}
    hyperedges = doc["hyperedges"] + [list(e) for e in sorted(edges)]
    return {"vertices": doc["vertices"], "hyperedges": hyperedges}


Q_HOMOLOGY_DOCS = {
    "RP2": _with_edges(RP2_DOC),
    "Moore3": _with_edges(generators.mod3_moore_document()),
}

Q_HOMOLOGY_DIGESTS = {
    "RP2": "sha256:0b639b781710bcc070795e0b1d50c4ac5bf01854f1911775ab98378704f000db",
    "Moore3": "sha256:873083527a84a1a98316ad8cddb9237f1fc17a6fc9722e1831e762b44fc6f690",
}

Q_HOMOLOGY_REPORTS = {
    ("RP2", "embedded"): {"betti": [0, 0, 0], "torsion": [[], [], []], "which": "embedded"},
    ("RP2", "assoc"): {"betti": [1, 0, 0], "torsion": [[], [], []], "which": "assoc"},
    ("RP2", "lower"): {"betti": [], "torsion": [], "which": "lower"},
    ("RP2", "inf"): {
        "bases": {
            "0": [],
            "1": [
                [["1", "v1,v2"], ["-1", "v1,v6"], ["1", "v2,v6"]],
                [["1", "v1,v3"], ["-1", "v1,v6"], ["1", "v3,v6"]],
                [["1", "v1,v4"], ["-1", "v1,v6"], ["1", "v4,v6"]],
                [["1", "v1,v5"], ["-1", "v1,v6"], ["1", "v5,v6"]],
                [["1", "v2,v3"], ["-1", "v2,v6"], ["1", "v3,v6"]],
                [["1", "v2,v4"], ["-1", "v2,v6"], ["1", "v4,v6"]],
                [["1", "v2,v5"], ["-1", "v2,v6"], ["1", "v5,v6"]],
                [["1", "v3,v4"], ["-1", "v3,v6"], ["1", "v4,v6"]],
                [["1", "v3,v5"], ["-1", "v3,v6"], ["1", "v5,v6"]],
                [["1", "v4,v5"], ["-1", "v4,v6"], ["1", "v5,v6"]],
            ],
            "2": [
                [["1", "v1,v2,v3"]], [["1", "v1,v2,v6"]], [["1", "v1,v3,v4"]], [["1", "v1,v4,v5"]],
                [["1", "v1,v5,v6"]], [["1", "v2,v3,v5"]], [["1", "v2,v4,v5"]], [["1", "v2,v4,v6"]],
                [["1", "v3,v4,v6"]], [["1", "v3,v5,v6"]],
            ],
        },
        "betti": [0, 0, 0],
        "torsion": [[], [], []],
        "which": "inf",
    },
    ("RP2", "sup"): {
        "bases": {
            "0": [
                [["1", "v1"], ["-1", "v6"]], [["1", "v2"], ["-1", "v6"]],
                [["1", "v3"], ["-1", "v6"]], [["1", "v4"], ["-1", "v6"]],
                [["1", "v5"], ["-1", "v6"]],
            ],
            "1": [
                [["1", "v1,v2"]], [["1", "v1,v3"]], [["1", "v1,v4"]], [["1", "v1,v5"]],
                [["1", "v1,v6"]], [["1", "v2,v3"]], [["1", "v2,v4"]], [["1", "v2,v5"]],
                [["1", "v2,v6"]], [["1", "v3,v4"]], [["1", "v3,v5"]], [["1", "v3,v6"]],
                [["1", "v4,v5"]], [["1", "v4,v6"]], [["1", "v5,v6"]],
            ],
            "2": [
                [["1", "v1,v2,v3"]], [["1", "v1,v2,v6"]], [["1", "v1,v3,v4"]], [["1", "v1,v4,v5"]],
                [["1", "v1,v5,v6"]], [["1", "v2,v3,v5"]], [["1", "v2,v4,v5"]], [["1", "v2,v4,v6"]],
                [["1", "v3,v4,v6"]], [["1", "v3,v5,v6"]],
            ],
        },
        "betti": [0, 0, 0],
        "torsion": [[], [], []],
        "which": "sup",
    },
    ("Moore3", "embedded"): {"betti": [0, 0, 0], "torsion": [[], [], []], "which": "embedded"},
    ("Moore3", "assoc"): {"betti": [1, 0, 0], "torsion": [[], [], []], "which": "assoc"},
    ("Moore3", "lower"): {"betti": [], "torsion": [], "which": "lower"},
    ("Moore3", "inf"): {
        "bases": {
            "0": [],
            "1": [
                [["1", "a0,a1"], ["-1", "a0,x8"], ["1", "a1,x7"], ["1", "x7,c"], ["-1", "x8,c"]],
                [["1", "a0,a2"], ["-1", "a0,x8"], ["1", "a2,x8"]],
                [["1", "a0,x0"], ["-1", "a0,x8"], ["1", "x0,c"], ["-1", "x8,c"]],
                [["1", "a0,x2"], ["-1", "a0,x8"], ["1", "x2,c"], ["-1", "x8,c"]],
                [["1", "a0,x3"], ["-1", "a0,x8"], ["1", "x3,c"], ["-1", "x8,c"]],
                [["1", "a0,x5"], ["-1", "a0,x8"], ["1", "x5,c"], ["-1", "x8,c"]],
                [["1", "a0,x6"], ["-1", "a0,x8"], ["1", "x6,c"], ["-1", "x8,c"]],
                [["1", "a1,a2"], ["-1", "a1,x7"], ["1", "a2,x8"], ["-1", "x7,c"], ["1", "x8,c"]],
                [["1", "a1,x0"], ["-1", "a1,x7"], ["1", "x0,c"], ["-1", "x7,c"]],
                [["1", "a1,x1"], ["-1", "a1,x7"], ["1", "x1,c"], ["-1", "x7,c"]],
                [["1", "a1,x3"], ["-1", "a1,x7"], ["1", "x3,c"], ["-1", "x7,c"]],
                [["1", "a1,x4"], ["-1", "a1,x7"], ["1", "x4,c"], ["-1", "x7,c"]],
                [["1", "a1,x6"], ["-1", "a1,x7"], ["1", "x6,c"], ["-1", "x7,c"]],
                [["1", "a2,x1"], ["-1", "a2,x8"], ["1", "x1,c"], ["-1", "x8,c"]],
                [["1", "a2,x2"], ["-1", "a2,x8"], ["1", "x2,c"], ["-1", "x8,c"]],
                [["1", "a2,x4"], ["-1", "a2,x8"], ["1", "x4,c"], ["-1", "x8,c"]],
                [["1", "a2,x5"], ["-1", "a2,x8"], ["1", "x5,c"], ["-1", "x8,c"]],
                [["1", "a2,x7"], ["-1", "a2,x8"], ["1", "x7,c"], ["-1", "x8,c"]],
                [["1", "x0,x1"], ["-1", "x0,c"], ["1", "x1,c"]],
                [["1", "x0,x8"], ["-1", "x0,c"], ["1", "x8,c"]],
                [["1", "x1,x2"], ["-1", "x1,c"], ["1", "x2,c"]],
                [["1", "x2,x3"], ["-1", "x2,c"], ["1", "x3,c"]],
                [["1", "x3,x4"], ["-1", "x3,c"], ["1", "x4,c"]],
                [["1", "x4,x5"], ["-1", "x4,c"], ["1", "x5,c"]],
                [["1", "x5,x6"], ["-1", "x5,c"], ["1", "x6,c"]],
                [["1", "x6,x7"], ["-1", "x6,c"], ["1", "x7,c"]],
                [["1", "x7,x8"], ["-1", "x7,c"], ["1", "x8,c"]],
            ],
            "2": [
                [["1", "a0,a1,x0"]], [["1", "a0,a1,x3"]], [["1", "a0,a1,x6"]], [["1", "a0,a2,x2"]],
                [["1", "a0,a2,x5"]], [["1", "a0,a2,x8"]], [["1", "a0,x0,x8"]], [["1", "a0,x2,x3"]],
                [["1", "a0,x5,x6"]], [["1", "a1,a2,x1"]], [["1", "a1,a2,x4"]], [["1", "a1,a2,x7"]],
                [["1", "a1,x0,x1"]], [["1", "a1,x3,x4"]], [["1", "a1,x6,x7"]], [["1", "a2,x1,x2"]],
                [["1", "a2,x4,x5"]], [["1", "a2,x7,x8"]], [["1", "x0,x1,c"]], [["1", "x0,x8,c"]],
                [["1", "x1,x2,c"]], [["1", "x2,x3,c"]], [["1", "x3,x4,c"]], [["1", "x4,x5,c"]],
                [["1", "x5,x6,c"]], [["1", "x6,x7,c"]], [["1", "x7,x8,c"]],
            ],
        },
        "betti": [0, 0, 0],
        "torsion": [[], [], []],
        "which": "inf",
    },
    ("Moore3", "sup"): {
        "bases": {
            "0": [
                [["1", "a0"], ["-1", "c"]], [["1", "a1"], ["-1", "c"]], [["1", "a2"], ["-1", "c"]],
                [["1", "x0"], ["-1", "c"]], [["1", "x1"], ["-1", "c"]], [["1", "x2"], ["-1", "c"]],
                [["1", "x3"], ["-1", "c"]], [["1", "x4"], ["-1", "c"]], [["1", "x5"], ["-1", "c"]],
                [["1", "x6"], ["-1", "c"]], [["1", "x7"], ["-1", "c"]], [["1", "x8"], ["-1", "c"]],
            ],
            "1": [
                [["1", "a0,a1"]], [["1", "a0,a2"]], [["1", "a0,x0"]], [["1", "a0,x2"]],
                [["1", "a0,x3"]], [["1", "a0,x5"]], [["1", "a0,x6"]], [["1", "a0,x8"]],
                [["1", "a1,a2"]], [["1", "a1,x0"]], [["1", "a1,x1"]], [["1", "a1,x3"]],
                [["1", "a1,x4"]], [["1", "a1,x6"]], [["1", "a1,x7"]], [["1", "a2,x1"]],
                [["1", "a2,x2"]], [["1", "a2,x4"]], [["1", "a2,x5"]], [["1", "a2,x7"]],
                [["1", "a2,x8"]], [["1", "x0,x1"]], [["1", "x0,x8"]], [["1", "x0,c"]],
                [["1", "x1,x2"]], [["1", "x1,c"]], [["1", "x2,x3"]], [["1", "x2,c"]],
                [["1", "x3,x4"]], [["1", "x3,c"]], [["1", "x4,x5"]], [["1", "x4,c"]],
                [["1", "x5,x6"]], [["1", "x5,c"]], [["1", "x6,x7"]], [["1", "x6,c"]],
                [["1", "x7,x8"]], [["1", "x7,c"]], [["1", "x8,c"]],
            ],
            "2": [
                [["1", "a0,a1,x0"]], [["1", "a0,a1,x3"]], [["1", "a0,a1,x6"]], [["1", "a0,a2,x2"]],
                [["1", "a0,a2,x5"]], [["1", "a0,a2,x8"]], [["1", "a0,x0,x8"]], [["1", "a0,x2,x3"]],
                [["1", "a0,x5,x6"]], [["1", "a1,a2,x1"]], [["1", "a1,a2,x4"]], [["1", "a1,a2,x7"]],
                [["1", "a1,x0,x1"]], [["1", "a1,x3,x4"]], [["1", "a1,x6,x7"]], [["1", "a2,x1,x2"]],
                [["1", "a2,x4,x5"]], [["1", "a2,x7,x8"]], [["1", "x0,x1,c"]], [["1", "x0,x8,c"]],
                [["1", "x1,x2,c"]], [["1", "x2,x3,c"]], [["1", "x3,x4,c"]], [["1", "x4,x5,c"]],
                [["1", "x5,x6,c"]], [["1", "x6,x7,c"]], [["1", "x7,x8,c"]],
            ],
        },
        "betti": [0, 0, 0],
        "torsion": [[], [], []],
        "which": "sup",
    },
}


@pytest.mark.parametrize("name, which", list(Q_HOMOLOGY_REPORTS))
def test_homology_over_q_prints_the_recorded_report(tmp_path, capsys, name, which):
    path = _write(tmp_path, name + ".json", Q_HOMOLOGY_DOCS[name])
    code, out, err = _run(capsys, ["homology", path, "--which", which, "--coeff", "q"])
    report = {
        "coefficients": "Q",
        "command": "homology",
        "input_digest": Q_HOMOLOGY_DIGESTS[name],
        "notes": [],
        "result": Q_HOMOLOGY_REPORTS[name, which],
        "tool": "hypermorse",
        "version": "1.0.0",
    }
    assert (code, err) == (0, "")
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_morse_check_and_critical_section6(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["morse", path, "check", "--on", "assoc"])
    assert code == 0 and _result(out)["is_morse"] is True
    code, out, err = _run(capsys, ["morse", path, "critical", "--on", "hyper"])
    assert code == 0
    assert _result(out)["critical"] == ["v1", "v2", "v3", "v0,v3", "v1,v3", "v0,v1,v2"]
    code, out, err = _run(capsys, ["morse", path, "critical", "--on", "assoc"])
    assert _result(out)["critical"] == ["v1", "v2", "v3", "v0,v3", "v1,v2", "v1,v3"]


def test_morse_gradient_section6(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["morse", path, "gradient", "--on", "assoc"])
    assert code == 0
    result = _result(out)
    assert result["pairs"] == [["v0", "v0,v1"], ["v0,v2", "v0,v1,v2"]]
    assert result["proper"] and result["semi_proper"] and result["acyclic"]
    code, out, err = _run(capsys, ["morse", path, "gradient", "--on", "hyper"])
    assert _result(out)["pairs"] == [["v0", "v0,v1"]]


def test_morse_extend_examples(tmp_path, capsys):
    path = _write(tmp_path, "e311.json", DOC_311)
    code, out, err = _run(capsys, ["morse", path, "extend"])
    assert code == 0
    result = _result(out)
    assert result["obstruction"] == ["v0,v1"]
    assert result["verdict"] == "none"
    path = _write(tmp_path, "e315.json", DOC_315)
    code, out, err = _run(capsys, ["morse", path, "extend"])
    result = _result(out)
    assert result["obstruction"] == []
    assert result["verdict"] == "none"


def test_morse_extend_found(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["morse", path, "extend"])
    assert code == 0
    result = _result(out)
    assert result["verdict"] == "extended"
    assert result["extension"]["v0,v1,v2"] == "2"


def test_morse_extend_grid_override(tmp_path, capsys):
    path = _write(tmp_path, "e315.json", DOC_315)
    code, out, err = _run(capsys, ["morse", path, "extend", "--grid", "1"])
    assert code == 0
    assert _result(out)["verdict"] == "none"


def test_morse_extend_grid_is_a_lower_bound(tmp_path, capsys):
    # two unknown vertices must both lie below the edge value: a grid without
    # fresh levels cannot express that, so --grid 0 is raised to the number
    # of unknowns instead of reporting a false "none"
    doc = {"vertices": ["a", "b"], "hyperedges": [["a", "b"]], "morse": {"a,b": 0}}
    path = _write(tmp_path, "edge.json", doc)
    code, out, err = _run(capsys, ["morse", path, "extend", "--grid", "0"])
    assert code == 0
    result = _result(out)
    assert result["verdict"] == "extended"
    assert result["extension"] == {"a": "-2", "a,b": "0", "b": "-2"}


def test_morse_extend_negative_grid_rejected(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    with pytest.raises(SystemExit) as exc:
        cli.main(["morse", path, "extend", "--grid", "-1"])
    assert exc.value.code == cli.EXIT_PARSE
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("error", ["InternalConsistencyError", "MalformedSubcomplexError"])
def test_internal_error_exit_code(tmp_path, capsys, monkeypatch, error):
    from hypermorse import chains, errors

    def broken(*args, **kwargs):
        raise getattr(errors, error)("checks disagree")

    monkeypatch.setattr(chains, "embedded_homology", broken)
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["homology", path])
    assert code == cli.EXIT_INTERNAL == 6
    assert out == ""
    assert err == "internal error: checks disagree\n"


def test_morse_extend_size_cap(tmp_path, capsys):
    doc = {
        "vertices": ["a", "b", "c", "d", "e"],
        "hyperedges": [["a", "b", "c", "d", "e"]],
        "morse": {"a,b,c,d,e": 4},
    }
    path = _write(tmp_path, "big.json", doc)
    code, out, err = _run(capsys, ["morse", path, "extend"])
    assert code == cli.EXIT_SIZE_CAP
    assert _result(out)["verdict"] == "size-capped"


def test_one_huge_hyperedge_exits_5_before_any_closure(tmp_path, capsys, monkeypatch):
    # about 10^9 cells: refused up front, in far less time than building them
    def refuse(*args):
        raise AssertionError("a closure was built")

    monkeypatch.setattr(hypercore.SimplicialComplex, "_trusted", classmethod(refuse))
    names = ["v%d" % i for i in range(30)]
    doc = {"vertices": names, "hyperedges": [names]}
    path = _write(tmp_path, "huge.json", doc)
    swap = dict(zip(names, names[1:] + names[:1]))
    mapped = _write(tmp_path, "huge_map.json", {"source": doc, "target": doc, "map": swap})
    for argv in (
        ["homology", path],
        ["homology", path, "--which", "inf", "--coeff", "zp:3"],
        ["complex", path, "--mode", "assoc"],
        ["map", mapped],
    ):
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert time.perf_counter() - start < 0.1
        assert code == cli.EXIT_SIZE_CAP == 5
        assert out == "" and err.startswith("size cap exceeded: a 30-vertex hyperedge")


def test_discrepancy_section6(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["discrepancy", path])
    assert code == 0
    result = _result(out)
    assert result["critical_assoc"] == ["v1", "v2", "v3", "v0,v3", "v1,v2", "v1,v3"]
    assert result["critical_hyper"] == ["v1", "v2", "v3", "v0,v3", "v1,v3", "v0,v1,v2"]
    assert result["intersection"] == ["v1", "v2", "v3", "v0,v3", "v1,v3"]
    assert result["discrepancy"] == [{"edge": "v0,v1,v2", "case": "iii"}]


def test_extend_and_discrepancy_do_each_step_once(tmp_path, capsys, monkeypatch):
    # extend: one scan of f serves the obstruction and the search;
    # discrepancy: each critical set once, on the ΔH the parse built, and
    # critical_discrepancy reads the reports kept on f̄ and its restriction
    from hypermorse import morse

    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(morse, "_scan", counting("scan", morse._scan))
    monkeypatch.setattr(morse, "critical_set", counting("critical_set", morse.critical_set))
    monkeypatch.setattr(hypercore, "delta_closure", counting("closure", hypercore.delta_closure))
    monkeypatch.setattr(morse, "_critical_report", counting("report", morse._critical_report))
    for doc, verdict in ((DOC_311, "none"), (DOC_315, "none")):
        counts.clear()
        code, out, err = _run(capsys, ["morse", _write(tmp_path, "e.json", doc), "extend"])
        assert code == 0 and _result(out)["verdict"] == verdict
        assert counts["scan"] == 1
    counts.clear()
    code, out, err = _run(capsys, ["discrepancy", _write(tmp_path, "h6.json", SECTION6_DOC)])
    assert code == 0 and _result(out)["discrepancy"] == [{"edge": "v0,v1,v2", "case": "iii"}]
    assert counts["critical_set"] == 2 and counts["closure"] == 1
    assert counts["scan"] == 2 and counts["report"] == 2


def test_morse_gradient_builds_one_linear_map_and_one_acyclicity_check(
    tmp_path, capsys, monkeypatch
):
    # the report and the semi-properness cross-check read the ones kept on
    # the field
    from hypermorse import morse

    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(morse, "_linear_map", counting("linear_map", morse._linear_map))
    monkeypatch.setattr(morse, "_acyclic", counting("acyclic", morse._acyclic))
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    for on in ("hyper", "assoc", "lower"):
        counts.clear()
        code, out, err = _run(capsys, ["morse", path, "gradient", "--on", on])
        assert code == 0 and _result(out)["semi_proper"] is True
        assert counts == {"linear_map": 1, "acyclic": 1}


def test_discrepancy_requires_full_cover(tmp_path, capsys):
    doc = dict(DOC_311)
    path = _write(tmp_path, "e311.json", doc)
    code, out, err = _run(capsys, ["discrepancy", path])
    assert code == cli.EXIT_BAD_DOCUMENT
    assert "associated complex" in err


def test_map_example_226(tmp_path, capsys):
    morphism = {
        "source": DOC_226,
        "target": DOC_226_PRIME,
        "map": {"v0": "v0", "v1": "v1", "v2": "v2"},
    }
    path = _write(tmp_path, "phi.json", morphism)
    code, out, err = _run(
        capsys, ["map", path, "--induced", "all", "--coeff", "q", "--check-diagram"]
    )
    assert code == 0
    result = _result(out)
    assert result["diagram_commutes"] is True
    emb = result["induced"]["embedded"]["degrees"]
    assert emb["1"] == {"matrix": [], "source_betti": 1, "target_betti": 0}
    ass = result["induced"]["assoc"]["degrees"]
    assert ass["0"] == {"matrix": [["1"]], "source_betti": 1, "target_betti": 1}
    assert ass["1"] == {"matrix": [], "source_betti": 1, "target_betti": 0}



def _map_documents():
    """Seeded quotients and inclusions, and the swap of v0 and v1 on the
    hollow triangle, which sends its one 1-cycle to minus itself."""
    rng = random.Random(118)
    docs = {}
    for i in range(3):
        docs["quotient%d" % i] = generators.quotient_morphism_document(rng, 8, 18, 2, 5)
        docs["inclusion%d" % i] = generators.inclusion_morphism_document(rng, 8, 18, 2)
    swap = {"v0": "v1", "v1": "v0", "v2": "v2"}
    docs["swap"] = {"source": DOC_226, "target": DOC_226, "map": swap}
    return docs


# exit code and sha256 of the stdout of `map DOC --induced all --check-diagram
# --coeff COEFF --format FORMAT`, keyed "DOC/COEFF/FORMAT"
MAP_STDOUT_DIGESTS = {
    "quotient0/q/json": (0, "9f021ca1b80ac67a0cd28565c3bbe225bee60fabfe2e84a7ce5b64e2bc741da0"),
    "quotient0/q/text": (0, "910b6b85e718c33bbd606a4b65c2e0db55555e6721353b5efca1d3190b1672fa"),
    "quotient0/zp:3/json": (0, "d788ca5607ba732c4a7d1431b3f1bfdb17de13b059a150584bdb49df19ec72c7"),
    "quotient0/zp:3/text": (0, "6fd0bc8e6c6f1d8227286ba05292f535096e2c16eb87bb419c169b40bccbd734"),
    "inclusion0/q/json": (0, "c73bffbb1155102f6dfaa4bbd5c58301d1754e9d5c10268ed33f33b5dfe12383"),
    "inclusion0/q/text": (0, "709a99c3c0eaa345fe65c30c343e312b380480f38b2efffa7254bb0dcf8f67a0"),
    "inclusion0/zp:3/json": (0, "bcebdbfd17534963bd7bf67143e6a7837e929aeca5564544be92246b0a257557"),
    "inclusion0/zp:3/text": (0, "a873acd57d2d6ede3c5f0f40c073f80e81925b2fce61bc70be571b4ec902e02c"),
    "quotient1/q/json": (0, "5080bf98146ef3ef9724d274d5c665f8777f268a047377fc9ce579f853de296d"),
    "quotient1/q/text": (0, "ed08c893fc4779d2cd40780388a04e2ec40ddad3080770da6da436ffb574bbf7"),
    "quotient1/zp:3/json": (0, "11f1a4bf973c45816ab1059f8ec0fc5f48ca54c2a1bf0d78e14b02c3873b277a"),
    "quotient1/zp:3/text": (0, "43afbe15f4880fcd694a3b7e3b3012e29676d403bff1952be772a1733f6ef9f0"),
    "inclusion1/q/json": (0, "1fc099f8db165077dc5420967f99d58a00db9ba57f8ba28a1c8946678cfbadf1"),
    "inclusion1/q/text": (0, "95e9b0960d7a13a1de005db4f9b235ad892b0404f67a69d0aacf25b9cf1c76f4"),
    "inclusion1/zp:3/json": (0, "812d1c03cdbdc96f0652df54d30bee93c5d9841b7a76d32e5b507ac2074d22a6"),
    "inclusion1/zp:3/text": (0, "744e07897c080c1b70d52af0b3d6ae5415adf567a02f22597c61f102a2358ecc"),
    "quotient2/q/json": (0, "5abb1095f39e073fe382933639ba524067533f7290b24d994704c62197fb234e"),
    "quotient2/q/text": (0, "f2f1be1552167bbfd221ce094de2228e4b3b7b642b3c4109cd7b65dc396b1688"),
    "quotient2/zp:3/json": (0, "84e8d04f85584532de18e3d7e6ec62cfececdf14534f4cee2fe36e163f8f303d"),
    "quotient2/zp:3/text": (0, "8cd8fd44c7648a482e4fdb9a9c74f260f51360153db25930f77dd6f41e3df43a"),
    "inclusion2/q/json": (0, "0b7ee2305af309d5985561185d3140f0f3003af025d5837185c90e7a9487832c"),
    "inclusion2/q/text": (0, "f8a547d89309d58f40e9b2b7c972f5cac7f4445795c5690d2f4d425187a74742"),
    "inclusion2/zp:3/json": (0, "6f1a437c4b1546af28ea36307f5be396f81e096fbc2b84f20c79864170e5c833"),
    "inclusion2/zp:3/text": (0, "9ca0eaa7857acbe60a061dbedb04bb97a77c6a75a882f645aac1c49f9d76c631"),
    "swap/q/json": (0, "50a0101bd0beac500aabbb1de318f3c8fbff8e6bdf78c787a96d0dadfd15d123"),
    "swap/q/text": (0, "e09dc17914b08676f5667107e25787602cb2b6d0c2efc8c20429f251da90b1d4"),
    "swap/zp:3/json": (0, "fde56d88ec2c7419da55a0f3065645c47bd9cd82c100dad19b522f0dca4f3cd2"),
    "swap/zp:3/text": (0, "e76aa519dd124a73895a4663bb4c16eec39970cd924e0484fbaff45602fa869d"),
}


def test_map_prints_the_recorded_bytes(tmp_path, capsys):
    for name, doc in _map_documents().items():
        path = _write(tmp_path, name + ".json", doc)
        for coeff in ("q", "zp:3"):
            for fmt in ("json", "text"):
                argv = ["map", path, "--induced", "all", "--check-diagram"]
                code, out, _ = _run(capsys, argv + ["--coeff", coeff, "--format", fmt])
                digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                assert (code, digest) == MAP_STDOUT_DIGESTS["%s/%s/%s" % (name, coeff, fmt)]
                if (name, coeff, fmt) == ("swap", "q", "json"):
                    induced = _result(out)["induced"]
                    for kind in ("embedded", "assoc"):
                        assert induced[kind]["degrees"]["1"]["matrix"] == [["-1"]]


README_DOC = {
    "vertices": ["v0", "v1", "v2", "v3"],
    "hyperedges": [
        ["v0"], ["v1"], ["v2"], ["v3"], ["v0", "v1"], ["v0", "v3"], ["v1", "v3"], ["v0", "v1", "v2"],
    ],
    "morse": {
        "v0": 1, "v1": 0, "v2": 0, "v3": 0, "v0,v1": 1, "v1,v2": 1, "v1,v3": 1,
        "v0,v2": 2, "v0,v3": 2, "v0,v1,v2": 2,
    },
}


def _matrix_documents():
    """Seeded hypergraphs (Morse values on ΔH, on H, or none), RP^2 with
    Morse values on its closure, and README's example."""
    docs = {"seeded%d" % i: doc for i, doc in enumerate(_seeded_documents(119, 3))}
    rng = random.Random(119)
    rp2 = hypercore.Hypergraph.from_labels(RP2_DOC["vertices"], RP2_DOC["hyperedges"])
    docs["RP2"] = _document(rng, rp2, generators.random_morse_function(rng, delta_closure(rp2)).values)
    docs["README"] = README_DOC
    return docs


def _matrix_commands():
    """The commands that print matrices whose orientation a transposed
    read would change: inf/sup bases and Morse gradients' linear maps."""
    for which in ("inf", "sup"):
        for coeff in ("z", "q", "zp:3"):
            yield "homology/%s/%s" % (which, coeff), ["homology", "--which", which, "--coeff", coeff]
    for on in ("hyper", "assoc", "lower"):
        yield "gradient/%s" % on, ["morse", "gradient", "--on", on]


# exit code and sha256 of the stdout of each _matrix_commands() command line
# on each _matrix_documents() document, keyed "DOC/COMMAND/FORMAT"
MATRIX_STDOUT_DIGESTS = {
    "seeded0/homology/inf/z/json": (0, "bc5ec20ce1af7bb8e7a34371187960be020461c680e6f8d7f2098d175510ad5d"),
    "seeded0/homology/inf/z/text": (0, "c25ed5b094a20be169b82fbadd7c95ce24768bc90f7f3820df15dd6c0bb37927"),
    "seeded0/homology/inf/q/json": (0, "0c85fdfd75a6e28bc70769cab2e0a03c29a34ca35532737ca4d8d99b2694f19d"),
    "seeded0/homology/inf/q/text": (0, "bc462487aec1020ca3707a02506dc72fa849e4b12dafd3af183199b9c8f3c61c"),
    "seeded0/homology/inf/zp:3/json": (0, "a020a739543817d784781a7d8530c15cd8a81a79e221c2e4f2c050383f371a4d"),
    "seeded0/homology/inf/zp:3/text": (0, "1f42ae69703bba36bfc713f10e443586a48d3edab9a9a7323cc1fc93a3f4e9aa"),
    "seeded0/homology/sup/z/json": (0, "1846ceb176158309a61e2d2b9e678b8f52744e6c7ce366fd08902ff70bcacdd3"),
    "seeded0/homology/sup/z/text": (0, "4e619003595d92a902e175b23a90f872e75fb473c98c61cddb9eff16fdda34a5"),
    "seeded0/homology/sup/q/json": (0, "f478125bbf2384d5ca006623b7cf535ccb3d398583a85aebe1151c57662fee5c"),
    "seeded0/homology/sup/q/text": (0, "2d49074b867669a6f0f7c45bc68070629cdbfb294d59649f3cafd028e671cf3f"),
    "seeded0/homology/sup/zp:3/json": (0, "3f6bb6ac73dc529980f61219b80a64c6f53aa483fd8e2a2b36a4bdf175eeafa0"),
    "seeded0/homology/sup/zp:3/text": (0, "58369e901d151457494df87e0c8d8ba65a2fa04852e4bd6d5b8653b6521c974c"),
    "seeded0/gradient/hyper/json": (0, "218e7e6f4c5382ed535c45751ce4802a25a74a6dff98a3428440dde6b1af5c42"),
    "seeded0/gradient/hyper/text": (0, "b82535f6fc164ba3c242a3178c52f202327dd31d88551070d297248db4d94a0f"),
    "seeded0/gradient/assoc/json": (0, "05043b4e46df663f7cca2569374a59b630edd1cf5c11fadaf6381f21b8ff9dcd"),
    "seeded0/gradient/assoc/text": (0, "5dba6e4ec2318482f118039282baebd69726e520f2be4f9acde65438f5d9dc6e"),
    "seeded0/gradient/lower/json": (0, "b6d43019ad98c85feea8bacd55abfbf4417bb28aa98e3e73706d69090098ef5a"),
    "seeded0/gradient/lower/text": (0, "0f7eeb09ea53adc2e78d9e9c9cdd69a16660ce5a13fe3abaeaec2cf2a6f00ac1"),
    "seeded1/homology/inf/z/json": (0, "56f3ae885b237d26b09221568d374952e3fef70d83cd65acf963d7c3266197b0"),
    "seeded1/homology/inf/z/text": (0, "fdfa13c34b3fc3175ca6cba52b39f045a1ff2c7e17b59fccda6f8ff9ae3dd430"),
    "seeded1/homology/inf/q/json": (0, "56b25df7f9b0d164cc599aafb099b8e26cf0ebf47f35733e719928f74c80225e"),
    "seeded1/homology/inf/q/text": (0, "dab50e89f1ea92efa2d9cf20fda5e5d5afd204a03d3f46ce063d5d56c37b2fa0"),
    "seeded1/homology/inf/zp:3/json": (0, "85da121647bcf11e6dae0b1ba8117c33b2747e92ec36a30e7b8bed0adae5b14d"),
    "seeded1/homology/inf/zp:3/text": (0, "348952b80cd81513bfb232099cc8837b9d3cdf1c730493d5d5880c9d50b35c3a"),
    "seeded1/homology/sup/z/json": (0, "f9c9f220517acc6e15cefddc2d91aeefd0f1a1f726e87d96c0a402291165e43a"),
    "seeded1/homology/sup/z/text": (0, "f3ff6475ed74f88da7574b92911b9701b3c18898d7711685b3499f52d5c89b91"),
    "seeded1/homology/sup/q/json": (0, "37eddf7ad46add616f927193f2f30bbf2be4b08f6e0bd1ecd42592352248c1eb"),
    "seeded1/homology/sup/q/text": (0, "002e60e79584ade93014e364f847cd828c86689a10d4bcfca98068f3eab8e58d"),
    "seeded1/homology/sup/zp:3/json": (0, "7fb2f1b125edc2045dd3fe001803468c9a300511882b345d60bac035a584761c"),
    "seeded1/homology/sup/zp:3/text": (0, "8198de418601521278d094b5ae9f378c7b7e5e5c2be0d4f25c60b07b40102db6"),
    "seeded1/gradient/hyper/json": (0, "1cd94131843adb046640e7f996cbde0505950b54ff25443786ed13562be04bfe"),
    "seeded1/gradient/hyper/text": (0, "ff39b91be98ca2e68efca6a7751d4381a50536416e3aecf8db0298371c1ffdc0"),
    "seeded1/gradient/assoc/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded1/gradient/assoc/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded1/gradient/lower/json": (0, "0b121f1a8b7683a5a7510cf6de1dda2d3cda639b70d06155b6f1a1218c84ff11"),
    "seeded1/gradient/lower/text": (0, "f1acc11bb669fbe163983d312b25a724496e706a06c35b66055ed9f1cec42a12"),
    "seeded2/homology/inf/z/json": (0, "31e2c10b619ab79a3f263caabdf202147cec1dd4e59df0cefffb8a4fcb79ea1a"),
    "seeded2/homology/inf/z/text": (0, "91876d3a6a5998206de13e376a60f3e5c6fea24126803ea1ef2c9d15dd805439"),
    "seeded2/homology/inf/q/json": (0, "11e51b44e7c8f68493bee386b1af47655eaab218ac3e7138f44256188b345ef8"),
    "seeded2/homology/inf/q/text": (0, "2d5ec11932f5056ecb189bc1d438b2b6f06e2cb887216107aabe4b671540ada7"),
    "seeded2/homology/inf/zp:3/json": (0, "63e5d8eb8720b38a59810b75126b245bea25352e9097a15277603017694e5abe"),
    "seeded2/homology/inf/zp:3/text": (0, "27aaf8a6a1af4f5d0849278acb9cf8c1f8e3c98d71462327c76d5b9ebbf7f645"),
    "seeded2/homology/sup/z/json": (0, "ad4a0e61f1980f0d0367108ad80bc8c6d0c39e688f36d05a92ad499dcc403d97"),
    "seeded2/homology/sup/z/text": (0, "0da194a28fdd304b8bcc8f9255bde5d5c4a115d2e19821b13ccb813e50b7beea"),
    "seeded2/homology/sup/q/json": (0, "ccb20a2bf2b91868f4706bf80e29ba1688077e6e399c17cea22ebe8bbb242f6f"),
    "seeded2/homology/sup/q/text": (0, "adf9525eab8dedd389f884ff8904e396d76717c7aec86f0b8168502797202c59"),
    "seeded2/homology/sup/zp:3/json": (0, "61c3748a30d0c2b3c4e54715aeb0b66a7b5ce711c6414f683f500e777953d06d"),
    "seeded2/homology/sup/zp:3/text": (0, "06666da5b368bd2796b6909eafab5cba994df0eeedb6e30b019c1163538d5b02"),
    "seeded2/gradient/hyper/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded2/gradient/hyper/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded2/gradient/assoc/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded2/gradient/assoc/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded2/gradient/lower/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded2/gradient/lower/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded3/homology/inf/z/json": (0, "3754d4a961454386cfbbc5e99bf60a1bbd765312fb76bd0e47981f27169940b2"),
    "seeded3/homology/inf/z/text": (0, "0ae03843e79832ff167ecb708ef2065c05b160dc9970446f01718cfcc4ad3479"),
    "seeded3/homology/inf/q/json": (0, "1f26e92a49ca6495d5b2a7fc14c4659da1a24a9a1faf9979f1d7679c59853b89"),
    "seeded3/homology/inf/q/text": (0, "d128b2fd641a7c2bda8aba8d809f14d135f05992ed1f6cc1e5fe4106ffab11ec"),
    "seeded3/homology/inf/zp:3/json": (0, "6464bfe078e2eb00b71798976ca2b1bc772701d988d0fdf818c1bc7b75e7b372"),
    "seeded3/homology/inf/zp:3/text": (0, "8deb4cf94afa7fcbeb1b9b31ada078fcaa094433d31a93edc4c1112fad7fc177"),
    "seeded3/homology/sup/z/json": (0, "a17b017e48c0abbbc618908bc5a8acb66d7d781d3dadcc45ce3a3a5641b7ccd6"),
    "seeded3/homology/sup/z/text": (0, "d08947908fa7ed223bdb15c4eccb4565f43e18981866ecc985ac0f21dc836e59"),
    "seeded3/homology/sup/q/json": (0, "488839d3ad3ba7511ee0158ba468431907e93dc912be85f2630e493695b89d51"),
    "seeded3/homology/sup/q/text": (0, "0816ed18d32a5d6cde1b0c830d5515bcce06d6ac5af8ef86c7dca7f256f3d7ae"),
    "seeded3/homology/sup/zp:3/json": (0, "41ab83aee6c110b718a22459ecdd1032f1f1043ef035b8a85c8ecda4faecaf95"),
    "seeded3/homology/sup/zp:3/text": (0, "722efa57d098450bbb82c943166ce7aa4bcda1c65984fbc94c1bc27e50811357"),
    "seeded3/gradient/hyper/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded3/gradient/hyper/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded3/gradient/assoc/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded3/gradient/assoc/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded3/gradient/lower/json": (0, "65eb3870779deabcf1e0d01767d87c465e0433130e72380401a734f768ddfa32"),
    "seeded3/gradient/lower/text": (0, "d12ec62287f17d21f136cc202c8c6f01317dfe3e5de95766a5180fc75f09f3e4"),
    "seeded4/homology/inf/z/json": (0, "bf969134491d33326e7540064ffd2cc7d6be2f1377eb7b0bd6b7edb0f4fc1f5c"),
    "seeded4/homology/inf/z/text": (0, "525dcb29b3ad1f6f07335347927d223b7d63a6f6a4d5ff6d7ded292ff6033ac0"),
    "seeded4/homology/inf/q/json": (0, "a755c7b0048b3aef6b6bf7ff419a311e1dcf2d4d7089b8dfeb4f4d9e155745a6"),
    "seeded4/homology/inf/q/text": (0, "6ebfb3a3b781ac081d84ff9dc98e622e35c68f46cc759fbd2710de5e0cb62ae9"),
    "seeded4/homology/inf/zp:3/json": (0, "9a9c1929fda02135a551e8d6a8180c71be48433f9cf0ead76dea921161257033"),
    "seeded4/homology/inf/zp:3/text": (0, "6e08a75f2a5273668e2d6cf7ee6908884599288cc6d971df167ea533ec7a5837"),
    "seeded4/homology/sup/z/json": (0, "6d9c0eb7391c9bcb3bda55b5a4eb6c9b16716080461e7e9f98d0531616a34e37"),
    "seeded4/homology/sup/z/text": (0, "3874e686421850838f14e132c3bd32ce5a573f15ec5605bd4ea7af75237e6060"),
    "seeded4/homology/sup/q/json": (0, "799362febbbfb61e32a814d7f6efa63f905a70a0d48fc2549656d13dead1b1d6"),
    "seeded4/homology/sup/q/text": (0, "c2625a816f0a6d3bdc1ff3b27a63d360bfdc15a5b526f1b2579ba999a7722020"),
    "seeded4/homology/sup/zp:3/json": (0, "4c761f02f2611aa02c52e2959566a1c63aa26b89587f4bc8b028a71826980f0c"),
    "seeded4/homology/sup/zp:3/text": (0, "c45827fac21219d97572f81fcd2527cf8ee9f7f6eb4d609151da556469a49f01"),
    "seeded4/gradient/hyper/json": (0, "07071af2dd6e5a69f228abc5313993738c92eeead79e20d9231bc3f27d00e300"),
    "seeded4/gradient/hyper/text": (0, "7db0757249d67ab89964320a550ab76b163f8df857f5cdb40d90cc9472a10213"),
    "seeded4/gradient/assoc/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded4/gradient/assoc/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded4/gradient/lower/json": (0, "584a957b011b9f7c9e13e9a6f82a98bea827f1343450c55409f02e75b097dca2"),
    "seeded4/gradient/lower/text": (0, "3f1aa51ec7d2463c8aa66503607b7193708c27895a89ec9284feeed4adae805b"),
    "seeded5/homology/inf/z/json": (0, "10c246a86b5c930016024b17b6d594a43da26d2010aea5ad607ce891ecceebd0"),
    "seeded5/homology/inf/z/text": (0, "3c38b26fab53584086add6e4dfa1eb212ecef914920e65eaf522a527e79b1621"),
    "seeded5/homology/inf/q/json": (0, "d6d343ad1764866aeae72da70f81528c2ffa30414aad0110fe19341f5ec78484"),
    "seeded5/homology/inf/q/text": (0, "767460a3e85a4683c330e735193f43de38dc8bf488362528a88ad11a7d50e7d8"),
    "seeded5/homology/inf/zp:3/json": (0, "a931c675d30203901f186c942b7cfbc131ae8ca2e6dc7f616a803513d8fdd253"),
    "seeded5/homology/inf/zp:3/text": (0, "d25ceb06b3eca99ca3d6c7950f84107b1fe8e1e57f3fa5e8f0a78a79cfdb8575"),
    "seeded5/homology/sup/z/json": (0, "07f9eb595571bde423b96d188d5ad4093b00f303cba2d1bb3857c6c8d34f5b04"),
    "seeded5/homology/sup/z/text": (0, "76cbd8f7a8dc0aa665c38b1c679a06a87e440e5d28008d4cafda6f3256ab6339"),
    "seeded5/homology/sup/q/json": (0, "3239236813fd1a68d2dd46c1b7bedc00300c86e8d1e8d73e2eab852d6f4c5b9b"),
    "seeded5/homology/sup/q/text": (0, "25ab53067cd9687e4ed88909cd0f4213c1377775b9d68c90801a3a10f44389bc"),
    "seeded5/homology/sup/zp:3/json": (0, "b280f3070172401d1e813e5ccb05ff41be688d4be9cd35c43db08931393b411a"),
    "seeded5/homology/sup/zp:3/text": (0, "30cb2a9dc0bf02d889039b69c97b9b726c69ddb7dc00c3a79a66508304b19de3"),
    "seeded5/gradient/hyper/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded5/gradient/hyper/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded5/gradient/assoc/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded5/gradient/assoc/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded5/gradient/lower/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded5/gradient/lower/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded6/homology/inf/z/json": (0, "4fe19d90b4015ba56bcec26a6da8e092fb99de0b8dc1d599e22c45d62eb28943"),
    "seeded6/homology/inf/z/text": (0, "a17a099446869642bbeb4ae4d0f7ebec2ec8c1a6705dcbe84b698ba6d21a109f"),
    "seeded6/homology/inf/q/json": (0, "7c185c202e48c2e815ff8f417aa040cf247f17ec1d80c83e07ac2a358da5052f"),
    "seeded6/homology/inf/q/text": (0, "fd16448dccc1e982f573de8a6dce90ce71101633c9740053925f5b5f274b324e"),
    "seeded6/homology/inf/zp:3/json": (0, "db3c80b8cb04cb43b3ae0424084911b812613e965f51daa1d82ef12b677223b8"),
    "seeded6/homology/inf/zp:3/text": (0, "03295b4d8aaafc1ec32714916fa3187f606ac3c4ed8d7bfcb3d90639eb22a21d"),
    "seeded6/homology/sup/z/json": (0, "003fc8989bff2d60fac421d1afec99e48e7146f43d3bf0028811ac013623faed"),
    "seeded6/homology/sup/z/text": (0, "3e9ca4d386c11b551c481c055ccb959e8804c64d05c9cd1485ba3aeb6fdc9af6"),
    "seeded6/homology/sup/q/json": (0, "f60aa29e4053e1f2029a496ce654a68c683e5e71206d19d119ab32bf775e7e4f"),
    "seeded6/homology/sup/q/text": (0, "b4e78c6fe976a688fec4df4213a37e2dff9241685c780f10591c52448d00e21e"),
    "seeded6/homology/sup/zp:3/json": (0, "86b4c1f6b9dda7aa43ec326bba98a4348dc3dd72a645b9514fd6bc4a28c3c143"),
    "seeded6/homology/sup/zp:3/text": (0, "b5a224d1eea8c587385b9bc550d4968b22d9a9b5b5d9dcff082bf014384b9ee6"),
    "seeded6/gradient/hyper/json": (0, "41ca4bd108177ff3620a7083e776c9daf19cfae2f992bb333e139960c4166908"),
    "seeded6/gradient/hyper/text": (0, "bfd63d5502eae9661b9b0bf49236db1973162bdc05c0e6564e3334321284b5f0"),
    "seeded6/gradient/assoc/json": (0, "b634d0cc484f89d6743800ff0635fe3820e3c9e0fc5eb6986cdb0863e0147d79"),
    "seeded6/gradient/assoc/text": (0, "c0e4315a5b45174500ef264d5d34c114f77eac14faae4b4f7e040fd1e071447b"),
    "seeded6/gradient/lower/json": (0, "9b08a342ca604e248bffaf87fbfa1a856f2d5b8864243f4984847a0f55272ee4"),
    "seeded6/gradient/lower/text": (0, "565eedd6c360330212bb6d296e2de0f7f637b387d4467b3e5da88b25bb070c20"),
    "seeded7/homology/inf/z/json": (0, "363092c13683e731e50a8606b5478cb27f9acc62b4cbe4b094fa1fd958bc01f9"),
    "seeded7/homology/inf/z/text": (0, "01027c17576a7fddd48b68a1aae6aae2654ca04a9079c6b916f3273cd2bf2d45"),
    "seeded7/homology/inf/q/json": (0, "6ab2b40c4740e3c7f03c83c1f5a38f9378bf6f94e18f7bc99119e4ee47ddc110"),
    "seeded7/homology/inf/q/text": (0, "511674a3b3546d4a66011afc8f4c5c23cc94a993c69e3787e364e95aa833279b"),
    "seeded7/homology/inf/zp:3/json": (0, "c75a706cc3108e9e63c71498e50102e22c5ca0812376abd2bd8c302043c54619"),
    "seeded7/homology/inf/zp:3/text": (0, "9a7e33b8cc99760a7b16216e38a040ab6852324c78a141427f5f27b64c230932"),
    "seeded7/homology/sup/z/json": (0, "8fc5d801b638ed17e7c6ec53fe9abacf2890346f750579313cf1e0322dc09c5e"),
    "seeded7/homology/sup/z/text": (0, "844d9d57debaf21b20bb3f8d07c8c8ab556890e753bbc0675c0be0a691089d66"),
    "seeded7/homology/sup/q/json": (0, "a96c4f7af4c128722453243dbddf3713ca9d2ba4d2d0c84b853eef1343237b26"),
    "seeded7/homology/sup/q/text": (0, "0dd58ad526c89bc496c3fb6bb0efdc4a252307ce7ad3256645a1fc7970ecc251"),
    "seeded7/homology/sup/zp:3/json": (0, "4f0ab94ce91d8049335130e8889ec6451e67f0a99f7788a89c94a29a441559fc"),
    "seeded7/homology/sup/zp:3/text": (0, "8db9d0f6f54f3decbeb78f05150e1dee3f64efca165a4fbd21206b3270a2f651"),
    "seeded7/gradient/hyper/json": (0, "3ba8b0cf9b1bd967ef573141639a81a33a02515034289f01627ab1621ab46ba0"),
    "seeded7/gradient/hyper/text": (0, "02810b87c215bcae3feedae268938291952cda180afc5f40b0caf864325731fd"),
    "seeded7/gradient/assoc/json": (0, "61cf873b04f198c7501d06bffde6303a5b93004a7a9bf754b76bc094a1f117e7"),
    "seeded7/gradient/assoc/text": (0, "6f78d5f0918df870302d6dfdd5675c564957d824edf8af7e9d91f2af3c48892a"),
    "seeded7/gradient/lower/json": (0, "4ef5458ae0b990e08e24075b829660314e412e6df65c9c2afd07f3e2e7c808ae"),
    "seeded7/gradient/lower/text": (0, "79d361b83ce117f6f5854037741316ab30577e239360ed6625d9b8b88ba3bbf2"),
    "seeded8/homology/inf/z/json": (0, "d60c598787db5660b8df5de7b79eace8f376c1681865ce5e8fea967e5305497a"),
    "seeded8/homology/inf/z/text": (0, "33bcffe6b4108a4d7f2a72c5c7481dc67b1dc8b146e21cfcae3e345e8d402276"),
    "seeded8/homology/inf/q/json": (0, "72017532e40e8633a57d09f57509eab8e86f1922657d9d14b8de42f1c20c828f"),
    "seeded8/homology/inf/q/text": (0, "85dc3146fcfe4d6cda2816e6d14a6ad13b44ced79044a2586b4863a4e34912a8"),
    "seeded8/homology/inf/zp:3/json": (0, "20c20a03d95762cbaf7afa73856c6bc887e09c9f096c181293cb9e673e8a1eda"),
    "seeded8/homology/inf/zp:3/text": (0, "40100749f2be0edca41029213baf79ef3500700324cb0e615df79cabfc8707ef"),
    "seeded8/homology/sup/z/json": (0, "1431d0d2944ae696c5fe762f529f63ddd1a4e07590ef5198adb9712a36f190c6"),
    "seeded8/homology/sup/z/text": (0, "a31967dc01bbd8f304cf1ce82cb2d8f23fb180f36a2c1adbcd10b792777238cb"),
    "seeded8/homology/sup/q/json": (0, "c922095715b2a12d4f8e434b2a2887d100850865a473eee0fd3848f75962c9b1"),
    "seeded8/homology/sup/q/text": (0, "3d914bf4047c83dbee104532cebd0091406336f6ff4a551cc4445da5c5a08791"),
    "seeded8/homology/sup/zp:3/json": (0, "1f776e3275cdf8fbd041624df4da9d059072731ba27c028ea76478e0b7616bae"),
    "seeded8/homology/sup/zp:3/text": (0, "e25fe8fb5b141994fb7e185e7b1bf6e1d45b149f9887100bd6fb8d76883cf72c"),
    "seeded8/gradient/hyper/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded8/gradient/hyper/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded8/gradient/assoc/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded8/gradient/assoc/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded8/gradient/lower/json": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seeded8/gradient/lower/text": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "RP2/homology/inf/z/json": (0, "1576ac1b953175644150086c3df8fab66af0955f2c43a40744293c1cb1435aaf"),
    "RP2/homology/inf/z/text": (0, "954baf43030d537cc0b22144140c1f885dedeca336c854e7aef6b82f8a49e16b"),
    "RP2/homology/inf/q/json": (0, "fca79dd589fd6706358a666fa8fea7a8ea52ea4cc9ee36234a7690d69489e316"),
    "RP2/homology/inf/q/text": (0, "c68bd17670262cc0e20b82c2de8e51f26d0e808c56db5fa9a2ba7077ea42ff44"),
    "RP2/homology/inf/zp:3/json": (0, "fa63b7eeecf9d3150125dbbcc530d5daa42ce7cd71a70cd97a19dd70415dee73"),
    "RP2/homology/inf/zp:3/text": (0, "c4a186261a8568996bf5c1cb151e91d77f4d71a7f526048a1bdc80cbe2ca7010"),
    "RP2/homology/sup/z/json": (0, "f564f64f8b954dcaa77527b0c01e13bbd286e4b476bcf8c58c4ae92020fe845a"),
    "RP2/homology/sup/z/text": (0, "f7b3ab8e09d70a5b6cda83dc2e95377a68079442d6813652f53ac312f8744348"),
    "RP2/homology/sup/q/json": (0, "f4eac5f5393d1589acd22f5b75ab394d257fd12c9d1d4c60cd924a1e4d7d5176"),
    "RP2/homology/sup/q/text": (0, "48bc3bf8e90990ae8ea7a853f40f980dac951e99e8543ca9abb119a30cba9f20"),
    "RP2/homology/sup/zp:3/json": (0, "4845c181ef2411df23215bf1719d440a25da055ba4213030446bb824cf3c5641"),
    "RP2/homology/sup/zp:3/text": (0, "2daee329ecfcd380992840860a22f5c9d3e85774af2afa490353e00f3babbccc"),
    "RP2/gradient/hyper/json": (0, "f398cc54b783974ddd8147dee879da3d8d4c347b858602efbde284aba0994eae"),
    "RP2/gradient/hyper/text": (0, "fa92e084af53f7c0d0f4b7560994a939fda19d391c60bbd457fd3b70a31a4d38"),
    "RP2/gradient/assoc/json": (0, "78d8d16e13745241ee2b948c6317b88d01aafe417465477c243769d03e86e167"),
    "RP2/gradient/assoc/text": (0, "0b9fed5e93f9f6ae82a87c89e5a0764dc69014af82659d36e5ae52ac54b55028"),
    "RP2/gradient/lower/json": (0, "c739702d440b17297178f3aae01ca9539ecf210171c25dccf79bfde6695681b9"),
    "RP2/gradient/lower/text": (0, "36a3c17bd49c8be722acf5531da57fdfb8342fa037dfdacb0be6457eee82ff5a"),
    "README/homology/inf/z/json": (0, "e956914d6d98126c39d272ffdfe923f39f4985dc4e09d1aeb1ef5db4412e83fa"),
    "README/homology/inf/z/text": (0, "e92761598b416718d3812066066265bd327c07c94b46e9eeb37f1e0bda9bffd3"),
    "README/homology/inf/q/json": (0, "22f62dc277ee802b6bce5e4c567b2d45942943bd6c35471ff633f365f0c12025"),
    "README/homology/inf/q/text": (0, "67472a82c77928024d8209d417c1adcee8a6acac01904a7cb8534f2f9136a8b6"),
    "README/homology/inf/zp:3/json": (0, "1ef8e3ea3fb43e7b37cc7fd206a6f52eff2136b143b74694e9b9c3a4ed28b75c"),
    "README/homology/inf/zp:3/text": (0, "cdfd6fee4f3d7a0f70132979909309b640196ca2865bdf6b60af7f55f204f545"),
    "README/homology/sup/z/json": (0, "938528e04b5f35fc30fab172ae0117f6cb6d15a756a227dfc257f1583df00b81"),
    "README/homology/sup/z/text": (0, "e4fc45d90da00a418ff158f076e7a0f1f2d67dee7eff22a168dead4d67a547f9"),
    "README/homology/sup/q/json": (0, "0c2d3dabe7a5b32515821e54779bc7ad68d11b4686fd5fbf5b13938ec0ce2f1c"),
    "README/homology/sup/q/text": (0, "deed7afdbe77501c278da44a22a34271686e083ee5970b6b1535d47cd008a11b"),
    "README/homology/sup/zp:3/json": (0, "24286903167b2dbfd80c2a940955811fd08aacbe092d0a4849da793a5b2b509e"),
    "README/homology/sup/zp:3/text": (0, "32201fed8e9744ac3d79fe35af5e578ce575d6e1d1fe44b3f9dec3b56801ac2b"),
    "README/gradient/hyper/json": (0, "e7890a18445036a179b0eaf82b35b6c6658645e8a0c8b4718f9b2cc2a23ae574"),
    "README/gradient/hyper/text": (0, "b3bf24ef47422e2d212a8d879b89bf19a99b898c6ffdaf01a59ea12f7d58a02b"),
    "README/gradient/assoc/json": (0, "1d1f9d8b095b97f8d2944a96ed0362774a0c88e2f8560cf960d4d3b575b6d47d"),
    "README/gradient/assoc/text": (0, "21ab0225c2e4e8548dd01538b6b084c0d35366508bd7a26d213d42ecfb628158"),
    "README/gradient/lower/json": (0, "4f6f5285c1fd9cc99a4f0aed55a460e743413bc5d3f529a7e074f0c24af803e1"),
    "README/gradient/lower/text": (0, "3e9c2c6ddc1ad1649881637d902db1c5ba0b3e01086f970d7ce5a797c9605758"),
}


def test_homology_bases_and_gradients_print_the_recorded_bytes(tmp_path, capsys):
    got = {}
    for name, doc in _matrix_documents().items():
        path = _write(tmp_path, name + ".json", doc)
        for key, argv in _matrix_commands():
            for fmt in ("json", "text"):
                code, out, _ = _run(capsys, argv[:1] + [path] + argv[1:] + ["--format", fmt])
                digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                got["%s/%s/%s" % (name, key, fmt)] = (code, digest)
    assert got == MATRIX_STDOUT_DIGESTS


def test_map_builds_each_diagram_object_once(tmp_path, capsys, monkeypatch):
    # the induced maps and the diagram check of one document share ΔH of
    # both sides, their boundary matrices, one chain map, and a sub-chain
    # complex and homology basis per side and kind
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        chains.HomologyBasis, "__init__", counting("basis", chains.HomologyBasis.__init__)
    )
    monkeypatch.setattr(
        chains.SubChainComplex, "__init__", counting("subcomplex", chains.SubChainComplex.__init__)
    )
    monkeypatch.setattr(morphisms, "chain_map", counting("chain_map", morphisms.chain_map))
    monkeypatch.setattr(hypercore, "delta_closure", counting("closure", hypercore.delta_closure))
    monkeypatch.setattr(chains, "boundary_matrix", counting("boundary", chains.boundary_matrix))
    monkeypatch.setattr(
        morphisms, "validate_morphism", counting("validate", morphisms.validate_morphism)
    )
    morphism = {
        "source": DOC_226,
        "target": DOC_226_PRIME,
        "map": {"v0": "v0", "v1": "v1", "v2": "v2"},
    }
    path = _write(tmp_path, "phi.json", morphism)
    code, out, err = _run(capsys, ["map", path, "--induced", "all", "--check-diagram"])
    assert code == 0 and _result(out)["diagram_commutes"] is True
    # ∂_1 of the hollow source's ΔH and ∂_1, ∂_2 of the filled target's,
    # each kept on its complex and read by the three complexes of its side
    # and the chain map's check; one morphism check
    assert counts == {
        "basis": 6,
        "subcomplex": 6,
        "chain_map": 1,
        "closure": 2,
        "boundary": 3,
        "validate": 1,
    }


def test_map_needs_field_coefficients(tmp_path, capsys):
    morphism = {
        "source": DOC_226,
        "target": DOC_226_PRIME,
        "map": {"v0": "v0", "v1": "v1", "v2": "v2"},
    }
    path = _write(tmp_path, "phi.json", morphism)
    code, out, err = _run(capsys, ["map", path, "--coeff", "z", "--check-diagram"])
    assert (code, out) == (cli.EXIT_BAD_DOCUMENT, "")
    assert err == "invalid document: induced homology maps need field coefficients\n"


def test_map_source_by_path(tmp_path, capsys):
    src = _write(tmp_path, "src.json", DOC_226)
    dst = _write(tmp_path, "dst.json", DOC_226_PRIME)
    morphism = {"source": src, "target": dst, "map": {"v0": "v0", "v1": "v1", "v2": "v2"}}
    path = _write(tmp_path, "phi.json", morphism)
    code, out, err = _run(capsys, ["map", path, "--induced", "embedded"])
    assert code == 0


def test_map_invalid_morphism_exit_4(tmp_path, capsys):
    morphism = {
        "source": {"vertices": ["v0", "v1"], "hyperedges": [["v0", "v1"]]},
        "target": {"vertices": ["u"], "hyperedges": []},
        "map": {"v0": "u", "v1": "u"},
    }
    path = _write(tmp_path, "phi.json", morphism)
    # the morphism check comes before the coefficient checks
    for extra in ([], ["--coeff", "z"], ["--coeff", "zp:4"]):
        code, out, err = _run(capsys, ["map", path] + extra)
        assert code == cli.EXIT_BAD_MORPHISM
        assert "not a morphism: edge 'v0,v1' has no image" in err


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = _run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_PARSE


def test_invalid_document_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"vertices": ["a"], "hyperedges": [["zz"]]})
    code, out, err = _run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_BAD_DOCUMENT
    path = _write(tmp_path, "bad2.json", {"vertices": ["a"], "hyperedges": [[]]})
    code, out, err = _run(capsys, ["homology", str(path)])
    assert code == cli.EXIT_BAD_DOCUMENT
    path = _write(
        tmp_path, "bad3.json", {"vertices": ["a"], "hyperedges": [["a"]], "morse": {"a": 0.5}}
    )
    code, out, err = _run(capsys, ["morse", str(path), "check"])
    assert code == cli.EXIT_BAD_DOCUMENT


def test_missing_morse_block_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "nomorse.json", DOC_226)
    code, out, err = _run(capsys, ["morse", path, "check"])
    assert code == cli.EXIT_BAD_DOCUMENT


def test_reports_are_byte_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    _, out1, _ = _run(capsys, ["homology", path, "--which", "sup"])
    _, out2, _ = _run(capsys, ["homology", path, "--which", "sup"])
    assert out1 == out2
    _, out3, _ = _run(capsys, ["homology", path, "--which", "sup", "--timestamp"])
    assert "timestamp" in json.loads(out3)


def test_text_format(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["homology", path, "--format", "text"])
    assert code == 0
    assert out.startswith("hypermorse")
    assert "betti" in out


def test_round_trip_parse_serialize(tmp_path, capsys):
    path = _write(tmp_path, "h6.json", SECTION6_DOC)
    code, out, err = _run(capsys, ["complex", path, "--mode", "assoc"])
    produced = _result(out)["complex"]
    doc = {
        "vertices": produced["vertices"],
        "hyperedges": [key.split(",") for key in produced["hyperedges"]],
    }
    h, _ = cli.parse_hypergraph_document(doc)
    assert h.to_document()["hyperedges"] == doc["hyperedges"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "hypermorse" in out


def test_main_reuses_its_parser_across_calls(tmp_path, capsys):
    h6 = _write(tmp_path, "h6.json", SECTION6_DOC)
    calls = [
        ["--version"],
        ["morse", h6, "nonsense"],
        ["morse", h6, "critical", "--on", "assoc"],
        ["homology", h6, "--coeff", "zp:3"],
    ]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run(argv))
    assert first[0][0] == ("exit", 0) and first[1][0] == ("exit", 2)
    assert first[2][0] == 0 and first[3][0] == 0
    for _ in range(2):
        assert [run(argv) for argv in calls] == first
    h, values = cli.parse_hypergraph_document(SECTION6_DOC)
    assert len(h.edges) == 8 and values[(0,)] == 1


def test_non_string_hyperedge_label_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "h.json", {"vertices": ["a"], "hyperedges": [[["a"]]]})
    code, out, err = _run(capsys, ["homology", path])
    assert code == cli.EXIT_BAD_DOCUMENT and out == ""
    assert err == "invalid document: document: unknown vertex label ['a']\n"


def test_non_string_morphism_image_exit_3(tmp_path, capsys):
    doc = {
        "source": {"vertices": ["a"], "hyperedges": [["a"]]},
        "target": {"vertices": ["x"], "hyperedges": [["x"]]},
        "map": {"a": ["x"]},
    }
    path = _write(tmp_path, "phi.json", doc)
    code, out, err = _run(capsys, ["map", path])
    assert code == cli.EXIT_BAD_DOCUMENT and out == ""
    assert err == "invalid document: unknown target vertex ['x']\n"


# ---------------------------------------------------------------------------
# the report writer and the document parse against their oracles

_JSON_CHARS = 'aZ09 ,:"\\/\b\f\n\r\t\x00\x01\x1f\x7f\u00e9\u2028\u65e5\U0001f600'


def _random_scalar(rng, kind):
    if kind == 0:
        return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([0, 1, -1, rng.randint(-(10**6), 10**6), 2**70, -(2**64) - 3])
    if kind == 2:
        return rng.random() < 0.5
    return None


def _random_value(rng, depth=0):
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind < 4:
        return _random_scalar(rng, kind)
    if kind == 4:  # a list of one scalar type, possibly empty
        scalar = rng.randrange(4)
        return [_random_scalar(rng, scalar) for _ in range(rng.randrange(5))]
    if kind == 5:  # scalars and containers mixed
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {
        _random_scalar(rng, 0): _random_value(rng, depth + 1) for _ in range(rng.randrange(5))
    }


def test_json_writer_matches_json_dumps():
    rng = random.Random(23)
    values = [_random_value(rng) for _ in range(400)]
    values += [[], {}, [[]], {"": {}}, [[], {}, 0, "", None], {"b": 1, "a": [True, None]}]
    for value in values:
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)
    for value in ({"a": 1.5}, [(1, 2)], {"a": Fraction(1, 2)}):
        with pytest.raises(TypeError):
            cli._json(value)


def test_text_writer_matches_line_writer():
    rng = random.Random(29)
    for _ in range(200):
        report = {"tool": "hypermorse", "version": "1", "command": "morse"}
        report.update({"result": _random_value(rng), "notes": _random_value(rng)})
        expected = io.StringIO()
        oracles.emit_oracle(report, "text", expected)
        assert cli._text(report) == expected.getvalue()


def _rational_json(rng, x):
    """x as a document holds it: an int, an integer string or 'p/q'."""
    if x.denominator == 1:
        return x.numerator if rng.random() < 0.7 else str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _document(rng, h, values=None):
    """h as a document: edges and morse keys in random order, edge labels
    shuffled, values scaled to fractions now and then."""
    edges = [list(h.edge_labels(e)) for e in h.edges]
    for labels in edges:
        rng.shuffle(labels)
    rng.shuffle(edges)
    doc = {"vertices": list(h.vertex_set.names), "hyperedges": edges}
    if values is not None:
        scale = Fraction(rng.choice([1, 1, -1]), rng.choice([1, 2, 3, 7]))
        keys = list(values)
        rng.shuffle(keys)
        doc["morse"] = {
            ",".join(h.vertex_set.names[i] for i in e): _rational_json(rng, scale * values[e])
            for e in keys
        }
    return doc


def _seeded_documents(seed, count, max_vertices=6, max_edges=10):
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        h = generators.random_hypergraph(rng, max_vertices, max_edges)
        on_delta = generators.random_morse_function(rng, delta_closure(h)).values
        on_h = generators.random_morse_function(rng, h).values
        docs += [_document(rng, h, on_delta), _document(rng, h, on_h), _document(rng, h)]
    return docs


def _outcome(parse, doc):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", parse(doc))
        except Exception as exc:  # the oracle comparison covers every error
            result = ("error", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _same_parse(doc):
    (mine, mine_warned), (old, old_warned) = (
        _outcome(cli._parse_document, doc),
        _outcome(oracles.parse_document_oracle, doc),
    )
    assert mine_warned == old_warned
    if old[0] == "error":
        assert mine == old
        return
    assert mine[0] == "ok"
    (h, values, delta), (h0, values0, delta0) = mine[1], old[1]
    assert h == h0 and h.edges == h0.edges and type(h) is type(h0)
    assert values == values0
    assert values is None or all(type(x) is Fraction for x in values.values())
    assert (delta is None) == (delta0 is None)
    assert delta is None or (delta == delta0 and delta.edges == delta0.edges)


def test_parse_matches_oracle_on_seeded_documents():
    for doc in _seeded_documents(31, 60):
        _same_parse(doc)


_V3 = ["v0", "v1", "v2"]
_TRIANGLE = [["v0", "v1"], ["v1", "v2"], ["v0", "v2"], ["v0"]]

MALFORMED = [
    [],
    {"vertices": _V3, "hyperedges": [], "extra": 1},
    {"vertices": ["v0", 1], "hyperedges": []},
    {"vertices": _V3, "hyperedges": [["v0"], "v1"]},
    {"vertices": ["a", "a"], "hyperedges": []},
    # hyperedges: unknown label, empty edge, repeated label, duplicates, and
    # an unknown label after an empty edge still reported first
    {"vertices": _V3, "hyperedges": [["v0", "zz"]]},
    {"vertices": _V3, "hyperedges": [["v0"], []]},
    {"vertices": _V3, "hyperedges": [["v1", "v0", "v1"]]},
    {"vertices": _V3, "hyperedges": [["v0", "v1"], ["v1", "v0"], ["v2"], ["v2"]]},
    {"vertices": _V3, "hyperedges": [[], ["v1", "v1"], ["zz"]]},
    {"vertices": _V3, "hyperedges": [["v2", "v2"], []]},
    # a label that contains a comma
    {"vertices": ["a,b", "a"], "hyperedges": [["a,b"]], "morse": {"a,b": 1}},
    {"vertices": ["a,b", "a", "b"], "hyperedges": [["a", "b"]], "morse": {"a,b": 1, "a": 0, "b": 0}},
    {"vertices": ["", "a"], "hyperedges": [["", "a"]], "morse": {",a": 1, "": 0, "a": 0}},
    # morse keys
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": []},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v0,zz": 1}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v1,v0": 1}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v0,v0": 1}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v2,v2,v1": 1}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v0,v1,v2": 1}},
    {"vertices": _V3, "hyperedges": [["v0", "v1"]], "morse": {"v0,v1": 1, "v2": 0}},
    {"vertices": _V3, "hyperedges": [["v0", "v1"]], "morse": {"": 0, "v0,v1": 1}},
    # values: bool, float, bad strings, null; then a missing hyperedge
    {"vertices": _V3, "hyperedges": [["v0"]], "morse": {"v0": True}},
    {"vertices": _V3, "hyperedges": [["v0"]], "morse": {"v0": 1.5}},
    {"vertices": _V3, "hyperedges": [["v0"]], "morse": {"v0": "1/0"}},
    {"vertices": _V3, "hyperedges": [["v0"]], "morse": {"v0": "1.5"}},
    {"vertices": _V3, "hyperedges": [["v0"]], "morse": {"v0": "x"}},
    {"vertices": _V3, "hyperedges": [["v0"]], "morse": {"v0": None}},
    {"vertices": _V3, "hyperedges": [["v0"]], "morse": {"v0": " -3/4 "}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v0": 1, "v0,v1": 2}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v2": 1}},
    # the first failing key decides, in block order
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v0": "x", "v1,v0": 1}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v1,v0": 1, "v0": "x"}},
    {"vertices": _V3, "hyperedges": _TRIANGLE, "morse": {"v0,v1,v2": 1, "zz": 0}},
    {"vertices": _V3, "hyperedges": [["v0", "v0"]], "morse": {"zz": 0}},
]


def test_parse_matches_oracle_on_malformed_documents():
    for doc in MALFORMED:
        _same_parse(doc)


# ---------------------------------------------------------------------------
# whole command lines against the old parse, closure and json.dumps


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [(w.category, str(w.message)) for w in caught]


def _assert_same_as_oracle(monkeypatch, calls):
    mine = [_cli(argv) for argv in calls]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_document", oracles.parse_document_oracle)
        m.setattr(cli, "_emit", oracles.emit_oracle)
        m.setattr(hypercore, "delta_closure", oracles.delta_closure_subsets_oracle)
        m.setattr(hypercore, "lower_complex", oracles.lower_complex_subsets_oracle)
        old = [_cli(argv) for argv in calls]
    for argv, a, b in zip(calls, mine, old):
        assert a == b, argv
    return mine


def test_cli_morse_and_discrepancy_match_oracle(tmp_path, monkeypatch):
    calls = []
    for i, doc in enumerate(_seeded_documents(37, 16, max_vertices=5, max_edges=8) + MALFORMED):
        path = _write(tmp_path, "d%d.json" % i, doc)
        for fmt in ("json", "text"):
            calls.append(["discrepancy", path, "--format", fmt])
            for sub in ("check", "critical", "gradient", "extend"):
                for on in ("hyper", "assoc", "lower"):
                    calls.append(["morse", path, sub, "--on", on, "--format", fmt])
    codes = {out[0] for out in _assert_same_as_oracle(monkeypatch, calls)}
    assert {0, cli.EXIT_BAD_DOCUMENT} <= codes


def test_cli_homology_complex_and_map_match_oracle(tmp_path, monkeypatch):
    rng = random.Random(41)
    calls = []
    for i, doc in enumerate(_seeded_documents(43, 3) + MALFORMED[:12]):
        path = _write(tmp_path, "h%d.json" % i, doc)
        for fmt in ("json", "text"):
            calls.append(["complex", path, "--mode", rng.choice(["assoc", "lower"]), "--format", fmt])
            for which in ("embedded", "inf", "sup", "lower"):
                calls.append(["homology", path, "--which", which, "--format", fmt])
    for i in range(4):
        source = generators.random_hypergraph(rng, max_vertices=5, max_edges=6)
        vmap, target = generators.random_morphism(rng, source)
        doc = {"source": _document(rng, source), "target": _document(rng, target), "map": vmap}
        path = _write(tmp_path, "m%d.json" % i, doc)
        for fmt in ("json", "text"):
            coeff = "q" if i % 2 else "zp:3"
            calls.append(["map", path, "--coeff", coeff, "--check-diagram", "--format", fmt])
    codes = {out[0] for out in _assert_same_as_oracle(monkeypatch, calls)}
    assert {0, cli.EXIT_BAD_DOCUMENT} <= codes
