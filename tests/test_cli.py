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
