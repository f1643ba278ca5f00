"""Span tracing around the library's public functions, from outside the library.

Tracer.patch() replaces each traced function with a timing wrapper in every
hypermorse module that binds it, so calls are caught wherever the caller
looks the name up: through the module (exact calls _kernel.hnf_rows) or
through a name imported with `from ... import` (chains binds ColumnSolver).
Class constructors and methods are wrapped on the class itself.

Spans stay in memory, each with its parent and the instance it belongs to,
and are written out by dump() once the traced batch is over.  A span's self
time is its duration minus the time covered by its child spans; the time
the wrapper spends computing counters is charged to no layer.
"""

import json
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "hypercore": ["delta_closure", "lower_complex"],
    "_kernel": ["hnf_rows", "hnf_rows_with_transform", "snf_decompose"],
    "exact": [
        "matmul",
        "matvec",
        "canonical_basis",
        "kernel_basis",
        "rank",
        "snf_diagonal",
        "preimage_module",
        "module_intersection",
        "module_sum",
    ],
    "chains": [
        "boundary_matrix",
        "inf_complex",
        "sup_complex",
        "subcomplex_homology",
        "induced_on_homology",
        "embedded_homology",
        "simplicial_homology",
        "full_complex",
        "coordinate_subcomplex",
    ],
    "morphisms": [
        "validate_morphism",
        "induced_assoc_map",
        "chain_map",
        "induced_homology_map",
        "check_commuting_diagram",
    ],
    "morse": [
        "is_morse",
        "critical_set",
        "gradient",
        "linear_map",
        "is_proper",
        "is_acyclic",
        "is_semi_proper",
        "extension_obstruction",
        "search_extension",
        "critical_via_gradient",
        "critical_discrepancy",
    ],
    "cli": ["main"],
}

# (module, class, method, span name)
METHODS = [
    ("exact", "ColumnSolver", "__init__", "exact.ColumnSolver.init"),
    ("exact", "ColumnSolver", "solve", "exact.ColumnSolver.solve"),
    ("chains", "SubChainComplex", "__init__", "chains.SubChainComplex"),
    ("chains", "HomologyBasis", "__init__", "chains.HomologyBasis"),
]

# metric names may not start with "_", so the _kernel package reports as "kernel"
LABELS = {"_kernel": "kernel"}
LAYERS = ["hypercore", "chains", "exact", "kernel", "morse", "morphisms", "cli"]
RINGS = ["Z", "Q", "Zp"]
MAX_CELL_DEGREE = 8


def _ring(args, coeff_type):
    for a in args:
        if isinstance(a, coeff_type):
            return a.kind
        coeff = getattr(a, "coeff", None)
        if isinstance(coeff, coeff_type):
            return coeff.kind
    return "Z"


def _matmul_counts(counters, name, args, result):
    a, b = args[0], args[1]
    counters["exact.matmul.dense_ops"] += a.rows * a.cols * b.cols
    col_nnz = [0] * a.cols
    for row in a.data:
        for k, x in enumerate(row):
            if x:
                col_nnz[k] += 1
    counters["exact.matmul.nonzero_products"] += sum(
        n * sum(1 for y in b.data[k] if y) for k, n in enumerate(col_nnz) if n
    )


def _entries_counts(counters, name, args, result):
    mat = args[0]
    counters[name + ".entries"] += len(mat) * (len(mat[0]) if mat else 0)


def _closure_counts(counters, name, args, result):
    for n in range(result.max_dimension() + 1):
        counters["hypercore.cells.%d" % n] += len(result.edges_of_dim(n))


def _extend_counts(counters, name, args, result):
    counters["morse.extend.none" if result is None else "morse.extend.extended"] += 1


def span_names():
    """Every traced function and method, as its span is named."""
    names = ["%s.%s" % (LABELS.get(m, m), f) for m, fs in FUNCTIONS.items() for f in fs]
    return names + [span for _, _, _, span in METHODS]


COUNTERS = {
    "exact.matmul": _matmul_counts,
    **{"kernel." + f: _entries_counts for f in FUNCTIONS["_kernel"]},
    "hypercore.delta_closure": _closure_counts,
    "morse.search_extension": _extend_counts,
}


def metric_units():
    """Every per-layer metric name with its unit, in report order.  The
    runner fills in trace.wall_s and trace.overhead_s."""
    units = {}
    for name in span_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for layer in LAYERS:
        units["layer.%s.self_s" % layer] = "s"
    for ring in RINGS:
        units["layer.exact.%s.self_s" % ring] = "s"
    units["exact.matmul.dense_ops"] = "ops"
    units["exact.matmul.nonzero_ratio"] = "ratio"
    for k in FUNCTIONS["_kernel"]:
        units["kernel.%s.entries" % k] = "entries"
    for n in range(MAX_CELL_DEGREE + 1):
        units["hypercore.cells.%d" % n] = "cells"
    units["morse.extend.extended"] = "count"
    units["morse.extend.none"] = "count"
    units["trace.spans"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Collects spans and counters while patched into the library."""

    def __init__(self, coeff_type):
        self.coeff_type = coeff_type
        self.spans = []  # (id, parent, name, instance, start, end, self_s)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.ring_self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.instance = None
        self._stack = []  # frames [span id, time covered by children]
        self._next_id = 0
        self._restore = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, ring_aware):
        tracer = self
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if counter is not None:
                counter(tracer.counters, name, args, result)
            own = (end - start) - frame[1]
            tracer.calls[name] += 1
            tracer.self_s[name] += own
            if ring_aware:
                tracer.ring_self_s[_ring(args, tracer.coeff_type)] += own
            tracer.spans.append(
                (frame[0], parent[0] if parent else None, name, tracer.instance, start, end, own)
            )
            if parent is not None:
                parent[1] += clock() - start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self):
        """Install the wrappers; undo() restores every replaced binding."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hypermorse" or name.startswith("hypermorse."))
        }
        # the kernel twins' own namespaces are the implementation, not callers
        callers = [m for n, m in modules.items() if not n.startswith("hypermorse._kernel.")]
        for module, names in FUNCTIONS.items():
            owner = modules["hypermorse." + module]
            for fname in names:
                original = getattr(owner, fname)
                span = "%s.%s" % (LABELS.get(module, module), fname)
                wrapper = self._wrap(span, original, module == "exact")
                for mod in callers:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for module, cls_name, method, span in METHODS:
            cls = getattr(modules["hypermorse." + module], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original, module == "exact"))
        return self

    def undo(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        return self.patch()

    def __exit__(self, *exc):
        self.undo()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer totals keyed by metric name (values only)."""
        out = {}
        for name in span_names():
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        for layer in LAYERS:
            out["layer.%s.self_s" % layer] = sum(
                v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer
            )
        for ring in RINGS:
            out["layer.exact.%s.self_s" % ring] = self.ring_self_s.get(ring, 0.0)
        dense = self.counters.get("exact.matmul.dense_ops", 0)
        out["exact.matmul.dense_ops"] = int(dense)
        out["exact.matmul.nonzero_ratio"] = (
            self.counters.get("exact.matmul.nonzero_products", 0) / dense if dense else 0.0
        )
        for k in FUNCTIONS["_kernel"]:
            out["kernel.%s.entries" % k] = int(self.counters.get("kernel.%s.entries" % k, 0))
        for n in range(MAX_CELL_DEGREE + 1):
            out["hypercore.cells.%d" % n] = int(self.counters.get("hypercore.cells.%d" % n, 0))
        for verdict in ("extended", "none"):
            out["morse.extend." + verdict] = int(self.counters.get("morse.extend." + verdict, 0))
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        dict(zip(("id", "parent", "name", "instance", "start", "end", "self_s"), span))
                    )
                    + "\n"
                )
