"""Spans around geoham's public functions, recorded from outside the package.

``Tracer.install()`` replaces each listed function or method with a
wrapper.  A function imported by name into another module (``cli`` imports
``hamiltonian_factorize``, ``period`` imports ``interior_product``, ...) is
replaced in every geoham module that holds it, so no call path escapes.
Each wrapped call records a span (name, start, end, parent span, request
id) in flat in-memory arrays; ``write()`` saves them when the run ends.

Self time of a span is its duration minus the time covered by its child
spans.  Per-layer metrics are totals over the traced passes divided by the
number of passes.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name); dotted paths are methods.
SPANS = [
    ("geoham.cli", "run", "cli"),
    ("geoham.report", "render_report", "report.render"),
    ("geoham.sysfile", "load_system_file", "sysfile.parse"),
    ("geoham.expr", "parse_expression", "expr.parse_expression"),
    ("geoham.expr", "Polynomial.__mul__", "expr.poly_mul"),
    ("geoham.expr", "Polynomial.__add__", "expr.poly_add"),
    ("geoham.expr", "RationalFunction.__eq__", "expr.rf_eq"),
    ("geoham.geom", "symbolic_determinant", "geom.symbolic_determinant"),
    ("geoham.geom", "is_hamiltonian_description", "geom.is_hamiltonian_description"),
    ("geoham.geom", "exterior_derivative", "geom.exterior_derivative"),
    ("geoham.geom", "interior_product", "geom.interior_product"),
    ("geoham.geom", "lie_derivative", "geom.lie_derivative"),
    ("geoham.geom", "twisted_two_form", "geom.twisted_two_form"),
    ("geoham.geom", "check_normal_form", "geom.check_normal_form"),
    ("geoham.geom", "validate_structures", "geom.validate_structures"),
    ("geoham.geom", "sample_points", "geom.sample_points"),
    ("geoham.linfact", "hamiltonian_factorize", "linfact.hamiltonian_factorize"),
    ("geoham.linfact", "skew_constraint_kernel", "linfact.skew_constraint_kernel"),
    ("geoham.linfact", "ExactMatrix.__matmul__", "linfact.matmul"),
    ("geoham.linfact", "ExactMatrix.determinant", "linfact.determinant"),
    ("geoham.linfact", "Factorization.__post_init__", "linfact.factorization_check"),
    ("geoham.linfact", "odd_trace_test", "linfact.odd_trace_test"),
    ("geoham.linfact", "noncanonical_symmetry", "linfact.noncanonical_symmetry"),
    ("geoham.linfact", "transform_description", "linfact.transform_description"),
    ("geoham._linalg", "rref", "linalg.rref"),
    ("geoham._linalg", "det", "linalg.det"),
    ("geoham._linalg", "inverse", "linalg.inverse"),
    ("geoham.torus", "row_hermite_normal_form", "torus.hnf"),
    ("geoham.torus", "classify", "torus.classify"),
    ("geoham.period", "FlowSystem.__init__", "period.flow_build"),
    ("geoham.period", "find_energy_point", "period.find_energy_point"),
    ("geoham.period", "detect_period", "period.detect_period"),
    ("geoham.period", "integrate", "period.integrate"),
    ("geoham.period", "period_energy_scan", "period.scan"),
    ("geoham.period", "equivalence_obstruction", "period.obstruction"),
]

# Self-time metrics reported per pass (span name -> metric name).
SELF_MS = {
    "cli": "cli.self_ms",
    "report.render": "report.render_ms",
    "sysfile.parse": "sysfile.parse_ms",
    "expr.parse_expression": "expr.parse_expression_ms",
    "expr.poly_mul": "expr.poly_mul_ms",
    "expr.poly_add": "expr.poly_add_ms",
    "expr.rf_eq": "expr.rf_eq_ms",
    "geom.symbolic_determinant": "geom.symbolic_determinant_ms",
    "geom.is_hamiltonian_description": "geom.is_hamiltonian_description_ms",
    "geom.exterior_derivative": "geom.exterior_derivative_ms",
    "geom.interior_product": "geom.interior_product_ms",
    "geom.lie_derivative": "geom.lie_derivative_ms",
    "geom.twisted_two_form": "geom.twisted_two_form_ms",
    "geom.check_normal_form": "geom.check_normal_form_ms",
    "geom.validate_structures": "geom.validate_structures_ms",
    "geom.sample_points": "geom.sample_points_ms",
    "linfact.hamiltonian_factorize": "linfact.hamiltonian_factorize_ms",
    "linfact.skew_constraint_kernel": "linfact.skew_constraint_kernel_ms",
    "linfact.matmul": "linfact.matmul_ms",
    "linfact.odd_trace_test": "linfact.odd_trace_test_ms",
    "linfact.noncanonical_symmetry": "linfact.noncanonical_symmetry_ms",
    "linfact.transform_description": "linfact.transform_description_ms",
    "linalg.rref": "linalg.rref_ms",
    "linalg.det": "linalg.det_ms",
    "linalg.inverse": "linalg.inverse_ms",
    "torus.hnf": "torus.hnf_ms",
    "torus.classify": "torus.classify_ms",
    "period.flow_build": "period.flow_build_ms",
    "period.find_energy_point": "period.find_energy_point_ms",
    "period.detect_period": "period.detect_period_ms",
    "period.integrate": "period.integrate_ms",
    "period.scan": "period.scan_ms",
    "period.obstruction": "period.obstruction_ms",
}

# Call-count metrics reported per pass (span name -> metric name).
CALLS = {
    "expr.parse_expression": "expr.parse_expression.calls",
    "expr.poly_mul": "expr.poly_mul.calls",
    "expr.poly_add": "expr.poly_add.calls",
    "expr.rf_eq": "expr.rf_eq.calls",
    "geom.symbolic_determinant": "geom.symbolic_determinant.calls",
    "linfact.hamiltonian_factorize": "linfact.hamiltonian_factorize.calls",
    "linfact.matmul": "linfact.matmul.calls",
    "linalg.rref": "linalg.rref.calls",
    "torus.hnf": "torus.hnf.calls",
    "period.integrate": "period.integrate.calls",
    "period.detect_period": "period.orbits",
}

# Work counters gathered from arguments and results (see Tracer._count).
COUNTERS = ("expr.poly_mul.terms_out", "linfact.kernel_dim", "linfact.candidates_tried",
            "linalg.rref.cells", "period.orbits_converged", "period.rhs.calls")
MAXIMA = ("expr.max_terms",)


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans in flat arrays and accumulates self time per span name."""

    def __init__(self):
        self.names = [name for _, _, name in SPANS]
        self.name_index = {name: i for i, name in enumerate(self.names)}
        self.request = -1
        self._patched = []
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.maxima = Counter()
        self._stack = []       # open span ids
        self._child = []       # time covered by children of each open span

    # -- installation ------------------------------------------------------
    def install(self):
        import geoham.cli  # noqa: F401  (loads every module the spans name)

        for module, path, name in SPANS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._replace(owner, attr, original, wrapper)
            if isinstance(owner, type(sys)):
                for other in [m for key, m in sys.modules.items() if key.startswith("geoham")]:
                    if other is not owner and getattr(other, attr, None) is original:
                        self._replace(other, attr, original, wrapper)
        owner, attr = _resolve("geoham.period", "FlowSystem.rhs")
        self._replace(owner, attr, getattr(owner, attr), self._count_calls(getattr(owner, attr)))

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count_calls(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters["period.rhs.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        index = self.name_index[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, child = tracer._stack, tracer._child
            span = len(tracer.span_start)
            tracer.span_name.append(index)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_request.append(tracer.request)
            tracer.span_end.append(0.0)
            stack.append(span)
            child.append(0.0)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                covered = child.pop()
                tracer.span_end[span] = end
                duration = end - start
                tracer.self_time[index] += duration - covered
                tracer.calls[index] += 1
                if child:
                    child[-1] += duration
            tracer._count(name, args, result)
            return result

        return traced

    def _count(self, name, args, result):
        if name == "expr.poly_mul" or name == "expr.poly_add":
            terms = len(result.terms)
            if name == "expr.poly_mul":
                self.counters["expr.poly_mul.terms_out"] += terms
            if terms > self.maxima["expr.max_terms"]:
                self.maxima["expr.max_terms"] = terms
        elif name == "linfact.skew_constraint_kernel":
            self.counters["linfact.kernel_dim"] += len(result)
        elif name == "linfact.determinant":
            if self._stack and self.names[self.span_name[self._stack[-1]]] == "linfact.hamiltonian_factorize":
                self.counters["linfact.candidates_tried"] += 1
        elif name == "linalg.rref":
            rows = args[0]
            self.counters["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif name == "period.detect_period":
            if result.periodic and not result.ambiguous:
                self.counters["period.orbits_converged"] += 1

    # -- results -------------------------------------------------------------
    def metrics(self, passes):
        """Per-pass layer metrics from the spans recorded since the last reset."""
        out = {}
        for name, metric in SELF_MS.items():
            out[metric] = self.self_time[self.name_index[name]] * 1000.0 / passes
        for name, metric in CALLS.items():
            out[metric] = self.calls[self.name_index[name]] / passes
        for metric in COUNTERS:
            out[metric] = self.counters[metric] / passes
        for metric in MAXIMA:
            out[metric] = self.maxima[metric]
        return out

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "meta": meta,
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "request"],
                "spans": [list(row) for row in zip(self.span_name, self.span_start, self.span_end,
                                                   self.span_parent, self.span_request)],
            }, handle, separators=(",", ":"))
