"""Output checks computed apart from geoham.

``check(request, code, text)`` returns a list of problems with one report;
an empty list means the report passed.  The computations use sympy, plain
``Fraction`` arithmetic, numpy and closed-form periods, and read only the
report's printed objects and what the benchmark itself generated
(``request.data``), never geoham's Python objects.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import sympy

from workloads import det, matmul

PERIOD_TOLERANCE = {"harmonic": 1e-6, "quartic": 1e-4}
_POINT_RNG_SEED = 20120307


# ---------------------------------------------------------------------------
# exact geometry in sympy's sparse rational-function field QQ(x1..xn)
# ---------------------------------------------------------------------------

class Chart:
    """Coordinates as generators of sympy's field QQ(coords); elements are reduced quotients."""

    def __init__(self, coords):
        self.coords = list(coords)
        self.field, *self.gens = sympy.field(",".join(coords), sympy.QQ)
        self.n = len(coords)
        self._locals = {name: sympy.Symbol(name) for name in coords}

    def expr(self, text):
        return self.field.from_expr(sympy.sympify(text.replace("^", "**"), locals=self._locals))

    def number(self, value):
        value = Fraction(value)
        return self.field(sympy.QQ(value.numerator, value.denominator))

    def vector(self, text):
        return [self.expr(part) for part in _split_top(text.strip()[1:-1])]

    def matrix(self, rows):
        return [[self.number(v) for v in row] for row in rows]

    def diff(self, f, axis):
        return f.diff(self.gens[axis])

    def apply(self, X, f):
        """X(f) = sum_k X^k df/dx_k."""
        return sum((X[k] * self.diff(f, k) for k in range(self.n)), self.field.zero)

    def form(self, text):
        """'k-form: (c) dx^dy + ...' (geoham's printed form) -> {index tuple: coefficient}."""
        body = text.partition(":")[2].strip()
        terms = {}
        pos = 0
        while body != "0" and pos < len(body):
            if body[pos] in " +":
                pos += 1
                continue
            if body[pos] != "(":
                raise ValueError(f"unexpected form text at {body[pos:pos + 20]!r}")
            depth = 0
            for end in range(pos, len(body)):
                depth += {"(": 1, ")": -1}.get(body[end], 0)
                if depth == 0:
                    break
            coeff = self.expr(body[pos + 1:end])
            start = end + 1
            while start < len(body) and body[start] == " ":
                start += 1
            stop = body.find(" ", start)
            stop = len(body) if stop < 0 else stop
            idx = tuple(self.coords.index(p[1:]) for p in body[start:stop].split("^"))
            terms[idx] = terms.get(idx, self.field.zero) + coeff
            pos = stop
        return terms

    def two_form_matrix(self, terms):
        W = [[self.field.zero] * self.n for _ in range(self.n)]
        for (a, b), c in terms.items():
            W[a][b] += c
            W[b][a] -= c
        return W

    def value(self, f, point):
        num, den = f.numer(*point), f.denom(*point)
        if den == 0:
            raise ZeroDivisionError
        return Fraction(int(num.numerator), int(num.denominator)) / Fraction(int(den.numerator), int(den.denominator))

    def generic_rank(self, rows):
        """Rank over QQ(coords): the best rank at random points, confirmed symbolically if short."""
        rng = random.Random(_POINT_RNG_SEED)
        full = min(len(rows), self.n)
        best = 0
        for _ in range(4):
            point = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(self.n)]
            try:
                best = max(best, _frank([[self.value(f, point) for f in row] for row in rows]))
            except ZeroDivisionError:
                continue
            if best == full:
                return best
        return sympy.Matrix([[f.as_expr() for f in row] for row in rows]).rank(simplify=True)


def _split_top(text, sep=","):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _matches(chart, field, W, H):
    """i_field W = dH componentwise: sum_i X^i W[i][j] = dH/dx_j."""
    n = chart.n
    return all(sum((field[i] * W[i][j] for i in range(n)), chart.field.zero) == chart.diff(H, j)
               for j in range(n))


def _closed(chart, W):
    n = chart.n
    return all(chart.diff(W[j][k], i) + chart.diff(W[k][i], j) + chart.diff(W[i][j], k) == 0
               for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))


def _description(chart, field, W, H):
    matches = _matches(chart, field, W, H)
    closed = _closed(chart, W)
    return {"matches": matches, "closed": closed, "holds": matches and closed,
            "nondegenerate": chart.generic_rank(W) == chart.n}


def _compare(problems, where, reported, expected):
    if reported != expected:
        problems.append(f"{where}: report says {reported!r}, independent value {expected!r}")


# ---------------------------------------------------------------------------
# exact-geometry
# ---------------------------------------------------------------------------

def _check_verify(request, report, problems):
    chart = Chart(request.data["coords"])
    results = report["results"]
    _compare(problems, "verify requests", [r["request"] for r in results],
             list(request.data["expect_holds"]))
    for r in results:
        objects = r["objects"]
        W = chart.two_form_matrix(chart.form(objects["form"]))
        independent = _description(chart, chart.vector(objects["field"]), W,
                                   chart.expr(objects["hamiltonian"]))
        for key, value in independent.items():
            _compare(problems, f"{r['request']}.{key}", r[key], value)
        _compare(problems, f"{r['request']}.holds (as generated)", r["holds"],
                 request.data["expect_holds"][r["request"]])
        _compare(problems, f"{r['request']}.residual is zero", r["residual"] == "1-form: 0",
                 independent["matches"])


def _lie_tensor_zero(chart, field, T):
    """(L_X T)^i_j = X(T^i_j) - sum_k T^k_j d_k X^i + sum_k T^i_k d_j X^k."""
    n = chart.n
    for i in range(n):
        for j in range(n):
            total = chart.apply(field, T[i][j])
            for k in range(n):
                total += T[i][k] * chart.diff(field[k], j) - T[k][j] * chart.diff(field[i], k)
            if total != 0:
                return False
    return True


def _check_twisted(request, report, problems):
    chart = Chart(request.data["coords"])
    n = chart.n
    field = chart.vector(request.data["field"])
    T = chart.matrix(request.data["tensor"])
    F = chart.expr(request.data["invariant"])
    (r,) = report["results"]

    tensor_invariant = _lie_tensor_zero(chart, field, T)
    function_invariant = chart.apply(field, F) == 0
    _compare(problems, "tensor_invariant", r["tensor_invariant"], tensor_invariant)
    _compare(problems, "function_invariant", r["function_invariant"], function_invariant)

    # the printed two-form and Hamiltonian against d(d_T F) and -dF(T(field))
    dF = [chart.diff(F, j) for j in range(n)]
    alpha = [sum((dF[j] * T[j][i] for j in range(n)), chart.field.zero) for i in range(n)]
    W = chart.two_form_matrix(chart.form(r["two_form"]))
    for a in range(n):
        for b in range(a + 1, n):
            if W[a][b] != chart.diff(alpha[b], a) - chart.diff(alpha[a], b):
                problems.append(f"two_form coefficient ({chart.coords[a]}, {chart.coords[b]}) "
                                "is not that of d(d_T F)")
    H = chart.expr(r["hamiltonian"])
    TX = [sum((T[j][k] * field[k] for k in range(n)), chart.field.zero) for j in range(n)]
    if H != -sum((TX[j] * dF[j] for j in range(n)), chart.field.zero):
        problems.append("hamiltonian is not -dF(T(field))")

    independent = _description(chart, field, W, H)
    for key, value in independent.items():
        _compare(problems, f"description.{key}", r["description"][key], value)
    if tensor_invariant and function_invariant:
        # the theorem: an invariant tensor and an invariant function give a closed
        # two-form and a Hamiltonian description of the field
        _compare(problems, "theorem: closed", r["description"]["closed"], True)
        _compare(problems, "theorem: holds", r["description"]["holds"], True)


def _check_normalform(request, report, problems):
    chart = Chart(request.data["coords"])
    n = chart.n
    field = chart.vector(request.data["field"])
    integrals = [chart.expr(f) for f in request.data["integrals"]]
    fields = [chart.vector(X) for X in request.data["fields"]]
    (r,) = report["results"]

    jacobian = [[chart.diff(f, j) for j in range(n)] for f in integrals]
    expected = {
        "integrals_independent": chart.generic_rank(jacobian) == len(integrals),
        "fields_commute": all(chart.apply(X, Y[i]) == chart.apply(Y, X[i])
                              for a, X in enumerate(fields) for Y in fields[a + 1:] for i in range(n)),
        "fields_preserve_integrals": all(chart.apply(X, f) == 0 for X in fields for f in integrals),
    }
    if request.data["nu"] is not None:
        nu = [chart.expr(v) for v in request.data["nu"]]
        expected["coefficients_match"] = all(
            field[i] == sum((c * X[i] for c, X in zip(nu, fields)), chart.field.zero) for i in range(n))
    else:
        expected["coefficients_match"] = None
        for entry in r["solved_coefficients"]:
            point = [Fraction(v) for v in entry["point"]]
            values = [Fraction(v) for v in entry["values"]]
            combo = [sum(c * chart.value(X[i], point) for c, X in zip(values, fields)) for i in range(n)]
            if entry["solved"] and combo != [chart.value(f, point) for f in field]:
                problems.append(f"solved coefficients at {entry['point']} do not reproduce the field")
    for key, value in expected.items():
        _compare(problems, key, r[key], value)
    conditions = [r[k] for k in ("integrals_independent", "integral_rank_full_at_samples",
                                 "fields_commute", "fields_independent_at_samples",
                                 "fields_preserve_integrals")]
    if r["coefficients_match"] is not None:
        conditions.append(r["coefficients_match"])
    _compare(problems, "passed", r["passed"], all(conditions))


def _check_validate(request, report, problems):
    chart = Chart(request.data["coords"])
    n = chart.n
    for r in report["results"]:
        name, checks = r["request"], r["checks"]
        if r["kind"] == "tangent":
            S = [[Fraction(v) for v in row] for row in request.data["tensors"][name]]
            delta = chart.vector(request.data["delta"])
            expected = {
                "s_squared_zero": not any(any(row) for row in matmul(S, S)),
                "s_kills_delta": all(sum((S[i][k] * delta[k] for k in range(n)), chart.field.zero) == 0
                                     for i in range(n)),
                "rank_is_half_dimension": _frank(S) == n // 2,
            }
        elif r["kind"] == "cotangent":
            theta = [chart.expr(t) for t in request.data["theta"]]
            delta = chart.vector(request.data["deltas"][name])
            W = [[chart.diff(theta[b], a) - chart.diff(theta[a], b) for b in range(n)] for a in range(n)]
            expected = {
                "contraction_reproduces_form": all(
                    sum((delta[i] * W[i][j] for i in range(n)), chart.field.zero) == theta[j]
                    for j in range(n)),
                "derivative_nondegenerate": chart.generic_rank(W) == n,
            }
        else:
            delta = chart.vector(request.data["deltas"][name])
            linear = [c for c, d, x in zip(chart.coords, delta, chart.gens) if d != 0 and d == x]
            invariant = [c for c, d in zip(chart.coords, delta) if d == 0]
            other = [c for c in chart.coords if c not in linear and c not in invariant]
            expected = {"linear_coordinates": linear, "invariant_coordinates": invariant,
                        "non_eigen_coordinates": other,
                        "eigenvalue_conditions_hold": not other and bool(linear)}
        for key, value in expected.items():
            _compare(problems, f"{name}.{key}", checks[key], value)
        if r["kind"] == "linear":
            verdicts = [checks["eigenvalue_conditions_hold"]]
        else:
            verdicts = [v for v in checks.values() if isinstance(v, bool)]
        _compare(problems, f"{name}.valid", r["valid"], all(verdicts))


# ---------------------------------------------------------------------------
# linear-algebra
# ---------------------------------------------------------------------------

def _fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _frank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _check_factorization(lam, ham, A, problems, where):
    n = len(A)
    if any(lam[i][j] != -lam[j][i] for i in range(n) for j in range(n)):
        problems.append(f"{where}: lam is not skew")
    if det(lam) == 0:
        problems.append(f"{where}: lam is singular")
    if any(ham[i][j] != ham[j][i] for i in range(n) for j in range(n)):
        problems.append(f"{where}: ham is not symmetric")
    if matmul(lam, ham) != A:
        problems.append(f"{where}: lam @ ham differs from A")


def _odd_traces(A):
    """(exponent, trace) for odd exponents up to 2n-1, stopping at the first non-zero trace."""
    out, power, square = [], A, matmul(A, A)
    for exponent in range(1, 2 * len(A), 2):
        trace = sum(power[i][i] for i in range(len(A)))
        out.append((exponent, trace))
        if trace != 0:
            break
        power = matmul(power, square)
    return out


def _check_factorize(request, report, problems):
    A = _fractions(request.data["A"])
    (r,) = report["results"]
    traces = _odd_traces(A)
    failing = traces[-1] if traces[-1][1] != 0 else None
    odd = r["odd_trace"]
    _compare(problems, "odd_trace.passed", odd["passed"], failing is None)
    _compare(problems, "odd_trace.traces", [[k, Fraction(v)] for k, v in odd["traces"]],
             [[k, v] for k, v in traces])
    if failing is not None:
        _compare(problems, "odd_trace.failing_exponent", odd["failing_exponent"], failing[0])
        _compare(problems, "odd_trace.failing_value", Fraction(odd["failing_value"]), failing[1])
    if request.expect_rc == 2:
        _compare(problems, "status", report["status"], "analysis-failure")
        _compare(problems, "factorization", r["factorization"], None)
        if failing is None:
            problems.append("input should fail the odd-trace test")
        return
    _compare(problems, "status", report["status"], "ok")
    if r.get("factorization") is None:
        problems.append("no factorization reported")
        return
    _check_factorization(_fractions(r["factorization"]["lam"]["entries"]),
                         _fractions(r["factorization"]["ham"]["entries"]), A, problems, "factorization")


def _expm(M):
    """exp(M) by scaling and squaring of a Taylor series (numpy only)."""
    norm = np.max(np.sum(np.abs(M), axis=1))
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    X = M / (2 ** squarings)
    result, term = np.eye(len(M)), np.eye(len(M))
    for k in range(1, 30):
        term = term @ X / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def _check_symmetry(request, report, problems):
    A = _fractions(request.data["A"])
    n, k, lam_param = len(A), request.data["k"], request.data["lam"]
    (r,) = report["results"]
    base_lam = _fractions(r["base"]["lam"]["entries"])
    base_ham = _fractions(r["base"]["ham"]["entries"])
    _check_factorization(base_lam, base_ham, A, problems, "base")
    power = A
    for _ in range(2 * k - 1):
        power = matmul(power, A)
    c = power[0][0]
    scalar = all(power[i][j] == (c if i == j else 0) for i in range(n) for j in range(n))
    _compare(problems, "exact", r["exact"], scalar)
    if scalar:
        s = lam_param * c
        sym = r["symmetry"]
        _compare(problems, "symmetry", (_fractions(sym["entries"]), Fraction(sym.get("log_scale", 0))),
                 ([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], s))
        lam2, ham2 = r["transformed"]["lam"], r["transformed"]["ham"]
        _compare(problems, "transformed scales", (Fraction(lam2.get("log_scale", 0)),
                                                  Fraction(ham2.get("log_scale", 0))), (2 * s, -2 * s))
        _check_factorization(_fractions(lam2["entries"]), _fractions(ham2["entries"]), A, problems,
                             "transformed")
        _compare(problems, "canonical", r["canonical"], s == 0)
        _compare(problems, "same_description", r["same_description"], s == 0)
        return
    Af = np.array(A, dtype=float)
    T = np.array(r["symmetry"]["entries_float"])
    expected_T = _expm(float(lam_param) * np.array(power, dtype=float))
    if not np.allclose(T, expected_T, rtol=1e-9, atol=1e-12):
        problems.append("float symmetry differs from exp(lam A^2k)")
    lam2 = np.array(r["transformed"]["lam"]["entries_float"])
    ham2 = np.array(r["transformed"]["ham"]["entries_float"])
    scale = max(1.0, float(np.max(np.abs(Af))))
    if not np.allclose(lam2, -lam2.T, atol=1e-9 * scale):
        problems.append("transformed lam is not skew")
    if not np.allclose(ham2, ham2.T, atol=1e-9 * scale):
        problems.append("transformed ham is not symmetric")
    if not np.allclose(lam2 @ ham2, Af, atol=1e-9 * scale):
        problems.append("transformed lam @ ham differs from A")
    lam_f = np.array(base_lam, dtype=float)
    moved = float(np.max(np.abs(T @ lam_f @ T.T - lam_f)))
    _compare(problems, "canonical", r["canonical"], moved <= 1e-9 * max(1.0, float(np.max(np.abs(lam_f)))))


def _check_resonance(request, report, problems):
    for r in report["results"]:
        C = _fractions(request.data["specs"][r["request"]])
        n = len(C)
        rank_q = sympy.Matrix(C).rank()
        basis = r["lattice"]["basis"]
        for row in basis:
            if any(sum(k * C[i][j] for i, k in enumerate(row)) != 0 for j in range(len(C[0]))):
                problems.append(f"{r['request']}: lattice vector {row} has k.omega != 0")
        if basis and sympy.Matrix(basis).rank() != len(basis):
            problems.append(f"{r['request']}: lattice basis is not independent")
        d = rank_q
        _compare(problems, f"{r['request']}.lattice rank", r["lattice"]["rank"], n - rank_q)
        _compare(problems, f"{r['request']}.closure_dimension", r["closure_dimension"], d)
        _compare(problems, f"{r['request']}.extra_integrals", r["extra_integrals"], n - d)
        kind = ("maximally_superintegrable" if d == 1 else "integrable" if d == n else "superintegrable")
        _compare(problems, f"{r['request']}.kind", r["kind"], kind)


# ---------------------------------------------------------------------------
# period-scan
# ---------------------------------------------------------------------------

def _expected_period(kind, omega, energy):
    if kind == "harmonic":
        return 2 * math.pi / float(omega)
    return math.pi / (2 * math.sqrt(energy))


def _check_table(table, kind, omega, problems, where):
    if not table["records"]:
        problems.append(f"{where}: no period records")
    for rec in table["records"]:
        if kind == "quasi":
            if rec["converged"] or rec["period"] is not None:
                problems.append(f"{where}: quasi-periodic seed reported period {rec['period']!r}")
            continue
        if not rec["converged"] or rec["period"] is None:
            problems.append(f"{where}: seed at energy {rec['energy']} did not converge")
            continue
        expected = _expected_period(kind, omega, rec["energy"])
        error = abs(rec["period"] - expected) / expected
        if error > PERIOD_TOLERANCE[kind]:
            problems.append(f"{where}: period {rec['period']!r} vs closed form {expected!r} "
                            f"(relative error {error:.2e})")


def _check_period(request, report, problems):
    kind = request.data["kind"]
    results = report["results"]
    if kind == "compare":
        scan, obstruction = results
        _check_table(scan["table"], "quartic", None, problems, "quartic scan")
        _check_table(obstruction["compare_table"], "harmonic", 1, problems, "harmonic scan")
        _compare(problems, "obstructed", obstruction.get("obstructed"), True)
        _compare(problems, "obstruction reason", obstruction.get("reason"),
                 "constant vs energy-dependent period")
        return
    (r,) = results
    _check_table(r["table"], kind, request.data.get("omega"), problems, "scan")


# ---------------------------------------------------------------------------

_BY_CLASS = {
    "altgen-rational": _check_twisted, "altgen-quotient": _check_twisted,
    "altgen-polynomial": _check_twisted, "altgen-r6": _check_twisted,
    "symmetry-exact": _check_symmetry, "symmetry-float": _check_symmetry,
}
_BY_SUBCOMMAND = {
    "verify": _check_verify, "normalform": _check_normalform, "validate": _check_validate,
    "factorize": _check_factorize, "resonance": _check_resonance, "period": _check_period,
}


def check(request, code, text):
    """Problems with one request's exit code and report; empty when it passes."""
    if code != request.expect_rc:
        return [f"exit code {code!r}, expected {request.expect_rc}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    handler = _BY_CLASS.get(request.cls) or _BY_SUBCOMMAND[request.subcommand]
    try:
        handler(request, report, problems)
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"report is malformed: {type(exc).__name__}: {exc}")
    return problems
