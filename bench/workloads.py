"""Seeded request lists for the three benchmark workloads.

Every workload is a fixed list of request classes.  The seed never picks
the shape of a request, so the work in one pass over the list stays nearly
the same from seed to seed.  In the cheap classes it picks the numbers
(frequencies, matrix entries, energies, coefficients); in the classes whose
cost hangs on the exact numbers, each slot keeps fixed numbers and the seed
applies a symmetry of the problem (relabelled degrees of freedom, a signed
permutation of the coordinates).  It also picks the ``--seed`` handed to
geoham.

A request is one ``geoham`` command line on one generated ``.sys`` file.
Each request carries what the benchmark itself knows about its input
(``data``), which the checks in ``checks.py`` use to judge the report
without trusting geoham.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact-geometry", "linear-algebra", "period-scan")

QUASI_RATIO = Fraction(1393, 985)  # continued-fraction convergent of sqrt(2)
QUASI_TMAX = 20


@dataclass
class Request:
    """One CLI call: ``geoham <subcommand> <file> [args]`` on generated text."""

    cls: str
    subcommand: str
    text: str
    data: dict
    expect_rc: int = 0
    args: list = field(default_factory=list)
    compare_text: str | None = None


# ---------------------------------------------------------------------------
# text helpers
# ---------------------------------------------------------------------------

def _q(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _matrix(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(_q(v) for v in row) + "]" for row in rows) + "]"


def _nonzero(rng, bound=3):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _chart(n):
    """Coordinates q1..qn, p1..pn of R^(2n)."""
    return [f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)]


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def det(rows):
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


# ---------------------------------------------------------------------------
# exact-geometry: oscillators through verify, altgen, normalform, validate
# ---------------------------------------------------------------------------

_F1, _F2 = "(p1^2 + q1^2)", "(p2^2 + q2^2)"
_K, _L = "(q1*q2 + p1*p2)", "(q1*p2 - q2*p1)"


def _symmetric(rng, n):
    """Invertible symmetric integer n×n matrix with every entry non-zero."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = _nonzero(rng)
        if det(rows) != 0:
            return rows


def _rank_one(rng, n):
    u = [_nonzero(rng, 2) for _ in range(n)]
    return [[u[i] * u[j] for j in range(n)] for i in range(n)]


def _pair_form(P):
    """The 2-form sum P_ij dq_i^dp_j."""
    n = len(P)
    return " + ".join(f"({P[i][j]}) dq{i + 1}^dp{j + 1}"
                      for i in range(n) for j in range(n) if P[i][j])


def _pair_hamiltonian(P, w):
    """w/2 * (p^T P p + q^T P q), the Hamiltonian of the isotropic flow for sum P_ij dq_i^dp_j."""
    n = len(P)
    terms = []
    for i in range(n):
        for j in range(n):
            if P[i][j]:
                terms.append(f"{_q(Fraction(P[i][j]) * w / 2)}*(p{i + 1}*p{j + 1} + q{i + 1}*q{j + 1})")
    return " + ".join(terms)


def _iso_field(n, w):
    return "[" + ", ".join([f"{_q(w)}*p{i}" for i in range(1, n + 1)]
                           + [f"{_q(-w)}*q{i}" for i in range(1, n + 1)]) + "]"


def _commuting_tensor(X, Y):
    """(1,1)-tensor [[X, Y], [-Y, X]]: commutes with the isotropic flow, so it is invariant."""
    n = len(X)
    rows = [list(X[i]) + list(Y[i]) for i in range(n)]
    rows += [[-y for y in Y[i]] + list(X[i]) for i in range(n)]
    return rows


def _frequency(rng):
    return rng.choice([Fraction(3, 2), Fraction(4, 3), Fraction(5, 4), Fraction(5, 3),
                       Fraction(6, 5), Fraction(7, 4), Fraction(7, 5), Fraction(8, 5)])


def _verify_iso(rng, n, seed):
    """Isotropic R^(2n) oscillator: canonical, twisted-pair, wrong-H and degenerate descriptions."""
    w = _frequency(rng)
    P = _symmetric(rng, n)
    D = _rank_one(rng, n)
    I = [[int(i == j) for j in range(n)] for i in range(n)]
    lines = [f"chart {', '.join(_chart(n))}", f"vectorfield Gamma = {_iso_field(n, w)}"]
    cases = {"canonical": (I, 1), "paired": (P, 1), "wrong": (P, 2), "degenerate": (D, 1)}
    for name, (M, scale) in cases.items():
        lines.append(f"form w_{name} = 2-form: {_pair_form(M)}")
        lines.append(f"scalar H_{name} = {_pair_hamiltonian(M, w * scale)}")
    for name in cases:
        lines.append(f"verify {name} : Gamma w_{name} H_{name}")
    return Request(
        cls=f"verify-r{2 * n}", subcommand="verify", text="\n".join(lines) + "\n",
        args=["--seed", str(seed)],
        data={"coords": _chart(n), "expect_holds": {"canonical": True, "paired": True,
                                                    "wrong": False, "degenerate": True}},
    )


def _verify_aniso(rng, seed):
    """R^4 oscillator with two distinct frequencies, constant-coefficient descriptions."""
    a, b = rng.sample([1, 2, 3, 4, 5], 2)
    c1, c2 = _nonzero(rng), _nonzero(rng)
    text = "\n".join([
        "chart q1, q2, p1, p2",
        f"vectorfield Gamma = [{a}*p1, {b}*p2, {-a}*q1, {-b}*q2]",
        f"scalar H = {_q(Fraction(a, 2))}*{_F1} + {_q(Fraction(b, 2))}*{_F2}",
        f"scalar Hc = {_q(Fraction(a * c1, 2))}*{_F1} + {_q(Fraction(b * c2, 2))}*{_F2}",
        "form w = 2-form: (1) dq1^dp1 + (1) dq2^dp2",
        f"form wc = 2-form: ({c1}) dq1^dp1 + ({c2}) dq2^dp2",
        "verify primary : Gamma w H",
        "verify scaled : Gamma wc Hc",
        "verify crossed : Gamma w Hc",
    ]) + "\n"
    return Request(cls="verify-aniso", subcommand="verify", text=text, args=["--seed", str(seed)],
                   data={"coords": _chart(2),
                         "expect_holds": {"primary": True, "scaled": True, "crossed": c1 == 1 and c2 == 1}})


# The altgen classes carry most of the symbolic work, and its cost depends on
# the exact numbers: a sign pattern alone moves one request's cost by up to
# 40 %, the frequency by up to 30 %.  So each slot in the pass has a fixed
# variant (tensor, invariant, frequency), and the seed relabels the degrees of
# freedom, (q_i, p_i) -> (q_s(i), p_s(i)) for a seeded permutation s.  That is
# a symmetry of the isotropic flow, so the seed changes the input but not the
# amount of work in a pass.

def _variant(cls, index):
    return random.Random(f"{cls}/{index}")


def _signed(rng, magnitudes):
    return [rng.choice([-1, 1]) * m for m in magnitudes]


def _block(rng, magnitudes):
    a, b, c, d = _signed(rng, magnitudes)
    return [[a, b], [c, d]]


def _relabel(text, perm):
    return re.sub(r"\b([qp])(\d+)\b", lambda m: f"{m.group(1)}{perm[int(m.group(2)) - 1]}", text)


def _relabel_tensor(T, perm):
    n = len(perm)
    full = [perm[i] - 1 for i in range(n)] + [n + perm[i] - 1 for i in range(n)]
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        for j in range(2 * n):
            out[full[i]][full[j]] = T[i][j]
    return out


def _twisted(rng, variant, invariant, tensor, cls, seed, n=2):
    w = _frequency(variant)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    invariant = _relabel(invariant, perm)
    tensor = _relabel_tensor(tensor, perm)
    text = "\n".join([
        f"chart {', '.join(_chart(n))}",
        f"scalar F = {invariant}",
        f"vectorfield Gamma = {_iso_field(n, w)}",
        f"tensor T = {_matrix(tensor)}",
        "altgen twist : tensor=T invariant=F field=Gamma",
    ]) + "\n"
    return Request(cls=cls, subcommand="altgen", text=text, args=["--seed", str(seed)],
                   data={"coords": _chart(n), "field": _iso_field(n, w), "tensor": tensor,
                         "invariant": invariant})


def _twisted_rational(rng, seed, index):
    """Quotient invariant (aK + bL)/f2 with a full commuting tensor: unreduced quotients throughout."""
    variant = _variant("altgen-rational", index)
    X = _block(variant, (1, 2, 3, 1))
    Y = _block(variant, (2, 1, 1, 3))
    a, b = _signed(variant, (1, 2))
    F = f"({a}*{_K} + {b}*{_L})/{_F2}"
    return _twisted(rng, variant, F, _commuting_tensor(X, Y), "altgen-rational", seed)


def _twisted_quotient(rng, seed, index):
    """Quotient invariant aK/f1 with a symmetric tensor block."""
    variant = _variant("altgen-quotient", index)
    X = _block(variant, (2, 1, 1, 3))
    F = f"{variant.choice([-2, 2])}*{_K}/{_F1}"
    return _twisted(rng, variant, F, _commuting_tensor(X, [[0, 0], [0, 0]]), "altgen-quotient", seed)


def _twisted_polynomial(rng, seed, index):
    """Quartic polynomial invariant with a full commuting tensor."""
    variant = _variant("altgen-polynomial", index)
    X = _block(variant, (1, 3, 2, 1))
    Y = _block(variant, (3, 1, 2, 2))
    a, b, c = _signed(variant, (1, 2, 3))
    F = f"{a}*{_F1}*{_F2} + {b}*{_K}^2 + {c}*{_L}*{_F1}"
    return _twisted(rng, variant, F, _commuting_tensor(X, Y), "altgen-polynomial", seed)


def _twisted_r6(rng, seed, index):
    """R^6: cyclic coordinate permutation (an invariant tensor) and a product invariant."""
    variant = _variant("altgen-r6", index)
    cyc = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    F = f"{_nonzero(variant)}*(p1^2 + q1^2)*(p2^2 + q2^2) + (p3^2 + q3^2)"
    return _twisted(rng, variant, F, _commuting_tensor(cyc, [[0] * 3] * 3), "altgen-r6", seed, n=3)


def _normalform(rng, n, with_nu, seed):
    w = _frequency(rng)
    lines = [f"chart {', '.join(_chart(n))}", f"vectorfield Gamma = {_iso_field(n, w)}"]
    integrals, fields = [], []
    for i in range(1, n + 1):
        integrals.append(f"{_q(Fraction(_nonzero(rng), 2))}*(p{i}^2 + q{i}^2)")
        comps = ["0"] * (2 * n)
        comps[i - 1] = f"p{i}"
        comps[n + i - 1] = f"-q{i}"
        fields.append(f"[{', '.join(comps)}]")
        lines.append(f"scalar f{i} = {integrals[-1]}")
        lines.append(f"vectorfield X{i} = {fields[-1]}")
    names = lambda prefix: ", ".join(f"{prefix}{i}" for i in range(1, n + 1))
    request = f"normalform nf : Gamma integrals=[{names('f')}] fields=[{names('X')}]"
    if with_nu:
        request += " nu=[" + ", ".join(_q(w) for _ in range(n)) + "]"
    lines.append(request)
    return Request(cls=f"normalform-r{2 * n}", subcommand="normalform", text="\n".join(lines) + "\n",
                   args=["--seed", str(seed)],
                   data={"coords": _chart(n), "field": _iso_field(n, w), "integrals": integrals,
                         "fields": fields, "nu": [_q(w)] * n if with_nu else None})


def _validate_tangent(rng, seed):
    c = _nonzero(rng)
    good = [[0, 0, 0, 0], [0, 0, 0, 0], [c, 0, 0, 0], [0, c, 0, 0]]
    bad = [[0, 0, 0, 0], [0, 0, 0, 0], [c, 0, 0, 0], [0, c, c, 0]]
    text = "\n".join([
        "chart q1, q2, v1, v2",
        f"tensor S = {_matrix(good)}",
        f"tensor B = {_matrix(bad)}",
        "vectorfield Delta = [0, 0, v1, v2]",
        "validate good : tangent S Delta",
        "validate bad : tangent B Delta",
    ]) + "\n"
    return Request(cls="validate-tangent", subcommand="validate", text=text, args=["--seed", str(seed)],
                   data={"coords": ["q1", "q2", "v1", "v2"], "tensors": {"good": good, "bad": bad},
                         "delta": "[0, 0, v1, v2]"})


def _validate_cotangent(rng, seed):
    c = _nonzero(rng)
    d = rng.choice([2, 3])
    text = "\n".join([
        "chart q1, q2, p1, p2",
        f"form theta = 1-form: ({c}*p1) dq1 + ({c}*p2) dq2",
        "vectorfield Delta = [0, 0, p1, p2]",
        f"vectorfield Wide = [0, 0, {d}*p1, {d}*p2]",
        "validate good : cotangent theta Delta",
        "validate bad : cotangent theta Wide",
    ]) + "\n"
    return Request(cls="validate-cotangent", subcommand="validate", text=text, args=["--seed", str(seed)],
                   data={"coords": _chart(2), "theta": [f"{c}*p1", f"{c}*p2", "0", "0"],
                         "deltas": {"good": "[0, 0, p1, p2]", "bad": f"[0, 0, {d}*p1, {d}*p2]"}})


def _validate_linear(rng, seed):
    c = _nonzero(rng)
    text = "\n".join([
        "chart q1, q2, p1, p2",
        "vectorfield Delta = [0, 0, p1, p2]",
        f"vectorfield Shear = [0, {c}*q1, p1, p2]",
        "validate good : linear Delta",
        "validate bad : linear Shear",
    ]) + "\n"
    return Request(cls="validate-linear", subcommand="validate", text=text, args=["--seed", str(seed)],
                   data={"coords": _chart(2), "deltas": {"good": "[0, 0, p1, p2]", "bad": f"[0, {c}*q1, p1, p2]"}})


def exact_geometry(seed):
    rng = random.Random(f"exact-geometry/{seed}")
    cli_seed = rng.randrange(1, 10 ** 6)
    requests = []
    requests += [_verify_iso(rng, 2, cli_seed) for _ in range(2)]
    requests += [_verify_iso(rng, 3, cli_seed) for _ in range(2)]
    requests += [_verify_aniso(rng, cli_seed) for _ in range(2)]
    requests += [_normalform(rng, 2, True, cli_seed), _normalform(rng, 2, False, cli_seed),
                 _normalform(rng, 3, True, cli_seed)]
    requests += [_validate_tangent(rng, cli_seed), _validate_cotangent(rng, cli_seed),
                 _validate_linear(rng, cli_seed)]
    requests += [_twisted_r6(rng, cli_seed, i) for i in range(7)]
    requests += [_twisted_quotient(rng, cli_seed, i) for i in range(3)]
    requests += [_twisted_polynomial(rng, cli_seed, i) for i in range(3)]
    requests += [_twisted_rational(rng, cli_seed, i) for i in range(5)]
    return requests


# ---------------------------------------------------------------------------
# linear-algebra: factorizations, odd-trace failures, matrix symmetries, resonance
# ---------------------------------------------------------------------------

def _skew_invertible(rng, n):
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-2, 2)
                rows[i][j], rows[j][i] = v, -v
        if det(rows) != 0:
            return rows


def _symmetric_small(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    return rows


def _unimodular(rng, n, steps=None):
    """Integer matrix of determinant 1 and its integer inverse, from elementary row operations."""
    S = [[int(i == j) for j in range(n)] for i in range(n)]
    S_inv = [row[:] for row in S]
    for _ in range(steps or 2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]               # row_i += c row_j
        for row in S_inv:                                          # col_j -= c col_i
            row[j] -= c * row[i]
    return S, S_inv


def _linear_chart(n):
    return ", ".join(f"x{i}" for i in range(1, n + 1))


def _signed_permutation(rng, A):
    """Q A Q^T for a seeded signed permutation Q: the same problem in relabelled, re-signed coordinates."""
    n = len(A)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    return [[signs[i] * signs[j] * A[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


# As with the altgen classes, the cost of an exact factorization depends on the
# numbers, so each slot has a fixed base matrix and the seed conjugates it by a
# signed permutation.

def _factorize(rng, n, seed, index):
    variant = _variant(f"factorize-n{n}", index)
    A = _signed_permutation(rng, matmul(_skew_invertible(variant, n), _symmetric_small(variant, n)))
    text = f"chart {_linear_chart(n)}\nmatrix A = {_matrix(A)}\nfactorize fac : A\n"
    return Request(cls=f"factorize-n{n}", subcommand="factorize", text=text,
                   args=["--seed", str(seed)], data={"A": A})


def _not_decomposable(rng, n, seed):
    """Conjugate of a diagonal matrix whose eigenvalues are not symmetric under negation: exits 2."""
    if n == 4:
        diag = [1, 1, -2, 0]
    else:
        diag = [1, 1, -2, 3, 3, -6]
    S, S_inv = _unimodular(_variant(f"not-decomposable-n{n}", 0), n)
    D = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    A = _signed_permutation(rng, matmul(matmul(S, D), S_inv))
    text = f"chart {_linear_chart(n)}\nmatrix A = {_matrix(A)}\nfactorize fac : A\n"
    return Request(cls="not-decomposable", subcommand="factorize", text=text, expect_rc=2,
                   args=["--seed", str(seed)], data={"A": A})


def _symmetry_exact(rng, seed):
    """A = w S J S^-1, so A^2 = -w^2 I and exp(lam A^2) stays exact."""
    n = 4
    w = rng.choice([1, 2, 3])
    J = [[0, 0, w, 0], [0, 0, 0, w], [-w, 0, 0, 0], [0, -w, 0, 0]]
    S, S_inv = _unimodular(rng, n, steps=3)
    A = matmul(matmul(S, J), S_inv)
    lam = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 4]))
    text = f"chart {_linear_chart(n)}\nmatrix A = {_matrix(A)}\naltgen sym : matrix=A k=1 lam={_q(lam)}\n"
    return Request(cls="symmetry-exact", subcommand="altgen", text=text, args=["--seed", str(seed)],
                   data={"A": A, "k": 1, "lam": lam})


def _symmetry_float(rng, seed, index):
    """A generic decomposable A, so exp(lam A^2) is computed in floating point."""
    n = 4
    variant = _variant("symmetry-float", index)
    while True:
        A = matmul(_skew_invertible(variant, n), _symmetric_small(variant, n))
        A2 = matmul(A, A)
        scalar = all(A2[i][j] == (A2[0][0] if i == j else 0) for i in range(n) for j in range(n))
        if not scalar and max(abs(x) for row in A2 for x in row) <= 24:
            break
    A = _signed_permutation(rng, A)
    lam = Fraction(rng.choice([-1, 1]), 32)
    text = f"chart {_linear_chart(n)}\nmatrix A = {_matrix(A)}\naltgen sym : matrix=A k=1 lam={_q(lam)}\n"
    return Request(cls="symmetry-float", subcommand="altgen", text=text, args=["--seed", str(seed)],
                   data={"A": A, "k": 1, "lam": lam})


def _resonance(rng, seed):
    """Frequency vectors over the independent symbols 1, s2, s3, with planted resonances."""
    specs = {}
    for name, (n, rank) in {"full": (4, 3), "partial": (5, 2), "single": (3, 1), "mixed": (6, 3)}.items():
        base = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(rank)]
        for row in base:
            if not any(row):
                row[0] = 1
        rows = []
        for i in range(n):
            if i < rank:
                rows.append(base[i])
            else:  # rational combinations of earlier rows plant resonances
                combo = [Fraction(_nonzero(rng, 2), rng.choice([1, 2])) for _ in range(rank)]
                row = [sum(c * base[r][j] for r, c in enumerate(combo)) for j in range(3)]
                rows.append(row if any(row) else [1, 0, 0])
        specs[name] = rows
    lines = ["chart a, b"]
    for name, rows in specs.items():
        lines.append(f"frequencies {name} = {{ basis: [1, s2, s3]; omega: {_matrix(rows)} }}")
    for name in specs:
        lines.append(f"resonance {name} : {name}")
    return Request(cls="resonance", subcommand="resonance", text="\n".join(lines) + "\n",
                   args=["--seed", str(seed)], data={"specs": specs})


def linear_algebra(seed):
    rng = random.Random(f"linear-algebra/{seed}")
    cli_seed = rng.randrange(1, 10 ** 6)
    requests = []
    requests += [_resonance(rng, cli_seed) for _ in range(3)]
    requests += [_factorize(rng, 2, cli_seed, i) for i in range(3)]
    requests += [_not_decomposable(rng, 4, cli_seed)]
    requests += [_factorize(rng, 4, cli_seed, i) for i in range(7)]
    requests += [_symmetry_exact(rng, cli_seed) for _ in range(2)]
    requests += [_symmetry_float(rng, cli_seed, i) for i in range(2)]
    requests += [_not_decomposable(rng, 6, cli_seed)]
    requests += [_factorize(rng, 6, cli_seed, i) for i in range(4)]
    requests += [_factorize(rng, 8, cli_seed, i) for i in range(5)]
    return requests


# ---------------------------------------------------------------------------
# period-scan: periods of oscillators, quasi-periodic orbits, the obstruction
# ---------------------------------------------------------------------------

def _energy(rng):
    return Fraction(rng.randint(1, 8), 4)


# The cost of an orbit grows with its frequency, so the frequencies and the
# quartic energies are fixed per slot; the seed picks the energies of the
# linear flows (which do not change their cost) and geoham's --seed, which
# picks the starting directions.

def _harmonic(rng, seed, rational, index=0):
    w = [Fraction(6, 5), Fraction(5, 4)][index] if rational else Fraction(1)
    E = _energy(rng)
    text = f"chart q, p\nscalar H = {_q(w / 2)}*(p^2 + q^2)\nperiod scan : H energies=[{_q(E)}] seeds=1\n"
    return Request(cls="harmonic-rational" if rational else "harmonic", subcommand="period", text=text,
                   args=["--seed", str(seed)], data={"kind": "harmonic", "omega": w})


def _oscillator_r4(rng, seed):
    E = _energy(rng)
    text = ("chart q1, q2, p1, p2\nscalar H = 1/2*(p1^2 + p2^2 + q1^2 + q2^2)\n"
            f"period scan : H energies=[{_q(E)}] seeds=1\n")
    return Request(cls="oscillator-r4", subcommand="period", text=text, args=["--seed", str(seed)],
                   data={"kind": "harmonic", "omega": Fraction(1)})


def _quartic(rng, seed, index):
    E = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)][index]
    text = f"chart q, p\nscalar H = (p^2 + q^2)^2\nperiod scan : H energies=[{_q(E)}] seeds=1\n"
    return Request(cls="quartic", subcommand="period", text=text, args=["--seed", str(seed)],
                   data={"kind": "quartic"})


def _quasi_periodic(rng, seed):
    E = _energy(rng)
    text = (f"chart q1, q2, p1, p2\nscalar H = 1/2*(p1^2 + q1^2) + {_q(QUASI_RATIO / 2)}*(p2^2 + q2^2)\n"
            f"period scan : H energies=[{_q(E)}] seeds=1\n")
    return Request(cls="quasi-periodic", subcommand="period", text=text,
                   args=["--seed", str(seed), "--tmax", str(QUASI_TMAX)], data={"kind": "quasi"})


def _compare(rng, seed):
    quartic = "chart q, p\nscalar H = (p^2 + q^2)^2\nperiod scan : H energies=[1/4, 1/2] seeds=1\n"
    E1, E2 = rng.sample([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)], 2)
    harmonic = f"chart q, p\nscalar H = 1/2*(p^2 + q^2)\nperiod scan : H energies=[{_q(E1)}, {_q(E2)}] seeds=1\n"
    return Request(cls="compare", subcommand="period", text=quartic, compare_text=harmonic,
                   args=["--seed", str(seed)], data={"kind": "compare"})


def period_scan(seed):
    rng = random.Random(f"period-scan/{seed}")
    cli_seed = rng.randrange(1, 10 ** 6)
    requests = []
    requests += [_oscillator_r4(rng, cli_seed) for _ in range(3)]
    requests += [_harmonic(rng, cli_seed, False) for _ in range(3)]
    requests += [_harmonic(rng, cli_seed, True, i) for i in range(2)]
    requests += [_quasi_periodic(rng, cli_seed) for _ in range(4)]
    requests += [_quartic(rng, cli_seed, i) for i in range(5)]
    requests += [_compare(rng, cli_seed) for _ in range(5)]
    return requests


_BY_WORKLOAD = {"exact-geometry": exact_geometry, "linear-algebra": linear_algebra, "period-scan": period_scan}


def build(workload, seed):
    return _BY_WORKLOAD[workload](seed)
