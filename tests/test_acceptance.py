"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as the
criteria execute.
"""

import io
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from geoham import catalog
from geoham.cli import run as cli_run
from geoham.errors import NotDecomposableError
from geoham.expr import Chart, Polynomial, RationalFunction, parse_expression
from geoham.geom import (
    DifferentialForm,
    Tensor11,
    VectorField,
    differential,
    exterior_derivative,
    interior_product,
    is_hamiltonian_description,
    lie_bracket,
    lie_derivative,
    twisted_two_form,
    wedge,
)
from geoham.linfact import ExactMatrix, hamiltonian_factorize, odd_trace_test
from geoham.period import (
    FlowSystem,
    dependence_test,
    equivalence_obstruction,
    period_energy_scan,
)
from geoham.torus import (
    FrequencySpec,
    INTEGRABLE,
    MAXIMALLY_SUPERINTEGRABLE,
    classify,
    resonance_lattice,
    row_hermite_normal_form,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
OSC = catalog.oscillator_r4()


def report_line(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def timed(budget_seconds):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.start
            return False

        def within_budget(self):
            return self.elapsed < budget_seconds

    return _Timer()


# ---------------------------------------------------------------------------
# Criterion 1: golden symbolic fixtures, exact, < 1 s each
# ---------------------------------------------------------------------------

def test_criterion_1a_oscillator_descriptions():
    with timed(1.0) as timer:
        first = is_hamiltonian_description(OSC.gamma, OSC.omega_primary, OSC.h_primary)
        second = is_hamiltonian_description(OSC.gamma, OSC.omega_swapped, OSC.h_swapped)
        ok = first.holds and second.holds and first.nondegenerate and second.nondegenerate
    report_line("1a (two Hamiltonian descriptions)", ok and timer.within_budget())


def test_criterion_1b_twisted_two_form_golden():
    chart = OSC.chart
    expr = lambda text: parse_expression(text, chart)
    expected = {
        (0, 1): expr("2*(q1^2 - q2^2)"),
        (0, 2): expr("2*(q1*p2 - q2*p1)"),
        (0, 3): expr("2*(q1*p1 - q2*p2)"),
        (1, 2): expr("2*(q2*p2 - q1*p1)"),
        (1, 3): expr("2*(q2*p1 - q1*p2)"),
        (2, 3): expr("2*(p1^2 - p2^2)"),
    }
    with timed(1.0) as timer:
        w = twisted_two_form(OSC.swap_tensor, OSC.quartic_invariant)
        term_for_term = set(w.coeffs) == set(expected) and all(
            w.coeffs[idx] == expected[idx] for idx in expected
        )
        closed = exterior_derivative(w).is_zero
        # a perturbation by 2u(dq2^dq1 + dp1^dp2) is NOT closed, so no
        # repeated exterior differentiation can ever produce it
        u = expr("p1^2 + p2^2 + q1^2 + q2^2")
        perturbation = DifferentialForm(chart, 2, {
            (0, 1): -2 * u,
            (2, 3): 2 * u,
        })
        perturbation_not_closed = not exterior_derivative(perturbation).is_zero
        ok = term_for_term and closed and perturbation_not_closed
    report_line("1b (twisted 2-form matches expansion term-for-term)",
                ok and timer.within_budget())


def test_criterion_1c_time_form_contraction():
    with timed(1.0) as timer:
        symbolic = interior_product(OSC.gamma, OSC.time_form).coefficient(()) == OSC.chart.one()
        # explicit omega = 1 instance
        chart = Chart(["q1", "q2", "p1", "p2"])
        expr = lambda text: parse_expression(text, chart)
        gamma = VectorField(chart, [expr("p1"), expr("p2"), expr("-q1"), expr("-q2")])
        time_form = DifferentialForm(chart, 1, {
            (0,): expr("1/2*p1/(p1^2+q1^2)"),
            (1,): expr("1/2*p2/(p2^2+q2^2)"),
            (2,): expr("-1/2*q1/(p1^2+q1^2)"),
            (3,): expr("-1/2*q2/(p2^2+q2^2)"),
        })
        numeric = interior_product(gamma, time_form).coefficient(()) == chart.one()
        ok = symbolic and numeric
    report_line("1c (time form contracts to 1)", ok and timer.within_budget())


def test_criterion_1d_invariant_tensor():
    with timed(1.0) as timer:
        ok = lie_derivative(OSC.gamma, OSC.swap_tensor).is_zero
    report_line("1d (swap tensor invariant under the flow)", ok and timer.within_budget())


# ---------------------------------------------------------------------------
# Criterion 2: exterior-calculus property suite, exact, >= 100 instances each
# ---------------------------------------------------------------------------

R4 = Chart(["q1", "q2", "p1", "p2"])


def _random_polynomial_rf(rng, chart, max_degree=2, max_terms=3):
    terms = {}
    nvars = len(chart.variables)
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(chart.dimension)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5))
    return RationalFunction(Polynomial(chart, terms))


def _random_form(rng, chart, degree):
    coeffs = {}
    for idx in itertools.combinations(range(chart.dimension), degree):
        if rng.random() < 0.6:
            coeffs[idx] = _random_polynomial_rf(rng, chart)
    return DifferentialForm(chart, degree, coeffs)


def _random_field(rng, chart):
    return VectorField(chart, [_random_polynomial_rf(rng, chart) for _ in chart.names])


def test_criterion_2_exterior_calculus_properties():
    rng = random.Random(90210)

    d_squared = all(
        exterior_derivative(exterior_derivative(_random_form(rng, R4, degree))).is_zero
        for degree in (0, 1, 2, 3)
        for _ in range(25)
    )

    def leibniz_lie(X, a):
        coeffs = {}
        for idx in itertools.combinations(range(R4.dimension), a.degree):
            total = X.apply(a.coefficient(idx))
            for s in range(a.degree):
                for m in range(R4.dimension):
                    partial = X.components[m].derivative(idx[s])
                    if not partial.is_zero:
                        total = total + partial * a.coefficient(idx[:s] + (m,) + idx[s + 1:])
            coeffs[idx] = total
        return DifferentialForm(R4, a.degree, coeffs)

    cartan = all(
        lie_derivative(X, a) == leibniz_lie(X, a)
        for X, a in (
            (_random_field(rng, R4), _random_form(rng, R4, rng.randint(1, 3)))
            for _ in range(100)
        )
    )

    commutativity = True
    for _ in range(100):
        da, db = rng.randint(0, 2), rng.randint(0, 2)
        a, b = _random_form(rng, R4, da), _random_form(rng, R4, db)
        if wedge(a, b) != (-1) ** (da * db) * wedge(b, a):
            commutativity = False
            break

    chart3 = Chart(["x", "y", "z"])
    jacobi = True
    for _ in range(100):
        X, Y, Z = (_random_field(rng, chart3) for _ in range(3))
        total = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        if not total.is_zero:
            jacobi = False
            break

    # derived-description theorem on constructed invariant pairs (T, F)
    gamma = VectorField(R4, [
        parse_expression(t, R4) for t in ("p1", "p2", "-q1", "-q2")
    ])
    zero, one = R4.zero(), R4.one()
    rotation = Tensor11(R4, [
        [zero, zero, one, zero],
        [zero, zero, zero, one],
        [-one, zero, zero, zero],
        [zero, -one, zero, zero],
    ])
    swap = Tensor11(R4, [
        [zero, one, zero, zero],
        [one, zero, zero, zero],
        [zero, zero, zero, one],
        [zero, zero, one, zero],
    ])
    basis_tensors = [Tensor11.identity(R4), rotation, swap, rotation.compose(swap)]
    invariants = [
        parse_expression(t, R4)
        for t in ("p1^2 + q1^2", "p2^2 + q2^2", "p1*p2 + q1*q2", "q1*p2 - q2*p1")
    ]
    theorem = True
    for _ in range(100):
        T = Tensor11.zero(R4)
        for basis in basis_tensors:
            T = T + Fraction(rng.randint(-3, 3)) * basis
        F = R4.scalar(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3)):
            term = R4.scalar(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 2)):
                term = term * invariants[rng.randrange(len(invariants))]
            F = F + term
        if not lie_derivative(gamma, T).is_zero or not gamma.apply(F).is_zero:
            theorem = False
            break
        w = twisted_two_form(T, F)
        h = interior_product(T.apply(gamma), differential(F)).coefficient(())
        if interior_product(gamma, w) != -differential(h):
            theorem = False
            break

    report_line("2 (exterior-calculus property suite, 100 instances each)",
                d_squared and cartan and commutativity and jacobi and theorem)


# ---------------------------------------------------------------------------
# Criterion 3: factorization suite, >= 100 random decomposable, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_3_factorization_suite():
    rng = random.Random(1848)

    def random_skew_invertible(n):
        while True:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    value = Fraction(rng.randint(-3, 3))
                    rows[i][j] = value
                    rows[j][i] = -value
            m = ExactMatrix(rows)
            if m.determinant() != 0:
                return m

    def random_symmetric(n):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                value = Fraction(rng.randint(-3, 3))
                rows[i][j] = value
                rows[j][i] = value
        return ExactMatrix(rows)

    with timed(10.0) as timer:
        ok = True
        for index in range(100):
            n = 2 * (index % 4 + 1)
            A = random_skew_invertible(n) @ random_symmetric(n)
            try:
                fact = hamiltonian_factorize(A)
            except NotDecomposableError:
                ok = False
                break
            # Factorization construction re-verified the invariants exactly
            if fact.lam @ fact.ham != A or not odd_trace_test(A).passed:
                ok = False
                break

        # rejections with the correct reason
        try:
            hamiltonian_factorize(ExactMatrix.identity(4))
            ok = False
        except NotDecomposableError as exc:
            ok = ok and exc.reason == "no skew solution"
        rejected = 0
        while rejected < 10:
            n = rng.randint(2, 4)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            A = ExactMatrix(rows)
            if odd_trace_test(A).passed:
                continue
            try:
                hamiltonian_factorize(A)
                ok = False
                break
            except NotDecomposableError:
                rejected += 1

    print(f"  criterion 3 runtime: {timer.elapsed:.2f}s")
    report_line("3 (factorization suite, 100 decomposable + rejections, < 10 s)",
                ok and timer.within_budget())


# ---------------------------------------------------------------------------
# Criterion 4: resonance suite, >= 50 random vectors vs brute force
# ---------------------------------------------------------------------------

def test_criterion_4_resonance_suite():
    rng = random.Random(271828)
    ok = True
    checked = 0
    while checked < 50:
        n = rng.randint(2, 4)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        if any(v == 0 for v in values):
            continue
        checked += 1
        lattice = resonance_lattice(FrequencySpec.from_rationals(values))
        for combo in itertools.product(range(-5, 6), repeat=n):
            resonant = sum(k * v for k, v in zip(combo, values)) == 0
            if lattice.contains(combo) != resonant:
                ok = False
                break
        if not ok:
            break

    irrational = classify(FrequencySpec(["1", "sqrt2"], [[1, 0], [0, 1]]))
    isotropic = classify(FrequencySpec.from_rationals([1, 1, 1, 1]))
    ok = ok and irrational.kind == INTEGRABLE
    ok = ok and isotropic.kind == MAXIMALLY_SUPERINTEGRABLE

    for _ in range(20):
        n = rng.randint(1, 4)
        values = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        spec = FrequencySpec.from_rationals(values)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = FrequencySpec.from_rationals([scale * v for v in values])
        if resonance_lattice(spec).basis != resonance_lattice(scaled).basis:
            ok = False
            break
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = FrequencySpec.from_rationals([values[p] for p in perm])
        moved = [
            [row[perm[j]] for j in range(n)] for row in resonance_lattice(spec).basis
        ]
        canonical = [tuple(r) for r in row_hermite_normal_form(moved) if any(r)]
        if list(resonance_lattice(permuted).basis) != canonical:
            ok = False
            break

    report_line("4 (resonance lattices vs brute force + invariances)", ok)


# ---------------------------------------------------------------------------
# Criterion 5: period suite, < 30 s
# ---------------------------------------------------------------------------

def test_criterion_5_period_suite():
    chart = catalog.planar_chart()
    harmonic = FlowSystem(chart, hamiltonian=catalog.harmonic_hamiltonian(chart))
    quartic = FlowSystem(chart, hamiltonian=catalog.quartic_hamiltonian(chart))
    with timed(30.0) as timer:
        harmonic_energies = [0.25 * (i + 1) ** 2 for i in range(10)]
        harmonic_table = period_energy_scan(
            harmonic, harmonic_energies, seeds_per_energy=3, seed=42
        )
        two_pi = 2.0 * math.pi
        harmonic_ok = len(harmonic_table.records) == 30 and all(
            r.converged and abs(r.period - two_pi) < 1e-6 for r in harmonic_table.records
        )

        quartic_energies = [0.25, 1.0, 4.0, 16.0]
        quartic_table = period_energy_scan(
            quartic, quartic_energies, seeds_per_energy=3, seed=42
        )
        quartic_ok = len(quartic_table.records) == 12 and all(
            r.converged
            and abs(r.period - math.pi / (2.0 * math.sqrt(r.level))) / r.period < 1e-4
            for r in quartic_table.records
        )
        products = [r.period * math.sqrt(r.level) for r in quartic_table.records]
        scaling_ok = (max(products) - min(products)) / max(products) < 1e-4

        dependence_ok = (
            dependence_test(harmonic_table, rel_tol=1e-6).dependent
            and dependence_test(quartic_table, rel_tol=1e-4).dependent
        )
        obstruction = equivalence_obstruction(harmonic_table, quartic_table, rel_tol=1e-4)
        obstruction_ok = obstruction.obstructed and obstruction.reason == (
            "constant vs energy-dependent period"
        )
        ok = harmonic_ok and quartic_ok and scaling_ok and dependence_ok and obstruction_ok
    print(f"  criterion 5 runtime: {timer.elapsed:.2f}s")
    report_line("5 (period suite: constants, scaling law, obstruction, < 30 s)",
                ok and timer.within_budget())


# ---------------------------------------------------------------------------
# Criterion 6: CLI determinism on all fixtures
# ---------------------------------------------------------------------------

def test_criterion_6_cli_determinism():
    jobs = [
        ("verify", "oscillator_r4.sys"),
        ("altgen", "oscillator_r4.sys"),
        ("normalform", "oscillator_r4.sys"),
        ("factorize", "linear_r4.sys"),
        ("factorize", "linear_r8.sys"),
        ("altgen", "linear_r4.sys"),
        ("factorize", "identity.sys"),
        ("resonance", "resonance.sys"),
        ("validate", "structures_tangent.sys"),
        ("validate", "structures_cotangent.sys"),
        ("period", "harmonic.sys"),
        ("period", "quartic.sys"),
    ]
    covered = {name for _, name in jobs}
    available = {p.name for p in FIXTURES.glob("*.sys")}
    ok = covered == available
    for subcommand, name in jobs:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            cli_run([subcommand, str(FIXTURES / name), "--seed", "42"], stdout=buffer)
            outputs.append(buffer.getvalue())
        if outputs[0] != outputs[1] or not outputs[0]:
            ok = False
            break
        json.loads(outputs[0])
    report_line("6 (byte-identical CLI reports across runs, all fixtures)", ok)
