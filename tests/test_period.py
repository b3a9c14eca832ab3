import math
import random
from fractions import Fraction
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoham import catalog
from geoham import period
from geoham.errors import IntegrationError, RootFindError
from geoham.expr import Chart, Polynomial, RationalFunction, parse_expression
from geoham.geom import VectorField
from geoham.period import (
    FlowSystem,
    PeriodRecord,
    PeriodTable,
    dependence_test,
    detect_period,
    equivalence_obstruction,
    find_energy_point,
    integrate,
    period_energy_scan,
)

TWO_PI = 2.0 * math.pi


def harmonic_system():
    chart = catalog.planar_chart()
    return FlowSystem(chart, hamiltonian=catalog.harmonic_hamiltonian(chart))


def quartic_system():
    chart = catalog.planar_chart()
    return FlowSystem(chart, hamiltonian=catalog.quartic_hamiltonian(chart))


def torus_system():
    chart = Chart(["q1", "q2", "p1", "p2"], constants=["w"])
    h = parse_expression("1/2*(p1^2+q1^2) + w/2*(p2^2+q2^2)", chart)
    return FlowSystem(chart, hamiltonian=h, constant_values={"w": math.sqrt(2.0)})


def quartic_period(energy):
    return math.pi / (2.0 * math.sqrt(energy))


def rk4_fixed_step_return_time(rhs, x0, t_guess, steps_per_unit=40000):
    """Brute-force oracle: fixed-step RK4, then linear refinement of the
    closest approach around the expected return time."""
    h = 1.0 / steps_per_unit
    t = 0.0
    y = np.array(x0, dtype=float)
    best = (float("inf"), None)
    t_end = 1.25 * t_guess
    while t < t_end:
        if t > 0.5 * t_guess:
            d = float(np.linalg.norm(y - x0))
            if d < best[0]:
                best = (d, t)
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t + h / 2, y + h / 2 * k1))
        k3 = np.asarray(rhs(t + h / 2, y + h / 2 * k2))
        k4 = np.asarray(rhs(t + h, y + h * k3))
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return best[1]


# -- FlowSystem -----------------------------------------------------------------

def test_derived_field_is_hamilton_equations():
    system = harmonic_system()
    chart = system.chart
    assert system.field.components[0] == parse_expression("p", chart)
    assert system.field.components[1] == parse_expression("-q", chart)


def test_flow_system_rejects_odd_dimension():
    chart = Chart(["x"])
    with pytest.raises(ValueError):
        FlowSystem(chart, hamiltonian=parse_expression("x^2", chart))


def test_flow_system_accepts_explicit_field():
    chart = Chart(["q", "p"])
    field = VectorField(chart, [chart.one(), chart.zero()])
    system = FlowSystem(chart, field=field)
    assert system.energy([1.0, 2.0]) is None


def test_compiled_source_text_is_pinned():
    # term order and float literals fix every float the engine computes
    chart = Chart(["q", "p"], constants=["k"])
    f = parse_expression("(k*p^3 - 3/4*q^2*p + 2*q - 1/5) / (1 + k^2*q^2 + p)", chart)
    assert period._rational_source(f, chart, {"k": Fraction(1, 3)}) == (
        "((-0.2 + 0.3333333333333333*y[1]**3 + 2.0*y[0] + -0.75*y[0]**2*y[1]))"
        "/((1.0 + 1.0*y[1] + 0.1111111111111111*y[0]**2))")


def test_compiled_scalar_gives_the_ieee_value_where_python_floats_raise():
    chart = Chart(["q", "p"])
    kepler = period.compile_scalar(parse_expression("p^2/2 - 1/q", chart))
    assert kepler([0.0, 0.0]) == -math.inf and kepler([-0.0, 0.0]) == math.inf
    assert math.isnan(period.compile_scalar(parse_expression("p/q", chart))([0.0, 0.0]))
    power = period.compile_scalar(parse_expression("q^401", chart))
    assert power([-10.0, 0.0]) == -math.inf and power([10.0, 0.0]) == math.inf
    assert period.compile_scalar(parse_expression("-p^400", chart))([0.0, -10.0]) == -math.inf


# -- integrate -------------------------------------------------------------------

def test_integrate_harmonic_closes_after_full_turn():
    system = harmonic_system()
    trajectory = integrate(system, [1.0, 0.0], TWO_PI)
    assert np.linalg.norm(trajectory.state_at(TWO_PI) - np.array([1.0, 0.0])) < 1e-8
    assert trajectory.max_energy_drift < 1e-10


def test_integrate_quartic_energy_drift_and_tolerance_agreement():
    system = quartic_system()
    trajectory = integrate(system, [1.0, 0.0], 10.0, rtol=1e-10)
    assert trajectory.max_energy_drift < 1e-9
    # oracle: halved-tolerance re-run agreement
    tighter = integrate(system, [1.0, 0.0], 10.0, rtol=5e-11)
    assert math.dist(trajectory.state_at(10.0), tighter.state_at(10.0)) < 1e-7


def test_integrate_zero_field_is_constant():
    chart = Chart(["q", "p"])
    system = FlowSystem(chart, field=VectorField.zero(chart))
    trajectory = integrate(system, [1.5, -2.5], 5.0)
    assert np.allclose(trajectory.state_at(5.0), [1.5, -2.5], atol=1e-12)


def test_integrate_validates_arguments():
    system = harmonic_system()
    with pytest.raises(ValueError):
        integrate(system, [1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        integrate(system, [1.0, 0.0], 1.0, rtol=-1.0)


@pytest.mark.parametrize("keyword", ["rtol", "atol", "t_end"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_integrate_rejects_nan_and_inf(keyword, value):
    arguments = {"t_end": 1.0, keyword: value}
    with pytest.raises(ValueError):
        integrate(harmonic_system(), [1.0, 0.0], **arguments)


@pytest.mark.parametrize("keyword", ["eps", "t_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_detect_period_rejects_bad_eps_and_t_max(keyword, value):
    with pytest.raises(ValueError):
        detect_period(harmonic_system(), [1.0, 0.0], **{keyword: value})


def test_integrate_through_a_pole_raises_integration_error():
    chart = Chart(["q", "p"])
    field = VectorField(chart, [chart.one(), parse_expression("1/q", chart)])
    with pytest.raises(IntegrationError):
        integrate(FlowSystem(chart, field=field), [-1.0, 0.0], 2.0)


def test_a_stage_that_raises_rejects_the_step_until_the_step_collapses():
    # q' = 1 from q = 5, and q^400 overflows past q = exp(log(max float) / 400) = 5.897076869164...
    chart = Chart(["q", "p"])
    field = VectorField(chart, [chart.one(), parse_expression("q^400 / 10^300", chart)])
    with pytest.raises(IntegrationError, match=r"float spacing at t = 0\.897076869164"):
        list(period._dopri(FlowSystem(chart, field=field), 0.0, 2.0, [5.0, 0.0], 1e-10, 1e-12))


def reference_dopri_step(rhs, t, y, k1, h, rtol, atol):
    """The DOPRI 5(4) step over lists of components, as the tableau reads."""
    k2 = rhs(t + 1/5 * h, [v + (1/5 * a) * h for v, a in zip(y, k1)])
    k3 = rhs(t + 3/10 * h, [v + (3/40 * a + 9/40 * b) * h for v, a, b in zip(y, k1, k2)])
    k4 = rhs(t + 4/5 * h, [v + (44/45 * a - 56/15 * b + 32/9 * c) * h
                           for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs(t + 8/9 * h, [v + (19372/6561 * a - 25360/2187 * b + 64448/6561 * c - 212/729 * d) * h
                           for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [v + (9017/3168 * a - 355/33 * b + 46732/5247 * c + 49/176 * d
                          - 5103/18656 * e) * h for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + (35/384 * a + 500/1113 * c + 125/192 * d - 2187/6784 * e + 11/84 * f) * h
             for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y_new)
    err = period._rms([(-71/57600 * a + 71/16695 * c - 71/1920 * d + 17253/339200 * e
                        - 22/525 * f + 1/40 * g) * h / (atol + max(abs(v), abs(w)) * rtol)
                       for a, c, d, e, f, g, v, w in zip(k1, k3, k4, k5, k6, k7, y, y_new)])
    return y_new, (k1, k2, k3, k4, k5, k6, k7), err


def reference_steps(rhs, t, t_end, y, f, h_abs, rtol, atol):
    """The adaptive loop over reference_dopri_step, in the generated loop's form."""
    attempts = 0
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step size fell below the float spacing at t = {t!r}")
            attempts += 1
            if attempts > period.MAX_STEP_ATTEMPTS:
                raise IntegrationError(
                    f"the budget of {period.MAX_STEP_ATTEMPTS} step attempts ran out at t = {t!r}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            try:
                y_new, k, err = reference_dopri_step(rhs, t, y, f, h, rtol, atol)
            except (ZeroDivisionError, OverflowError):
                err = math.inf
            if err < 1.0:
                break
            shrink = (max(period.MIN_FACTOR, period.SAFETY * err ** -0.2) if math.isfinite(err)
                      else period.MIN_FACTOR)
            h_abs = h * shrink
            rejected = True
        factor = (period.MAX_FACTOR if err == 0.0
                  else min(period.MAX_FACTOR, period.SAFETY * err ** -0.2))
        h_abs = h * (min(1.0, factor) if rejected else factor)
        yield t_new, tuple(y), tuple(chain.from_iterable(k))
        t, y, f = t_new, y_new, k[6]


def reference_dopri(system, t, t_end, y, rtol, atol):
    """_dopri's start, then the reference loop."""
    f = system.rhs(t, y)
    h_abs = period._initial_step(system.rhs, t, y, f, t_end - t, rtol, atol)
    return reference_steps(system.rhs, t, t_end, y, f, h_abs, rtol, atol)


def first_steps(steps, count=4):
    """Up to count steps, then the IntegrationError's message if one ends them."""
    taken = []
    try:
        taken.extend(islice(steps, count))
    except IntegrationError as exc:
        taken.append(str(exc))
    return taken


@st.composite
def step_inputs(draw):
    """A field on R^d (d = 1..8; polynomial numerators of degree <= 3, some over a
    non-constant denominator) and the arguments of a run of steps."""
    d = draw(st.integers(1, 8))
    chart = Chart([f"x{i}" for i in range(d)])
    coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    exponents = st.lists(st.integers(0, d - 1), max_size=3).map(  # a monomial of degree <= 3
        lambda axes: tuple(axes.count(i) for i in range(d)))
    polynomial = st.dictionaries(exponents, coefficient, max_size=4).map(
        lambda terms: Polynomial(chart, terms))
    denominator = st.one_of(st.none(), polynomial.filter(lambda den: not den.is_constant))
    components = draw(st.lists(st.tuples(polynomial, denominator), min_size=d, max_size=d))
    field = VectorField(chart, [RationalFunction(num, den) for num, den in components])
    number = st.floats(-2.0, 2.0)
    vector = st.lists(number, min_size=d, max_size=d)
    t = draw(number)
    return (field, t, t + draw(st.floats(1e-3, 2.0)), draw(vector), draw(vector),
            draw(st.floats(1e-6, 0.5)), draw(st.floats(1e-12, 1e-3)), draw(st.floats(1e-14, 1e-3)))


@settings(max_examples=60)
@given(step_inputs())
def test_generated_step_is_bit_identical_to_the_list_step(arguments):
    field, t, t_end, y, k1, h, rtol, atol = arguments
    loop = period._steps_for(period._field_sources(field, None))
    rhs = period.compile_field(field)
    assert (first_steps(loop(t, t_end, y, k1, h, rtol, atol))
            == first_steps(reference_steps(rhs, t, t_end, y, k1, h, rtol, atol)))


def test_constant_hamiltonian_reports_zero_drift():
    chart = Chart(["q", "p"])
    field = VectorField(chart, [chart.one(), chart.zero()])
    system = FlowSystem(chart, hamiltonian=parse_expression("3", chart), field=field)
    assert integrate(system, [1.0, 2.0], 5.0).max_energy_drift == 0.0


# -- oracle: scipy's RK45, the same method and step control --------------------------

def solve_ivp_solution(system, x0, t_end, rtol=1e-10, atol=1e-12):
    """scipy's dense solution of the flow from x0 over [0, t_end]."""
    from scipy.integrate import solve_ivp

    result = solve_ivp(system.rhs, (0.0, t_end), np.asarray(x0, dtype=float),
                       method="RK45", rtol=rtol, atol=atol, dense_output=True)
    assert result.success
    return result.sol


@pytest.mark.parametrize(
    "make,x0,t_end",
    [(harmonic_system, [1.0, 0.3], 20.0), (quartic_system, [1.0, 0.0], 10.0),
     (torus_system, [1.0, 1.0, 0.0, 0.5], 30.0)],
    ids=["harmonic", "quartic", "torus"],
)
def test_integrate_agrees_with_solve_ivp(make, x0, t_end):
    system = make()
    trajectory = integrate(system, x0, t_end)
    oracle = solve_ivp_solution(system, x0, t_end)
    grid = np.linspace(0.0, t_end, 1000)
    expected = oracle(grid)
    scale = float(np.abs(expected).max())
    assert np.abs(trajectory.state_at(t_end) - oracle(t_end)).max() <= 1e-8 * scale
    found = np.array([trajectory.solution.at(t) for t in grid.tolist()]).T
    assert np.abs(found - expected).max() <= 1e-8 * scale


def solve_ivp_steps(rhs, t, t_end, y, rtol, atol):
    """The accepted steps of scipy's RK45, the stepper that solve_ivp(method="RK45") drives,
    in _dopri's form (t_new, y_old, stages)."""
    from scipy.integrate import RK45

    solver = RK45(rhs, t, np.asarray(y, dtype=float), t_end, rtol=rtol, atol=atol)
    while solver.status == "running":
        y_old = solver.y.tolist()
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(message)
        yield solver.t, y_old, solver.K.ravel().tolist()


def test_detect_period_agrees_with_solve_ivp(monkeypatch):
    cases = [(harmonic_system(), [0.3, 1.7]), (quartic_system(), [1.3, 0.4]),
             (torus_system(), [1.0, 0.0, 0.0, 0.0])]
    periods = [detect_period(system, x0).period for system, x0 in cases]
    calls = []

    def oracle(system, *arguments):
        calls.append(arguments)
        return solve_ivp_steps(system.rhs, *arguments)

    monkeypatch.setattr(period, "_dopri", oracle)
    for (system, x0), found in zip(cases, periods):
        expected = detect_period(system, x0).period
        assert abs(found - expected) <= 1e-8 * expected
    assert len(calls) >= len(cases)


# -- detect_period ------------------------------------------------------------------

def r4_isotropic_system():
    chart = Chart(["q1", "q2", "p1", "p2"])
    return FlowSystem(chart, hamiltonian=parse_expression("1/2*(p1^2+q1^2+p2^2+q2^2)", chart))


SEARCH_SYSTEMS = {name: make() for name, make in [
    ("harmonic", harmonic_system), ("quartic", quartic_system),
    ("r4-isotropic", r4_isotropic_system), ("sqrt2-torus", torus_system)]}


@pytest.mark.parametrize("name", sorted(SEARCH_SYSTEMS))
def test_detect_period_through_the_generated_loop_matches_the_list_step_loop(name, monkeypatch):
    system = SEARCH_SYSTEMS[name]
    rng = random.Random(name)
    seeds = [[rng.uniform(-1.5, 1.5) for _ in range(system.chart.dimension)] for _ in range(2)]
    found = [detect_period(system, x0, t_max=60.0) for x0 in seeds]
    monkeypatch.setattr(period, "_dopri", reference_dopri)
    expected = [detect_period(system, x0, t_max=60.0) for x0 in seeds]
    assert found == expected  # every field: period, min_distance and drift included
    assert any(detection.periodic for detection in expected) == (name != "sqrt2-torus")


def test_a_step_end_is_the_state_the_loop_continues_from():
    steps = list(period._dopri(torus_system(), 0.0, 20.0, [1.0, 1.0, 0.0, 0.5], 1e-10, 1e-12))
    starts = [0.0] + [t_new for t_new, _, _ in steps]
    for t_old, (t_new, y_old, stages), (_, y_next, _) in zip(starts, steps, steps[1:]):
        assert period._step_end(y_old, stages, t_new - t_old) == list(y_next)


@pytest.mark.parametrize("offset", [-1e-6, 0.0, 1e-6])
def test_a_return_on_a_span_boundary_is_found(offset):
    # the stepper restarts at t = SPAN; the period T = 2π/w is placed on it or just to either side
    period_time = period.SPAN + offset
    chart = Chart(["q", "p"], constants=["w"])
    system = FlowSystem(chart, hamiltonian=parse_expression("w/2*(p^2+q^2)", chart),
                        constant_values={"w": TWO_PI / period_time})
    detection = detect_period(system, [1.0, 0.0])
    assert detection.periodic and not detection.ambiguous
    assert abs(detection.period - period_time) < 1e-8 * period_time


def power_oscillator(m):
    chart = catalog.planar_chart()
    return FlowSystem(chart, hamiltonian=parse_expression(f"(p^2 + q^2)^{m}", chart))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_periods_match_the_closed_form_to_1e_10(m):
    # (p²+q²)^m turns at angular speed 2m·E^(1−1/m) on the level H = E
    table = period_energy_scan(power_oscillator(m), [0.25, 1.0, 4.0, 16.0], seeds_per_energy=2,
                               seed=m)
    assert len(table.records) == 8
    for record in table.records:
        expected = math.pi / (m * record.level ** (1.0 - 1.0 / m))
        assert record.converged
        assert abs(record.period - expected) <= 1e-10 * expected


def test_isotropic_r4_periods_match_the_closed_form_to_1e_10():
    table = period_energy_scan(r4_isotropic_system(), [0.25, 1.0, 4.0, 16.0], seeds_per_energy=2,
                               seed=5)
    assert len(table.records) == 8
    for record in table.records:
        assert record.converged
        assert abs(record.period - TWO_PI) <= 1e-10 * TWO_PI


def test_detect_period_harmonic():
    system = harmonic_system()
    for x0 in ([1.0, 0.0], [0.3, 1.7], [-2.0, 0.5]):
        detection = detect_period(system, x0)
        assert detection.periodic
        assert not detection.ambiguous
        assert abs(detection.period - TWO_PI) < 1e-6


def test_detect_period_quartic_matches_analytic_law():
    system = quartic_system()
    for energy, x0 in ((1.0, [1.0, 0.0]), (16.0, [2.0, 0.0])):
        detection = detect_period(system, x0)
        expected = quartic_period(energy)
        assert detection.periodic
        assert abs(detection.period - expected) / expected < 1e-4


def test_detect_period_quartic_against_fixed_step_oracle():
    system = quartic_system()
    detection = detect_period(system, [1.0, 0.0])
    oracle = rk4_fixed_step_return_time(system.rhs, [1.0, 0.0], quartic_period(1.0))
    assert abs(detection.period - oracle) / oracle < 1e-4


def test_detect_period_free_particle_not_periodic():
    chart = Chart(["q", "p"])
    system = FlowSystem(chart, hamiltonian=parse_expression("1/2*p^2", chart))
    detection = detect_period(system, [0.0, 1.0], t_max=50.0)
    assert not detection.periodic
    assert detection.reason == "no return within t_max"


def test_detect_period_quasi_periodic_torus_not_periodic():
    detection = detect_period(torus_system(), [1.0, 1.0, 0.0, 0.0], t_max=60.0)
    assert not detection.periodic


def test_unconverged_orbit_reports_its_closest_approach():
    # oracle: |x(t) - x0|^2 = 4 - 2cos(t) - 2cos(sqrt(2) t) on a fine grid past the first turn
    detection = detect_period(torus_system(), [1.0, 1.0, 0.0, 0.0], t_max=60.0)
    assert detection.reason == "no return within t_max"
    t = np.linspace(1.0, 60.0, 2_000_001)
    closest = float(np.sqrt(np.min(4.0 - 2.0 * np.cos(t) - 2.0 * np.cos(math.sqrt(2.0) * t))))
    assert detection.min_distance > 1e-6
    assert abs(detection.min_distance - closest) < 1e-6


def test_detect_period_fixed_point_never_leaves():
    system = harmonic_system()
    detection = detect_period(system, [0.0, 0.0], t_max=5.0)
    assert not detection.periodic
    assert detection.reason == "orbit never left the eps-ball"


def test_an_orbit_inside_the_eps_ball_is_not_a_return():
    # the harmonic orbit of radius 1e-7 crosses the section every 2π without leaving the ball
    detection = detect_period(harmonic_system(), [1e-7, 0.0], t_max=20.0)
    assert not detection.periodic
    assert detection.reason == "orbit never left the eps-ball"


def test_detect_period_consistency_with_integration():
    system = quartic_system()
    x0 = [1.3, 0.4]
    detection = detect_period(system, x0)
    assert detection.periodic
    trajectory = integrate(system, x0, detection.period)
    assert np.linalg.norm(trajectory.state_at(detection.period) - np.array(x0)) < 1e-6


# -- scans -----------------------------------------------------------------------------

def test_scan_harmonic_levels():
    system = harmonic_system()
    table = period_energy_scan(system, [0.5, 2.0, 8.0], seeds_per_energy=3, seed=7)
    assert len(table.records) == 9
    for record in table.records:
        assert record.converged
        assert abs(record.period - TWO_PI) < 1e-6
        assert abs(record.energy - record.level) < 1e-9


def test_scan_quartic_levels():
    system = quartic_system()
    table = period_energy_scan(system, [1.0, 4.0], seeds_per_energy=2, seed=7)
    assert len(table.records) == 4
    for record in table.records:
        expected = quartic_period(record.level)
        assert abs(record.period - expected) / expected < 1e-4


def test_scan_empty_energy_list():
    table = period_energy_scan(harmonic_system(), [], seeds_per_energy=3)
    assert table.records == []


def test_scan_unattainable_energy_reports_note():
    table = period_energy_scan(harmonic_system(), [-1.0], seeds_per_energy=2, seed=1)
    assert table.records == []
    assert len(table.notes) == 1


def test_find_energy_point_matches_energy():
    system = quartic_system()
    rng = random.Random(9)
    for energy in (0.25, 1.0, 9.0):
        point = find_energy_point(system, energy, rng)
        assert abs(system.energy(point) - energy) <= 1e-9 * max(1.0, energy)
    with pytest.raises(RootFindError):
        find_energy_point(harmonic_system(), -2.0, rng)


def test_scan_seed_independence_of_periods():
    system = harmonic_system()
    table = period_energy_scan(system, [3.0], seeds_per_energy=10, seed=123)
    periods = [r.period for r in table.records]
    assert len(periods) == 10
    assert float(np.std(periods)) < 1e-8


def test_quartic_scaling_law():
    system = quartic_system()
    table = period_energy_scan(system, [0.25, 1.0, 4.0, 16.0], seeds_per_energy=1, seed=5)
    products = [r.period * math.sqrt(r.level) for r in table.records]
    spread = (max(products) - min(products)) / max(products)
    assert spread < 1e-4


# -- dependence and obstruction ------------------------------------------------------------

def test_dependence_harmonic_and_quartic():
    harmonic_table = period_energy_scan(
        harmonic_system(), [0.5, 2.0], seeds_per_energy=3, seed=11
    )
    assert dependence_test(harmonic_table, rel_tol=1e-6).dependent
    quartic_table = period_energy_scan(
        quartic_system(), [1.0, 4.0], seeds_per_energy=3, seed=11
    )
    assert dependence_test(quartic_table, rel_tol=1e-4).dependent


def test_dependence_violated_for_mixed_mode_seeds():
    # separable system whose two modes have different periods at equal energy
    chart = Chart(["q1", "q2", "p1", "p2"])
    h = parse_expression("1/2*(p1^2+q1^2) + (p2^2+q2^2)^2", chart)
    system = FlowSystem(chart, hamiltonian=h)
    records = []
    for seed_point in ([math.sqrt(2.0), 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]):
        detection = detect_period(system, seed_point)
        assert detection.periodic
        records.append(
            PeriodRecord(
                seed=tuple(seed_point),
                level=1.0,
                energy=system.energy(seed_point),
                period=detection.period,
                converged=True,
                ambiguous=detection.ambiguous,
                drift=detection.max_energy_drift,
            )
        )
    result = dependence_test(PeriodTable(records=records), rel_tol=1e-3)
    assert not result.dependent
    assert len(result.violations) == 2


def test_dependence_single_records_vacuous():
    table = period_energy_scan(harmonic_system(), [1.0, 2.0], seeds_per_energy=1, seed=3)
    result = dependence_test(table)
    assert result.dependent
    assert result.insufficient_sampling


def test_obstruction_harmonic_vs_quartic():
    harmonic_table = period_energy_scan(
        harmonic_system(), [0.5, 2.0, 8.0], seeds_per_energy=2, seed=21
    )
    quartic_table = period_energy_scan(
        quartic_system(), [0.25, 1.0, 4.0], seeds_per_energy=2, seed=21
    )
    result = equivalence_obstruction(harmonic_table, quartic_table, rel_tol=1e-4)
    assert result.obstructed
    assert result.reason == "constant vs energy-dependent period"


def test_obstruction_system_vs_itself_inconclusive():
    table = period_energy_scan(harmonic_system(), [1.0, 2.0], seeds_per_energy=2, seed=22)
    result = equivalence_obstruction(table, table, rel_tol=1e-4)
    assert not result.obstructed


def test_obstruction_rescaled_oscillator_inconclusive():
    # same 2*pi period in stretched coordinates; oracle: both tables constant
    chart = Chart(["q", "p"])
    rescaled = FlowSystem(chart, hamiltonian=parse_expression("2*q^2 + 1/8*p^2", chart))
    table_a = period_energy_scan(harmonic_system(), [1.0, 4.0], seeds_per_energy=2, seed=23)
    table_b = period_energy_scan(rescaled, [1.0, 4.0], seeds_per_energy=2, seed=23)
    for table in (table_a, table_b):
        periods = table.converged_periods()
        assert max(periods) - min(periods) < 1e-6
        assert all(abs(p - TWO_PI) < 1e-5 for p in periods)
    result = equivalence_obstruction(table_a, table_b, rel_tol=1e-4)
    assert not result.obstructed


def test_obstruction_requires_dependent_tables():
    good = period_energy_scan(harmonic_system(), [1.0], seeds_per_energy=2, seed=2)
    bad = PeriodTable(
        records=[
            PeriodRecord(seed=(1.0, 0.0), level=1.0, energy=1.0, period=1.0,
                         converged=True, ambiguous=False, drift=0.0),
            PeriodRecord(seed=(0.0, 1.0), level=1.0, energy=1.0, period=2.0,
                         converged=True, ambiguous=False, drift=0.0),
        ]
    )
    with pytest.raises(ValueError):
        equivalence_obstruction(good, bad, rel_tol=1e-4)


def test_energy_drift_bound_on_fixtures():
    for system, t_end in ((harmonic_system(), 20.0), (quartic_system(), 10.0)):
        trajectory = integrate(system, [1.0, 0.0], t_end, rtol=1e-10)
        bound = 10 * 1e-10 * t_end * max(abs(trajectory.initial_energy), 1.0)
        assert trajectory.max_energy_drift <= bound


def test_period_table_csv_rows():
    table = period_energy_scan(harmonic_system(), [1.0], seeds_per_energy=1, seed=4)
    rows = table.csv_rows(dimension=2)
    assert rows[0] == ["seed_0", "seed_1", "energy", "period", "converged", "drift"]
    assert len(rows) == 2
    assert rows[1][4] == "true"
