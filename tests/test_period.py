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
    DenseSolution,
    FlowSystem,
    PeriodRecord,
    PeriodTable,
    Trajectory,
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


# -- integrate -------------------------------------------------------------------

def test_integrate_harmonic_closes_after_full_turn():
    system = harmonic_system()
    trajectory = integrate(system, [1.0, 0.0], TWO_PI)
    assert np.linalg.norm(trajectory.state_at(TWO_PI) - np.array([1.0, 0.0])) < 1e-8
    assert trajectory.max_energy_drift < 1e-10


def test_dense_solution_at_a_float_time_matches_the_array_path():
    trajectory = integrate(quartic_system(), [1.0, 0.0], 20.0)
    solution = trajectory.solution
    assert isinstance(solution, DenseSolution)
    rng = random.Random(7)
    times = solution.times + [np.float64(3.3), -0.5, 20.5]
    times += [rng.uniform(0.0, 20.0) for _ in range(500)]
    for t in times:
        assert solution(t).tolist() == solution(np.array(t)).tolist()


def test_integrate_quartic_energy_drift_and_tolerance_agreement():
    system = quartic_system()
    trajectory = integrate(system, [1.0, 0.0], 10.0, rtol=1e-10)
    assert trajectory.max_energy_drift < 1e-9
    # oracle: halved-tolerance re-run agreement
    tighter = integrate(system, [1.0, 0.0], 10.0, rtol=5e-11)
    assert np.linalg.norm(trajectory.state_at(10.0) - tighter.state_at(10.0)) < 1e-7


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


def test_dense_solution_grown_in_blocks_has_the_bits_of_one_built_at_once():
    steps = list(period._dopri(quartic_system(), 0.0, 20.0, [1.0, 0.0], 1e-10, 1e-12))
    whole = DenseSolution(0.0, 2)
    whole.extend(steps)
    grown = DenseSolution(0.0, 2)
    rng = random.Random(5)
    done = 0
    while done < len(steps):
        size = rng.randint(1, 40)
        grown.extend(steps[done:done + size])
        done += size
    assert grown.times == whole.times
    for name in ("ts", "h", "y_old", "Q"):
        assert getattr(grown, name).tobytes() == getattr(whole, name).tobytes()


def test_constant_hamiltonian_reports_zero_drift():
    chart = Chart(["q", "p"])
    field = VectorField(chart, [chart.one(), chart.zero()])
    system = FlowSystem(chart, hamiltonian=parse_expression("3", chart), field=field)
    assert integrate(system, [1.0, 2.0], 5.0).max_energy_drift == 0.0


# -- oracle: scipy's RK45, the same method and step control --------------------------

def solve_ivp_integrate(system, x0, t_end, rtol=1e-10, atol=1e-12, t_start=0.0):
    from scipy.integrate import solve_ivp

    result = solve_ivp(system.rhs, (t_start, t_end), np.asarray(x0, dtype=float),
                       method="RK45", rtol=rtol, atol=atol, dense_output=True)
    assert result.success
    return Trajectory(solution=result.sol, initial_energy=system.energy(x0), max_energy_drift=0.0)


@pytest.mark.parametrize(
    "make,x0,t_end",
    [(harmonic_system, [1.0, 0.3], 20.0), (quartic_system, [1.0, 0.0], 10.0),
     (torus_system, [1.0, 1.0, 0.0, 0.5], 30.0)],
    ids=["harmonic", "quartic", "torus"],
)
def test_integrate_agrees_with_solve_ivp(make, x0, t_end):
    system = make()
    trajectory = integrate(system, x0, t_end)
    oracle = solve_ivp_integrate(system, x0, t_end)
    grid = np.linspace(0.0, t_end, 1000)
    expected = oracle.solution(grid)
    scale = float(np.abs(expected).max())
    assert np.abs(trajectory.state_at(t_end) - oracle.state_at(t_end)).max() <= 1e-8 * scale
    assert np.abs(trajectory.solution(grid) - expected).max() <= 1e-8 * scale
    assert trajectory.solution(grid).shape == (len(x0), 1000)


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

def reference_detect_period(system, x0, eps=1e-6, t_max=1e3, rtol=1e-10, atol=1e-12):
    """The return search that integrates each whole chunk, then scans its samples."""
    x0 = np.asarray(x0, dtype=float)
    max_drift = 0.0 if system.energy(x0) is not None else None
    left_ball = False
    closest = math.inf
    chunk = period.INITIAL_CHUNK
    start = 0.0
    state = x0
    while start < t_max:
        stop = min(start + chunk, t_max)
        chunk = min(2.0 * chunk, period.MAX_CHUNK)
        trajectory = integrate(system, state, stop, rtol=rtol, atol=atol, t_start=start)
        if max_drift is not None:
            max_drift = max(max_drift, trajectory.max_energy_drift)
        ts = np.linspace(start, stop, max(16, int(round((stop - start) / period.SAMPLE_SPACING))))
        with np.errstate(over="ignore", invalid="ignore"):
            dists = np.sqrt(np.sum((trajectory.solution(ts) - x0[:, None]) ** 2, axis=0))
        if not np.isfinite(dists).all():
            return period.PeriodDetection(False, None, closest if math.isfinite(closest) else None,
                                          False, "orbit left the float range", None)
        inner = dists[1:-1]
        first = 0
        if not left_ball:
            outside = np.flatnonzero(inner > eps)
            left_ball = outside.size > 0
            first = outside[0] + 1 if left_ball else inner.size
        minima = np.flatnonzero((inner <= dists[:-2]) & (inner <= dists[2:]))

        def distance(t, sol=trajectory.solution):
            return float(np.linalg.norm(sol(t) - x0))

        for i in minima[minima >= first] + 1:
            t_best, d_best = period._golden_minimize(distance, float(ts[i - 1]), float(ts[i + 1]),
                                                     eps * 1e-3)
            if d_best <= eps:
                return period.PeriodDetection(True, float(t_best), float(d_best),
                                              d_best > eps / 10.0, None, max_drift)
            closest = min(closest, d_best)
        if stop >= t_max:
            break
        start = stop - 2.0 * period.SAMPLE_SPACING
        state = trajectory.state_at(start)
    reason = "orbit never left the eps-ball" if not left_ball else "no return within t_max"
    return period.PeriodDetection(False, None, closest if math.isfinite(closest) else None, False,
                                  reason, max_drift)


def assert_same_search(found, expected):
    """Equal results; the drift too unless a return ended the search."""
    assert found.periodic == expected.periodic
    assert found.period == expected.period
    assert found.min_distance == expected.min_distance
    assert found.ambiguous == expected.ambiguous
    assert found.reason == expected.reason
    if not expected.periodic:
        assert found.max_energy_drift == expected.max_energy_drift


def r4_isotropic_system():
    chart = Chart(["q1", "q2", "p1", "p2"])
    return FlowSystem(chart, hamiltonian=parse_expression("1/2*(p1^2+q1^2+p2^2+q2^2)", chart))


SEARCH_SYSTEMS = {name: make() for name, make in [
    ("harmonic", harmonic_system), ("quartic", quartic_system),
    ("r4-isotropic", r4_isotropic_system), ("sqrt2-torus", torus_system)]}


@st.composite
def period_searches(draw):
    """A system, a seed point, and a t_max that ends inside the first, second or third chunk."""
    system = SEARCH_SYSTEMS[draw(st.sampled_from(sorted(SEARCH_SYSTEMS)))]
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=system.chart.dimension,
                       max_size=system.chart.dimension))
    chunk_start, chunk_end = draw(st.sampled_from([(0.5, 8.0), (8.0, 24.0), (24.0, 56.0)]))
    return system, x0, draw(st.floats(chunk_start, chunk_end, exclude_min=True, exclude_max=True))


@settings(max_examples=60)
@given(period_searches())
def test_streaming_search_matches_the_chunk_then_scan_reference(search):
    system, x0, t_max = search
    assert_same_search(detect_period(system, x0, t_max=t_max),
                       reference_detect_period(system, x0, t_max=t_max))


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


@pytest.mark.parametrize("system,x0", [(quartic_system(), [1.0, 0.0]),
                                       (torus_system(), [1.0, 1.0, 0.0, 0.5])],
                         ids=["R2", "R4"])
def test_distance_and_the_scalar_path_have_the_bits_of_the_array_path(system, x0):
    solution = integrate(system, x0, 30.0).solution
    x0 = np.array(x0)
    rng = random.Random(11)
    for t in [rng.uniform(-1.0, 31.0) for _ in range(1000)]:
        row = solution(np.array(t))
        assert solution.at(t) == row.tolist() == solution(t).tolist()
        expected = float(np.linalg.norm(solution(t) - x0))
        assert period._distance(solution, x0, t) == expected
        assert expected == float(np.linalg.norm(row - x0))


@pytest.mark.parametrize("sample", [period.SEARCH_WINDOW - 1, period.SEARCH_WINDOW])
def test_a_return_on_either_side_of_a_search_window_boundary_is_found(sample):
    # the first chunk samples [0, INITIAL_CHUNK] at 1024 points; the period T = 2π/w is
    # placed on the last sample of the first window, or the first of the second
    period_time = sample * period.INITIAL_CHUNK / 1023
    chart = Chart(["q", "p"], constants=["w"])
    system = FlowSystem(chart, hamiltonian=parse_expression("w/2*(p^2+q^2)", chart),
                        constant_values={"w": TWO_PI / period_time})
    detection = detect_period(system, [1.0, 0.0])
    assert detection.periodic
    assert abs(detection.period - period_time) < 1e-6
    assert_same_search(detection, reference_detect_period(system, [1.0, 0.0]))


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
