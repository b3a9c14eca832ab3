"""Numerical flow integration, period detection, and the energy-period
dependence and obstruction tests.

Integration uses the Dormand-Prince 5(4) embedded pair with its
continuous extension for dense output.  One adaptive loop is generated
per flow, cached on the sources of the field and the Hamiltonian, which
list each polynomial's terms in lexicographic order: each stage
evaluates the field inline on scalar locals, and each step's end is
measured inline too, its distance to the seed, its energy drift and its
height over the section.  Everything runs on Python floats.

Period detection works with the full phase-space return to the seed
point, so quasi-periodic orbits report no period instead of aliasing.
Returns are found on the Poincaré section through the seed normal to
the field there: the loop hands back only a step whose end crosses the
section in the flow's direction, and its continuous extension is rooted
on the section (Hénon, Physica D 5, 1982; Hairer, Nørsett & Wanner,
Solving ODEs I, §II.6).  The first crossing within eps of the seed is
the return.  The search stops at the step that confirms it, so the
energy drift it reports covers the span actually integrated.

The period of a flow is a diffeomorphism invariant, and on a connected
family of periodic orbits the period depends on the energy alone; the
obstruction test compares observed period sets of two systems and can
certify, never refute, inequivalence.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cache, cached_property, partial

from .errors import (CoefficientRangeError, DimensionError, IntegrationError, PoleError,
                     RootFindError)
from .expr import Chart, Polynomial, RationalFunction
from .geom import DifferentialForm, VectorField, differential, interior_product

#: Time span of one _dopri call: the return search restarts the stepper from its last
#: accepted state every SPAN time units, so the step budget holds per span.
SPAN = 64.0
#: Step attempts, accepted or rejected, that one _dopri call may make: one whole span
#: of the quartic fixture's fastest orbit, (p²+q²)² at E = 16, takes 55,258 steps.
MAX_STEP_ATTEMPTS = 100_000
#: Random directions tried before an energy level is reported unattainable.
DIRECTION_TRIES = 8


def _polynomial_source(poly, chart: Chart, constant_values, power="{}**{}"):
    dim = chart.dimension
    pieces = []
    for exps, coeff in sorted(poly.terms.items()):  # lexicographic exponent order
        factors = []
        for axis, e in enumerate(exps):
            if e == 0:
                continue
            if axis < dim:
                factors.append(f"y[{axis}]" if e == 1 else power.format(f"y[{axis}]", e))
            else:
                name = chart.variables[axis]
                if constant_values is None or name not in constant_values:
                    raise ValueError(f"no numeric value supplied for constant {name!r}")
                coeff *= Fraction(constant_values[name]) ** e
        try:  # folded exactly and rounded once, so no inf literal reaches the source
            term = repr(float(coeff))
        except OverflowError:
            monomial = Polynomial(chart, {exps: poly.terms[exps]})
            message = f"the coefficient of {monomial} is beyond the float range"
            raise CoefficientRangeError(message) from None
        if factors:
            term += "*" + "*".join(factors)
        pieces.append(term)
    return "(" + " + ".join(pieces) + ")" if pieces else "0.0"


def _rational_source(f: RationalFunction, chart: Chart, constant_values, ieee=False):
    """Float source of f in the state y.

    A denominator with no coordinate factor compiles to float literals
    only, so it is evaluated here: a zero raises PoleError instead of a
    ZeroDivisionError from the compiled function.  Every other division
    has a state operand, and so may raise on Python floats: the generated
    stepping loop rejects a step whose stage raises.  With ``ieee``, the
    powers and the quotient call _pow and _quotient, which do not raise.
    """
    power = "_pow({}, {})" if ieee else "{}**{}"
    num_src = _polynomial_source(f.num, chart, constant_values, power)
    if f.den.is_constant:
        return num_src
    den_src = _polynomial_source(f.den, chart, constant_values, power)
    if "y[" not in den_src and eval(den_src) == 0.0:
        raise PoleError(f"the denominator of {f} vanishes at the declared constant values")
    return f"_quotient({num_src}, {den_src})" if ieee else f"({num_src})/({den_src})"


def _pow(x, k):
    """x**k, or the infinity that IEEE arithmetic gives where the power overflows."""
    try:
        return x ** k
    except OverflowError:
        return -math.inf if x < 0.0 and k % 2 else math.inf


def _quotient(n, d):
    """n/d, or the IEEE value where d is ±0: an infinity signed by n and d, nan for 0/0."""
    try:
        return n / d
    except ZeroDivisionError:
        return math.copysign(math.inf, n) * math.copysign(1.0, d) if n == n and n else math.nan


def _compile(signature, body):
    """The function ``def signature:`` over the indented body, in this module's globals."""
    namespace = {}
    exec(f"def {signature}:\n{body}\n", globals(), namespace)
    (function,) = namespace.values()
    return function


def compile_scalar(f: RationalFunction, constant_values=None):
    """Compile a rational function to a fast float callable of the state.

    Where Python's float arithmetic raises, at a pole or past the float
    range, the callable returns the IEEE value instead: ±inf or nan.
    """
    fast, ieee = (_rational_source(f, f.chart, constant_values, flag) for flag in (False, True))
    return _compile("_scalar(y)", f"    try:\n        return {fast}\n"
                                  f"    except ArithmeticError:\n        return {ieee}")


def _field_sources(field: VectorField, constant_values):
    """The float source of each component of the field, in the state y."""
    return tuple(_rational_source(c, field.chart, constant_values) for c in field.components)


def compile_field(field: VectorField, constant_values=None):
    """Compile a vector field to an ODE right-hand side f(t, y) -> list."""
    sources = _field_sources(field, constant_values)
    return _compile("_rhs(t, y)", "    return [" + ", ".join(sources) + "]")


class FlowSystem:
    """A flow on an even-dimensional chart ordered (q_1..q_n, p_1..p_n).

    When only a Hamiltonian is given, the field is derived as
    q̇_k = ∂H/∂p_k, ṗ_k = −∂H/∂q_k and the identity i_field(Σ dq_k∧dp_k)
    = dH is verified symbolically at construction.  A user-supplied
    field may be non-Hamiltonian; the Hamiltonian, if present, is then
    only used for energy bookkeeping.
    """

    def __init__(
        self,
        chart: Chart,
        hamiltonian: RationalFunction | None = None,
        field: VectorField | None = None,
        constant_values=None,
    ):
        if chart.dimension % 2 != 0:
            raise DimensionError("flow systems need an even-dimensional chart")
        if hamiltonian is None and field is None:
            raise ValueError("need a Hamiltonian or an explicit field")
        self.chart = chart
        self.hamiltonian = hamiltonian
        self.constant_values = dict(constant_values or {})
        n = chart.dimension // 2
        if field is None:
            comps = [hamiltonian.derivative(n + k) for k in range(n)]
            comps += [-hamiltonian.derivative(k) for k in range(n)]
            field = VectorField(chart, comps)
            canonical = DifferentialForm(
                chart, 2, {(k, n + k): chart.one() for k in range(n)}
            )
            residual = interior_product(field, canonical) - differential(hamiltonian)
            if not residual.is_zero:
                raise AssertionError("derived field fails the canonical contraction check")
        else:
            if field.chart != chart:
                raise ValueError("field lives on a different chart")
        self.field = field
        # the Hamiltonian first: a pole in it is named as the user wrote it
        self._energy = (
            compile_scalar(hamiltonian, self.constant_values) if hamiltonian is not None else None
        )
        sources = _field_sources(field, self.constant_values)
        self._rhs = _compile("_rhs(t, y)", "    return [" + ", ".join(sources) + "]")
        energy = "0.0" if hamiltonian is None else _rational_source(hamiltonian, chart,
                                                                     self.constant_values)
        self._steps, self._height = _steps_for(sources, energy)

    @cached_property
    def partials(self):
        """The compiled partials ∂H/∂x_i of the Hamiltonian, built on first use."""
        return [compile_scalar(self.hamiltonian.derivative(i), self.constant_values)
                for i in range(self.chart.dimension)]

    def energy(self, state) -> float | None:
        return None if self._energy is None else float(self._energy(state))

    def rhs(self, t, y):
        return self._rhs(t, y)


# Dormand-Prince 5(4) (Hairer, Nørsett & Wanner, Solving ODEs I, §II.4-II.6) with
# Shampine's quartic continuous extension: y(t_old + xh) = y_old + h·Σ_j (K·P)_j x^(j+1).
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
#: Step-size control: h is scaled by SAFETY·err^(−1/5), clamped to [MIN_FACTOR, MAX_FACTOR].
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(values):
    return math.hypot(*values) / math.sqrt(len(values))


# One component's tableau over its stages a..g = k1..k7: the increments of k2..k6, then
# the 5th-order solution and the 5th-minus-4th-order error.  The field is autonomous,
# so the stages' time offsets are never evaluated.
_STAGE_ROWS = ("1/5 * a", "3/40 * a + 9/40 * b", "44/45 * a - 56/15 * b + 32/9 * c",
               "19372/6561 * a - 25360/2187 * b + 64448/6561 * c - 212/729 * d",
               "9017/3168 * a - 355/33 * b + 46732/5247 * c + 49/176 * d - 5103/18656 * e")
_SOLUTION_ROW = "35/384 * a + 500/1113 * c + 125/192 * d - 2187/6784 * e + 11/84 * f"
_ERROR_ROW = "-71/57600 * a + 71/16695 * c - 71/1920 * d + 17253/339200 * e - 22/525 * f + 1/40 * g"

_LOOP = """    [{y}] = y
    [{a}] = f
    every = section is None
    [{x}], [{m}], level, eps, left_ball, g = section or (y, [{zeros}], 0.0, math.inf, False, 0.0)
    inf, max_drift, attempts = math.inf, 0.0, 0
    while t < t_end:
        min_step = 10.0 * math.ulp(t)
        if h_abs < min_step:  # max(h_abs, min_step) and min(t + h_abs, t_end), without the calls
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step size fell below the float spacing at t = {{t!r}}")
            attempts += 1
            if attempts > MAX_STEP_ATTEMPTS:
                raise IntegrationError(
                    f"the budget of {{MAX_STEP_ATTEMPTS}} step attempts ran out at t = {{t!r}}")
            t_new = t + h_abs
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
            try:
                {trial}
            except (ZeroDivisionError, OverflowError):
                err = math.inf
            if err < 1.0:
                break
            shrink = max(MIN_FACTOR, SAFETY * err ** -0.2) if math.isfinite(err) else MIN_FACTOR
            h_abs = h * shrink
            rejected = True
        factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err ** -0.2)
        h_abs = h * (min(1.0, factor) if rejected else factor)
        distance = math.hypot({distance})
        try:
            drift = abs({energy} - initial_energy)
        except ArithmeticError:
            drift = abs(energy([{n}]) - initial_energy)
        if not (distance < inf and drift < inf):  # the orbit left the float range
            yield None
            return
        max_drift = drift if drift > max_drift else max_drift
        g_new = {height}
        if every or left_ball and g < 0.0 <= g_new:
            yield t, t_new, ({y},), ({stages}), max_drift
        left_ball = left_ball or distance > eps
        t, g = t_new, g_new
        {advance}
    return t, [{y}], g, left_ball, max_drift
"""


@cache
def _steps_for(sources, energy="0.0"):
    """The adaptive DOPRI 5(4) loop steps(t, t_end, y, f, h_abs, rtol, atol, section=None,
    energy=None, initial_energy=0.0) of the field whose components compile to sources, and
    height(y, normal, level) = ⟨y, normal⟩ − level, the loop's g: one sum, added left to right.

    From (t, y), with f the field there and h_abs a first step size, the loop steps to
    t_end.  At each accepted step's end it reads, on its locals, the distance to x0, the
    drift |H − initial_energy| by H's float source ``energy`` (by the IEEE scalar
    ``energy`` where floats raise), and g.  It yields a step as (t_old, t_new, y_old,
    stages, drift): stages the 7·d values k1..k7 as one flat tuple, drift the largest so
    far.  Without a section it yields every step; with section = (x0, normal, level,
    eps, left_ball, g), only a step over which g goes from below 0 to at or above 0 once
    the orbit has left the eps-ball around x0.  Where the distance or the drift is not
    finite it yields None and stops.  At t_end it returns (t_end, state, g, left_ball,
    drift).

    Each stage evaluates the sources on scalar locals.  The tableau's
    coefficients and association are kept, and err is hypot over sqrt(d)
    as in _rms: every float is the one a step over lists of components
    gives.  The step end is the state the loop continues from.

    A step is accepted when the RMS of its scaled error is below 1; no
    accepted step grows h after a rejection.  A stage that divides by zero
    or overflows, or a non-finite error, rejects the step at MIN_FACTOR, so
    a pole ends in IntegrationError once h falls below 10 ulp(t).  An orbit
    that blows up in finite time ends there too, or at the latest after
    MAX_STEP_ATTEMPTS attempts.
    """
    d = len(sources)

    def each(text, sep="; "):  # text once per component i, its one-letter names suffixed by i
        return sep.join(re.sub(r"\b([a-gmnsxy])\b", rf"\g<1>{i}", text) for i in range(d))

    def at(body, state):  # a source at the state's locals
        return re.sub(r"y\[(\d+)\]", rf"{state}\1", body)

    def stage(name, state):  # the field at the state's locals, into name0..name{d-1}
        return "; ".join(f"{name}{i} = " + at(body, state) for i, body in enumerate(sources))

    def height(state):
        return each(f"{state} * m", " + ") + " - level"

    trial = []
    for name, increment in zip("bcdef", _STAGE_ROWS):
        trial += [each(f"s = y + ({increment}) * h"), stage(name, "s")]
    # (u if u > v else v) is max(v, u) without the call: the same float, NaN included
    scaled = f"({_ERROR_ROW}) * h / (atol + (u if (u := abs(n)) > (v := abs(y)) else v) * rtol)"
    trial += [each(f"n = y + ({_SOLUTION_ROW}) * h"), stage("g", "n"),
              f"err = math.hypot({each(scaled, ', ')}) / {math.sqrt(d)!r}"]
    source = _LOOP.format(y=each("y", ", "), a=each("a", ", "), x=each("x", ", "),
                          m=each("m", ", "), zeros=", ".join(["0.0"] * d), n=each("n", ", "),
                          trial="\n                ".join(trial), distance=each("n - x", ", "),
                          energy=at(energy, "n"), height=height("n"),
                          stages=", ".join(each(name, ", ") for name in "abcdefg"),
                          advance=each("y = n") + "; " + each("a = g"))
    steps = _compile("_steps(t, t_end, y, f, h_abs, rtol, atol, section=None, energy=None, "
                     "initial_energy=0.0)", source)
    body = f"    [{each('y', ', ')}] = y\n    [{each('m', ', ')}] = normal\n    return {height('y')}"
    return steps, _compile("_height(y, normal, level)", body)


def _initial_step(rhs, t, y, f, span, rtol, atol):
    """Hairer's starting step: h0 from the sizes of y and f, checked against one Euler step."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([a / s for a, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    try:
        f1 = rhs(t + h0, [v + h0 * a for v, a in zip(y, f)])
        d2 = _rms([(b - a) / s for a, b, s in zip(f, f1, scale)]) / h0
    except (ZeroDivisionError, OverflowError):
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _field_at(system: FlowSystem, t, y):
    try:
        return system.rhs(t, y)
    except (ZeroDivisionError, OverflowError):
        raise IntegrationError(f"the field is singular at the initial state {y}") from None


def _dopri(system: FlowSystem, t, t_end, y, rtol, atol, section=None, initial_energy=None):
    """System's generated loop from (t, y) to t_end, started with the field's value at y
    and Hairer's starting step."""
    f = _field_at(system, t, y)
    h_abs = _initial_step(system.rhs, t, y, f, t_end - t, rtol, atol)
    return system._steps(t, t_end, y, f, h_abs, rtol, atol, section, system._energy,
                         initial_energy or 0.0)


def _extension(y_old, stages, h):
    """The step's continuous extension x -> y(t_old + x·h), x in [0, 1]."""
    d = len(y_old)
    Q = [[h * sum(stages[s * d + i] * _P[s][j] for s in range(7)) for j in range(4)]
         for i in range(d)]

    def at(x):
        return [y + (((q3 * x + q2) * x + q1) * x + q0) * x
                for y, (q0, q1, q2, q3) in zip(y_old, Q)]
    return at


class DenseSolution:
    """The continuous extension of a list of accepted steps (t_old, t_new, y_old, stages,
    drift), at a scalar time.  A time on a step boundary uses the step that ends there; a
    time outside [t_old of the first, t_new of the last] extrapolates the nearest step."""

    def __init__(self, steps):
        self.ends, self.steps = [step[1] for step in steps], steps

    def at(self, t):
        """The state at t as a list of floats."""
        t_old, t_new, y_old, stages, _ = self.steps[min(bisect_left(self.ends, t),
                                                        len(self.steps) - 1)]
        return _extension(y_old, stages, t_new - t_old)((t - t_old) / (t_new - t_old))


@dataclass
class Trajectory:
    """Dense solution of one integration, with energy-drift monitoring."""

    solution: DenseSolution
    initial_energy: float | None
    max_energy_drift: float | None

    def state_at(self, t):
        return self.solution.at(t)


def integrate(system: FlowSystem, x0, t_end: float, rtol: float = 1e-10, atol: float = 1e-12,
              t_start: float = 0.0) -> Trajectory:
    """Integrate the flow with the adaptive Dormand-Prince 5(4) pair.

    Every step to t_end is taken and kept as dense output; the trajectory records the
    maximum energy drift |H(x) − H(x0)| over the steps' ends.  A step end whose distance
    from x0 or energy is not finite raises IntegrationError.
    """
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
        raise ValueError("t_end must be finite and exceed a finite t_start")
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("tolerances must be positive and finite")
    x0 = [float(v) for v in x0]
    initial_energy = system.energy(x0)
    steps = list(_dopri(system, float(t_start), float(t_end), x0, rtol, atol,
                        initial_energy=initial_energy))
    if steps[-1] is None:  # the loop's last yield
        raise IntegrationError("the orbit left the float range")
    max_drift = None if initial_energy is None else steps[-1][-1]
    return Trajectory(DenseSolution(steps), initial_energy, max_drift)


@dataclass
class PeriodDetection:
    """Result of the return-time search for one seed point."""

    periodic: bool
    period: float | None
    min_distance: float | None
    ambiguous: bool
    reason: str | None
    max_energy_drift: float | None


def _section_crossing(extension, t_old, t_new, height):
    """The first float time in (t_old, t_new] where height ≥ 0 on the step's extension, and
    the state there, for height < 0 at t_old and ≥ 0 at t_new: bisection to adjacent floats."""
    h, lo, hi = t_new - t_old, t_old, t_new
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if height(extension((mid - t_old) / h)) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi, extension((hi - t_old) / h)


def detect_period(system: FlowSystem, x0, eps: float = 1e-6, t_max: float = 1e3,
                  rtol: float = 1e-10, atol: float = 1e-12) -> PeriodDetection:
    """Find the first full phase-space return of the orbit through x0.

    The section is the hyperplane through x0 normal to f(x0), where the height
    g(x) = ⟨x − x0, f(x0)/|f(x0)|⟩ vanishes; the generated loop reads g at each accepted
    step's end.  Once the orbit has left the eps-ball around the seed, a step over which g
    goes from below 0 to at or above 0 crosses the section: g is rooted on the step's
    continuous extension, and a crossing within eps of x0 is the return, its time the
    period.  A return distance in (eps/10, eps] sets the ``ambiguous`` flag.
    Quasi-periodic or escaping orbits report ``periodic=False``, with ``min_distance``
    the closest section crossing (None if there is none).  A step end whose distance or
    energy is not finite ends the search: the orbit has left the float range.

    The stepper is restarted from its last accepted state every SPAN time units.  The
    energy drift is max |H(x) − H(x0)| over the step ends.
    """
    if not (0 < eps < math.inf and 0 < t_max < math.inf):
        raise ValueError("eps and t_max must be positive and finite")
    x0 = [float(v) for v in x0]
    initial_energy = system.energy(x0)
    f0 = _field_at(system, 0.0, x0)
    size = math.hypot(*f0)
    normal = [v / size if size else 0.0 for v in f0]
    level = system._height(x0, normal, 0.0)
    height = partial(system._height, normal=normal, level=level)
    t, x, g, left_ball, max_drift, closest = 0.0, x0, 0.0, False, 0.0, None
    while t < t_max:
        steps = _dopri(system, t, min(t + SPAN, t_max), x, rtol, atol,
                       (x0, normal, level, eps, left_ball, g), initial_energy)
        while True:
            try:
                step = next(steps)
            except StopIteration as end:
                t, x, g, left_ball, drift = end.value
                break
            if step is None:
                return PeriodDetection(False, None, closest, False, "orbit left the float range",
                                       None)
            t_old, t_new, y_old, stages, drift = step
            time, state = _section_crossing(_extension(y_old, stages, t_new - t_old), t_old,
                                            t_new, height)
            crossing = math.dist(state, x0)
            if crossing <= eps:
                return PeriodDetection(True, time, crossing, crossing > eps / 10.0, None,
                                       None if initial_energy is None else max(max_drift, drift))
            closest = crossing if closest is None else min(closest, crossing)
        max_drift = max(max_drift, drift)
    reason = "orbit never left the eps-ball" if not left_ball else "no return within t_max"
    return PeriodDetection(False, None, closest, False, reason,
                           None if initial_energy is None else max_drift)


@dataclass
class PeriodRecord:
    """One (seed, energy, period) sample."""

    seed: tuple
    level: float
    energy: float
    period: float | None
    converged: bool
    ambiguous: bool
    drift: float | None
    reason: str | None = None
    min_distance: float | None = None


@dataclass
class PeriodTable:
    """Sampled period data, ordered by (energy level, seed index)."""

    records: list
    notes: list = dataclass_field(default_factory=list)

    def levels(self):
        grouped = {}
        for record in self.records:
            grouped.setdefault(record.level, []).append(record)
        return grouped

    def converged_periods(self):
        return [r.period for r in self.records if r.converged and r.period is not None]

    def csv_rows(self, dimension):
        header = [f"seed_{i}" for i in range(dimension)] + [
            "energy", "period", "converged", "drift"
        ]
        rows = [header]
        for r in self.records:
            rows.append(
                [repr(float(x)) for x in r.seed]
                + [
                    repr(float(r.energy)),
                    "" if r.period is None else repr(float(r.period)),
                    str(r.converged).lower(),
                    "" if r.drift is None else repr(float(r.drift)),
                ]
            )
        return rows


def find_energy_point(system: FlowSystem, energy: float, rng):
    """A phase-space point with H = energy, by scaling a random direction.

    One-dimensional root finding along the ray: doubling bracket, then
    bisection, then a few Newton polish steps using the directional
    derivative of H.
    """
    if system.hamiltonian is None:
        raise RootFindError("system has no Hamiltonian to match energies against")
    ham = system._energy
    dim = system.chart.dimension
    partials = system.partials
    for _ in range(DIRECTION_TRIES):  # H may have a pole on the ray: ham gives ±inf or nan there
        direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.hypot(*direction)
        if norm == 0.0:
            continue
        direction = [v / norm for v in direction]

        def g(s):
            return ham([s * v for v in direction]) - energy

        if g(0.0) > 0.0:
            continue
        s_hi = 1.0
        doubled = 0
        while g(s_hi) < 0.0 and doubled < 60:
            s_hi *= 2.0
            doubled += 1
        if g(s_hi) < 0.0:
            continue
        s_lo = 0.0
        for _ in range(80):
            mid = 0.5 * (s_lo + s_hi)
            if g(mid) < 0.0:
                s_lo = mid
            else:
                s_hi = mid
        s = 0.5 * (s_lo + s_hi)
        for _ in range(4):
            point = [s * v for v in direction]
            slope = sum(p(point) * d for p, d in zip(partials, direction))
            if slope == 0.0:
                break
            step = g(s) / slope
            if not math.isfinite(step):
                break
            s -= step
        point = [s * v for v in direction]
        if abs(ham(point) - energy) <= 1e-9 * max(1.0, abs(energy)):
            return point
    raise RootFindError(f"no phase-space point found with energy {energy}")


def period_energy_scan(system: FlowSystem, energies, seeds_per_energy: int, seed: int = 0,
                       eps: float = 1e-6, t_max: float = 1e3, rtol: float = 1e-10,
                       atol: float = 1e-12) -> PeriodTable:
    """Sample periods at requested energies from seeded random directions.

    Levels where no point attains the energy are reported empty in the
    table notes, and a seed whose integration fails is an unconverged
    record with the reason, rather than failing the whole scan.
    """
    rng = random.Random(seed)
    records = []
    notes = []
    for level in energies:
        for _ in range(seeds_per_energy):
            try:
                x0 = find_energy_point(system, float(level), rng)
            except RootFindError as exc:
                notes.append(f"energy {level}: {exc}")
                break
            try:
                detection = detect_period(system, x0, eps=eps, t_max=t_max, rtol=rtol, atol=atol)
            except IntegrationError as exc:
                detection = PeriodDetection(False, None, None, False, f"integration failed: {exc}",
                                            None)
            records.append(
                PeriodRecord(
                    seed=tuple(float(x) for x in x0),
                    level=float(level),
                    energy=float(system.energy(x0)),
                    period=detection.period,
                    converged=detection.periodic and not detection.ambiguous,
                    ambiguous=detection.ambiguous,
                    drift=detection.max_energy_drift,
                    reason=detection.reason,
                    min_distance=detection.min_distance,
                )
            )
    return PeriodTable(records=records, notes=notes)


@dataclass
class DependenceResult:
    """Verdict on functional dependence of period on energy."""

    dependent: bool
    violations: list
    insufficient_sampling: bool
    level_spreads: dict

    def to_dict(self):
        return {
            "dependent": self.dependent,
            "insufficient_sampling": self.insufficient_sampling,
            "level_spreads": {repr(k): v for k, v in sorted(self.level_spreads.items())},
            "violations": [
                {"level": r.level, "seed": list(r.seed), "period": r.period}
                for r in self.violations
            ],
        }


def _relative_spread(values):
    return (max(values) - min(values)) / max(abs(max(values)), 1e-300)


def dependence_test(table: PeriodTable, rel_tol: float = 1e-6) -> DependenceResult:
    """Periods must agree across seeds on each energy level.

    ``dependent`` when every level's pairwise relative period spread is
    within rel_tol; violating records are returned.  Levels with fewer
    than two converged periods are vacuous and set the
    ``insufficient_sampling`` flag.
    """
    violations = []
    spreads = {}
    informative = False
    for level, records in sorted(table.levels().items()):
        periods = [r.period for r in records if r.converged and r.period is not None]
        if len(periods) < 2:
            continue
        informative = True
        spread = _relative_spread(periods)
        spreads[level] = spread
        if spread > rel_tol:
            violations.extend(r for r in records if r.converged)
    return DependenceResult(
        dependent=not violations,
        violations=violations,
        insufficient_sampling=not informative,
        level_spreads=spreads,
    )


@dataclass
class ObstructionResult:
    """One-sided verdict: period data can obstruct equivalence, not prove it."""

    obstructed: bool
    reason: str | None

    def to_dict(self):
        return {"obstructed": self.obstructed, "reason": self.reason}


def equivalence_obstruction(a: PeriodTable, b: PeriodTable,
                            rel_tol: float = 1e-4) -> ObstructionResult:
    """Compare observed period sets of two systems.

    Obstructed when one system's periods are constant (within rel_tol)
    while the other's spread beyond it, or when the observed period
    ranges are disjoint beyond tolerance.  Anything else is
    inconclusive: equal period data never certifies equivalence.
    """
    for name, table in (("first", a), ("second", b)):
        result = dependence_test(table, rel_tol=rel_tol)
        if not result.dependent:
            raise ValueError(f"{name} table fails the energy-period dependence test")
    periods_a = a.converged_periods()
    periods_b = b.converged_periods()
    if not periods_a or not periods_b:
        return ObstructionResult(obstructed=False, reason="insufficient period data")
    constant_a = _relative_spread(periods_a) <= rel_tol
    constant_b = _relative_spread(periods_b) <= rel_tol
    if constant_a != constant_b:
        return ObstructionResult(obstructed=True, reason="constant vs energy-dependent period")
    pad_a = rel_tol * max(abs(max(periods_a)), abs(min(periods_a)))
    pad_b = rel_tol * max(abs(max(periods_b)), abs(min(periods_b)))
    if max(periods_a) + pad_a < min(periods_b) - pad_b or max(periods_b) + pad_b < min(
        periods_a
    ) - pad_a:
        return ObstructionResult(obstructed=True, reason="disjoint period ranges")
    return ObstructionResult(obstructed=False, reason=None)
