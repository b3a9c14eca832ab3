"""Numerical flow integration, period detection, and the energy-period
dependence and obstruction tests.

Integration uses the Dormand-Prince 5(4) embedded pair with its
continuous extension for dense output.  One adaptive loop is generated
per flow, cached on the field's source, which lists each polynomial's
terms in lexicographic order: each stage evaluates the field inline on
scalar locals, and the accepted steps the loop yields are appended to
the dense solution block by block.  A dense state at one time is
computed on Python floats from the one step that covers it.

Period detection works with the full phase-space return to the seed
point, so quasi-periodic orbits report no period instead of aliasing;
the first re-entry into an eps-ball is refined by golden-section
minimization of the distance along the dense solution.  The search
pulls steps only as far as its distance samples need, so it stops at
the step that confirms the return, and the energy drift it reports
covers the span actually integrated.

The period of a flow is a diffeomorphism invariant, and on a connected
family of periodic orbits the period depends on the energy alone; the
obstruction test compares observed period sets of two systems and can
certify, never refute, inequivalence.

numpy is imported by the functions that compute with it, on first use,
so importing this module does not load it.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain

from .errors import (CoefficientRangeError, DimensionError, IntegrationError, PoleError,
                     RootFindError)
from .expr import Chart, Polynomial, RationalFunction
from .geom import DifferentialForm, VectorField, differential, interior_product

#: First integration chunk of the return search; chunks then double up to MAX_CHUNK.
INITIAL_CHUNK = 8.0
MAX_CHUNK = 64.0
#: Spacing of the distance samples that locate candidate returns.
SAMPLE_SPACING = 1.0 / 128.0
#: Distance samples computed at a time (one time unit): the steps that cover
#: them are taken, then their candidate returns are tested.
SEARCH_WINDOW = 128
#: Step attempts, accepted or rejected, that one _dopri call may make: over ten
#: times the most that one chunk of the fixture and benchmark scans takes (7,000).
MAX_STEP_ATTEMPTS = 100_000
#: Random directions tried before an energy level is reported unattainable.
DIRECTION_TRIES = 8


def _polynomial_source(poly, chart: Chart, constant_values):
    dim = chart.dimension
    pieces = []
    for exps, coeff in sorted(poly.terms.items()):  # lexicographic exponent order
        factors = []
        for axis, e in enumerate(exps):
            if e == 0:
                continue
            if axis < dim:
                factors.append(f"y[{axis}]" if e == 1 else f"y[{axis}]**{e}")
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


def _rational_source(f: RationalFunction, chart: Chart, constant_values):
    """Float source of f in the state y.

    A denominator with no coordinate factor compiles to float literals
    only, so it is evaluated here: a zero raises PoleError instead of a
    ZeroDivisionError from the compiled function.  Every other division
    has a state operand: on numpy arrays it cannot raise, and the generated
    stepping loop, which evaluates it on floats, rejects a step whose stage
    raises.
    """
    num_src = _polynomial_source(f.num, chart, constant_values)
    if f.den.is_constant:
        return num_src
    den_src = _polynomial_source(f.den, chart, constant_values)
    if "y[" not in den_src and eval(den_src) == 0.0:
        raise PoleError(f"the denominator of {f} vanishes at the declared constant values")
    return f"({num_src})/({den_src})"


def _compile(signature, body):
    """The function ``def signature:`` over the indented body, in this module's globals."""
    namespace = {}
    exec(f"def {signature}:\n{body}\n", globals(), namespace)
    (function,) = namespace.values()
    return function


def compile_scalar(f: RationalFunction, constant_values=None):
    """Compile a rational function to a fast float callable of the state."""
    return _compile("_scalar(y)", "    return " + _rational_source(f, f.chart, constant_values))


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
        self._steps = _steps_for(sources)

    @cached_property
    def partials(self):
        """The compiled partials ∂H/∂x_i of the Hamiltonian, built on first use."""
        return [compile_scalar(self.hamiltonian.derivative(i), self.constant_values)
                for i in range(self.chart.dimension)]

    def energy(self, state) -> float | None:
        if self._energy is None:
            return None
        import numpy as np

        return float(self._energy(np.asarray(state, dtype=float)))

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
    attempts = 0
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
        yield t_new, ({y},), ({stages})
        t = t_new
        {advance}
"""


@cache
def _steps_for(sources):
    """The adaptive DOPRI 5(4) loop steps(t, t_end, y, f, h_abs, rtol, atol) of the
    field whose components compile to sources, generated on first use.

    From (t, y) with the field's value f there and a first step size h_abs,
    it yields each accepted step as (t_new, y_old, stages): y_old the state at
    the step's start, stages the 7·d values k1..k7 as one flat tuple.  Each
    stage evaluates the sources on scalar locals.  The tableau's coefficients
    and association are kept, and err is hypot over sqrt(d) as in _rms: every
    float is the one a step over lists of components gives.

    A step is accepted when the RMS of its scaled error is below 1; no
    accepted step grows h after a rejection.  A stage that divides by zero
    or overflows, or a non-finite error, rejects the step at MIN_FACTOR, so
    a pole ends in IntegrationError once h falls below 10 ulp(t).  An orbit
    that blows up in finite time ends there too, or at the latest after
    MAX_STEP_ATTEMPTS attempts.
    """
    d = len(sources)

    def each(text, sep="; "):  # text once per component i, its one-letter names suffixed by i
        return sep.join(re.sub(r"\b([a-gnsy])\b", rf"\g<1>{i}", text) for i in range(d))

    def stage(name, state):  # the field at the state's locals, into name0..name{d-1}
        return "; ".join(f"{name}{i} = " + re.sub(r"y\[(\d+)\]", rf"{state}\1", body)
                         for i, body in enumerate(sources))

    trial = []
    for name, increment in zip("bcdef", _STAGE_ROWS):
        trial += [each(f"s = y + ({increment}) * h"), stage(name, "s")]
    # (u if u > v else v) is max(v, u) without the call: the same float, NaN included
    scaled = f"({_ERROR_ROW}) * h / (atol + (u if (u := abs(n)) > (v := abs(y)) else v) * rtol)"
    trial += [each(f"n = y + ({_SOLUTION_ROW}) * h"), stage("g", "n"),
              f"err = math.hypot({each(scaled, ', ')}) / {math.sqrt(d)!r}"]
    source = _LOOP.format(y=each("y", ", "), a=each("a", ", "),
                          trial="\n                ".join(trial),
                          stages=", ".join(each(name, ", ") for name in "abcdefg"),
                          advance=each("y = n") + "; " + each("a = g"))
    return _compile("_steps(t, t_end, y, f, h_abs, rtol, atol)", source)


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


def _dopri(system: FlowSystem, t, t_end, y, rtol, atol):
    """The accepted steps of system's flow from (t, y) to t_end, by its generated
    loop, started with the field's value at y and Hairer's starting step."""
    try:
        f = system.rhs(t, y)
    except (ZeroDivisionError, OverflowError):
        raise IntegrationError(f"the field is singular at the initial state {y}") from None
    h_abs = _initial_step(system.rhs, t, y, f, t_end - t, rtol, atol)
    return system._steps(t, t_end, y, f, h_abs, rtol, atol)


class DenseSolution:
    """The continuous extension of a run of steps, at a scalar or an array of times.

    It starts with no step at t_start and grows by ``extend``, block by
    block: each step's coefficients are computed once, when its block is
    appended.  A time on a step boundary uses the step that ends there; a
    time outside [ts[0], ts[-1]] extrapolates the nearest step.
    """

    def __init__(self, t_start, dimension):
        import numpy as np

        self.times = [t_start]
        self.ts, self.h = np.array(self.times), np.empty(0)
        self.y_old, self.Q = np.empty((0, dimension)), np.empty((0, dimension, 4))

    def extend(self, steps):
        """Append accepted steps (t_new, y_old, stages) that continue from times[-1],
        with stages the 7·d values k1..k7 as one flat sequence."""
        import numpy as np

        t_new, states, stages = zip(*steps)
        self.times.extend(t_new)
        self.ts = np.concatenate((self.ts, t_new))
        self.h = self.ts[1:] - self.ts[:-1]
        self.y_old = np.concatenate((self.y_old, states))
        K = np.fromiter(chain.from_iterable(stages), float).reshape(len(states), 7, -1)
        self.Q = np.concatenate((self.Q, np.einsum("msn,sj->mnj", K, _P)))

    def at(self, t):
        """The state at a scalar t as a list of floats: the array path's arithmetic on
        the one row that bisection finds, on Python floats."""
        i = min(max(bisect_left(self.times, t) - 1, 0), len(self.h) - 1)
        h = float(self.h[i])
        x = (t - self.times[i]) / h
        return [y + h * ((((q3 * x + q2) * x + q1) * x + q0) * x)
                for y, (q0, q1, q2, q3) in zip(self.y_old[i].tolist(), self.Q[i].tolist())]

    def __call__(self, t):
        """The state (dim,) at a scalar t, or the states (dim, m) at m times."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.ts, t) - 1, 0, len(self.h) - 1)
        h = self.h[i]
        x = ((t - self.ts[i]) / h)[..., None]
        Q = self.Q[i]
        p = (((Q[..., 3] * x + Q[..., 2]) * x + Q[..., 1]) * x + Q[..., 0]) * x
        return (self.y_old[i] + h[..., None] * p).T


@dataclass
class Trajectory:
    """Dense solution of one integration, with energy-drift monitoring."""

    solution: DenseSolution
    initial_energy: float | None
    max_energy_drift: float | None

    def state_at(self, t):
        import numpy as np

        return np.asarray(self.solution(t), dtype=float)


def _energy_drift(system: FlowSystem, solution: DenseSolution, initial_energy: float) -> float:
    """max |H(x(t)) − initial_energy| over max(64, 4·len(times)) samples of the span."""
    import numpy as np

    times = solution.times
    # one call on the (dim × m) samples; a constant H returns one float
    samples = solution(np.linspace(times[0], times[-1], max(64, 4 * len(times))))
    with np.errstate(over="ignore", invalid="ignore"):  # an orbit beyond the float range
        return float(np.max(np.abs(system._energy(samples) - initial_energy)))


def integrate(system: FlowSystem, x0, t_end: float, rtol: float = 1e-10, atol: float = 1e-12,
              t_start: float = 0.0) -> Trajectory:
    """Integrate the flow with the adaptive Dormand-Prince 5(4) pair.

    Every step to t_end is taken and kept as dense output; the trajectory
    records the maximum energy drift |H(x(t)) − H(x0)| over a grid of
    max(64, 4·steps) samples.
    """
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
        raise ValueError("t_end must be finite and exceed a finite t_start")
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("tolerances must be positive and finite")
    x0 = [float(v) for v in x0]
    solution = DenseSolution(float(t_start), len(x0))
    solution.extend(_dopri(system, float(t_start), float(t_end), x0, rtol, atol))
    initial_energy = system.energy(x0)
    max_drift = None if initial_energy is None else _energy_drift(system, solution, initial_energy)
    return Trajectory(solution=solution, initial_energy=initial_energy, max_energy_drift=max_drift)


@dataclass
class PeriodDetection:
    """Result of the return-time search for one seed point."""

    periodic: bool
    period: float | None
    min_distance: float | None
    ambiguous: bool
    reason: str | None
    max_energy_drift: float | None


def _golden_minimize(f, a, b, tol):
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _distance(solution: DenseSolution, x0, t):
    """|x(t) − x0| for an array x0, by np.linalg.norm's arithmetic on a vector: the
    same float.  The difference is taken negated, which leaves every square as it is."""
    v = x0 - solution.at(t)
    return math.sqrt(v.dot(v))


def detect_period(system: FlowSystem, x0, eps: float = 1e-6, t_max: float = 1e3,
                  rtol: float = 1e-10, atol: float = 1e-12) -> PeriodDetection:
    """Find the first full phase-space return of the orbit through x0.

    The orbit must first leave the eps-ball around the seed; the first
    subsequent local minimum of |x(t) − x0| that refines (by
    golden-section search on the dense output) to a distance ≤ eps is
    reported as the period, with time resolution eps/1000.  A refined
    minimum in (eps/10, eps] sets the ``ambiguous`` flag.  Quasi-periodic
    or escaping orbits report ``periodic=False``, with ``min_distance``
    the closest refined minimum after leaving the eps-ball (None if the
    distance has no such minimum).  The search ends at the first distance
    sample that is not finite: the orbit has left the float range.

    The orbit is integrated in chunks, each sampled every SAMPLE_SPACING;
    steps are taken as the search needs them, SEARCH_WINDOW samples at a
    time, so the search stops at the step that confirms the return.  The
    energy drift covers the span integrated, by integrate's rule on each
    chunk.
    """
    if not (0 < eps < math.inf and 0 < t_max < math.inf):
        raise ValueError("eps and t_max must be positive and finite")
    import numpy as np

    x0 = np.asarray(x0, dtype=float)
    max_drift = None if system._energy is None else 0.0
    left_ball = False
    closest = math.inf
    chunk = INITIAL_CHUNK
    start = 0.0
    state = [float(v) for v in x0]
    while start < t_max:
        stop = min(start + chunk, t_max)
        chunk = min(2.0 * chunk, MAX_CHUNK)
        steps = _dopri(system, start, stop, state, rtol, atol)
        solution = DenseSolution(start, len(state))
        initial_energy = system.energy(state)

        distance = partial(_distance, solution, x0)
        ts = np.linspace(start, stop, max(16, int(round((stop - start) / SAMPLE_SPACING))))
        dists = np.empty_like(ts)
        # candidate minima start after the sample that leaves the ball
        first = 1 if left_ball else len(ts)
        chunk_closest = math.inf  # joins closest when the chunk is searched to its end
        done = 0  # samples whose distance is known
        while done < len(ts):
            end = min(done + SEARCH_WINDOW, len(ts))
            target = float(ts[end - 1])
            if solution.times[-1] < target:
                block = []
                for step in steps:
                    block.append(step)
                    if step[0] >= target:
                        break
                solution.extend(block)
            with np.errstate(over="ignore", invalid="ignore"):
                window = np.sqrt(np.sum((solution(ts[done:end]) - x0[:, None]) ** 2, axis=0))
            if not np.isfinite(window).all():
                return PeriodDetection(False, None, closest if math.isfinite(closest) else None,
                                       False, "orbit left the float range", None)
            dists[done:end] = window
            if not left_ball:  # the first and last samples of a chunk never count
                lo = max(done, 1)
                outside = np.flatnonzero(dists[lo:min(end, len(ts) - 1)] > eps)
                if outside.size:
                    left_ball, first = True, lo + int(outside[0]) + 1
            # a candidate needs the samples on both sides; the last one waits for the next window
            lo, hi = max(done - 1, first), end - 1
            if lo < hi:
                inner = dists[lo:hi]
                minima = (inner <= dists[lo - 1:hi - 1]) & (inner <= dists[lo + 1:hi + 1])
                for i in np.flatnonzero(minima) + lo:
                    t_best, d_best = _golden_minimize(distance, float(ts[i - 1]), float(ts[i + 1]),
                                                      eps * 1e-3)
                    if d_best <= eps:
                        if max_drift is not None:
                            max_drift = max(max_drift,
                                            _energy_drift(system, solution, initial_energy))
                        return PeriodDetection(True, float(t_best), float(d_best),
                                               d_best > eps / 10.0, None, max_drift)
                    chunk_closest = min(chunk_closest, d_best)
            done = end
        if max_drift is not None:
            max_drift = max(max_drift, _energy_drift(system, solution, initial_energy))
        closest = min(closest, chunk_closest)
        if stop >= t_max:
            break
        # restart slightly before the chunk end so boundary minima fall in the
        # interior of the next scan window
        start = stop - 2.0 * SAMPLE_SPACING
        state = solution.at(start)
    reason = "orbit never left the eps-ball" if not left_ball else "no return within t_max"
    min_distance = closest if math.isfinite(closest) else None
    return PeriodDetection(False, None, min_distance, False, reason, max_drift)


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
    import numpy as np

    # H may have a pole on the ray
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(DIRECTION_TRIES):
            direction = np.array([rng.gauss(0.0, 1.0) for _ in range(dim)])
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            direction /= norm

            def g(s):
                return float(ham(s * direction)) - energy

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
                point = s * direction
                slope = float(sum(p(point) * d for p, d in zip(partials, direction)))
                if slope == 0.0:
                    break
                step = g(s) / slope
                if not math.isfinite(step):
                    break
                s -= step
            point = s * direction
            if abs(float(ham(point)) - energy) <= 1e-9 * max(1.0, abs(energy)):
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
