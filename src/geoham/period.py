"""Numerical flow integration, period detection, and the energy-period
dependence and obstruction tests.

Integration uses DOP853 / 8(5,3), Prince & Dormand's embedded pair, with
its 7th-order continuous extension for dense output.  One adaptive loop
is generated per flow, cached on the sources of the field and the
Hamiltonian, which list each polynomial's terms in lexicographic order:
each stage evaluates the field inline on scalar locals, and each step's
end is measured inline too, its distance to the seed, its energy drift
and its height over the section.  Everything runs on Python floats.

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
#: of the quartic fixture's fastest orbit, (p²+q²)² at E = 16, takes 3,833 steps.
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


def _compile(*definitions):
    """The functions ``def signature:`` over each indented body of the (signature, body)
    definitions, in order, from one exec in this module's globals."""
    namespace = {}
    exec("".join(f"def {signature}:\n{body}\n" for signature, body in definitions), globals(),
         namespace)
    return tuple(namespace.values())


def _scalar_definition(f: RationalFunction, constant_values):
    """f's float source, and the (signature, body) of compile_scalar's function."""
    fast, ieee = (_rational_source(f, f.chart, constant_values, flag) for flag in (False, True))
    return fast, ("_scalar(y)", f"    try:\n        return {fast}\n"
                                f"    except ArithmeticError:\n        return {ieee}")


def compile_scalar(f: RationalFunction, constant_values=None):
    """Compile a rational function to a fast float callable of the state.

    Where Python's float arithmetic raises, at a pole or past the float
    range, the callable returns the IEEE value instead: ±inf or nan.
    """
    (scalar,) = _compile(_scalar_definition(f, constant_values)[1])
    return scalar


def _field_sources(field: VectorField, constant_values):
    """The float source of each component of the field, in the state y."""
    return tuple(_rational_source(c, field.chart, constant_values) for c in field.components)


def compile_field(field: VectorField, constant_values=None):
    """Compile a vector field to an ODE right-hand side f(t, y) -> list."""
    sources = _field_sources(field, constant_values)
    (rhs,) = _compile(("_rhs(t, y)", "    return [" + ", ".join(sources) + "]"))
    return rhs


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
        self._derived = field is None
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
        energy, scalar = (("0.0", None) if hamiltonian is None
                          else _scalar_definition(hamiltonian, self.constant_values))
        sources = _field_sources(field, self.constant_values)
        rhs = "_rhs(t, y)", "    return [" + ", ".join(sources) + "]"
        if scalar is None:
            self._energy, (self._rhs,) = None, _compile(rhs)
        else:  # one exec for both
            self._energy, self._rhs = _compile(scalar, rhs)
        self._steps, self._height = _steps_for(sources, energy)

    @cached_property
    def partials(self):
        """The compiled partials ∂H/∂x_i of the Hamiltonian, built on first use."""
        return [compile_scalar(self.hamiltonian.derivative(i), self.constant_values)
                for i in range(self.chart.dimension)]

    def gradient(self, state):
        """∂H at the state, read off a derived field (∂H/∂q_k = −ṗ_k, ∂H/∂p_k = q̇_k: the
        partials' floats, raising where the field does), else from the compiled partials."""
        if not self._derived:
            return [p(state) for p in self.partials]
        f = self._rhs(0.0, state)
        return [-v for v in f[len(f) // 2:]] + f[:len(f) // 2]

    def energy(self, state) -> float | None:
        return None if self._energy is None else float(self._energy(state))

    def rhs(self, t, y):
        return self._rhs(t, y)


# DOP853, Prince & Dormand's 8(5,3) pair (J. Comput. Appl. Math. 7, 1981; Hairer, Nørsett &
# Wanner, Solving ODEs I, §II.5-II.6), in the coefficients of Hairer's code.  Row s of _STAGE_ROWS
# weighs k0..k(s-1) into stage s: rows 1-11 the stages, row 12 the 8th-order solution (its field
# value k12 starts the next step), rows 13-15 the dense output's; the field is autonomous, so no
# node is evaluated.  Then the 5th- and 3rd-order error rows, and the last four dense-output rows.
_STAGE_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_ERROR_ROWS = (
    (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294),
    (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082),
)
_DENSE_ROWS = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)
#: Step-size control: h is scaled by SAFETY·err^(−1/8), clamped to [MIN_FACTOR, MAX_FACTOR].
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


def _rms(values):
    return math.hypot(*values) / math.sqrt(len(values))


_LOOP = """    [{y}] = y
    [{k0}] = f
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
            shrink = max(MIN_FACTOR, SAFETY * err ** -0.125) if math.isfinite(err) else MIN_FACTOR
            h_abs = h * shrink
            rejected = True
        factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err ** -0.125)
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
            try:
                {dense}
            except (ZeroDivisionError, OverflowError):
                yield None
                return
            yield t, t_new, ({y},), ({n},), ({stages}), max_drift
        left_ball = left_ball or distance > eps
        t, g = t_new, g_new
        {advance}
    return t, [{y}], g, left_ball, max_drift
"""


@cache
def _steps_for(sources, energy="0.0"):
    """The adaptive DOP853 / 8(5,3) loop steps(t, t_end, y, f, h_abs, rtol, atol, section=None,
    energy=None, initial_energy=0.0) of the field whose components compile to sources, and
    height(y, normal, level) = ⟨y, normal⟩ − level, the loop's g: one sum, added left to right.

    From (t, y), with f the field there and h_abs a first step size, the loop steps to
    t_end.  At each accepted step's end it reads, on its locals, the distance to x0, the
    drift |H − initial_energy| by H's float source ``energy`` (by the IEEE scalar
    ``energy`` where floats raise), and g.  It yields a step as (t_old, t_new, y_old,
    y_new, stages, drift): stages the 16·d values k0..k15 as one flat tuple, drift the
    largest so far.  Without a section it yields every step; with section = (x0, normal,
    level, eps, left_ball, g), only a step over which g goes from below 0 to at or above 0
    once the orbit has left the eps-ball around x0.  The dense output's stages k13..k15
    are evaluated for a yielded step only.  Where the distance or the drift is not finite,
    or one of those stages raises, it yields None and stops.  At t_end it returns (t_end,
    state, g, left_ball, drift).

    Each stage evaluates the sources on scalar locals, and each row of the tableau is
    added left to right over its nonzero coefficients: every float is the one a step over
    lists of components gives.  The step end is the state the loop continues from.

    A step is accepted when Hairer's error norm h·err5²/√((err5² + 0.01·err3²)·d) is below
    1, err5 and err3 the 2-norms of the two scaled estimates, taken by hypot so that no
    square overflows; no accepted step grows h after a rejection.  A stage that divides by zero
    or overflows, or a non-finite error, rejects the step at MIN_FACTOR, so a pole ends in
    IntegrationError once h falls below 10 ulp(t).  An orbit that blows up in finite time
    ends there too, or at the latest after MAX_STEP_ATTEMPTS attempts.
    """
    d = len(sources)

    def each(text, sep="; "):  # text once per component, its {i} the component's index
        return sep.join(text.format(i=i) for i in range(d))

    def row(coefficients, i):  # Σ_j c_j·k_j of component i over the nonzero c_j, left to right
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coefficients) if c)

    def at(body, state):  # a source at the state's locals
        return re.sub(r"y\[(\d+)\]", rf"{state}\1", body)

    def stages(first, last, state="s"):  # each stage's state from y and k0..k{s-1}, then f
        return "\n                ".join(line for s in range(first, last + 1) for line in (
            "; ".join(f"{state}{i} = y{i} + ({row(_STAGE_ROWS[s], i)}) * h" for i in range(d)),
            "; ".join(f"k{s}_{i} = " + at(body, state) for i, body in enumerate(sources))))

    def height(state):
        return each(state + "{i} * m{i}", " + ") + " - level"

    # (u if u > v else v) is max(v, u) without the call: the same float, NaN included
    scaled = "; ".join(f"w = atol + (u if (u := abs(n{i})) > (v := abs(y{i})) else v) * rtol; "
                       f"e{i} = ({row(_ERROR_ROWS[0], i)}) / w; "
                       f"r{i} = ({row(_ERROR_ROWS[1], i)}) / w" for i in range(d))
    trial = [stages(1, 11), stages(12, 12, "n"), scaled,
             f"err5, err3 = math.hypot({each('e{i}', ', ')}), math.hypot({each('r{i}', ', ')})",
             f"err = h * err5 * (err5 / math.hypot(err5, 0.1 * err3)) / {math.sqrt(d)!r} "
             "if err5 else 0.0"]
    source = _LOOP.format(y=each("y{i}", ", "), k0=each("k0_{i}", ", "), x=each("x{i}", ", "),
                          m=each("m{i}", ", "), zeros=", ".join(["0.0"] * d), n=each("n{i}", ", "),
                          trial="\n                ".join(trial), energy=at(energy, "n"),
                          distance=each("n{i} - x{i}", ", "), height=height("n"),
                          dense=stages(13, 15), advance=each("y{i} = n{i}; k0_{i} = k12_{i}"),
                          stages=", ".join(f"k{s}_{i}" for s in range(16) for i in range(d)))
    body = f"    [{each('y{i}', ', ')}] = y\n    [{each('m{i}', ', ')}] = normal\n"
    return _compile(("_steps(t, t_end, y, f, h_abs, rtol, atol, section=None, energy=None, "
                     "initial_energy=0.0)", source),
                    ("_height(y, normal, level)", f"{body}    return {height('y')}"))


def _initial_step(rhs, t, y, f, span, rtol, atol):
    """Hairer's starting step for an 8th-order pair: h0 from the sizes of y and f, checked
    against one Euler step."""
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
        h1 = (0.01 / max(d1, d2)) ** 0.125
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


def _extension(y_old, y_new, stages, h):
    """The step's 7th-order DOP853 / 8(5,3) continuous extension x -> y(t_old + x·h), x in
    [0, 1], from its 16·d stages (Hairer, Nørsett & Wanner, §II.6)."""
    d = len(y_old)
    F = []
    for i, (y, z) in enumerate(zip(y_old, y_new)):
        k, dy = stages[i::d], z - y
        F.append((dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0]),
                  *(h * sum(c * v for c, v in zip(row, k) if c) for row in _DENSE_ROWS)))

    def at(x):
        w = 1.0 - x
        return [y + x * (f0 + w * (f1 + x * (f2 + w * (f3 + x * (f4 + w * (f5 + x * f6))))))
                for y, (f0, f1, f2, f3, f4, f5, f6) in zip(y_old, F)]
    return at


class DenseSolution:
    """The DOP853 / 8(5,3) continuous extension of a list of accepted steps (t_old, t_new,
    y_old, y_new, stages, drift), at a scalar time.  A time on a step boundary uses the step that ends
    there; a time outside [t_old of the first, t_new of the last] extrapolates the nearest
    step."""

    def __init__(self, steps):
        self.ends, self.steps = [step[1] for step in steps], steps

    def at(self, t):
        """The state at t as a list of floats."""
        t_old, t_new, y_old, y_new, stages, _ = self.steps[min(bisect_left(self.ends, t),
                                                               len(self.steps) - 1)]
        return _extension(y_old, y_new, stages, t_new - t_old)((t - t_old) / (t_new - t_old))


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
    """Integrate the flow with the adaptive DOP853 / 8(5,3) pair.

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
            t_old, t_new, y_old, y_new, stages, drift = step
            time, state = _section_crossing(_extension(y_old, y_new, stages, t_new - t_old),
                                            t_old, t_new, height)
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
            try:  # the derived field raises where H's slope is not finite
                slope = sum(p * d for p, d in zip(system.gradient(point), direction))
            except (ZeroDivisionError, OverflowError):
                break
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
