"""Exterior calculus on a chart: differential forms, vector fields,
(1,1)-tensor fields, and the structural checks built from them.

Coefficients are exact rational functions, so every identity here
(d² = 0, Cartan's formula, bracket relations, Hamiltonian-description
residuals) is decided exactly, not numerically.  A nonzero Pfaffian of a 2-form's
coefficient matrix W at one seeded sample point proves it nondegenerate; only when
every sample vanishes is the Pfaffian of D·W expanded symbolically, with D the
product of W's denominators.  Sample points are drawn in batches, and every probe
is evaluated at a whole batch by ``expr.evaluate_points``, one exact integer pass
over each polynomial's terms.

Every contraction (X(f), T(X), S∘T, d_T f, i_T a, Σ νʲXⱼ) is one ``_dot``: the
products of the nonzero pairs, added left to right.  Quotients are never
reduced, so that order fixes the printed coefficients.  L_X T is X(T) − J∘T + T∘J
with J the Jacobian of X, built once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Sequence

from . import _linalg
from .errors import ChartMismatchError, DimensionError, PoleError
from .expr import Chart, Polynomial, RationalFunction, evaluate_points, require_same_chart

#: Sample points per pointwise probe, drawn from the grid (1/8)Z in
#: [-SAMPLE_BOUND, SAMPLE_BOUND] on every coordinate.
SAMPLE_COUNT = 8
SAMPLE_BOUND = 10
# The grid's points, built once: a draw of k picks the shared Fraction k/8.
_GRID = tuple(Fraction(k, 8) for k in range(-8 * SAMPLE_BOUND, 8 * SAMPLE_BOUND + 1))


class VectorField:
    """A vector field: one rational-function component per coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components: Sequence[RationalFunction]):
        components = tuple(_as_rf(chart, c) for c in components)
        if len(components) != chart.dimension:
            raise ValueError("component count does not match chart dimension")
        self.chart = chart
        self.components = components

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, [chart.zero()] * chart.dimension)

    @classmethod
    def coordinate_field(cls, chart: Chart, name: str) -> "VectorField":
        """The basis field along one coordinate (d/d<name>)."""
        comps = [chart.zero()] * chart.dimension
        comps[chart.coordinate_axis(name)] = chart.one()
        return cls(chart, comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        require_same_chart(self, other)
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        require_same_chart(self, other)
        return VectorField(self.chart, [a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-a for a in self.components])

    def __rmul__(self, scalar) -> "VectorField":
        return VectorField(self.chart, [scalar * a for a in self.components])

    def apply(self, f: RationalFunction) -> RationalFunction:
        """Directional derivative X(f) = sum_i X^i df/dx_i."""
        return _dot(self.chart, ((c, f.derivative(i))
                                 for i, c in enumerate(self.components) if not c.is_zero))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other):
        return (isinstance(other, VectorField) and self.chart == other.chart
                and self.components == other.components)

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.components) + "]"

    def __repr__(self):
        return f"VectorField({self})"


class DifferentialForm:
    """Antisymmetric k-form: strictly increasing index tuples -> coefficient."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs=None):
        if not 0 <= degree <= chart.dimension:
            raise ValueError(f"degree {degree} out of range for dimension {chart.dimension}")
        clean = {}
        for idx, coeff in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length for a {degree}-form")
            if any(not 0 <= i < chart.dimension for i in idx):
                raise ValueError(f"index out of chart range in {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            coeff = _as_rf(chart, coeff)
            if not coeff.is_zero:
                clean[idx] = coeff
        self.chart = chart
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "DifferentialForm":
        return cls(chart, degree)

    @classmethod
    def from_function(cls, f: RationalFunction) -> "DifferentialForm":
        return cls(f.chart, 0, {(): f})

    @classmethod
    def from_terms(cls, chart: Chart, degree: int, terms) -> "DifferentialForm":
        """Build from possibly unsorted/repeated index tuples, resolving signs."""
        acc = {}
        for idx, coeff in terms:
            sorted_idx, sign = _sort_with_sign(idx)
            if sign == 0:
                continue
            coeff = _as_rf(chart, coeff)
            if sign < 0:
                coeff = -coeff
            prev = acc.get(sorted_idx)
            acc[sorted_idx] = coeff if prev is None else prev + coeff
        return cls(chart, degree, acc)

    def coefficient(self, idx) -> RationalFunction:
        """Coefficient at an arbitrary index tuple, with antisymmetry sign."""
        sorted_idx, sign = _sort_with_sign(tuple(idx))
        if sign == 0:
            return self.chart.zero()
        coeff = self.coeffs.get(sorted_idx)
        if coeff is None:
            return self.chart.zero()
        return coeff if sign > 0 else -coeff

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        require_same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        coeffs = dict(self.coeffs)
        for idx, coeff in other.coeffs.items():
            prev = coeffs.get(idx)
            coeffs[idx] = coeff if prev is None else prev + coeff
        return DifferentialForm(self.chart, self.degree, coeffs)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.chart, self.degree, {i: -c for i, c in self.coeffs.items()}
        )

    def __rmul__(self, scalar) -> "DifferentialForm":
        return DifferentialForm(
            self.chart, self.degree, {i: scalar * c for i, c in self.coeffs.items()}
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.coeffs.keys() == other.coeffs.keys()
            and all(c == other.coeffs[idx] for idx, c in self.coeffs.items())
        )

    def __str__(self):
        names = self.chart.names
        if self.is_zero:
            return f"{self.degree}-form: 0"
        pieces = []
        for idx in sorted(self.coeffs):
            basis = "^".join(f"d{names[i]}" for i in idx) if idx else ""
            coeff = f"({self.coeffs[idx]})"
            pieces.append(f"{coeff} {basis}".strip())
        return f"{self.degree}-form: " + " + ".join(pieces)

    def __repr__(self):
        return f"DifferentialForm({self})"


class Tensor11:
    """A (1,1)-tensor field: square matrix of components, output index first."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components):
        rows = tuple(tuple(_as_rf(chart, x) for x in row) for row in components)
        n = chart.dimension
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("tensor component matrix must be dim x dim")
        self.chart = chart
        self.components = rows

    @classmethod
    def identity(cls, chart: Chart) -> "Tensor11":
        one, zero = chart.one(), chart.zero()
        n = chart.dimension
        return cls(chart, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, chart: Chart) -> "Tensor11":
        zero = chart.zero()
        n = chart.dimension
        return cls(chart, [[zero] * n for _ in range(n)])

    def apply(self, X: VectorField) -> VectorField:
        require_same_chart(self, X)
        return VectorField(self.chart, [_dot(self.chart, zip(row, X.components))
                                        for row in self.components])

    def compose(self, other: "Tensor11") -> "Tensor11":
        require_same_chart(self, other)
        columns = list(zip(*other.components))
        return Tensor11(self.chart, [[_dot(self.chart, zip(row, column)) for column in columns]
                                     for row in self.components])

    def __add__(self, other: "Tensor11") -> "Tensor11":
        require_same_chart(self, other)
        return Tensor11(
            self.chart,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.components, other.components)],
        )

    def __sub__(self, other: "Tensor11") -> "Tensor11":
        return self + (-other)

    def __neg__(self) -> "Tensor11":
        return Tensor11(self.chart, [[-a for a in row] for row in self.components])

    def __rmul__(self, scalar) -> "Tensor11":
        return Tensor11(self.chart, [[scalar * a for a in row] for row in self.components])

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.components for e in row)

    @property
    def is_constant(self) -> bool:
        return all(e.is_constant for row in self.components for e in row)

    def __eq__(self, other):
        return (isinstance(other, Tensor11) and self.chart == other.chart
                and self.components == other.components)

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.components
        ) + "]"

    def __repr__(self):
        return f"Tensor11({self})"


def _as_rf(chart: Chart, value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        if value.chart != chart:
            raise ChartMismatchError("coefficient lives on a different chart")
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_scalar(chart, value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _dot(chart: Chart, pairs) -> RationalFunction:
    """Σ a·b over the pairs whose factors are both nonzero, added left to right
    from zero.  Quotients are never reduced, so this order fixes the printed
    form of every contraction built on it."""
    total = chart.zero()
    for a, b in pairs:
        if not a.is_zero and not b.is_zero:
            total = total + a * b
    return total


def _sort_with_sign(idx):
    """Sort an index tuple; returns (sorted tuple, sign) with sign 0 on repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Graded-antisymmetric product a ∧ b."""
    require_same_chart(a, b)
    degree = a.degree + b.degree
    if degree > a.chart.dimension:
        return DifferentialForm.zero(a.chart, a.chart.dimension)
    terms = []
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            terms.append((ia + ib, ca * cb))
    return DifferentialForm.from_terms(a.chart, degree, terms)


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """The exterior derivative; satisfies d(d(a)) = 0 exactly.

    The derivative of a top-degree form is represented as the zero form
    of top degree (degrees never exceed the chart dimension).
    """
    chart = a.chart
    if a.degree >= chart.dimension:
        return DifferentialForm.zero(chart, chart.dimension)
    terms = []
    for idx, coeff in a.coeffs.items():
        for axis in range(chart.dimension):
            if axis in idx:
                continue
            d_coeff = coeff.derivative(axis)
            if d_coeff.is_zero:
                continue
            terms.append(((axis,) + idx, d_coeff))
    return DifferentialForm.from_terms(chart, a.degree + 1, terms)


def differential(f: RationalFunction) -> DifferentialForm:
    """df as a 1-form."""
    return exterior_derivative(DifferentialForm.from_function(f))


def interior_product(X: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Contraction i_X a; the zero form of degree 0 when a is a function."""
    require_same_chart(X, a)
    if a.degree == 0:
        return DifferentialForm.zero(a.chart, 0)
    coeffs = {}
    for idx, coeff in a.coeffs.items():
        for s, axis in enumerate(idx):
            comp = X.components[axis]
            if comp.is_zero:
                continue
            target = idx[:s] + idx[s + 1:]
            term = comp * coeff if s % 2 == 0 else -(comp * coeff)
            prev = coeffs.get(target)
            coeffs[target] = term if prev is None else prev + term
    return DifferentialForm(a.chart, a.degree - 1, coeffs)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y]; antisymmetric, satisfies the Jacobi identity."""
    require_same_chart(X, Y)
    return VectorField(X.chart, [X.apply(y) - Y.apply(x)
                                 for x, y in zip(X.components, Y.components)])


def lie_derivative(X: VectorField, target):
    """Lie derivative along X of a function, form, vector field, or tensor.

    Forms use Cartan's formula i_X d + d i_X; vector fields reduce to
    the bracket; (1,1)-tensors use L_X T = X(T) − J∘T + T∘J with J the
    Jacobian of X, so L_X(T(Y)) = (L_X T)(Y) + T(L_X Y) holds exactly.
    """
    if isinstance(target, RationalFunction):
        return X.apply(target)
    if isinstance(target, DifferentialForm):
        require_same_chart(X, target)
        if target.degree == 0:
            f = target.coefficient(())
            return DifferentialForm.from_function(X.apply(f))
        return interior_product(X, exterior_derivative(target)) + exterior_derivative(
            interior_product(X, target)
        )
    if isinstance(target, VectorField):
        return lie_bracket(X, target)
    if isinstance(target, Tensor11):
        require_same_chart(X, target)
        n = X.chart.dimension
        J = Tensor11(X.chart, [[c.derivative(k) for k in range(n)] for c in X.components])
        XT = Tensor11(X.chart, [[X.apply(e) for e in row] for row in target.components])
        return XT - J.compose(target) + target.compose(J)
    raise TypeError(f"cannot take a Lie derivative of {type(target).__name__}")


def twisted_differential(T: Tensor11, f: RationalFunction) -> DifferentialForm:
    """The 1-form sending X to df(T(X)); components sum_j (df/dx_j) T^j_i."""
    require_same_chart(T, DifferentialForm.from_function(f))
    chart = T.chart
    partials = [f.derivative(j) for j in range(chart.dimension)]
    columns = zip(*T.components)
    return DifferentialForm(chart, 1, {(i,): _dot(chart, zip(partials, column))
                                       for i, column in enumerate(columns)})


def tensor_insertion(T: Tensor11, a: DifferentialForm) -> DifferentialForm:
    """Degree-preserving derivation: insert T into one argument slot at a time."""
    require_same_chart(T, a)
    chart = a.chart
    if a.degree == 0:
        return DifferentialForm.zero(chart, 0)
    coeffs = {}
    for idx in combinations(range(chart.dimension), a.degree):
        coeffs[idx] = _dot(chart, ((row[i], a.coefficient(idx[:s] + (m,) + idx[s + 1:]))
                                   for s, i in enumerate(idx)
                                   for m, row in enumerate(T.components) if not row[i].is_zero))
    return DifferentialForm(chart, a.degree, coeffs)


def twisted_exterior_derivative(T: Tensor11, a: DifferentialForm) -> DifferentialForm:
    """d_T = i_T ∘ d − d ∘ i_T; on functions this is the twisted differential."""
    return tensor_insertion(T, exterior_derivative(a)) - exterior_derivative(
        tensor_insertion(T, a)
    )


def twisted_two_form(T: Tensor11, F: RationalFunction) -> DifferentialForm:
    """The closed 2-form d(d_T F); closed by construction (d² = 0)."""
    return exterior_derivative(twisted_differential(T, F))


# ---------------------------------------------------------------------------
# Determinants and sampling helpers
# ---------------------------------------------------------------------------

def two_form_matrix(a: DifferentialForm):
    """Antisymmetric coefficient matrix W with W[i][j] = a(e_i, e_j)."""
    if a.degree != 2:
        raise ValueError("expected a 2-form")
    n = a.chart.dimension
    return [[a.coefficient((i, j)) for j in range(n)] for i in range(n)]


def symbolic_determinant(form: DifferentialForm) -> Polynomial:
    """Pf(D·W) for a 2-form's coefficient matrix W; it vanishes iff det W does.

    D, the product of the coefficients' distinct non-constant denominators,
    makes D·W a matrix of polynomials, and det(D·W) = Dⁿ det W = Pf(D·W)²
    (Cayley 1849).  The Pfaffian is ``_linalg.pfaffian`` over ``Polynomial``,
    from the coefficients above the diagonal alone.
    """
    if form.degree != 2:
        raise ValueError("expected a 2-form")
    chart, n = form.chart, form.chart.dimension
    one, zero = Polynomial.constant(chart, 1), Polynomial.constant(chart, 0)
    dens = []
    for coeff in form.coeffs.values():
        if not coeff.den.is_constant and coeff.den not in dens:
            dens.append(coeff.den)
    rows = [[zero] * n for _ in range(n)]
    for (i, j), coeff in form.coeffs.items():
        rows[i][j] = reduce(mul, (d for d in dens if d != coeff.den), coeff.num)
    return _linalg.pfaffian(rows, zero, one)


def sample_points(chart: Chart, probes, seed=42, constants=None):
    """(points, values): SAMPLE_COUNT seeded rational points where no probe
    has a pole, and values[k][i] = probes[i] at points[k], for reuse.

    The points still needed are drawn as one batch and every probe is
    evaluated at the whole batch; the pole-free ones are kept in draw order.
    """
    rng = random.Random(seed)
    points, values = [], []
    attempts = 0
    while len(points) < SAMPLE_COUNT:
        if attempts == 200 * SAMPLE_COUNT:
            raise PoleError("could not find enough pole-free sample points")
        batch = [[_GRID[8 * SAMPLE_BOUND + rng.randint(-8 * SAMPLE_BOUND, 8 * SAMPLE_BOUND)]
                  for _ in range(chart.dimension)]
                 for _ in range(min(SAMPLE_COUNT - len(points), 200 * SAMPLE_COUNT - attempts))]
        attempts += len(batch)
        for point, row in zip(batch, evaluate_points(chart, probes, batch, constants)):
            if row is not None:
                points.append(point)
                values.append(row)
    return points, values


def _nondegenerate(form: DifferentialForm, seed, constants=None) -> tuple:
    """(det W ≢ 0, the sample points where det W = 0) for a 2-form's matrix W.

    One nonzero det W(p), from the sampler's values, proves det W ≢ 0
    (Schwartz 1980, Zippel 1979, used one-sidedly); W is antisymmetric,
    so det W(p) = Pf(W(p))² and only the Pfaffian is taken.  Only when
    every sample vanishes does ``symbolic_determinant`` decide, by the same
    expansion over polynomials: the Pfaffian of D·W, with D the product of
    W's denominators.  A coefficient using a declared constant missing from
    ``constants`` has no value to sample with: then the exact expansion
    decides alone and no point is reported.
    """
    n = form.chart.dimension
    keys = list(form.coeffs)
    try:
        points, values = sample_points(form.chart, [form.coeffs[k] for k in keys],
                                       seed=seed, constants=constants)
    except ValueError:
        points, values = [], []
    degenerate = []
    for point, row in zip(points, values):
        W = [[0] * n for _ in range(n)]
        for (i, j), value in zip(keys, row):
            W[i][j] = value
        if _linalg.pfaffian(_linalg.integer_matrix(W)[0]) == 0:
            degenerate.append(point)
    if len(degenerate) == len(points) and symbolic_determinant(form).is_zero:
        return False, []
    return True, degenerate


# ---------------------------------------------------------------------------
# Structural reports
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianDescriptionReport:
    """Outcome of checking i_Γω = dH together with dω = 0."""

    holds: bool
    closed: bool
    matches: bool
    nondegenerate: bool
    residual: DifferentialForm
    degenerate_samples: list

    def to_dict(self):
        return {
            "holds": self.holds,
            "closed": self.closed,
            "matches": self.matches,
            "nondegenerate": self.nondegenerate,
            "residual": str(self.residual),
            "degenerate_samples": [[str(x) for x in p] for p in self.degenerate_samples],
        }


def is_hamiltonian_description(
    gamma: VectorField,
    omega: DifferentialForm,
    hamiltonian: RationalFunction,
    sample_seed: int = 42,
    constants=None,
) -> HamiltonianDescriptionReport:
    """Check whether (ω, H) is a Hamiltonian description of the field.

    ``holds`` requires the contraction identity i_Γω = dH *and* dω = 0,
    both exactly.  Nondegeneracy, det W ≢ 0, is proved by one sample point
    with det W ≠ 0, or else decided symbolically (see ``_nondegenerate``);
    ``degenerate_samples`` lists the samples where det W = 0 (none if ≡ 0).
    """
    require_same_chart(gamma, omega)
    if omega.degree != 2:
        raise ValueError("a Hamiltonian description needs a 2-form")
    if gamma.chart.dimension % 2 != 0:
        raise DimensionError("Hamiltonian descriptions need an even-dimensional chart")
    residual = interior_product(gamma, omega) - differential(hamiltonian)
    matches = residual.is_zero
    closed = exterior_derivative(omega).is_zero
    nondegenerate, degenerate_samples = _nondegenerate(omega, sample_seed, constants)
    return HamiltonianDescriptionReport(
        holds=matches and closed,
        closed=closed,
        matches=matches,
        nondegenerate=nondegenerate,
        residual=residual,
        degenerate_samples=degenerate_samples,
    )


@dataclass
class NormalFormReport:
    """Condition-by-condition result of the commuting-fields normal form test."""

    integrals_independent: bool
    integral_rank_full_at_samples: bool
    fields_commute: bool
    fields_independent_at_samples: bool
    fields_preserve_integrals: bool
    coefficients_match: bool | None
    solved_coefficients: list
    completeness_assumed: bool = True

    @property
    def passed(self) -> bool:
        conditions = [
            self.integrals_independent,
            self.integral_rank_full_at_samples,
            self.fields_commute,
            self.fields_independent_at_samples,
            self.fields_preserve_integrals,
        ]
        if self.coefficients_match is not None:
            conditions.append(self.coefficients_match)
        return all(conditions)

    def to_dict(self):
        return {
            "passed": self.passed,
            "integrals_independent": self.integrals_independent,
            "integral_rank_full_at_samples": self.integral_rank_full_at_samples,
            "fields_commute": self.fields_commute,
            "fields_independent_at_samples": self.fields_independent_at_samples,
            "fields_preserve_integrals": self.fields_preserve_integrals,
            "coefficients_match": self.coefficients_match,
            "solved_coefficients": [
                {"point": [str(x) for x in pt], "solved": ok, "values": [str(v) for v in vals]}
                for pt, ok, vals in self.solved_coefficients
            ],
            "completeness_assumed": self.completeness_assumed,
        }


def check_normal_form(
    gamma: VectorField,
    integrals: Sequence[RationalFunction],
    fields: Sequence[VectorField],
    nu: Sequence[RationalFunction] | None = None,
    sample_seed: int = 42,
    constants=None,
) -> NormalFormReport:
    """Verify the commuting-fields normal form of an integrable field.

    Three conditions are checked: (i) the integrals are independent
    (df₁∧⋯∧dfₙ ≠ 0 symbolically, full Jacobian rank at sample points),
    (ii) the fields pairwise commute exactly and are pointwise
    independent at sample points, (iii) every field preserves every
    integral exactly.  If coefficient functions ``nu`` are supplied the
    decomposition Γ = Σ νʲ Xⱼ is verified exactly; otherwise the
    coefficients are solved for pointwise and reported.

    Completeness of the fields is a global analytic property with no
    finite certificate; reports carry ``completeness_assumed``.
    """
    chart = gamma.chart
    n = len(integrals)
    if n == 0 or len(fields) != n:
        raise ValueError("need matching, non-empty integral and field lists")
    for f in fields:
        require_same_chart(gamma, f)

    # (i) independence of the integrals
    independence_form = differential(integrals[0])
    for f in integrals[1:]:
        independence_form = wedge(independence_form, differential(f))
    integrals_independent = not independence_form.is_zero

    probes = list(integrals) + [c for X in fields for c in X.components] + list(gamma.components)
    points, values = sample_points(chart, probes, seed=sample_seed, constants=constants)
    field_values = [[row[n + k * chart.dimension:n + (k + 1) * chart.dimension]
                     for k in range(n)] for row in values]  # per point: one row per field

    # a gradient's denominator is the square of its integral's, so it has no pole at the points
    gradients = [f.derivative(j) for f in integrals for j in range(chart.dimension)]
    integral_rank_full = all(
        _linalg.rank([row[k * chart.dimension:(k + 1) * chart.dimension] for k in range(n)]) == n
        for row in evaluate_points(chart, gradients, points, constants)
    )

    # (ii) commuting, pointwise-independent fields
    fields_commute = all(
        lie_bracket(fields[i], fields[j]).is_zero for i in range(n) for j in range(i + 1, n)
    )
    fields_independent = all(_linalg.rank(rows) == n for rows in field_values)

    # (iii) invariance of the integrals
    fields_preserve = all(X.apply(f).is_zero for X in fields for f in integrals)

    coefficients_match = None
    solved = []
    if nu is not None:
        if len(nu) != n:
            raise ValueError("need one coefficient function per field")
        combo = VectorField(chart, [_dot(chart, zip(nu, column))
                                    for column in zip(*(X.components for X in fields))])
        coefficients_match = (gamma - combo).is_zero
    else:
        for point, row, columns in zip(points, values, field_values):
            matrix = [[columns[j][i] for j in range(n)] for i in range(chart.dimension)]
            rhs = row[n + n * chart.dimension:]
            solution = _linalg.solve(matrix, rhs)
            solved.append((point, solution is not None, solution or []))

    return NormalFormReport(
        integrals_independent=integrals_independent,
        integral_rank_full_at_samples=integral_rank_full,
        fields_commute=fields_commute,
        fields_independent_at_samples=fields_independent,
        fields_preserve_integrals=fields_preserve,
        coefficients_match=coefficients_match,
        solved_coefficients=solved,
    )


@dataclass
class StructureReport:
    """Result of validating a tangent/cotangent/linear structure."""

    kind: str
    checks: dict
    valid: bool

    def to_dict(self):
        checks = {}
        for name, value in self.checks.items():
            checks[name] = "unknown" if value is None else value
        return {"kind": self.kind, "valid": self.valid, "checks": checks}


def validate_tangent_structure(S: Tensor11, delta: VectorField) -> StructureReport:
    """Tangent-bundle structure checks for a candidate soldering tensor.

    Checks S∘S = 0, S(Δ) = 0, rank S = dim/2 (constant components only;
    otherwise reported as unknown), and that the twisted differential of
    every coordinate is d_S-closed (d_S² = 0 on generators).
    """
    require_same_chart(S, delta)
    chart = S.chart
    checks = {}
    checks["s_squared_zero"] = S.compose(S).is_zero
    checks["s_kills_delta"] = S.apply(delta).is_zero
    if S.is_constant:
        rows = [[e.constant_value() for e in row] for row in S.components]
        checks["rank_is_half_dimension"] = (
            chart.dimension % 2 == 0 and _linalg.rank(rows) == chart.dimension // 2
        )
    else:
        checks["rank_is_half_dimension"] = None  # unknown: rank may jump pointwise
    twisted_ok = True
    for name in chart.names:
        first = twisted_differential(S, chart.coordinate(name))
        if not twisted_exterior_derivative(S, first).is_zero:
            twisted_ok = False
            break
    checks["twisted_differential_squares_to_zero"] = twisted_ok
    valid = all(v for v in checks.values() if v is not None)
    return StructureReport(kind="tangent", checks=checks, valid=valid)


def validate_cotangent_structure(theta: DifferentialForm, delta: VectorField,
                                 sample_seed=42, constants=None) -> StructureReport:
    """Cotangent-bundle structure checks for a candidate Liouville 1-form."""
    require_same_chart(theta, delta)
    if theta.degree != 1:
        raise ValueError("the structure one-form must have degree 1")
    dtheta = exterior_derivative(theta)
    checks = {
        "contraction_reproduces_form": interior_product(delta, dtheta) == theta,
        "derivative_nondegenerate": _nondegenerate(dtheta, sample_seed, constants)[0],
    }
    return StructureReport(kind="cotangent", checks=checks, valid=all(checks.values()))


def validate_linear_structure(delta: VectorField, sample_seed=42,
                              constants=None) -> StructureReport:
    """Dilation-field checks for a (partial) linear structure.

    Classifies each coordinate as invariant (L_Δ x = 0) or linear
    (L_Δ x = x); a valid structure has no coordinate outside these two
    classes and at least one linear coordinate.  The zero locus of Δ is
    only probed at sample points, never computed.
    """
    chart = delta.chart
    linear, invariant, other = [], [], []
    for name in chart.names:
        x = chart.coordinate(name)
        image = delta.apply(x)
        if image.is_zero:
            invariant.append(name)
        elif image == x:
            linear.append(name)
        else:
            other.append(name)
    points, values = sample_points(chart, list(delta.components), seed=sample_seed,
                                   constants=constants)
    zero_samples = [pt for pt, row in zip(points, values) if not any(row)]
    checks = {
        "linear_coordinates": linear,
        "invariant_coordinates": invariant,
        "non_eigen_coordinates": other,
        "vanishes_at_sampled_points": [[str(x) for x in pt] for pt in zero_samples],
        "eigenvalue_conditions_hold": not other and bool(linear),
    }
    return StructureReport(
        kind="linear", checks=checks, valid=checks["eigenvalue_conditions_hold"]
    )


def validate_structures(kind: str, sample_seed: int = 42, constants=None,
                        **objects) -> StructureReport:
    """Dispatch to one of the structure validators by kind name; the
    sampling validators (cotangent, linear) take the seed and constants."""
    if kind == "tangent":
        return validate_tangent_structure(objects["tensor"], objects["delta"])
    if kind == "cotangent":
        return validate_cotangent_structure(objects["one_form"], objects["delta"],
                                            sample_seed, constants)
    if kind == "linear":
        return validate_linear_structure(objects["delta"], sample_seed, constants)
    raise ValueError(f"unknown structure kind {kind!r}")
