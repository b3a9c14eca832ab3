import collections
import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from geoham import catalog, geom
from geoham.expr import Chart, Polynomial, RationalFunction, parse_expression
from geoham.geom import (
    DifferentialForm,
    Tensor11,
    VectorField,
    check_normal_form,
    differential,
    exterior_derivative,
    interior_product,
    is_hamiltonian_description,
    lie_bracket,
    lie_derivative,
    sample_points,
    symbolic_determinant,
    tensor_insertion,
    twisted_differential,
    twisted_exterior_derivative,
    twisted_two_form,
    two_form_matrix,
    validate_cotangent_structure,
    validate_linear_structure,
    validate_structures,
    validate_tangent_structure,
    wedge,
)

R4 = Chart(["q1", "q2", "p1", "p2"])
OSC = catalog.oscillator_r4()


def rf(text, chart=R4):
    return parse_expression(text, chart)


def random_polynomial_rf(rng, chart, max_degree=2, max_terms=3):
    terms = {}
    nvars = len(chart.variables)
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(chart.dimension)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5))
    return RationalFunction(Polynomial(chart, terms))


def random_form(rng, chart, degree):
    coeffs = {}
    for idx in itertools.combinations(range(chart.dimension), degree):
        if rng.random() < 0.6:
            coeffs[idx] = random_polynomial_rf(rng, chart)
    return DifferentialForm(chart, degree, coeffs)


def random_field(rng, chart):
    return VectorField(chart, [random_polynomial_rf(rng, chart) for _ in chart.names])


def random_tensor(rng, chart):
    return Tensor11(
        chart,
        [[random_polynomial_rf(rng, chart, max_degree=1) for _ in chart.names] for _ in chart.names],
    )


def brute_wedge_of_one_forms(a, b):
    """Independent oracle: antisymmetrized bilinear expansion of a ∧ b."""
    chart = a.chart
    coeffs = {}
    for i in range(chart.dimension):
        for j in range(i + 1, chart.dimension):
            value = a.coefficient((i,)) * b.coefficient((j,)) - a.coefficient((j,)) * b.coefficient((i,))
            coeffs[(i, j)] = value
    return DifferentialForm(chart, 2, coeffs)


# -- wedge --------------------------------------------------------------------

def test_wedge_basics():
    dq1 = differential(rf("q1"))
    dp1 = differential(rf("p1"))
    assert wedge(dq1, dq1).is_zero
    assert wedge(dq1, dp1) == -wedge(dp1, dq1)


def test_wedge_golden_energy_times_mixing():
    # d(p1^2+p2^2+q1^2+q2^2) ∧ d(p1*p2+q1*q2), expanded by the brute oracle
    du = differential(rf("p1^2 + p2^2 + q1^2 + q2^2"))
    ds = differential(rf("p1*p2 + q1*q2"))
    assert wedge(du, ds) == brute_wedge_of_one_forms(du, ds)
    # spot-check two frozen coefficients (indices: q1=0,q2=1,p1=2,p2=3)
    w = wedge(du, ds)
    assert w.coefficient((0, 1)) == rf("2*q1^2 - 2*q2^2")
    assert w.coefficient((2, 3)) == rf("2*p1^2 - 2*p2^2")


def test_wedge_graded_commutativity_random():
    rng = random.Random(2001)
    for _ in range(100):
        da = rng.randint(0, 2)
        db = rng.randint(0, 2)
        a = random_form(rng, R4, da)
        b = random_form(rng, R4, db)
        sign = (-1) ** (da * db)
        assert wedge(a, b) == sign * wedge(b, a)


def test_wedge_degree_overflow_is_zero():
    chart = Chart(["x", "y"])
    rng = random.Random(5)
    a = random_form(rng, chart, 2)
    b = random_form(rng, chart, 1)
    assert wedge(a, b).is_zero


# -- exterior derivative ---------------------------------------------------------

def test_exterior_derivative_of_energy():
    h = rf("1/2*(p1^2 + q1^2)")
    dh = differential(h)
    assert dh.coefficient((2,)) == rf("p1")
    assert dh.coefficient((0,)) == rf("q1")
    assert dh.coefficient((1,)).is_zero


def test_angle_form_is_closed():
    chart = Chart(["q", "p"])
    u = "(p^2+q^2)"
    angle = DifferentialForm(chart, 1, {
        (0,): parse_expression(f"p/{u}", chart),
        (1,): parse_expression(f"-q/{u}", chart),
    })
    assert exterior_derivative(angle).is_zero


def test_d_squared_zero_on_random_polynomials():
    rng = random.Random(2002)
    for _ in range(20):
        f = random_polynomial_rf(rng, R4, max_degree=3)
        assert exterior_derivative(differential(f)).is_zero


def test_d_squared_zero_on_random_forms_every_degree():
    rng = random.Random(2003)
    for degree in range(0, 4):
        for _ in range(15):
            a = random_form(rng, R4, degree)
            assert exterior_derivative(exterior_derivative(a)).is_zero


def test_top_degree_derivative_is_zero_form_of_top_degree():
    rng = random.Random(2004)
    a = random_form(rng, R4, 4)
    da = exterior_derivative(a)
    assert da.degree == 4 and da.is_zero


# -- interior product --------------------------------------------------------------

def test_interior_product_golden_oscillator():
    report_form = interior_product(OSC.gamma, OSC.omega_primary)
    assert report_form == differential(OSC.h_primary)


def test_interior_product_time_form_gives_one():
    contraction = interior_product(OSC.gamma, OSC.time_form)
    assert contraction.degree == 0
    assert contraction.coefficient(()) == OSC.chart.one()


def test_interior_product_on_differential_equals_directional_derivative():
    rng = random.Random(2005)
    for _ in range(30):
        X = random_field(rng, R4)
        f = random_polynomial_rf(rng, R4)
        assert interior_product(X, differential(f)).coefficient(()) == X.apply(f)


def test_interior_product_squares_to_zero():
    rng = random.Random(2006)
    for _ in range(40):
        X = random_field(rng, R4)
        a = random_form(rng, R4, rng.randint(2, 4))
        assert interior_product(X, interior_product(X, a)).is_zero


# -- Lie derivative ------------------------------------------------------------------

def test_lie_derivative_invariant_tensor_golden():
    assert lie_derivative(OSC.gamma, OSC.swap_tensor).is_zero


def test_lie_derivative_dilation_eigenfunction():
    chart = Chart(["q", "v"])
    delta = VectorField(chart, [chart.zero(), chart.coordinate("v")])
    v = chart.coordinate("v")
    assert lie_derivative(delta, v) == v


def test_lie_derivative_along_zero_field():
    rng = random.Random(2007)
    f = random_polynomial_rf(rng, R4)
    assert lie_derivative(VectorField.zero(R4), f).is_zero


def leibniz_lie_of_form(X, a):
    """Oracle: (L_X a)_I = X(a_I) + sum_s sum_m (d X^m / d x_{I_s}) a(I|s->m)."""
    chart = a.chart
    coeffs = {}
    for idx in itertools.combinations(range(chart.dimension), a.degree):
        total = X.apply(a.coefficient(idx))
        for s in range(a.degree):
            for m in range(chart.dimension):
                partial = X.components[m].derivative(idx[s])
                if not partial.is_zero:
                    total = total + partial * a.coefficient(idx[:s] + (m,) + idx[s + 1:])
        coeffs[idx] = total
    return DifferentialForm(chart, a.degree, coeffs)


def test_cartan_formula_matches_leibniz_expansion_random():
    rng = random.Random(2008)
    for _ in range(40):
        X = random_field(rng, R4)
        a = random_form(rng, R4, rng.randint(1, 3))
        assert lie_derivative(X, a) == leibniz_lie_of_form(X, a)


def test_tensor_lie_derivative_leibniz_compatibility_random():
    rng = random.Random(2009)
    chart = Chart(["x", "y", "z"])
    for _ in range(25):
        X = random_field(rng, chart)
        Y = random_field(rng, chart)
        T = random_tensor(rng, chart)
        lhs = lie_bracket(X, T.apply(Y))
        rhs = lie_derivative(X, T).apply(Y) + T.apply(lie_bracket(X, Y))
        assert lhs == rhs


# -- brackets -------------------------------------------------------------------------

def test_bracket_basics():
    e1 = VectorField.coordinate_field(R4, "q1")
    e2 = VectorField.coordinate_field(R4, "q2")
    assert lie_bracket(e1, e2).is_zero
    scaled = VectorField(R4, [rf("q1"), rf("0"), rf("0"), rf("0")])
    assert lie_bracket(scaled, e1) == -e1


def test_bracket_self_and_antisymmetry_random():
    rng = random.Random(2010)
    for _ in range(30):
        X = random_field(rng, R4)
        Y = random_field(rng, R4)
        assert lie_bracket(X, X).is_zero
        assert lie_bracket(X, Y) == -lie_bracket(Y, X)


def test_bracket_jacobi_identity_random():
    rng = random.Random(2011)
    chart = Chart(["x", "y", "z"])
    for _ in range(25):
        X = random_field(rng, chart)
        Y = random_field(rng, chart)
        Z = random_field(rng, chart)
        total = (
            lie_bracket(X, lie_bracket(Y, Z))
            + lie_bracket(Y, lie_bracket(Z, X))
            + lie_bracket(Z, lie_bracket(X, Y))
        )
        assert total.is_zero


# -- twisted differential ----------------------------------------------------------------

def test_twisted_differential_identity_and_zero():
    rng = random.Random(2012)
    f = random_polynomial_rf(rng, R4)
    assert twisted_differential(Tensor11.identity(R4), f) == differential(f)
    assert twisted_differential(Tensor11.zero(R4), f).is_zero


def test_twisted_differential_golden():
    d_tf = twisted_differential(OSC.swap_tensor, OSC.quartic_invariant)
    u = rf("p1^2 + p2^2 + q1^2 + q2^2", OSC.chart)
    assert d_tf.coefficient((0,)) == u * rf("q2", OSC.chart)
    assert d_tf.coefficient((2,)) == u * rf("p2", OSC.chart)


def test_twisted_two_form_golden_factorization():
    # d(d_T F) for the swap tensor and quartic invariant equals d(u) ∧ d(s),
    # with u the squared radius and s the index-mixing quadratic.
    w = twisted_two_form(OSC.swap_tensor, OSC.quartic_invariant)
    du = differential(rf("p1^2 + p2^2 + q1^2 + q2^2", OSC.chart))
    ds = differential(rf("p1*p2 + q1*q2", OSC.chart))
    assert w == brute_wedge_of_one_forms(du, ds)
    assert exterior_derivative(w).is_zero


def test_twisted_two_form_identity_tensor_vanishes():
    rng = random.Random(2013)
    f = random_polynomial_rf(rng, R4, max_degree=3)
    assert twisted_two_form(Tensor11.identity(R4), f).is_zero


def test_twisted_two_form_closed_random():
    rng = random.Random(2014)
    for _ in range(25):
        T = random_tensor(rng, R4)
        F = random_polynomial_rf(rng, R4, max_degree=2)
        assert exterior_derivative(twisted_two_form(T, F)).is_zero


# -- Hamiltonian descriptions ---------------------------------------------------------------

def test_hamiltonian_description_golden_primary():
    report = is_hamiltonian_description(OSC.gamma, OSC.omega_primary, OSC.h_primary)
    assert report.holds and report.closed and report.nondegenerate
    assert report.residual.is_zero


def test_hamiltonian_description_golden_swapped():
    report = is_hamiltonian_description(OSC.gamma, OSC.omega_swapped, OSC.h_swapped)
    assert report.holds and report.closed and report.nondegenerate


def test_hamiltonian_description_perturbed_fails():
    perturbed = OSC.h_primary + parse_expression("q1", OSC.chart)
    report = is_hamiltonian_description(OSC.gamma, OSC.omega_primary, perturbed)
    assert not report.holds
    assert not report.residual.is_zero


def test_twisted_two_form_of_golden_data_is_degenerate():
    w = twisted_two_form(OSC.swap_tensor, OSC.quartic_invariant)
    assert symbolic_determinant(w).is_zero


# -- nondegeneracy: the sample-point certificate and the exact fallback ---------

SYMBOLS = sympy.symbols(R4.names)


def to_sympy(f):
    return sympy.sympify(str(f).replace("^", "**"), locals=dict(zip(R4.names, SYMBOLS)))


def polynomials_on(chart):
    n = chart.dimension
    return st.builds(lambda c, e, d: RationalFunction(Polynomial(chart, {e: c, (0,) * n: d})),
                     st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * n), st.integers(-2, 2))


def coefficients_on(chart):
    polynomials = polynomials_on(chart)
    return st.one_of(
        st.just(0), st.integers(-3, 3).map(Fraction), polynomials,
        st.builds(lambda a, b: a / (b * b + RationalFunction.from_scalar(chart, 1)),
                  polynomials, polynomials))


small_polynomials = polynomials_on(R4)
small_coefficients = coefficients_on(R4)


@st.composite
def two_forms(draw):
    """General 2-forms on R^4, and decomposable ones α∧β (det ≡ 0), β polynomial."""
    if draw(st.booleans()):
        pairs = itertools.combinations(range(4), 2)
        return DifferentialForm(R4, 2, {idx: draw(small_coefficients) for idx in pairs})
    alpha = {(i,): draw(small_coefficients) for i in range(4)}
    beta = {(i,): draw(st.one_of(st.integers(-3, 3), small_polynomials)) for i in range(4)}
    return wedge(DifferentialForm(R4, 1, alpha), DifferentialForm(R4, 1, beta))


def describe(form):
    return is_hamiltonian_description(VectorField.zero(R4), form, R4.zero())


@settings(max_examples=30)
@given(two_forms())
def test_nondegeneracy_matches_the_sympy_determinant(form):
    report = describe(form)
    matrix = sympy.Matrix([[to_sympy(x) for x in row] for row in two_form_matrix(form)])
    points, _ = sample_points(R4, list(form.coeffs.values()))
    vanishing = [pt for pt in points
                 if matrix.subs(dict(zip(SYMBOLS, map(sympy.Rational, pt)))).det() == 0]
    if len(vanishing) < len(points):  # sympy's own value at a point shows det ≢ 0
        nonzero = True
    else:  # sympy's determinant over the fraction field Q(q1, q2, p1, p2)
        exact = DomainMatrix.from_Matrix(matrix)
        nonzero = exact.det() != exact.domain.zero
    assert report.nondegenerate == nonzero
    assert report.degenerate_samples == (vanishing if nonzero else [])


def test_identically_degenerate_form_is_decided_by_the_fallback(monkeypatch):
    calls = []
    monkeypatch.setattr(geom, "symbolic_determinant",
                        lambda form: calls.append(form) or symbolic_determinant(form))
    form = DifferentialForm(R4, 2, {(0, 1): rf("q1/(1 + p1^2)"), (0, 2): rf("p2")})
    report = describe(form)
    assert len(calls) == 1
    assert not report.nondegenerate and report.degenerate_samples == []


def test_samples_on_the_degeneracy_locus_are_all_listed(monkeypatch):
    # det W = q1^4 (p1^2 + 1)^-2: nonzero, but zero on the hyperplane q1 = 0
    form = DifferentialForm(R4, 2, {(0, 2): rf("q1/(p1^2 + 1)"), (1, 3): rf("q1/(p1^2 + 1)")})
    on_locus = [[Fraction(0), Fraction(k, 8), Fraction(3 - k), Fraction(k)] for k in range(8)]
    off_locus = [[Fraction(1)] + point[1:] for point in on_locus[:3]]

    def sample_at(points):
        return lambda chart, probes, seed=42, constants=None: (
            points, [[f.evaluate(pt) for f in probes] for pt in points])

    monkeypatch.setattr(geom, "sample_points", sample_at(on_locus))
    report = describe(form)
    assert report.nondegenerate and report.degenerate_samples == on_locus
    monkeypatch.setattr(geom, "sample_points", sample_at(off_locus + on_locus[:2]))
    report = describe(form)
    assert report.nondegenerate and report.degenerate_samples == on_locus[:2]


def test_sample_points_keep_the_draw_order_past_poles():
    # seed 96 draws (14/8, 0) first and (0, -58/8) sixth, both poles of k/(q*p), so the first
    # batch of eight keeps six points and a second batch of two is drawn
    chart = Chart(["q", "p"], constants=["k"])
    probes = [parse_expression(text, chart) for text in ["k/(q*p)", "q^2 - k*p", "(q + p)/(q - p)"]]
    points, values = sample_points(chart, probes, seed=96, constants={"k": Fraction(3, 2)})
    exact = lambda rows: [[Fraction(x) for x in row.split()] for row in rows]
    assert points == exact(["21/8 -7/2", "-7 7/8", "-69/8 -75/8", "-19/4 3", "-15/8 3/4",
                            "11/8 -5/4", "-47/8 49/8", "-39/4 67/8"])
    assert values == exact(["-8/49 777/64 -1/7", "-12/49 763/16 7/9", "32/1725 5661/64 -24",
                            "-2/19 289/16 7/31", "-16/15 153/64 3/7", "-48/55 241/64 1/21",
                            "-96/2303 1621/64 -1/48", "-16/871 165/2 11/145"])


def test_a_constant_without_a_value_leaves_the_exact_expansion_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(geom, "symbolic_determinant",
                        lambda form: calls.append(form) or symbolic_determinant(form))
    chart = Chart(["q", "p"], constants=["omega"])
    form = DifferentialForm(chart, 2, {(0, 1): parse_expression("omega*q/(1 + p^2)", chart)})
    report = is_hamiltonian_description(VectorField.zero(chart), form, chart.zero())
    assert len(calls) == 1
    assert report.nondegenerate and report.degenerate_samples == []
    chart, f1, f2, x1, x2, omega = oscillator_normal_form_data()
    with pytest.raises(ValueError, match="^no value supplied for constant 'omega'$"):
        check_normal_form(OSC.gamma, [f1, f2], [x1, x2])


R3 = Chart(R4.names[:3])
r3_two_forms = st.lists(coefficients_on(R3), min_size=3, max_size=3).map(
    lambda coeffs: DifferentialForm(R3, 2, dict(zip(itertools.combinations(range(3), 2), coeffs))))


@settings(max_examples=20)
@given(st.one_of(two_forms(), r3_two_forms))
def test_symbolic_determinant_matches_sympy(form):
    """Pf(D·W)² = Dⁿ det W, D the product of W's distinct non-constant denominators."""
    dens = []
    for coeff in form.coeffs.values():
        if not coeff.den.is_constant and coeff.den not in dens:
            dens.append(coeff.den)
    D = functools.reduce(operator.mul, dens, Polynomial.constant(form.chart, 1))
    pf = symbolic_determinant(form)
    matrix = DomainMatrix.from_Matrix(
        sympy.Matrix([[to_sympy(x) for x in row] for row in two_form_matrix(form)]))
    det = matrix.domain.to_sympy(matrix.det())
    assert same_entries([RationalFunction(pf * pf, D ** form.chart.dimension)], [det])


# -- contractions against sympy.Matrix products ------------------------------------

coordinates = st.sampled_from(R4.names).map(R4.coordinate)
binomials = st.builds(lambda c, x, d: c * x + d,
                      st.integers(-3, 3), coordinates, st.integers(-2, 2))
entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), binomials,
                    st.builds(lambda a, x: a / (x * x + 1), binomials, coordinates))
tensors = st.lists(entries, min_size=16, max_size=16).map(
    lambda xs: Tensor11(R4, [xs[4 * i:4 * i + 4] for i in range(4)]))
fields = st.lists(entries, min_size=4, max_size=4).map(lambda xs: VectorField(R4, xs))


def sympy_matrix(T):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in T.components])


def same_entries(ours, expected):
    """Each num/den of ours equals sympy's value p/q = sympy.cancel(...): num·q = p·den."""
    for value, oracle in zip(ours, expected, strict=True):
        ring = sympy.polys.rings.PolyRing(sympy.symbols(value.chart.names), sympy.QQ)
        p, q = map(ring.from_expr, sympy.fraction(sympy.cancel(oracle)))
        num, den = (ring.from_dict(dict(f.terms)) for f in (value.num, value.den))
        if num * q != p * den:
            return False
    return True


@settings(max_examples=10)
@given(tensors, tensors, fields)
def test_compose_and_apply_match_sympy_matrix_products(S, T, X):
    product = sympy_matrix(S) * sympy_matrix(T)
    assert same_entries([e for row in S.compose(T).components for e in row], list(product))
    image = sympy_matrix(S) * sympy.Matrix([to_sympy(c) for c in X.components])
    assert same_entries(S.apply(X).components, list(image))


@settings(max_examples=10)
@given(fields, tensors)
def test_tensor_lie_derivative_matches_its_component_formula(X, T):
    # (L_X T)^i_j = X^k ∂_k T^i_j − T^k_j ∂_k X^i + T^i_k ∂_j X^k
    x, t = [to_sympy(c) for c in X.components], sympy_matrix(T)
    expected = [sum(x[k] * sympy.diff(t[i, j], SYMBOLS[k]) - t[k, j] * sympy.diff(x[i], SYMBOLS[k])
                    + t[i, k] * sympy.diff(x[k], SYMBOLS[j]) for k in range(4))
                for i in range(4) for j in range(4)]
    assert same_entries([e for row in lie_derivative(X, T).components for e in row], expected)


def test_tensor_lie_derivative_differentiates_each_field_component_once_per_coordinate(
        monkeypatch):
    calls = collections.Counter()
    derivative = RationalFunction.derivative

    def counting(self, var):
        calls[id(self), var] += 1
        return derivative(self, var)

    monkeypatch.setattr(RationalFunction, "derivative", counting)
    X = OSC.gamma
    lie_derivative(X, OSC.swap_tensor)
    assert [calls[id(c), k] for c in X.components for k in range(4)] == [1] * 16


def invariant_oscillator_tensor(rng, chart):
    """Random constant tensor commuting with the numeric oscillator flow."""
    zero, one = chart.zero(), chart.one()
    identity = Tensor11.identity(chart)
    rotation = Tensor11(chart, [
        [zero, zero, one, zero],
        [zero, zero, zero, one],
        [-one, zero, zero, zero],
        [zero, -one, zero, zero],
    ])
    swap = Tensor11(chart, [
        [zero, one, zero, zero],
        [one, zero, zero, zero],
        [zero, zero, zero, one],
        [zero, zero, one, zero],
    ])
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
    combo = Tensor11.zero(chart)
    for c, basis in zip(coeffs, [identity, rotation, swap, rotation.compose(swap)]):
        combo = combo + c * basis
    return combo


def invariant_oscillator_function(rng, chart):
    """Random polynomial in the quadratic invariants of the numeric flow."""
    u1 = parse_expression("p1^2 + q1^2", chart)
    u2 = parse_expression("p2^2 + q2^2", chart)
    s = parse_expression("p1*p2 + q1*q2", chart)
    total = chart.scalar(rng.randint(-2, 2))
    generators = [u1, u2, s]
    for _ in range(rng.randint(1, 3)):
        term = chart.scalar(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 2)):
            term = term * generators[rng.randrange(3)]
        total = total + term
    return total


def test_derived_description_theorem_on_constructed_instances():
    # i_G dd_T F = -d(dF(T(G))) whenever L_G T = 0 and L_G F = 0
    rng = random.Random(2015)
    chart = R4
    gamma = VectorField(chart, [rf("p1"), rf("p2"), rf("-q1"), rf("-q2")])
    for _ in range(25):
        T = invariant_oscillator_tensor(rng, chart)
        F = invariant_oscillator_function(rng, chart)
        assert lie_derivative(gamma, T).is_zero
        assert lie_derivative(gamma, F).is_zero
        w = twisted_two_form(T, F)
        new_h = interior_product(T.apply(gamma), differential(F)).coefficient(())
        assert interior_product(gamma, w) == -differential(new_h)


# -- normal form --------------------------------------------------------------------------------

def oscillator_normal_form_data():
    chart = OSC.chart
    f1 = parse_expression("1/2*(p1^2 + q1^2)", chart)
    f2 = parse_expression("1/2*(p2^2 + q2^2)", chart)
    x1 = VectorField(chart, [rf("p1", chart), rf("0", chart), rf("-q1", chart), rf("0", chart)])
    x2 = VectorField(chart, [rf("0", chart), rf("p2", chart), rf("0", chart), rf("-q2", chart)])
    omega = chart.coordinate("omega")
    return chart, f1, f2, x1, x2, omega


def test_normal_form_oscillator_passes():
    chart, f1, f2, x1, x2, omega = oscillator_normal_form_data()
    report = check_normal_form(
        OSC.gamma, [f1, f2], [x1, x2], nu=[omega, omega],
        constants={"omega": Fraction(3, 2)},
    )
    assert report.passed
    assert report.completeness_assumed
    assert report.coefficients_match is True


def test_normal_form_solves_coefficients_pointwise():
    chart, f1, f2, x1, x2, _ = oscillator_normal_form_data()
    report = check_normal_form(
        OSC.gamma, [f1, f2], [x1, x2], constants={"omega": Fraction(3, 2)},
    )
    assert report.passed
    for _, ok, values in report.solved_coefficients:
        assert ok
        assert values == [Fraction(3, 2), Fraction(3, 2)]


def test_normal_form_noncommuting_fields_fail():
    chart = R4
    bad1 = VectorField.coordinate_field(chart, "q1")
    bad2 = VectorField(chart, [rf("0"), rf("q1"), rf("0"), rf("0")])
    f1 = rf("q1")
    f2 = rf("q2")
    report = check_normal_form(
        VectorField.zero(chart), [f1, f2], [bad1, bad2]
    )
    assert not report.fields_commute
    assert not report.passed


def test_normal_form_dependent_integrals_fail():
    chart = R4
    f = rf("p1^2 + q1^2")
    x1 = VectorField(chart, [rf("p1"), rf("0"), rf("-q1"), rf("0")])
    x2 = VectorField(chart, [rf("0"), rf("p2"), rf("0"), rf("-q2")])
    report = check_normal_form(VectorField.zero(chart), [f, f * f], [x1, x2])
    assert not report.integrals_independent
    assert not report.passed


# -- structure validators -----------------------------------------------------------------------

def test_tangent_structure_golden():
    chart = Chart(["q", "v"])
    zero, one = chart.zero(), chart.one()
    soldering = Tensor11(chart, [[zero, zero], [one, zero]])
    delta = VectorField(chart, [zero, chart.coordinate("v")])
    report = validate_tangent_structure(soldering, delta)
    assert report.valid
    assert report.checks["rank_is_half_dimension"] is True


def test_tangent_structure_identity_invalid():
    chart = Chart(["q", "v"])
    delta = VectorField(chart, [chart.zero(), chart.coordinate("v")])
    report = validate_tangent_structure(Tensor11.identity(chart), delta)
    assert not report.valid
    assert report.checks["s_squared_zero"] is False


def test_tangent_structure_variable_rank_unknown():
    chart = Chart(["q", "v"])
    zero = chart.zero()
    soldering = Tensor11(chart, [[zero, zero], [chart.coordinate("q"), zero]])
    delta = VectorField(chart, [zero, chart.coordinate("v")])
    report = validate_tangent_structure(soldering, delta)
    assert report.checks["rank_is_half_dimension"] is None


def test_cotangent_structure_golden():
    chart = Chart(["q", "p"])
    theta = DifferentialForm(chart, 1, {(0,): chart.coordinate("p")})
    delta = VectorField(chart, [chart.zero(), chart.coordinate("p")])
    report = validate_cotangent_structure(theta, delta)
    assert report.valid


def test_linear_structure_euler_field():
    chart = Chart(["x", "y"])
    euler = VectorField(chart, [chart.coordinate("x"), chart.coordinate("y")])
    report = validate_linear_structure(euler)
    assert report.valid
    assert report.checks["linear_coordinates"] == ["x", "y"]


def test_linear_structure_partial_and_invalid():
    chart = Chart(["q", "v"])
    partial = VectorField(chart, [chart.zero(), chart.coordinate("v")])
    assert validate_linear_structure(partial).valid
    skewed = VectorField(chart, [chart.zero(), chart.coordinate("q")])
    assert not validate_linear_structure(skewed).valid


def test_validate_structures_dispatch():
    chart = Chart(["q", "p"])
    theta = DifferentialForm(chart, 1, {(0,): chart.coordinate("p")})
    delta = VectorField(chart, [chart.zero(), chart.coordinate("p")])
    report = validate_structures("cotangent", one_form=theta, delta=delta)
    assert report.kind == "cotangent" and report.valid
    with pytest.raises(ValueError):
        validate_structures("nonsense")


# -- serialization -------------------------------------------------------------------------------

def test_form_text_rendering():
    assert str(OSC.omega_primary) == "2-form: (1) dq1^dp1 + (1) dq2^dp2"
    assert str(DifferentialForm.zero(R4, 2)) == "2-form: 0"


def test_tensor_insertion_is_degree_preserving_derivation():
    rng = random.Random(2016)
    for _ in range(10):
        T = random_tensor(rng, R4)
        a = random_form(rng, R4, 1)
        b = random_form(rng, R4, 1)
        lhs = tensor_insertion(T, wedge(a, b))
        rhs = wedge(tensor_insertion(T, a), b) + wedge(a, tensor_insertion(T, b))
        assert lhs == rhs


def test_twisted_exterior_derivative_on_functions_matches():
    rng = random.Random(2017)
    for _ in range(10):
        T = random_tensor(rng, R4)
        f = random_polynomial_rf(rng, R4)
        zero_form = DifferentialForm.from_function(f)
        assert twisted_exterior_derivative(T, zero_form) == twisted_differential(T, f)
