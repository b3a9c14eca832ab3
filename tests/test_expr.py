import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from geoham.errors import (ChartMismatchError, ExponentLimitError, ParseError, PoleError,
                           UnknownSymbolError)
from geoham.expr import (MAX_EXPONENT, Chart, Polynomial, RationalFunction, evaluate_points,
                         parse_expression)


CHART_QP = Chart(["q1", "p1"])
CHART_R4 = Chart(["q1", "q2", "p1", "p2"])


def rf(text, chart=CHART_R4):
    return parse_expression(text, chart)


def random_polynomial(rng, chart, max_degree=3, max_terms=4):
    terms = {}
    nvars = len(chart.variables)
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return Polynomial(chart, terms)


def random_rational(rng, chart, allow_denominator=True):
    num = random_polynomial(rng, chart)
    if allow_denominator and rng.random() < 0.5:
        while True:
            den = random_polynomial(rng, chart, max_degree=2, max_terms=2) + Polynomial.constant(
                chart, rng.randint(1, 5)
            )
            if not den.is_zero:
                return RationalFunction(num, den)
    return RationalFunction(num)


# -- parsing ---------------------------------------------------------------

def test_parse_sum_of_squares():
    chart = Chart(["q1", "p1"])
    value = parse_expression("p1^2 + q1^2", chart)
    assert value.den == Polynomial.constant(chart, 1)
    assert value.num.terms == {
        (0, 2): Fraction(1),
        (2, 0): Fraction(1),
    }


def test_parse_time_form_coefficient():
    # the angular one-form coefficient q1/(p1^2+q1^2)
    chart = Chart(["q1", "p1"])
    value = parse_expression("q1/(p1^2+q1^2)", chart)
    assert value.num == Polynomial(chart, {(1, 0): Fraction(1)})
    assert value.den == Polynomial(chart, {(0, 2): Fraction(1), (2, 0): Fraction(1)})


def test_parse_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_expression("1/0", CHART_QP)
    with pytest.raises(ParseError):
        parse_expression("q1/(q1 - q1)", CHART_QP)


def test_parse_unknown_identifier_position():
    with pytest.raises(UnknownSymbolError) as err:
        parse_expression("q1 + bogus", CHART_QP)
    assert err.value.column == 6


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_expression("q1 + * p1", CHART_QP)
    assert err.value.column is not None


def test_parse_declared_constants():
    chart = Chart(["q1", "p1"], constants=["omega"])
    value = parse_expression("1/2*omega*(p1^2 + q1^2)", chart)
    assert value == parse_expression("omega*p1^2/2 + omega*q1^2/2", chart)


def test_parse_rejects_decimals_and_huge_exponents():
    with pytest.raises(ParseError):
        parse_expression("1.5", CHART_QP)
    with pytest.raises(ExponentLimitError):
        parse_expression("q1^65537", CHART_QP)


def test_parse_precedence_and_unary_minus():
    chart = CHART_QP
    assert parse_expression("-q1^2", chart) == -(chart.coordinate("q1") ** 2)
    assert parse_expression("2 - -3", chart) == chart.scalar(5)
    assert parse_expression("2*q1 + 3*q1", chart) == parse_expression("5*q1", chart)
    assert parse_expression("(q1 + p1)^2", chart) == parse_expression(
        "q1^2 + 2*q1*p1 + p1^2", chart
    )


# -- arithmetic ---------------------------------------------------------------

def test_add_and_div_identity_cases():
    p2 = rf("p1^2")
    q2 = rf("q1^2")
    assert p2 + q2 == rf("p1^2 + q1^2")
    s = rf("p1^2 + q1^2")
    assert s / s == rf("1")


def test_mul_clears_denominator():
    # oracle: cross-multiplication expansion; q1/(p1^2+q1^2) * (p1^2+q1^2) == q1
    a = rf("q1/(p1^2+q1^2)")
    b = rf("p1^2+q1^2")
    product = a * b
    lhs = product.num * rf("q1").den
    rhs = rf("q1").num * product.den
    assert (lhs - rhs).is_zero
    assert product == rf("q1")


def test_division_by_zero_rational():
    with pytest.raises(ZeroDivisionError):
        rf("q1") / rf("0")


def test_ring_axioms_random():
    rng = random.Random(1001)
    chart = CHART_R4
    for _ in range(120):
        a = random_polynomial(rng, chart)
        b = random_polynomial(rng, chart)
        c = random_polynomial(rng, chart)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_field_axioms_on_rationals_random():
    rng = random.Random(1002)
    chart = CHART_QP
    for _ in range(100):
        a = random_rational(rng, chart)
        b = random_rational(rng, chart)
        assert a - a == chart.zero()
        if not b.is_zero:
            assert (a / b) * b == a
        assert a * (1 + b) == a + a * b


# -- derivatives ---------------------------------------------------------------

def test_partial_derivative_basics():
    chart = CHART_QP
    h = parse_expression("1/2*(p1^2 + q1^2)", chart)
    assert h.derivative("p1") == chart.coordinate("p1")
    assert parse_expression("p1^2", chart).derivative("q1") == chart.zero()


def test_partial_derivative_quotient_rule_matches_finite_differences():
    # oracle: central finite differences at random rational points, float
    rng = random.Random(77)
    chart = CHART_QP
    f = parse_expression("q1/(p1^2+q1^2)", chart)
    df = f.derivative("q1")
    expected = parse_expression("(p1^2-q1^2)/((p1^2+q1^2)^2)", chart)
    assert df == expected
    h = 1e-6
    checked = 0
    while checked < 10:
        q = rng.uniform(0.5, 3.0)
        p = rng.uniform(0.5, 3.0)
        numeric = (f.evaluate([q + h, p]) - f.evaluate([q - h, p])) / (2 * h)
        symbolic = df.evaluate([q, p])
        assert abs(numeric - symbolic) < 1e-8 * max(1.0, abs(symbolic))
        checked += 1


def test_derivative_of_constant_symbol_is_scalar():
    chart = Chart(["q1"], constants=["omega"])
    f = parse_expression("omega*q1^2", chart)
    assert f.derivative("q1") == parse_expression("2*omega*q1", chart)
    with pytest.raises(UnknownSymbolError):
        f.derivative("omega")


def test_leibniz_rule_random():
    rng = random.Random(1003)
    chart = CHART_QP
    for _ in range(100):
        f = random_rational(rng, chart)
        g = random_rational(rng, chart)
        for var in chart.names:
            lhs = (f * g).derivative(var)
            rhs = f * g.derivative(var) + g * f.derivative(var)
            assert lhs == rhs


def test_commuting_partials_random():
    rng = random.Random(1004)
    chart = CHART_R4
    for _ in range(60):
        f = random_rational(rng, chart)
        assert f.derivative("q1").derivative("p2") == f.derivative("p2").derivative("q1")


# -- evaluation ---------------------------------------------------------------

def test_evaluate_exact_and_float():
    chart = CHART_QP
    f = parse_expression("p1^2 + q1^2", chart)
    assert f.evaluate([3, 4]) == Fraction(25)
    g = parse_expression("q1/(p1^2+q1^2)", chart)
    assert g.evaluate([1, 0]) == Fraction(1)
    assert g.evaluate([1.0, 0.0]) == pytest.approx(1.0)


def test_evaluate_pole():
    g = parse_expression("q1/(p1^2+q1^2)", CHART_QP)
    with pytest.raises(PoleError):
        g.evaluate([0, 0])


def test_evaluate_requires_constant_values():
    chart = Chart(["q1"], constants=["omega"])
    f = parse_expression("omega*q1", chart)
    with pytest.raises(ValueError):
        f.evaluate([2])
    assert f.evaluate([2], constants={"omega": Fraction(3)}) == 6


def test_evaluate_is_multiplicative_random():
    rng = random.Random(1005)
    chart = CHART_QP
    for _ in range(100):
        f = random_rational(rng, chart)
        g = random_rational(rng, chart)
        point = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in chart.names]
        try:
            fg = (f * g).evaluate(point)
            fv = f.evaluate(point)
            gv = g.evaluate(point)
        except PoleError:
            continue
        assert fg == fv * gv


# -- printing roundtrip ---------------------------------------------------------

def test_print_parse_roundtrip_fixed():
    texts = [
        "p1^2 + q1^2",
        "q1/(p1^2+q1^2)",
        "1/2*(p1^2 + q1^2) - 3*q1*p1",
        "(q1^2 - p1^2)/((p1^2+q1^2)^2)",
        "0",
        "7/3",
    ]
    for text in texts:
        value = rf(text, CHART_QP)
        assert rf(str(value), CHART_QP) == value


def test_print_parse_roundtrip_random():
    rng = random.Random(1006)
    for _ in range(100):
        value = random_rational(rng, CHART_R4)
        printed = str(value)
        assert rf(printed) == value
        # printing is stable under reparse (canonical form)
        assert str(rf(printed)) == printed


def test_canonical_printing_order():
    # descending graded-lex, coefficients as num/den
    value = rf("q1 + p1^2 + 1/2", CHART_QP)
    assert str(value) == "p1^2 + q1 + 1/2"


# -- chart ---------------------------------------------------------------------

def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(["q1", "q1"])
    with pytest.raises(ValueError):
        Chart(["q1"], constants=["q1"])
    with pytest.raises(ValueError):
        Chart([""])
    chart = Chart(["a", "b"], constants=["c"])
    assert chart.dimension == 2
    assert chart.variables == ("a", "b", "c")


# -- sympy as the oracle ---------------------------------------------------------

ORACLE = settings(max_examples=25)

coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def charts(draw):
    """Up to six variables: one to four coordinates, then up to two constants."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, min(2, 6 - n)))
    return Chart([f"x{i}" for i in range(n)], constants=[f"c{i}" for i in range(m)])


def polynomials(chart, max_terms=5, max_exponent=3):
    exponents = st.tuples(*[st.integers(0, max_exponent) for _ in chart.variables])
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Polynomial(chart, terms)
    )


def quotients(chart):
    nonzero = polynomials(chart, max_terms=3, max_exponent=2).filter(lambda p: not p.is_zero)
    return st.builds(RationalFunction, polynomials(chart), nonzero)


def rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(poly):
    symbols = sympy.symbols(poly.chart.variables)
    return sympy.Add(*[rational(c) * sympy.Mul(*[s ** e for s, e in zip(symbols, exps)])
                       for exps, c in poly.terms.items()])


def oracle_terms(expr, chart):
    """The exponent tuple -> Fraction dict of a sympy polynomial expression."""
    poly = sympy.Poly(sympy.expand(expr), *sympy.symbols(chart.variables))
    return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items() if c}


def same_quotient(value, num, den):
    """value == num/den, decided by cross-multiplication in sympy."""
    return sympy.expand(to_sympy(value.num) * den - to_sympy(value.den) * num) == 0


@ORACLE
@given(st.data())
def test_ring_operations_match_sympy(data):
    chart = data.draw(charts())
    a = data.draw(polynomials(chart))
    b = data.draw(polynomials(chart))
    scale = data.draw(coefficients)
    power = data.draw(st.integers(0, 4))
    axis = data.draw(st.integers(0, len(chart.variables) - 1))
    sa, sb = to_sympy(a), to_sympy(b)
    variable = sympy.Symbol(chart.variables[axis])
    for value, expected in [
        (a + b, sa + sb),
        (a - b, sa - sb),
        (a * b, sa * sb),
        (a ** power, sa ** power),
        (a.scale(scale), rational(scale) * sa),
        (a.derivative(axis), sympy.diff(sa, variable)),
    ]:
        assert value.terms == oracle_terms(expected, chart)
        # canonical form: equal to the polynomial built afresh from its terms
        assert value == Polynomial(chart, dict(value.terms))


@ORACLE
@given(st.data())
def test_evaluate_and_leading_term_match_sympy(data):
    chart = data.draw(charts())
    a = data.draw(polynomials(chart, max_exponent=5))
    point = data.draw(st.lists(coefficients, min_size=len(chart.variables),
                               max_size=len(chart.variables)))
    symbols = sympy.symbols(chart.variables)
    expected = to_sympy(a).subs(dict(zip(symbols, map(rational, point))))
    value = a.evaluate(point)
    assert isinstance(value, Fraction) and value == Fraction(int(expected.p), int(expected.q))
    assume(not a.is_zero)
    monomial, coeff = sympy.Poly(to_sympy(a), *symbols).terms(order="grlex")[0]
    assert a.leading_term() == (monomial, Fraction(int(coeff.p), int(coeff.q)))


@ORACLE
@given(st.data())
def test_quotients_match_sympy_and_reparse(data):
    chart = data.draw(charts())
    f = data.draw(quotients(chart))
    g = data.draw(quotients(chart))
    nf, df, ng, dg = (to_sympy(p) for p in (f.num, f.den, g.num, g.den))
    assert same_quotient(f + g, nf * dg + ng * df, df * dg)
    assert same_quotient(f - g, nf * dg - ng * df, df * dg)
    assert same_quotient(f * g, nf * ng, df * dg)
    if not g.is_zero:
        assert same_quotient(f / g, nf * dg, df * ng)
    x0 = sympy.Symbol("x0")
    assert same_quotient(f.derivative("x0"), sympy.diff(nf, x0) * df - nf * sympy.diff(df, x0),
                         df ** 2)
    assert parse_expression(str(f), chart) == f
    point = data.draw(st.lists(coefficients, min_size=chart.dimension, max_size=chart.dimension))
    constants = dict(zip(chart.constants, data.draw(
        st.lists(coefficients, min_size=len(chart.constants), max_size=len(chart.constants)))))
    values = dict(zip(sympy.symbols(chart.variables),
                      [rational(x) for x in point] + [rational(constants[c]) for c in chart.constants]))
    den = df.subs(values)
    if den == 0:
        with pytest.raises(PoleError):
            f.evaluate(point, constants)
    else:
        expected = nf.subs(values) / den
        assert f.evaluate(point, constants) == Fraction(int(expected.p), int(expected.q))


def sympy_value(f, point, constants):
    """f at the point by sympy Rational substitution, or None at a pole."""
    values = [rational(Fraction(x)) for x in point]
    values += [rational(Fraction(constants[c])) for c in f.chart.constants]
    subs = dict(zip(sympy.symbols(f.chart.variables), values))
    den = to_sympy(f.den).subs(subs)
    if den == 0:
        return None
    value = to_sympy(f.num).subs(subs) / den
    return Fraction(int(value.p), int(value.q))


@ORACLE
@given(st.data())
def test_evaluate_points_matches_sympy_value_for_value(data):
    n = data.draw(st.integers(1, 3))
    chart = Chart([f"x{i}" for i in range(n)], constants=["c0"])
    constants = {"c0": data.draw(coefficients)}
    points = data.draw(st.lists(st.lists(coefficients, min_size=n, max_size=n),
                                min_size=1, max_size=4))
    functions = data.draw(st.lists(quotients(chart), min_size=1, max_size=3))
    # one more function whose denominator q - q(points[0]) vanishes at the first point
    q = data.draw(polynomials(chart, max_terms=3, max_exponent=2))
    den = q - Polynomial.constant(chart, q.evaluate(points[0] + [constants["c0"]]))
    assume(not den.is_zero)
    functions.append(RationalFunction(data.draw(polynomials(chart)), den))
    expected = [[sympy_value(f, point, constants) for f in functions] for point in points]
    assert None in expected[0]
    rows = evaluate_points(chart, functions, points, constants)
    assert rows == [None if None in row else row for row in expected]
    assert all(isinstance(v, Fraction) for row in rows if row for v in row)
    for f, value in zip(functions, expected[0]):
        if value is None:
            with pytest.raises(PoleError):
                f.evaluate(points[0], constants)
        else:
            assert f.evaluate(points[0], constants) == value
    # float input is converted exactly, and each value is rounded once
    floats = [[float(x) for x in point] for point in points]
    rows = evaluate_points(chart, functions, floats, {"c0": float(constants["c0"])})
    for point, row in zip(floats, rows):
        exact = [sympy_value(f, point, {"c0": float(constants["c0"])}) for f in functions]
        assert row == (None if None in exact else [float(v) for v in exact])
        assert row is None or all(type(v) is float for v in row)


def test_terms_items_and_values_match_lookups():
    rng = random.Random(4021)
    for chart in (CHART_QP, CHART_R4, Chart(["q"], constants=["omega", "lam"])):
        for _ in range(40):
            p = random_polynomial(rng, chart, max_degree=5, max_terms=8)
            assert dict(p.terms.items()) == {e: p.terms[e] for e in p.terms}
            assert list(p.terms.values()) == [p.terms[e] for e in p.terms]


def test_unit_and_zero_operands_return_the_other_operand():
    f = rf("(q1 + p2/3)/(2*p1^2 + 1)")
    one, zero = Polynomial.constant(CHART_R4, 1), CHART_R4.zero()
    assert f.num * one is f.num and one * f.num is f.num
    assert zero + f is f and f + zero is f and f + 0 is f and 0 + f is f
    assert str(zero + f) == "(1/2*q1 + 1/6*p2)/(p1^2 + 1/2)"
    # a zero over another denominator is added as before: returning q1 would print differently
    zero_over_den = f - f
    assert str(zero_over_den + rf("q1")) == "(q1*p1^2 + 1/2*q1)/(p1^2 + 1/2)"
    other = Chart(["a", "b", "c", "d"])
    with pytest.raises(ChartMismatchError):
        Polynomial.constant(other, 1) * f.num
    with pytest.raises(ChartMismatchError):
        other.zero() + f
    with pytest.raises(ChartMismatchError):
        RationalFunction(f.num, Polynomial.constant(other, 1))


@ORACLE
@given(st.integers(0, MAX_EXPONENT), st.integers(0, 2))
def test_exponent_limit_at_two_to_the_sixteen(split, other):
    chart = Chart(["x0", "x1", "x2"])
    x0, x1 = chart.coordinate("x0").num, chart.coordinate("x1").num
    top = x0 ** split * x0 ** (MAX_EXPONENT - split) * x1 ** other
    assert top.terms == {(MAX_EXPONENT, other, 0): Fraction(1)}
    assert parse_expression(str(top), chart).num == top
    assert top.derivative(0).terms == {(MAX_EXPONENT - 1, other, 0): Fraction(MAX_EXPONENT)}
    with pytest.raises(ExponentLimitError):
        x0 ** split * x0 ** (MAX_EXPONENT + 1 - split)
    with pytest.raises(ExponentLimitError):
        Polynomial(chart, {(MAX_EXPONENT + 1, other, 0): Fraction(1)})
    with pytest.raises(ExponentLimitError):
        parse_expression(f"x1^{other}*x0^{MAX_EXPONENT + 1}", chart)


@pytest.mark.parametrize("text,exponent,top", [("q^3", 32769, 98307), ("q^2*p + 1", 40000, 80000),
                                               ("q*p^7 - p", 9363, 65541)])
def test_power_checks_the_exponent_limit_before_multiplying(monkeypatch, text, exponent, top):
    base = parse_expression(text, Chart(["q", "p"])).num
    monkeypatch.setattr(Polynomial, "__mul__", lambda *args: pytest.fail("multiplied"))
    with pytest.raises(ExponentLimitError, match=f"^exponent {top} exceeds limit {MAX_EXPONENT}$"):
        base ** exponent


def test_dense_power_within_the_budget_is_expanded():
    """(a+b+c+d+1)^30 has C(34, 4) = 46,376 terms, each a multinomial coefficient;
    repeated squaring would pair p^14 with p^16, 3,060 × 4,845 terms."""
    chart = Chart(["a", "b", "c", "d"])
    power = parse_expression("(a+b+c+d+1)^30", chart).num
    assert len(power.terms) == 46_376
    for exps, coeff in power.terms.items():
        expected = math.factorial(30) // math.factorial(30 - sum(exps))
        for e in exps:
            expected //= math.factorial(e)
        assert coeff == expected


@ORACLE
@given(st.data())
def test_power_equals_the_repeated_product(data):
    """Both ways of building a power give the very same polynomial."""
    chart = Chart(["x0", "x1", "x2"])
    base = data.draw(polynomials(chart, max_terms=12, max_exponent=2))
    exponent = data.draw(st.integers(0, 8))
    expected = Polynomial.constant(chart, 1)
    for _ in range(exponent):
        expected = expected * base
    assert base ** exponent == expected
    assert str(base ** exponent) == str(expected)
