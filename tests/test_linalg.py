"""Property tests of the exact linear algebra against sympy.Matrix as an oracle."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from geoham import _linalg  # noqa: E402
from geoham.expr import Chart, Polynomial  # noqa: E402
from geoham.linfact import ExactMatrix, skew_constraint_kernel  # noqa: E402

CHECK = settings(max_examples=30)

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Random rational matrices up to 10×10; about half are built with rank below full."""
    m = draw(st.integers(1, 10)) if rows is None else rows
    n = draw(st.integers(1, 10)) if cols is None else cols
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(n)] for _ in range(m)]
    r = draw(st.integers(0, max(0, min(m, n) - 1)))
    left = [[draw(entries) for _ in range(r)] for _ in range(m)]
    right = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
            for i in range(m)]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 10))
    return draw(matrices(rows=n, cols=n))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(value):
    return Fraction(int(value.p), int(value.q))


def rows_of(matrix):
    return [[from_sympy(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]


@CHECK
@given(matrices())
def test_rref_and_rank_match_sympy(rows):
    expected, expected_pivots = to_sympy(rows).rref()
    reduced, pivots = _linalg.rref(rows)
    assert pivots == list(expected_pivots)
    assert reduced == rows_of(expected)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert _linalg.rank(rows) == len(expected_pivots)


@CHECK
@given(matrices())
def test_kernel_matches_sympy_nullspace(rows):
    expected = [[from_sympy(x) for x in v] for v in to_sympy(rows).nullspace()]
    assert _linalg.kernel(rows) == expected


@CHECK
@given(square_matrices())
def test_det_and_inverse_match_sympy(rows):
    expected = to_sympy(rows)
    value = _linalg.det(rows)
    assert value == from_sympy(expected.det())
    inverse = _linalg.inverse(rows)
    if value == 0:
        assert inverse is None
    else:
        assert inverse == rows_of(expected.inv())


@CHECK
@given(matrices(), st.data())
def test_solve_matches_sympy_with_free_variables_zero(rows, data):
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    try:
        solution, params = to_sympy(rows).gauss_jordan_solve(to_sympy([[b] for b in rhs]))
    except ValueError:  # inconsistent system
        assert _linalg.solve(rows, rhs) is None
        return
    expected = [from_sympy(x) for x in solution.subs({p: 0 for p in params})]
    assert _linalg.solve(rows, rhs) == expected


def test_empty_and_zero_inputs():
    assert _linalg.rref([]) == ([], [])
    assert _linalg.kernel([], ncols=2) == [[1, 0], [0, 1]]
    assert _linalg.det([]) == 1
    assert _linalg.rank([[0, 0], [0, 0]]) == 0
    assert _linalg.solve([[0, 0]], [1]) is None
    assert _linalg.inverse([[1, 2], [2, 4]]) is None


@settings(CHECK, max_examples=20)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(matrices(n, n), matrices(n, n))))
def test_matmul_matches_sympy(pair):
    a, b = pair
    product = ExactMatrix(a, Fraction(1, 2)) @ ExactMatrix(b, Fraction(1, 3))
    assert [list(row) for row in product.entries] == rows_of(to_sympy(a) * to_sympy(b))
    assert product.log_scale == Fraction(5, 6)


@st.composite
def system_matrices(draw):
    """n = 2..6; half are products skew · symmetric, which have non-trivial kernels."""
    n = draw(st.integers(2, 6))
    X, Y = (ExactMatrix(draw(matrices(rows=n, cols=n))) for _ in range(2))
    if draw(st.booleans()):
        return X
    return (X - X.transpose()) @ (Y + Y.transpose())


def kernel_by_definition(A):
    """The kernel of Ω ↦ ΩA + AᵀΩ on the basis E_kl, assembled by matrix products
    and taken by sympy's ``nullspace``."""
    n = A.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    columns = []
    for k, l in pairs:
        E = [[0] * n for _ in range(n)]
        E[k][l], E[l][k] = 1, -1
        E = ExactMatrix(E)
        M = (E @ A) + (A.transpose() @ E)
        columns.append([M.entries[i][j] for i, j in pairs])
    constraint = [list(row) for row in zip(*columns)]
    expected = []
    for v in to_sympy(constraint).nullspace():
        omega = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in zip(pairs, v):
            omega[i][j], omega[j][i] = from_sympy(c), -from_sympy(c)
        expected.append(ExactMatrix(omega))
    return expected


@settings(CHECK, max_examples=12)
@given(system_matrices())
def test_skew_constraint_kernel_matches_its_definition(A):
    assert skew_constraint_kernel(A) == kernel_by_definition(A)


def test_skew_constraint_kernel_at_n8_matches_sympy():
    """A 28×28 constraint of rank 24: skew · symmetric with seeded entries in −2..2."""
    rng = random.Random(8)
    X = ExactMatrix([[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)])
    Y = ExactMatrix([[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)])
    A = (X - X.transpose()) @ (Y + Y.transpose()).scale_by(Fraction(1, 3))
    kernel = skew_constraint_kernel(A)
    assert len(kernel) == 4
    assert kernel == kernel_by_definition(A)


@st.composite
def antisymmetric_integer_matrices(draw):
    """n = 0..8, entries in −4..4; about a third are sparse, which makes Pf = 0 common."""
    n = draw(st.integers(0, 8))
    values = st.integers(-4, 4) if draw(st.integers(0, 2)) else st.sampled_from([0, 0, 0, 1, -1])
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(values)
            rows[j][i] = -rows[i][j]
    return rows


@settings(CHECK, max_examples=60)
@given(antisymmetric_integer_matrices())
def test_pfaffian_squares_to_the_determinant(rows):
    assert _linalg.pfaffian(rows) ** 2 == _linalg.det(rows)


def test_pfaffian_over_polynomials_is_the_generic_formula():
    chart = Chart([f"a{i}{j}" for i in range(4) for j in range(i + 1, 4)])
    a = {name: Polynomial.variable(chart, k) for k, name in enumerate(chart.variables)}
    zero, one = Polynomial.constant(chart, 0), Polynomial.constant(chart, 1)
    rows = [[zero] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rows[i][j], rows[j][i] = a[f"a{i}{j}"], -a[f"a{i}{j}"]
    pf = _linalg.pfaffian(rows, zero, one)
    assert pf == a["a01"] * a["a23"] - a["a02"] * a["a13"] + a["a03"] * a["a12"]
    assert _linalg.pfaffian([row[:3] for row in rows[:3]], zero, one) == zero
