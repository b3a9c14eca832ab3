import gc
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from geoham import catalog
from geoham.errors import FloatSymmetryError, NotDecomposableError
from geoham.linfact import (
    _PADE,
    _THETA_13,
    ExactMatrix,
    Factorization,
    _expm,
    hamiltonian_factorize,
    is_canonical,
    noncanonical_symmetry,
    odd_trace_test,
    skew_constraint_kernel,
    transform_description,
)

J2 = ExactMatrix([[0, 1], [-1, 0]])


def oscillator_matrix(omega=Fraction(1)):
    return ExactMatrix(catalog.oscillator_generator_entries(n=2, omega=omega))


def random_skew_invertible(rng, n):
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


def random_symmetric(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = Fraction(rng.randint(-3, 3))
            rows[i][j] = value
            rows[j][i] = value
    return ExactMatrix(rows)


# -- ExactMatrix ---------------------------------------------------------------

def test_exact_matrix_algebra():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert (a @ b).entries == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))
    assert (a + (-a)).is_zero
    assert a.transpose().entries == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    assert a.determinant() == -2
    assert (a @ a.inverse()) == ExactMatrix.identity(2)
    assert a.trace() == 5


def test_exact_matrix_scaled_semantics():
    half = Fraction(1, 2)
    t = ExactMatrix.scaled_identity(2, log_scale=-half)
    assert t != ExactMatrix.identity(2)
    assert t == ExactMatrix.scaled_identity(2, log_scale=-half)
    assert (t @ t).log_scale == -1
    assert t.inverse().log_scale == half
    # scales cancel in conjugation
    a = ExactMatrix([[1, 2], [3, 4]])
    assert (t @ a @ t.inverse()) == a
    # zero matrices compare equal whatever the scale
    z = ExactMatrix.zeros(2)
    assert ExactMatrix([[0, 0], [0, 0]], log_scale=half) == z
    with pytest.raises(ValueError):
        t.trace()
    with pytest.raises(ValueError):
        _ = t + ExactMatrix.identity(2)


def test_exact_matrix_float_view():
    t = ExactMatrix.scaled_identity(2, log_scale=Fraction(-1))
    assert np.allclose(t.to_float(), math.exp(-1) * np.eye(2))


# -- odd trace test -------------------------------------------------------------

def test_odd_trace_rotation_passes():
    result = odd_trace_test(J2)
    assert result.passed
    assert [k for k, _ in result.traces] == [1, 3]


def test_odd_trace_identity_fails_at_first_power():
    result = odd_trace_test(ExactMatrix.identity(2))
    assert not result.passed
    assert result.failing_exponent == 1
    assert result.failing_value == 2


def test_odd_trace_spectrum_oracle():
    # block-diagonal canonical form with spectrum {1, -1, 2i, -2i}
    block = ExactMatrix([
        [1, 0, 0, 0],
        [0, -1, 0, 0],
        [0, 0, 0, 2],
        [0, 0, -2, 0],
    ])
    # conjugate by an invertible rational matrix; traces are similarity-invariant
    s = ExactMatrix([
        [1, 1, 0, 2],
        [0, 1, 1, 0],
        [2, 0, 1, 1],
        [0, 0, 0, 1],
    ])
    assert s.determinant() != 0
    conjugated = s @ block @ s.inverse()
    for matrix in (block, conjugated):
        result = odd_trace_test(matrix)
        assert result.passed
        assert all(v == 0 for _, v in result.traces)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def trace_test_matrices(draw):
    """n ≤ 6 with denominators: skew · symmetric products (every odd trace
    vanishes), traceless shifts with n ≥ 3 (Tr A = 0, so a failure comes
    later; at n = 2 a traceless A has A² scalar and passes) and raw
    matrices, in about equal parts."""
    kind = draw(st.sampled_from(["decomposable", "traceless", "raw"]))
    n = draw(st.integers(3 if kind == "traceless" else 1, 6))
    X, Y = ([[draw(rationals) for _ in range(n)] for _ in range(n)] for _ in range(2))
    if kind == "decomposable":
        X, Y = ExactMatrix(X), ExactMatrix(Y)
        return (X - X.transpose()) @ (Y + Y.transpose())
    if kind == "traceless":
        shift = sum(X[i][i] for i in range(n)) / n
        X = [[x - shift if i == j else x for j, x in enumerate(row)] for i, row in enumerate(X)]
    return ExactMatrix(X)


@settings(max_examples=60)
@given(trace_test_matrices())
def test_odd_trace_matches_sympy_powers(A):
    M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in A.entries])
    expected = []
    for k in range(1, 2 * A.n, 2):
        value = (M ** k).trace()
        expected.append((k, Fraction(int(value.p), int(value.q))))
        if value != 0:
            break
    result = odd_trace_test(A)
    assert list(result.traces) == expected
    assert result.passed == (expected[-1][1] == 0)
    if not result.passed:
        assert (result.failing_exponent, result.failing_value) == expected[-1]


def test_odd_trace_failure_carries_the_exact_fraction():
    """Spectrum {1/2, 1/3, −5/6}: Tr A = 0 and Tr A³ = (27 + 8 − 125)/216 = −5/12."""
    D = ExactMatrix([[Fraction(1, 2), 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(-5, 6)]])
    S = ExactMatrix([[1, Fraction(1, 2), 0], [0, 1, 2], [Fraction(1, 3), 0, 1]])
    result = odd_trace_test(S @ D @ S.inverse())
    assert not result.passed
    assert result.failing_exponent == 3
    assert result.failing_value == Fraction(-5, 12)
    assert type(result.failing_value) is Fraction
    assert result.traces == ((1, 0), (3, Fraction(-5, 12)))


# -- factorization ----------------------------------------------------------------

def test_factorize_planar_rotation():
    fact = hamiltonian_factorize(J2)
    assert fact.source == J2
    # oracle: Omega = [[0,-1],[1,0]] solves Omega A + A^T Omega = 0
    omega = ExactMatrix([[0, -1], [1, 0]])
    assert (omega @ J2 + J2.transpose() @ omega).is_zero
    assert omega in [k if k.entries == omega.entries else omega for k in skew_constraint_kernel(J2)]


def test_factorize_identity_rejected():
    with pytest.raises(NotDecomposableError) as err:
        hamiltonian_factorize(ExactMatrix.identity(2))
    assert err.value.reason == "no skew solution"


def test_factorize_oscillator_reproduces_primary_description():
    A = oscillator_matrix()
    fact = hamiltonian_factorize(A)
    assert fact.lam @ fact.ham == A
    # the block pair (J, I) is itself a valid factorization of A
    lam1 = ExactMatrix([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ])
    ham1 = ExactMatrix.identity(4)
    Factorization(lam=lam1, ham=ham1, source=A)


def test_oscillator_swapped_description_is_also_a_factorization():
    # the same generator factors through the index-swapped pair as well
    A = oscillator_matrix()
    lam2 = ExactMatrix([
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ])
    ham2 = ExactMatrix([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    fact = Factorization(lam=lam2, ham=ham2, source=A)
    assert fact.lam != ExactMatrix([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ])


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(lam=ExactMatrix.identity(2), ham=ExactMatrix.identity(2),
                      source=ExactMatrix.identity(2))
    with pytest.raises(ValueError):
        Factorization(lam=J2, ham=J2, source=J2 @ J2)
    with pytest.raises(ValueError):
        Factorization(lam=J2, ham=ExactMatrix.identity(2), source=ExactMatrix.identity(2))


def test_factorize_random_decomposable_corpus():
    rng = random.Random(31)
    for _ in range(30):
        n = 2 * rng.randint(1, 4)
        lam0 = random_skew_invertible(rng, n)
        ham0 = random_symmetric(rng, n)
        A = lam0 @ ham0
        fact = hamiltonian_factorize(A)
        assert fact.lam @ fact.ham == A
        assert odd_trace_test(A).passed


def test_factorize_trace_violating_random():
    rng = random.Random(32)
    rejected = 0
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        A = ExactMatrix(rows)
        if odd_trace_test(A).passed:
            continue
        with pytest.raises(NotDecomposableError):
            hamiltonian_factorize(A)
        rejected += 1
    assert rejected >= 5


@pytest.mark.parametrize("A", [
    ExactMatrix.zeros(6),
    ExactMatrix.zeros(8),
    ExactMatrix([[1 if (i, j) == (0, 1) else 0 for j in range(8)] for i in range(8)]),
], ids=["zero-6", "zero-8", "one-entry-8"])
def test_large_kernels_factor_fast(A):
    gc.collect()  # a full collection of the test process's heap is not the factorization's cost
    start = time.perf_counter()
    fact = hamiltonian_factorize(A)
    assert time.perf_counter() - start < 0.1
    assert isinstance(fact, Factorization) and fact.lam @ fact.ham == A


def generic_determinant_is_zero(kernel, n):
    """Whether sympy's det of Σ c_k K_k, over the polynomial ring in the c_k, is 0."""
    c = sympy.symbols(f"c0:{len(kernel)}")
    M = sympy.zeros(n, n)
    for ck, K in zip(c, kernel):
        M += ck * sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                for row in K.entries])
    return DomainMatrix.from_Matrix(M).det() == 0


@st.composite
def small_system_matrices(draw, max_n):
    """Small-integer A, mostly of even size: half skew·symmetric products (always
    factorizable), half {−1, 0, 1} matrices (often with a kernel of singular
    elements only)."""
    n = draw(st.sampled_from([n for n in (2, 3, 4, 4, 4, 6, 6) if n <= max_n]))
    cell = st.sampled_from([-1, 0, 0, 0, 1])
    if draw(st.booleans()):
        return ExactMatrix([[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)])
    X = ExactMatrix([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
    Y = ExactMatrix([[draw(cell) for _ in range(n)] for _ in range(n)])
    return (X - X.transpose()) @ (Y + Y.transpose())


def factorization_or_none(A):
    try:
        return hamiltonian_factorize(A)
    except NotDecomposableError:
        return None


@settings(max_examples=40)
@given(small_system_matrices(6))
def test_factorization_exists_exactly_when_the_generic_determinant_is_nonzero(A):
    kernel = skew_constraint_kernel(A)
    expected = bool(kernel) and not generic_determinant_is_zero(kernel, A.n)
    assert (factorization_or_none(A) is not None) == expected


def sweep_reference(kernel, n):
    """Ω⁻¹ of the first radius-1 combination in the order of the former sweep:
    itertools.product over {−1, 0, 1} with the first nonzero entry positive."""
    for combo in itertools.product((-1, 0, 1), repeat=len(kernel)):
        if next((c for c in combo if c), 0) <= 0:
            continue
        omega = ExactMatrix.zeros(n)
        for c, K in zip(combo, kernel):
            omega = omega + K.scale_by(c)
        if omega.determinant() != 0:
            return omega.inverse()
    return None


def test_singular_kernels_are_proved_not_decomposable():
    """4×4 matrices over {−1, 0, 1} (random.Random(7)) with a non-trivial skew
    kernel but no invertible radius-1 combination, which for n = 4 means none."""
    rng = random.Random(7)
    proved = 0
    while proved < 12:
        A = ExactMatrix([[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)])
        kernel = skew_constraint_kernel(A)
        if kernel and sweep_reference(kernel, 4) is None:
            with pytest.raises(NotDecomposableError) as err:
                hamiltonian_factorize(A)
            assert err.value.reason == "every skew solution is singular"
            proved += 1


@settings(max_examples=60)
@given(small_system_matrices(4))
def test_lambda_is_the_first_radius_one_sweep_hit(A):
    kernel = skew_constraint_kernel(A)
    expected = sweep_reference(kernel, A.n) if kernel else None
    fact = factorization_or_none(A)
    assert (fact.lam if fact else None) == expected


# -- non-canonical symmetries --------------------------------------------------------

def test_symmetry_scalar_square_is_exact():
    A = oscillator_matrix()
    # oracle: A^2 is exactly -I
    assert A.power(2) == ExactMatrix.identity(4).scale_by(-1)
    T = noncanonical_symmetry(A, k=1, lam=Fraction(1, 2))
    assert isinstance(T, ExactMatrix)
    assert T.log_scale == Fraction(-1, 2)
    assert T.entries == ExactMatrix.identity(4).entries


def test_symmetry_zero_coefficient_is_identity():
    A = oscillator_matrix()
    assert noncanonical_symmetry(A, k=1, lam=0) == ExactMatrix.identity(4)


def test_symmetry_generic_float_matches_power_series():
    rng = random.Random(33)
    lam0 = random_skew_invertible(rng, 4)
    ham0 = random_symmetric(rng, 4)
    A = lam0 @ ham0
    # make sure we exercise the generic branch
    B = A.power(2)
    assert any(
        B.entries[i][j] != (B.entries[0][0] if i == j else 0)
        for i in range(4) for j in range(4)
    )
    T = noncanonical_symmetry(A, k=1, lam=Fraction(1, 10))
    assert isinstance(T, np.ndarray)
    Af = A.to_float()
    assert np.max(np.abs(T @ Af @ np.linalg.inv(T) - Af)) < 1e-11
    # oracle: partial sums of the exponential series
    Bf = 0.1 * B.to_float()
    series = np.zeros_like(Bf)
    term = np.eye(4)
    for m in range(1, 40):
        series = series + term
        term = term @ Bf / m
    assert np.max(np.abs(T - series)) < 1e-9


# 1-norms just below and just above each θ_m, so every Padé degree and each switch
# between them is taken; the geometric mean of each pair of neighbouring θ_m, where a
# degree taken past its θ_m would show; and norms up to 30 · θ_13, scaled by up to 2^5.
THETAS = [theta for theta, _ in _PADE] + [_THETA_13]
EXPM_NORMS = [theta * f for theta in THETAS for f in (0.999, 1.001)]
EXPM_NORMS += [math.sqrt(a * b) for a, b in zip(THETAS, THETAS[1:])]
EXPM_NORMS += [_THETA_13 * f for f in (1.9, 2.1, 7.5, 30.0)]


@pytest.mark.parametrize("norm", EXPM_NORMS, ids=lambda norm: f"{norm:.4g}")
@settings(max_examples=25)
@given(n=st.integers(1, 8), entries=st.lists(st.integers(-100, 100), min_size=64, max_size=64))
def test_expm_matches_scipy(norm, n, entries):
    from scipy.linalg import expm

    M = np.array(entries[:n * n], dtype=float).reshape(n, n)
    size = np.abs(M).sum(axis=0).max()
    if size == 0.0:
        M, size = np.eye(n), 1.0
    M *= norm / size
    expected = expm(M)
    # both sides round off, scipy by up to 4e-13 of the largest entry near θ_13
    tolerance = 1e-12 * max(1.0, norm)
    assert np.max(np.abs(_expm(M) - expected)) <= tolerance * np.max(np.abs(expected))


@pytest.mark.parametrize("norm", EXPM_NORMS, ids=lambda norm: f"{norm:.4g}")
def test_expm_is_accurate_to_a_few_ulps_of_the_norm(norm):
    """Against a 40-digit exponential: ±norm, where a Padé degree taken past its θ_m
    shows its truncation error, and seeded integer matrices, one of them triangular."""
    import mpmath

    rng = random.Random(round(norm * 1000))
    matrices = [np.array([[norm]]), np.array([[-norm]])]
    for n, triangular in ((2, True), (3, False), (6, False)):
        M = np.array([[float(rng.randint(-9, 9)) if j >= i or not triangular else 0.0
                       for j in range(n)] for i in range(n)])
        matrices.append(M * (norm / np.abs(M).sum(axis=0).max()))
    for M in matrices:
        with mpmath.workdps(40):
            exact = np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)
        error = np.max(np.abs(_expm(M) - exact)) / np.max(np.abs(exact))
        # r_13 of a positive scalar near θ_13 is off by about 100 ulps: q_13(x) cancels
        assert error <= 1e-14 * max(1.0, norm), M


SPLIT_OSCILLATOR = ExactMatrix([[0, 0, 1, 0], [0, 0, 0, 2], [-1, 0, 0, 0], [0, -1, 0, 0]])


@pytest.mark.parametrize("lam", [10 ** 308, 10 ** 400], ids=["product", "lam"])
def test_float_symmetry_exponent_beyond_the_float_range_raises(lam):
    """A² = diag(−1, −2, −1, −2): λA² overflows, or λ itself is beyond the float range."""
    with pytest.raises(FloatSymmetryError) as caught:
        noncanonical_symmetry(SPLIT_OSCILLATOR, k=1, lam=lam)
    assert str(caught.value) == f"the exponent of exp({lam} * A^2) is beyond the float range"


# -- transform_description --------------------------------------------------------------

def test_transform_by_exponential_scales_both_factors():
    A = oscillator_matrix()
    fact = hamiltonian_factorize(A)
    T = noncanonical_symmetry(A, k=1, lam=Fraction(1, 2))  # e^{-1/2} I
    moved = transform_description(fact, T)
    assert moved.exact
    assert moved.lam.log_scale == fact.lam.log_scale - 1
    assert moved.lam.entries == fact.lam.entries
    assert moved.ham.log_scale == fact.ham.log_scale + 1
    assert moved.ham.entries == fact.ham.entries
    assert not moved.same_description
    assert moved.factorization.source == A


def test_transform_by_identity_keeps_description():
    A = oscillator_matrix()
    fact = hamiltonian_factorize(A)
    moved = transform_description(fact, ExactMatrix.identity(4))
    assert moved.same_description
    assert moved.lam == fact.lam and moved.ham == fact.ham


def test_transform_rejects_non_symmetry():
    A = oscillator_matrix()
    fact = hamiltonian_factorize(A)
    not_symmetry = ExactMatrix([
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])
    with pytest.raises(ValueError):
        transform_description(fact, not_symmetry)


def test_transform_canonical_rotation_flagged_same():
    # rotation in the (q1, p1) plane with a rational 3-4-5 angle is symplectic
    c, s = Fraction(3, 5), Fraction(4, 5)
    rotation = ExactMatrix([
        [c, 0, s, 0],
        [0, 1, 0, 0],
        [-s, 0, c, 0],
        [0, 0, 0, 1],
    ])
    lam = ExactMatrix([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ])
    assert is_canonical(rotation, lam)
    A = oscillator_matrix()
    assert rotation @ A @ rotation.inverse() == A
    fact = Factorization(lam=lam, ham=ExactMatrix.identity(4), source=A)
    moved = transform_description(fact, rotation)
    assert moved.same_description


def test_is_canonical_cases():
    lam = ExactMatrix([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ])
    assert is_canonical(ExactMatrix.identity(4), lam)
    scaled = ExactMatrix.scaled_identity(4, log_scale=Fraction(-1, 3))
    assert not is_canonical(scaled, lam)
    assert is_canonical(np.eye(4), lam)


def test_transform_float_symmetry_path():
    rng = random.Random(34)
    while True:
        lam0 = random_skew_invertible(rng, 4)
        ham0 = random_symmetric(rng, 4)
        A = (lam0 @ ham0).scale_by(Fraction(1, 8))
        B = A.power(2)
        generic = any(
            B.entries[i][j] != (B.entries[0][0] if i == j else 0)
            for i in range(4) for j in range(4)
        )
        if generic:
            break
    fact = hamiltonian_factorize(A)
    T = noncanonical_symmetry(A, k=1, lam=Fraction(1, 10))
    moved = transform_description(fact, T)
    assert not moved.exact
    assert moved.max_residual < 1e-10
    assert np.allclose(moved.lam @ moved.ham, A.to_float(), atol=1e-9)
