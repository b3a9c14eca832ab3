"""Poisson-times-symmetric factorization of linear systems.

A linear system ẋ = Ax is Hamiltonian exactly when A = Λ·H with Λ an
invertible skew matrix and H symmetric.  Writing Ω = Λ⁻¹ turns this
into the linear constraint ΩA + AᵀΩ = 0 over skew matrices, which is
solved exactly.  Over the kernel basis K_k, det(Σ c_k K_k) is the square
of the Pfaffian P(c), of degree n/2 in each c_k, so an invertible element
exists exactly when P ≢ 0, and then one is found by fixing the c_k one at
a time (Alon, Combinatorial Nullstellensatz, 1999).

Non-canonical linear symmetries T of A (T A T⁻¹ = A with T Λ Tᵀ ≠ Λ)
transport a factorization to a genuinely different one:
A = (TΛTᵀ)·((T⁻¹)ᵀHT⁻¹).  Exponentials e^{λA^{2k}} provide such
symmetries; they are kept exact when A^{2k} is a rational multiple of
the identity (the scale e^{λc} is carried symbolically as a rational
``log_scale``) and computed in floating point otherwise.  numpy is
imported only by that float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import _linalg
from .errors import FloatSymmetryError, NotDecomposableError
from .expr import Chart, Polynomial

_FLOAT_TOL = 1e-12


def _integer_product(a, b):
    """The product of two integer matrices given as lists of rows."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


class ExactMatrix:
    """Square matrix with exact rational entries and an optional
    exponential prefactor: the value represented is e^{log_scale} · entries.

    The prefactor keeps results like e^{λ}·Λ exact (e^{s} is irrational
    for rational s ≠ 0, so equality of two represented values forces
    equal scales and equal entries).
    """

    __slots__ = ("entries", "log_scale")

    def __init__(self, entries, log_scale: Fraction = Fraction(0)):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in r) for r in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("entries must form a non-empty square matrix")
        self.entries = rows
        self.log_scale = Fraction(log_scale)

    # -- constructors -----------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "ExactMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def scaled_identity(cls, n: int, log_scale: Fraction) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], log_scale)

    # -- shape and views ----------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.entries)

    def to_float(self):
        """The value as a float ndarray."""
        import numpy as np

        scale = float(np.exp(float(self.log_scale)))
        return scale * np.array([[float(x) for x in row] for row in self.entries])

    # -- algebra ---------------------------------------------------------------
    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        a, da = _linalg.integer_matrix(self.entries)
        b, db = _linalg.integer_matrix(other.entries)
        rows = [[Fraction(x, da * db) for x in row] for row in _integer_product(a, b)]
        return ExactMatrix(rows, self.log_scale + other.log_scale)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if self.log_scale != other.log_scale:
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise ValueError("cannot add matrices with different exponential scales exactly")
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
            self.log_scale,
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-x for x in row] for row in self.entries], self.log_scale)

    def scale_by(self, factor) -> "ExactMatrix":
        factor = Fraction(factor)
        return ExactMatrix(
            [[factor * x for x in row] for row in self.entries], self.log_scale
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.entries)), self.log_scale)

    def power(self, exponent: int) -> "ExactMatrix":
        if exponent < 0:
            raise ValueError("negative matrix power; invert explicitly")
        result = ExactMatrix.identity(self.n)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def determinant(self) -> Fraction:
        """Determinant of the rational entries (the e^{n·s} prefactor is
        positive, so invertibility is decided by this alone)."""
        return _linalg.det(self.entries)

    def inverse(self) -> "ExactMatrix":
        inv = _linalg.inverse(self.entries)
        if inv is None:
            raise ZeroDivisionError("matrix is singular")
        return ExactMatrix(inv, -self.log_scale)

    def trace(self) -> Fraction:
        if self.log_scale != 0:
            raise ValueError("trace of an exponentially scaled matrix is not rational")
        return sum(self.entries[i][i] for i in range(self.n))

    # -- predicates ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_skew(self) -> bool:
        return self == -self.transpose()

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.is_zero and other.is_zero:
            return True
        return self.log_scale == other.log_scale and self.entries == other.entries

    def __str__(self):
        body = "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.entries
        ) + "]"
        if self.log_scale:
            return f"exp({self.log_scale}) * {body}"
        return body

    def __repr__(self):
        return f"ExactMatrix({self})"


@dataclass(frozen=True)
class Factorization:
    """A verified decomposition source = lam · ham.

    Construction re-checks every invariant exactly: lam skew and
    invertible, ham symmetric, product equal to the source.
    """

    lam: ExactMatrix
    ham: ExactMatrix
    source: ExactMatrix

    def __post_init__(self):
        if not self.lam.is_skew():
            raise ValueError("factor lam is not skew-symmetric")
        if self.lam.determinant() == 0:
            raise ValueError("factor lam is singular")
        if not self.ham.is_symmetric():
            raise ValueError("factor ham is not symmetric")
        if self.lam @ self.ham != self.source:
            raise ValueError("product lam @ ham does not reproduce the source matrix")


@dataclass(frozen=True)
class OddTraceResult:
    """Outcome of the odd-power trace test.

    Vanishing odd traces are necessary for a factorization, and
    sufficient only for generic (semisimple) matrices; traces are
    checked for odd exponents up to 2n−1, which determines all the rest
    through Newton's identities.
    """

    passed: bool
    failing_exponent: int | None = None
    failing_value: Fraction | None = None
    traces: tuple = ()

    def to_dict(self):
        return {
            "passed": self.passed,
            "failing_exponent": self.failing_exponent,
            "failing_k": None if self.failing_exponent is None else (self.failing_exponent - 1) // 2,
            "failing_value": None if self.failing_value is None else str(self.failing_value),
            "traces": [[k, str(v)] for k, v in self.traces],
            "sufficient_only_for_generic": True,
        }


def odd_trace_test(A: ExactMatrix) -> OddTraceResult:
    """Check Tr A^(2k+1) = 0 exactly for all odd exponents up to 2n−1.

    The powers are taken of the integer matrix a = d·A, and
    Tr A^k = Tr a^k / d^k.
    """
    if A.log_scale != 0:
        raise ValueError("trace of an exponentially scaled matrix is not rational")
    a, d = _linalg.integer_matrix(A.entries)
    square = _integer_product(a, a)
    traces, power = [], a
    for exponent in range(1, 2 * A.n, 2):
        if exponent > 1:
            power = _integer_product(power, square)
        value = Fraction(sum(power[i][i] for i in range(A.n)), d ** exponent)
        traces.append((exponent, value))
        if value:
            return OddTraceResult(
                passed=False,
                failing_exponent=exponent,
                failing_value=value,
                traces=tuple(traces),
            )
    return OddTraceResult(passed=True, traces=tuple(traces))


def _skew_from_coefficients(n, pairs, coefficients):
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in zip(pairs, coefficients):
        rows[i][j], rows[j][i] = c, -c
    return ExactMatrix(rows)


def skew_constraint_kernel(A: ExactMatrix):
    """Exact basis of {Ω skew : ΩA + AᵀΩ = 0}, as ExactMatrix list.

    In the basis E_kl (k < l; +1 at (k, l), −1 at (l, k)) of skew
    matrices, the constraint has row (i, j), i < j, and column (k, l)
    holding (E_kl A + Aᵀ E_kl)_ij = δ_ik A_lj − δ_il A_kj + δ_jl A_ki − δ_jk A_li.
    """
    n = A.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return []
    a = _linalg.integer_matrix(A.entries)[0]  # a multiple of A has the same kernel

    def entry(i, j, k, l):
        return ((a[l][j] if i == k else 0) - (a[k][j] if i == l else 0)
                + (a[k][i] if j == l else 0) - (a[l][i] if j == k else 0))

    constraint = [[entry(i, j, k, l) for (k, l) in pairs] for (i, j) in pairs]
    kernel = _linalg.kernel(constraint, ncols=len(pairs))
    return [_skew_from_coefficients(n, pairs, vec) for vec in kernel]


def _generic_pfaffian(basis):
    """Pf(Σ c_k K_k) over the skew matrices K_k, as exponent tuple -> coefficient."""
    n, m = basis[0].n, len(basis)
    if m == 1:  # Pf(c·K) = Pf(K)·c^(n/2)
        value = _linalg.pfaffian(_linalg.integer_matrix(basis[0].entries)[0])
        return {(n // 2,): value} if value else {}
    chart = Chart([f"c{k}" for k in range(m)])
    units = [tuple(int(k == l) for l in range(m)) for k in range(m)]
    zero = Polynomial.constant(chart, 0)
    rows = [[Polynomial(chart, {u: K.entries[i][j] for u, K in zip(units, basis)
                                if K.entries[i][j]}) if j > i else zero
             for j in range(n)] for i in range(n)]
    return dict(_linalg.pfaffian(rows, zero, Polynomial.constant(chart, 1)).terms.items())


def _fix_first(terms, value):
    """The terms left after substituting ``value`` for the first variable."""
    fixed = {}
    for exps, c in terms.items():
        fixed[exps[1:]] = fixed.get(exps[1:], 0) + c * value ** exps[0]
    return {exps: c for exps, c in fixed.items() if c}


def hamiltonian_factorize(A: ExactMatrix) -> Factorization:
    """Factor A = Λ·H with Λ skew invertible and H symmetric, exactly.

    Λ⁻¹ = Σ c_k K_k over the kernel basis, with P = Pf(Σ c_k K_k) ≢ 0.
    The leading zeros of c are the longest prefix of the basis whose
    removal leaves P ≢ 0; the next c_k is 1, which keeps the homogeneous
    P ≢ 0; each later c_k is the first of −1, 0, 1, −2, 2, … that keeps
    P ≢ 0, and one of the first n/2 + 1 does, since P has degree at most
    n/2 in c_k.  For n ≤ 4, where that degree is at most 2, c is the
    first invertible combination of a lex-order sweep over {−1, 0, 1}^m
    with the first nonzero entry positive.

    Raises :class:`NotDecomposableError` with reason "no skew solution"
    when the constraint kernel is trivial, and "every skew solution is
    singular" when P ≡ 0; both are proofs that no factorization exists.
    """
    kernel = skew_constraint_kernel(A)
    if not kernel:
        raise NotDecomposableError("no skew solution")
    for z in reversed(range(len(kernel))):
        terms = _generic_pfaffian(kernel[z:])
        if terms:
            break
    else:
        raise NotDecomposableError("every skew solution is singular")
    omega, terms = kernel[z], _fix_first(terms, 1)
    values = [-1, 0, 1] + [v for r in range(2, A.n // 2 + 1) for v in (-r, r)]
    for K in kernel[z + 1:]:
        c, terms = next((v, fixed) for v in values if (fixed := _fix_first(terms, v)))
        if c:
            omega = omega + K.scale_by(c)
    return Factorization(lam=omega.inverse(), ham=omega @ A, source=A)


# Higham (2005), Table 2.3: θ_m, the largest 1-norm at which the [m/m] Padé
# approximant r_m is e^A to double precision, and r_m's coefficients b_0..b_m.
_PADE = (
    (1.495585217958292e-2, (120, 60, 12, 1)),
    (2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
    (9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1)),
    (2.097847961257068e0, (17643225600, 8821612800, 2075673600, 302702400, 30270240,
                           2162160, 110880, 3960, 90, 1)),
)
_THETA_13 = 5.371920351148152e0
_B13 = (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
        129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920, 40840800,
        960960, 16380, 182, 1)


def _expm(M):
    """e^M of a finite float matrix by scaling and squaring (Higham 2005, Algorithm 2.3).

    r_m = (V − U)⁻¹(V + U), with U the odd and V the even part of the
    numerator, for the least m ∈ {3, 5, 7, 9} with ‖M‖₁ ≤ θ_m; otherwise
    r_13 of M/2^s, with the least s ≥ 0 that brings the norm within θ_13,
    squared s times.
    """
    import numpy as np

    norm = float(np.abs(M).sum(axis=0).max())
    ident = np.eye(len(M))
    M2 = M @ M
    evens = [ident, M2]
    for theta, b in _PADE:
        if norm <= theta:
            while 2 * len(evens) < len(b):
                evens.append(evens[-1] @ M2)
            U = M @ sum(c * P for c, P in zip(b[1::2], evens))
            V = sum(c * P for c, P in zip(b[::2], evens))
            return np.linalg.solve(V - U, V + U)
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    if s:
        M = M * 2.0 ** -s
        M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    b = _B13
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _float_inverse(T, what):
    """T⁻¹ of a float matrix; a non-finite or singular T raises FloatSymmetryError."""
    import numpy as np

    if not np.isfinite(T).all():
        raise FloatSymmetryError(f"{what} is beyond the float range")
    try:
        return np.linalg.inv(T)
    except np.linalg.LinAlgError:
        raise FloatSymmetryError(f"{what} is singular in floating point") from None


def noncanonical_symmetry(A: ExactMatrix, k: int, lam):
    """The symmetry T = exp(lam · A^(2k)) of the linear system A.

    Exact (an :class:`ExactMatrix` with symbolic exponential scale) when
    A^(2k) is a rational multiple of the identity; otherwise a float
    ndarray, computed by scaling and squaring with Padé approximants
    (Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26, 2005), with the commutation
    T A T⁻¹ = A verified to 1e-12.  A float T that is not finite, is
    singular or fails the check raises :class:`FloatSymmetryError`.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    lam = Fraction(lam)
    if A.log_scale != 0:
        raise ValueError("expected an unscaled system matrix")
    if lam == 0:
        return ExactMatrix.identity(A.n)
    B = A.power(2 * k)
    diagonal = B.entries[0][0]
    if B == ExactMatrix.identity(A.n).scale_by(diagonal):
        return ExactMatrix.scaled_identity(A.n, log_scale=lam * diagonal)
    import numpy as np

    what = f"exp({lam} * A^{2 * k})"
    with np.errstate(all="ignore"):
        try:
            exponent = float(lam) * B.to_float()
        except OverflowError:  # lam or an entry of A^(2k) is beyond the float range
            exponent = None
        if exponent is None or not np.isfinite(exponent).all():
            raise FloatSymmetryError(f"the exponent of {what} is beyond the float range")
        T = _expm(exponent)
        Af = A.to_float()
        residual = float(np.max(np.abs(T @ Af @ _float_inverse(T, what) - Af)))
    if not residual <= _FLOAT_TOL * max(1.0, float(np.max(np.abs(Af)))):
        raise FloatSymmetryError(f"float symmetry check failed, residual {residual:g}")
    return T


def is_canonical(T, lam: ExactMatrix) -> bool:
    """True when T preserves the skew factor: T·lam·Tᵀ = lam.

    Exact for :class:`ExactMatrix` input, within 1e-12 for float input.
    """
    if isinstance(T, ExactMatrix):
        return (T @ lam @ T.transpose()) == lam
    import numpy as np

    T = np.asarray(T, dtype=float)
    lam_f = lam.to_float()
    scale = max(1.0, float(np.max(np.abs(lam_f))))
    with np.errstate(all="ignore"):
        return bool(np.max(np.abs(T @ lam_f @ T.T - lam_f)) <= _FLOAT_TOL * scale)


@dataclass(frozen=True)
class TransformedDescription:
    """A factorization transported by a symmetry, plus comparison flags.

    ``same_description`` is True when the symmetry was canonical for the
    original skew factor (the transported pair coincides with it).
    ``exact`` distinguishes exact transport from the float path, where
    ``max_residual`` bounds the verification error.
    """

    lam: object
    ham: object
    source: ExactMatrix
    same_description: bool
    exact: bool
    max_residual: float = 0.0

    @property
    def factorization(self) -> Factorization | None:
        if not self.exact:
            return None
        return Factorization(lam=self.lam, ham=self.ham, source=self.source)


def transform_description(fact: Factorization, T) -> TransformedDescription:
    """Transport a factorization along a symmetry T of its source.

    Checks T A T⁻¹ = A (exactly, or to float tolerance), then returns
    Λ' = TΛTᵀ and H' = (T⁻¹)ᵀHT⁻¹ with the product re-verified against
    the source.  On the float path, a T or a transported factor that is
    not finite, or a singular T, raises :class:`FloatSymmetryError`.
    """
    A = fact.source
    if isinstance(T, ExactMatrix):
        if T.determinant() == 0:
            raise ValueError("symmetry candidate is singular")
        T_inv = T.inverse()
        if (T @ A @ T_inv) != A:
            raise ValueError("T is not a symmetry of the source matrix")
        new_lam = T @ fact.lam @ T.transpose()
        new_ham = T_inv.transpose() @ fact.ham @ T_inv
        fact_new = Factorization(lam=new_lam, ham=new_ham, source=A)
        return TransformedDescription(
            lam=fact_new.lam,
            ham=fact_new.ham,
            source=A,
            same_description=(new_lam == fact.lam),
            exact=True,
        )
    import numpy as np

    T = np.asarray(T, dtype=float)
    Af = A.to_float()
    scale = max(1.0, float(np.max(np.abs(Af))))
    with np.errstate(all="ignore"):
        T_inv = _float_inverse(T, "the symmetry")
        symmetry_residual = float(np.max(np.abs(T @ Af @ T_inv - Af)))
        if not symmetry_residual <= _FLOAT_TOL * scale:
            raise ValueError("T is not a symmetry of the source matrix (float check)")
        lam_f = fact.lam.to_float()
        ham_f = fact.ham.to_float()
        new_lam = T @ lam_f @ T.T
        new_ham = T_inv.T @ ham_f @ T_inv
        if not (np.isfinite(new_lam).all() and np.isfinite(new_ham).all()):
            raise FloatSymmetryError("the transported description is beyond the float range")
        product_scale = max(1.0, float(np.max(np.abs(new_lam))) * float(np.max(np.abs(new_ham))))
        product_residual = float(np.max(np.abs(new_lam @ new_ham - Af))) / product_scale
    same = bool(
        np.max(np.abs(new_lam - lam_f)) <= _FLOAT_TOL * max(1.0, float(np.max(np.abs(lam_f))))
    )
    return TransformedDescription(
        lam=new_lam,
        ham=new_ham,
        source=A,
        same_description=same,
        exact=False,
        max_residual=max(symmetry_residual, product_residual),
    )
