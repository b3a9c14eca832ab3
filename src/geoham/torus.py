"""Resonance lattices and torus classification of frequency vectors.

Frequencies are declared exactly, as rational combinations of basis
symbols assumed algebraically independent over the rationals; the
resonance lattice {k ∈ Zⁿ : Σ kᵢωᵢ = 0} is then an integer-kernel
computation, done exactly via Hermite normal form.  Irrationality is
never decided numerically.

The rank of the lattice fixes the dimension of generic orbit closures
on the invariant torus: full-dimensional closures mean no extra first
integrals, one-dimensional closures mean maximal superintegrability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linalg import integer_matrix


def row_hermite_normal_form(matrix):
    """Row-style Hermite normal form of an integer matrix.

    Row echelon with positive pivots and entries above each pivot
    reduced into [0, pivot); computed with unimodular row operations
    only, so the row lattice is preserved exactly.
    """
    m = [[int(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            live = [i for i in range(r, nrows) if m[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(m[i][c]), i))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            clear = True
            for i in range(r + 1, nrows):
                if m[i][c]:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c]:
                        clear = False
            if clear:
                break
        if m[r][c] != 0:
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
    return m


def integer_kernel(matrix, ncols):
    """HNF basis of {k ∈ Z^ncols : matrix @ k = 0} for an integer matrix.

    Runs row reduction on [matrixᵀ | I]; rows whose left block clears
    have right blocks forming a saturated kernel basis (the transform is
    unimodular, so no finite-index sublattice can sneak in).  That block
    is already in HNF: its rows are echelon with positive pivots, the
    same pass reduced the entries above each pivot, and none is zero
    because [matrixᵀ | I] has full row rank.
    """
    nrows = len(matrix)
    aug = []
    for i in range(ncols):
        row = [matrix[r][i] for r in range(nrows)] + [1 if j == i else 0 for j in range(ncols)]
        aug.append(row)
    reduced = row_hermite_normal_form(aug)
    return [row[nrows:] for row in reduced if all(x == 0 for x in row[:nrows])]


class FrequencySpec:
    """Frequencies ω_i = Σ_j C_ij β_j over declared independent symbols β."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: Sequence[str], coeffs):
        basis = tuple(str(b) for b in basis)
        if not basis:
            raise ValueError("need at least one basis symbol")
        if len(set(basis)) != len(basis):
            raise ValueError("basis symbols must be distinct")
        rows = tuple(tuple(Fraction(x) for x in row) for row in coeffs)
        if not rows:
            raise ValueError("need at least one frequency")
        if any(len(row) != len(basis) for row in rows):
            raise ValueError("each frequency row needs one coefficient per basis symbol")
        if any(all(x == 0 for x in row) for row in rows):
            raise ValueError("zero frequency rows are not allowed")
        self.basis = basis
        self.coeffs = rows

    @classmethod
    def from_rationals(cls, values) -> "FrequencySpec":
        """Purely rational frequencies, expressed over the single symbol '1'."""
        return cls(["1"], [[Fraction(v)] for v in values])

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FrequencySpec)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"FrequencySpec(basis={list(self.basis)}, coeffs={[list(r) for r in self.coeffs]})"


@dataclass(frozen=True)
class ResonanceLattice:
    """Integer lattice annihilating a frequency vector, basis rows in HNF."""

    basis: tuple
    n: int

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.n:
                raise ValueError("basis row length mismatch")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        """Exact membership via reduction against the HNF basis rows."""
        v = [int(x) for x in vector]
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        for row in self.basis:
            pivot_col = next((j for j, x in enumerate(row) if x != 0), None)
            if pivot_col is None:
                continue
            if v[pivot_col] % row[pivot_col] == 0:
                q = v[pivot_col] // row[pivot_col]
                if q:
                    v = [a - q * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def to_dict(self):
        return {"rank": self.rank, "basis": [list(row) for row in self.basis]}


def resonance_lattice(spec: FrequencySpec) -> ResonanceLattice:
    """Exact resonance lattice of the frequency vector.

    Correct conditionally on the declared algebraic independence of the
    basis symbols: the relation Σ kᵢωᵢ = 0 then splits into one rational
    equation per symbol, and the integer kernel is computed in exact
    arithmetic with HNF-canonical output.
    """
    n = spec.n
    m = len(spec.basis)
    # equations indexed by basis symbol: sum_i k_i C_ij = 0; clearing denominators scales
    # an equation, which leaves the kernel alone
    rows, _ = integer_matrix([[spec.coeffs[i][j] for i in range(n)] for j in range(m)])
    basis = integer_kernel(rows, ncols=n)
    lattice = ResonanceLattice(basis=tuple(tuple(row) for row in basis), n=n)
    for row in lattice.basis:
        for j in range(m):
            assert sum(Fraction(k) * spec.coeffs[i][j] for i, k in enumerate(row)) == 0
    return lattice


def orbit_closure_dimension(spec: FrequencySpec) -> int:
    """Dimension of the closure of a generic orbit: n − lattice rank."""
    return spec.n - resonance_lattice(spec).rank


INTEGRABLE = "integrable"
SUPERINTEGRABLE = "superintegrable"
MAXIMALLY_SUPERINTEGRABLE = "maximally_superintegrable"

INDEPENDENCE_ASSUMPTION = "basis symbols assumed algebraically independent over the rationals"


@dataclass(frozen=True)
class IntegrabilityClass:
    """Classification by generic-orbit closure dimension.

    ``extra_integrals`` counts first integrals beyond the n of plain
    integrability (n−1 in the maximally superintegrable case).
    """

    kind: str
    closure_dimension: int
    extra_integrals: int
    lattice: ResonanceLattice
    assumption: str = INDEPENDENCE_ASSUMPTION

    def to_dict(self):
        return {
            "kind": self.kind,
            "closure_dimension": self.closure_dimension,
            "extra_integrals": self.extra_integrals,
            "lattice": self.lattice.to_dict(),
            "assumption": self.assumption,
        }


def classify(spec: FrequencySpec) -> IntegrabilityClass:
    """Label a frequency vector by its generic orbit-closure dimension.

    Closure dimension d = n − rank: d = 1 means every generic orbit
    closes up (maximally superintegrable, n−1 extra integrals);
    d = n means the generic closure is the whole torus (no extra
    integrals); in between the system is superintegrable with n − d
    extra integrals.
    """
    lattice = resonance_lattice(spec)
    n = spec.n
    d = n - lattice.rank
    if d == 1:
        kind = MAXIMALLY_SUPERINTEGRABLE
    elif d == n:
        kind = INTEGRABLE
    else:
        kind = SUPERINTEGRABLE
    return IntegrabilityClass(
        kind=kind,
        closure_dimension=d,
        extra_integrals=n - d,
        lattice=lattice,
    )
