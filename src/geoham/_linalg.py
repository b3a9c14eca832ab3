"""Exact linear algebra over the rationals, computed in integers.

Matrices are lists of row lists; inputs are never mutated.  They are
scaled to integer matrices, and one fraction-free Gauss–Jordan
elimination, which keeps every row primitive by dividing out the gcd of
its entries, serves ``rref``, ``rank``, ``kernel``, ``solve`` and
``inverse``.  The unique RREF is built at the end, one ``Fraction`` per
entry.  ``det`` is Bareiss elimination (Math. Comp. 22, 1968).
``pfaffian`` works over any commutative ring, so the same expansion serves
integer matrices and matrices of polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def integer_matrix(rows):
    """(integer rows, d): d · rows, with d the lcm of all the denominators."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows):
    """Fraction-free Gauss–Jordan: (integer rows, pivot columns).

    Row r of the result is a multiple of row r of the RREF, with its
    pivot at column pivots[r]; the rows past the pivots are zero.
    """
    m = [_primitive(row) for row in integer_matrix(rows)[0]]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        for i, row in enumerate(m):
            if i != r and row[c]:
                g = gcd(prow[c], row[c])
                a, b = prow[c] // g, row[c] // g
                m[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
    return m, pivots


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m, pivots = _eliminate(rows)
    return [
        [Fraction(x, row[pivots[r]]) for x in row] if r < len(pivots) else [Fraction(0)] * len(row)
        for r, row in enumerate(m)
    ], pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def kernel(rows, ncols=None):
    """Basis of the right null space {x : rows @ x = 0}, one vector per free column."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m, pivots = rref(rows)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][free]
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent.

    Free variables are set to zero, so the result is deterministic.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    m, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][-1]
    return x


def det(rows) -> Fraction:
    """Determinant by Bareiss elimination; every division in it is exact."""
    m, d = integer_matrix(rows)
    n = len(m)
    sign, previous = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        a, prow = m[c][c], m[c][c + 1:]
        for i in range(c + 1, n):
            b = m[i][c]
            m[i][c + 1:] = [(a * x - b * y) // previous for x, y in zip(m[i][c + 1:], prow)]
        previous = a
    return Fraction(sign * previous, d ** n)


def inverse(rows):
    """Exact inverse, or None if singular."""
    n = len(rows)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


def pfaffian(rows, zero=0, one=1):
    """Pfaffian of an antisymmetric matrix, so that Pf(W)² = det W (Cayley 1849).

    Expanded along the first remaining row, memoized on the set of
    remaining indices; only the entries above the diagonal are read, and
    only ``+``, ``-`` and ``*`` are used, so the entries may come from any
    commutative ring whose ``zero`` and ``one`` are given.  An odd size
    gives ``zero``.
    """
    n = len(rows)
    if n % 2:
        return zero
    memo = {0: one}

    def pf(mask):  # Pf of the rows and columns whose bits are set in mask
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        row, rest = rows[i], mask ^ (1 << i)
        total, sign = zero, True
        for j in range(i + 1, n):
            if rest >> j & 1:
                if row[j] != zero:
                    minor = pf(rest ^ (1 << j))
                    if minor != zero:
                        term = row[j] * minor
                        total = total + term if sign else total - term
                sign = not sign
        memo[mask] = total
        return total

    return pf((1 << n) - 1)
