"""Exact linear algebra over the rationals, computed in integers.

Matrices are lists of row lists; inputs are never mutated.  They are
scaled to integer matrices, and one elimination serves ``rref``,
``rank``, ``kernel``, ``solve``, ``inverse`` and ``det``: a Bareiss
forward pass (Math. Comp. 22, 1968), fraction-free with exact division
by the previous pivot, followed for the RREF by a back-substitution that
keeps every row primitive.  The unique RREF is built at the end, one
``Fraction`` per nonzero entry; ``det`` is the sign of the row swaps
times the last pivot of the forward pass.  ``pfaffian`` works over any
commutative ring, so the same expansion serves integer matrices and
matrices of polynomials.
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


def _forward(m):
    """Bareiss's fraction-free forward pass on the integer rows m, in place.

    Returns (pivot columns, sign of the row swaps, last pivot).  Each entry
    below the pivot rows is a minor of m, so every division by the previous
    pivot is exact (Sylvester's identity); columns without a pivot are
    skipped, and a row whose pivot-column entry is 0 is still scaled.
    """
    pivots, sign, previous = [], 1, 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        a, prow = m[r][c], m[r][c + 1:]
        for i in range(r + 1, len(m)):
            row, b = m[i], m[i][c]
            if b:
                row[c:] = [0] + [(a * x - b * y) // previous for x, y in zip(row[c + 1:], prow)]
            else:
                row[c + 1:] = [a * x // previous for x in row[c + 1:]]
        previous = a
        pivots.append(c)
    return pivots, sign, previous


def _eliminate(rows):
    """Bareiss forward pass, then back-substitution: (integer rows, pivot columns).

    Row r of the result is a multiple of row r of the RREF, with its
    pivot at column pivots[r]; the rows past the pivots are zero.  Working
    upward, the rows below r are already zero in every pivot column but
    their own, so row r is cleared with one common multiplier and only its
    pivot and the free columns right of it need computing.
    """
    m = integer_matrix(rows)[0]
    pivots = _forward(m)[0]
    free = sorted(set(range(len(m[0]) if m else 0)) - set(pivots))
    for r in reversed(range(len(pivots))):
        row, c = m[r], pivots[r]
        below = [(row[p], m[s][p], m[s]) for s, p in enumerate(pivots) if s > r and row[p]]
        scale = lcm(*(q // gcd(b, q) for b, q, _ in below))
        terms = [(scale * b // q, srow) for b, q, srow in below]
        new = [0] * len(row)
        new[c] = scale * row[c]
        for f in free:
            if f > c:
                new[f] = scale * row[f] - sum(k * srow[f] for k, srow in terms)
        m[r] = _primitive(new)
    return m, pivots


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m, pivots = _eliminate(rows)
    zero = Fraction(0)
    return [
        [Fraction(x, row[pivots[r]]) if x else zero for x in row] if r < len(pivots)
        else [zero] * len(row)
        for r, row in enumerate(m)
    ], pivots


def rank(rows) -> int:
    return len(_forward(integer_matrix(rows)[0])[0])


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
    """Determinant: sign · last pivot / dⁿ of the Bareiss pass at full rank, else 0."""
    m, d = integer_matrix(rows)
    pivots, sign, last = _forward(m)
    return Fraction(sign * last, d ** len(m)) if len(pivots) == len(m) else Fraction(0)


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
