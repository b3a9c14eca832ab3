"""Exact multivariate rational functions over the rationals, plus the
textual expression parser.

Everything symbolic in this package is built from three types:

* :class:`Chart` -- an ordered list of coordinate names, optionally
  extended by named symbolic constants (``omega``, ``lam``, ...).
  Constants behave like extra variables that derivatives treat as
  scalars.
* :class:`Polynomial` -- sparse terms ``packed exponent key -> int``
  over one positive int denominator, kept canonical, so equality is
  dict equality.  A key packs a monomial into one int with 18-bit
  slots: the total degree in the top slot, then variable 0, down to the
  last variable in the lowest slot.  Integer order on keys is therefore
  graded-lex order, a monomial product is a key sum, and
  ``d/dx_i`` subtracts ``(1 << shift_i) + (1 << shift_degree)``.
* :class:`RationalFunction` -- a numerator/denominator pair.  Quotients
  are *not* reduced to lowest terms (no multivariate gcd); equality is
  decided by cross-multiplication, which is exact regardless of the
  representation.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import string
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import comb, gcd, lcm
from operator import or_
from typing import Sequence, Union

from .errors import (ChartMismatchError, ExponentLimitError, ExpressionSizeError, ParseError,
                     PoleError, UnknownSymbolError)

#: Largest exponent a single variable may carry; guards runaway expansion.
MAX_EXPONENT = 2 ** 16
#: Largest term-pair count of one polynomial product (len(a) * len(b)); about
#: 300x the largest product of the fixtures and the benchmark workloads.
MAX_TERM_PAIRS = 1_000_000
# Width of one exponent slot of a packed key: a product of two polynomials
# within MAX_EXPONENT (at most 2^17 per variable) never carries into the next slot.
_SLOT_BITS = 18
_SLOT_MASK = (1 << _SLOT_BITS) - 1

Scalar = Union[int, Fraction]


class Chart:
    """An ordered coordinate chart with optional symbolic constants.

    ``names`` are the actual coordinates (the ones differentials and
    vector fields range over); ``constants`` are extra symbols allowed
    in expressions whose derivatives along coordinates vanish.
    """

    __slots__ = ("names", "constants", "_index", "_shifts", "_degree_shift")

    def __init__(self, names: Sequence[str], constants: Sequence[str] = ()):
        names = tuple(names)
        constants = tuple(constants)
        seen = set()
        for name in names + constants:
            if not name or not _is_identifier(name):
                raise ValueError(f"invalid symbol name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol name {name!r}")
            seen.add(name)
        if not names:
            raise ValueError("chart needs at least one coordinate")
        self.names = names
        self.constants = constants
        self._index = {n: i for i, n in enumerate(names + constants)}
        self._shifts = tuple(_SLOT_BITS * i for i in reversed(range(len(self._index))))
        self._degree_shift = _SLOT_BITS * len(self._index)

    def _pack(self, exps) -> int:
        return sum(e << s for e, s in zip(exps, self._shifts)) + (sum(exps) << self._degree_shift)

    def _unpack(self, key: int) -> tuple:
        return tuple(key >> s & _SLOT_MASK for s in self._shifts)

    @property
    def dimension(self) -> int:
        return len(self.names)

    @property
    def variables(self) -> tuple:
        """Coordinates followed by constants; the polynomial variable order."""
        return self.names + self.constants

    def axis(self, name: str) -> int:
        """Index of ``name`` among all variables (coordinates first)."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown symbol {name!r}") from None

    def coordinate_axis(self, name: str) -> int:
        i = self.axis(name)
        if i >= self.dimension:
            raise UnknownSymbolError(f"{name!r} is a declared constant, not a coordinate")
        return i

    def coordinate(self, name: str) -> "RationalFunction":
        """The coordinate (or constant) ``name`` as a rational function."""
        return RationalFunction(Polynomial.variable(self, self.axis(name)))

    def scalar(self, value: Scalar) -> "RationalFunction":
        return RationalFunction(Polynomial.constant(self, value))

    def zero(self) -> "RationalFunction":
        return self.scalar(0)

    def one(self) -> "RationalFunction":
        return self.scalar(1)

    def __eq__(self, other):
        return (isinstance(other, Chart) and self.names == other.names
                and self.constants == other.constants)

    def __hash__(self):
        return hash((self.names, self.constants))

    def __repr__(self):
        if self.constants:
            return f"Chart({list(self.names)}, constants={list(self.constants)})"
        return f"Chart({list(self.names)})"


def _is_identifier(name: str) -> bool:
    if name[0] not in string.ascii_letters + "_":
        return False
    return all(c in string.ascii_letters + string.digits + "_" for c in name)


def require_same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart!r} vs {b.chart!r}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _polynomial(chart: Chart, terms: dict, den: int = 1) -> "Polynomial":
    """A Polynomial from packed terms without zero coefficients over ``den`` > 0,
    with the common factor of ``den`` and the numerators divided out."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
    poly = object.__new__(Polynomial)
    poly.chart, poly._terms, poly._den = chart, terms, den
    return poly


class _TermsView(Mapping):
    """Read-only ``exponent tuple -> Fraction`` view of a polynomial's terms."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Polynomial"):
        self._poly = poly

    def __len__(self):
        return len(self._poly._terms)

    def __iter__(self):
        return map(self._poly.chart._unpack, self._poly._terms)

    def __getitem__(self, exps):
        key = self._poly.chart._pack(exps)
        if self._poly.chart._unpack(key) != exps or key not in self._poly._terms:
            raise KeyError(exps)
        return Fraction(self._poly._terms[key], self._poly._den)

    # items() and values() read the packed dict once; the inherited ones pack
    # every key again to look it up.
    def _dict(self) -> dict:
        unpack, den = self._poly.chart._unpack, self._poly._den
        return {unpack(k): Fraction(c, den) for k, c in self._poly._terms.items()}

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``_terms`` maps a packed exponent key (see the module docstring) to a
    non-zero int numerator, and ``_den`` is one positive int denominator.
    The form is canonical: gcd(_den, all numerators) = 1, and the zero
    polynomial has ``_den == 1``, so ``==`` is plain dict comparison.
    ``terms`` is the same data as ``exponent tuple -> Fraction``.
    """

    __slots__ = ("chart", "_terms", "_den")

    def __init__(self, chart: Chart, terms: Mapping[tuple, Fraction]):
        nvars = len(chart.variables)
        clean = {}
        for exps, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple length does not match chart")
            if min(exps) < 0:
                raise ValueError("negative exponent")
            if max(exps) > MAX_EXPONENT:
                raise ExponentLimitError(f"exponent {max(exps)} exceeds limit {MAX_EXPONENT}")
            clean[chart._pack(exps)] = coeff
        den = lcm(1, *(c.denominator for c in clean.values()))
        self.chart, self._den = chart, den
        self._terms = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}

    terms = property(_TermsView, doc="The terms as a read-only exponent tuple -> Fraction map.")

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, chart: Chart, value: Scalar) -> "Polynomial":
        value = _as_fraction(value)
        return _polynomial(chart, {0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, chart: Chart, axis: int) -> "Polynomial":
        return _polynomial(chart, {(1 << chart._shifts[axis]) + (1 << chart._degree_shift): 1})

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        require_same_chart(self, other)
        den = self._den
        if den == other._den:
            terms, scale = dict(self._terms), 1
        else:
            g = gcd(den, other._den)
            terms = {k: c * (other._den // g) for k, c in self._terms.items()}
            scale, den = den // g, den * (other._den // g)
        for k, c in other._terms.items():
            acc = terms.get(k, 0) + c * scale
            if acc:
                terms[k] = acc
            else:
                del terms[k]
        return _polynomial(self.chart, terms, den)

    def __neg__(self) -> "Polynomial":
        return _polynomial(self.chart, {k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        require_same_chart(self, other)
        if self.is_one:
            return other
        if other.is_one:
            return self
        a, b = self._terms, other._terms
        if len(a) * len(b) > MAX_TERM_PAIRS:
            raise ExpressionSizeError(f"a product of {len(a)} by {len(b)} terms exceeds the "
                                      f"budget of {MAX_TERM_PAIRS} term pairs")
        terms = {}
        get = terms.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                terms[k] = get(k, 0) + ca * cb
        terms = {k: c for k, c in terms.items() if c}
        if terms and (max(a) + max(b)) >> self.chart._degree_shift > MAX_EXPONENT:
            e = max(max(self.chart._unpack(k)) for k in terms)
            if e > MAX_EXPONENT:
                raise ExponentLimitError(f"exponent {e} exceeds limit {MAX_EXPONENT}")
        return _polynomial(self.chart, terms, self._den * other._den)

    def scale(self, value: Scalar) -> "Polynomial":
        num, den = _as_fraction(value).as_integer_ratio()
        terms = {k: c * num for k, c in self._terms.items()} if num else {}
        return _polynomial(self.chart, terms, self._den * den)

    def __pow__(self, exponent: int) -> "Polynomial":
        """The power, by repeated multiplication or by repeated squaring.

        With t terms, self^k has at most C(k+t−1, t−1) terms.  By that
        bound, multiplying the running result by the base pairs at most
        t·C(e+t−1, t) terms in all, while squaring ends on a product of
        self^a by self^b, a + b = e.  For a dense base the first is far
        cheaper (Fateman 1974), and it is used when it is the cheaper one
        and within twice ``MAX_TERM_PAIRS``; otherwise, as for a base of at
        most one term or a square, the exponent is worked off by squaring.

        A variable's top exponent in self^k is k times its top exponent in
        self, so the exponent limit is checked before any product.
        """
        if exponent < 0:
            raise ValueError("negative exponent on a polynomial")
        terms, chart = self._terms, self.chart
        if exponent > 1 and terms and (max(terms) >> chart._degree_shift) * exponent > MAX_EXPONENT:
            e = exponent * max(max(chart._unpack(k)) for k in terms)
            if e > MAX_EXPONENT:
                raise ExponentLimitError(f"exponent {e} exceeds limit {MAX_EXPONENT}")
        t = len(terms)
        if exponent > 1 and t > 1:
            top = 1 << exponent.bit_length() - 1
            a = exponent - top or top // 2
            squaring = comb(a + t - 1, t - 1) * comb(exponent - a + t - 1, t - 1)
            if t * comb(exponent + t - 1, t) <= min(squaring, 2 * MAX_TERM_PAIRS):
                result = self
                for _ in range(exponent - 1):
                    result = result * self
                return result
        result, base, n = Polynomial.constant(self.chart, 1), self, exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and evaluation ------------------------------------------
    def derivative(self, axis: int) -> "Polynomial":
        shift = self.chart._shifts[axis]
        step = (1 << shift) + (1 << self.chart._degree_shift)
        terms = {k - step: c * e for k, c in self._terms.items() if (e := k >> shift & _SLOT_MASK)}
        return _polynomial(self.chart, terms, self._den)

    def evaluate(self, values: Sequence):
        """Evaluate at a full variable vector (coordinates + constants).

        This is a one-point call of :func:`evaluate_points`: the value is
        exact for int and Fraction input, and it is rounded to a float once
        when any value is a float.
        """
        chart = self.chart
        if len(values) != len(chart.variables):
            raise ValueError("value vector length does not match chart variables")
        dim = chart.dimension
        constants = dict(zip(chart.constants, values[dim:]))
        return evaluate_points(chart, [RationalFunction(self)], [values[:dim]], constants)[0][0]

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        """True for the zero polynomial and for a lone term of degree 0."""
        return len(self._terms) <= 1 and not any(self._terms)

    @property
    def is_one(self) -> bool:
        """True for the unit polynomial only."""
        return self._den == 1 and self._terms == {0: 1}

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex largest term."""
        key = max(self._terms)
        return self.chart._unpack(key), Fraction(self._terms[key], self._den)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self._den == other._den
                and self._terms == other._terms and self.chart == other.chart)

    def __str__(self):
        """Canonical text: terms in descending graded-lex order, exact coefficients."""
        if self.is_zero:
            return "0"
        variables = self.chart.variables
        pieces = []
        for key in sorted(self._terms, reverse=True):
            coeff = Fraction(self._terms[key], self._den)
            factors = [name if e == 1 else f"{name}^{e}"
                       for name, e in zip(variables, self.chart._unpack(key)) if e]
            mag = abs(coeff)
            body = "*".join(factors if factors and mag == 1 else [str(mag)] + factors)
            sign = ("+ " if coeff > 0 else "- ") if pieces else ("" if coeff > 0 else "-")
            pieces.append(sign + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


class RationalFunction:
    """Quotient of two polynomials on a common chart.

    The denominator is normalized to be graded-lex monic (and folded
    into the numerator when constant), which makes printing
    deterministic, but no gcd cancellation is attempted: equality uses
    cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = _polynomial(num.chart, {0: 1})
        else:
            require_same_chart(num, den)
            if den.is_zero:
                raise ZeroDivisionError("zero denominator polynomial")
            # normalize: constant denominators fold away, otherwise make monic
            lead = den._terms[max(den._terms)]
            if lead != den._den:
                inverse = Fraction(den._den, lead)
                num = num.scale(inverse)
                den = _polynomial(num.chart, {0: 1}) if den.is_constant else den.scale(inverse)
        self.num = num
        self.den = den

    @property
    def chart(self) -> Chart:
        return self.num.chart

    @classmethod
    def from_scalar(cls, chart: Chart, value: Scalar) -> "RationalFunction":
        return cls(Polynomial.constant(chart, value))

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_scalar(self.chart, other)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return NotImplemented

    # -- field operations ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # 0/1 + n/D builds (0·D + n·1)/(1·D) = n/D with D monic: the other operand
        if self.num.is_zero and self.den.is_one:
            require_same_chart(self, other)
            return other
        if other.num.is_zero and other.den.is_one:
            require_same_chart(self, other)
            return self
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if exponent < 0:
            if self.num.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction(self.den ** (-exponent), self.num ** (-exponent))
        return RationalFunction(self.num ** exponent, self.den ** exponent)

    # -- calculus -------------------------------------------------------------
    def derivative(self, var: str | int) -> "RationalFunction":
        """Exact partial derivative with respect to a coordinate.

        Constants declared on the chart are rejected: they behave as
        scalars, so only true coordinates can be differentiated against.
        """
        axis = self.chart.coordinate_axis(var) if isinstance(var, str) else var
        if axis >= self.chart.dimension:
            raise UnknownSymbolError("cannot differentiate with respect to a constant")
        dn = self.num.derivative(axis)
        if self.den.is_constant:
            return RationalFunction(dn, self.den)
        dd = self.den.derivative(axis)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, point: Sequence, constants: Mapping[str, object] | None = None):
        """Evaluate at a coordinate point, exactly for rational input.

        ``point`` supplies one value per coordinate; ``constants``
        supplies values for any declared constants the function uses.
        This is a one-point call of :func:`evaluate_points`.
        """
        row = evaluate_points(self.chart, [self], [point], constants)[0]
        if row is None:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        return row[0]

    # -- structure ---------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        num = self.num._terms.get(0, 0) * self.den._den
        return Fraction(num, self.num._den * self.den._terms[0])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    def __str__(self):
        if self.den.is_constant:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def evaluate_points(chart: Chart, functions: Sequence[RationalFunction], points: Sequence,
                    constants: Mapping[str, object] | None = None) -> list:
    """values[k][i] = functions[i] at points[k], exactly for rational input;
    values[k] is None where the denominator of some function vanishes at points[k].

    Each point supplies one value per coordinate, and ``constants`` a value
    for every declared constant that a function uses (``ValueError`` if one
    is missing).  All of them are written as integers a/B over one common
    denominator B.  Each polynomial's packed terms are then walked once: a
    key is unpacked once, c·B^(D − deg) is formed once, D the total degree,
    and each point's powers are multiplied in, so the polynomial is that
    integer sum over _den·B^D.  Numerators are evaluated only at the points
    where no denominator vanishes, and a function's value is one Fraction of
    the two, rounded to a float once when any input is a float.  A function
    with the unit denominator and a constant numerator has one value, formed
    once.
    """
    dim = chart.dimension
    for point in points:
        if len(point) != dim:
            raise ValueError(f"point has {len(point)} entries, chart has dimension {dim}")
    given = constants or {}
    missing = [(name, chart._shifts[dim + i]) for i, name in enumerate(chart.constants)
               if name not in given]
    for f in functions:
        if f.chart is not chart and f.chart != chart:
            raise ChartMismatchError(f"chart mismatch: {f.chart!r} vs {chart!r}")
        if missing:
            used = reduce(or_, chain(f.num._terms, f.den._terms), 0)
            for name, shift in missing:
                if used >> shift & _SLOT_MASK:
                    raise ValueError(f"no value supplied for constant {name!r}")
    tail = [given.get(name, 0) for name in chart.constants]
    rows = [list(point) + tail for point in points]
    inexact = any(isinstance(v, float) for row in rows for v in row)
    rows = [[(v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio() for v in row]
            for row in rows]
    common = lcm(1, *{d for row in rows for _, d in row})
    rows = [[n * (common // d) for n, d in row] for row in rows]

    dens = [None if f.den.is_one else _integer_values(f.den, rows, common) for f in functions]
    live = [j for j in range(len(rows)) if all(d is None or d[0][j] for d in dens)]
    live_rows = [rows[j] for j in live]
    out = [[] for _ in live]
    for f, den in zip(functions, dens):
        if den is None and f.num.is_constant:  # the same value everywhere, formed once
            column = [Fraction(f.num._terms.get(0, 0), f.num._den)] * len(live)
        else:
            totals, scale = _integer_values(f.num, live_rows, common)
            column = [Fraction(total, scale) if den is None
                      else Fraction(total * den[1], scale * den[0][j])
                      for j, total in zip(live, totals)]
        for row, value in zip(out, column):
            row.append(float(value) if inexact else value)
    values = [None] * len(rows)
    for j, row in zip(live, out):
        values[j] = row
    return values


def _integer_values(poly: Polynomial, rows: list, common: int) -> tuple:
    """(totals, scale): ``poly`` is totals[k]/scale at the point whose variables
    are rows[k] over ``common``."""
    shifts, degree_shift = poly.chart._shifts, poly.chart._degree_shift
    top = max(poly._terms, default=0) >> degree_shift
    totals = [0] * len(rows)
    for k, c in poly._terms.items():
        c *= common ** (top - (k >> degree_shift))
        factors = [(i, e) for i, s in enumerate(shifts) if (e := k >> s & _SLOT_MASK)]
        for j, row in enumerate(rows):
            term = c
            for i, e in factors:
                term *= row[i] ** e
            totals[j] += term
    return totals, poly._den * common ** top


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------
#
# expression := term (('+' | '-') term)*
# term       := factor (('*' | '/') factor)*
# factor     := ('+' | '-')* power
# power      := atom ('^' integer)?
# atom       := integer | identifier | '(' expression ')'
#
# Integers are non-negative decimal literals; rationals are spelled as
# quotients ("3/4").  Identifiers must be chart coordinates or declared
# constants.  '^' exponents are literal non-negative integers.

_TOKEN_OPS = set("+-*/^(),")
_Token = namedtuple("_Token", "kind text pos")


def tokenize_expression(text: str, line: int | None = None) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not supported; use exact fractions",
                                 line=line, column=i + 1)
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line=line, column=i + 1)
    tokens.append(_Token("end", "", n))
    return tokens


class _ExpressionParser:
    def __init__(self, tokens, chart: Chart, line=None):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, line=self.line, column=tok.pos + 1)

    def parse(self) -> RationalFunction:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected {tok.text!r}")
        return value

    def expression(self) -> RationalFunction:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.factor()
            if op.text == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    self.error("division by a zero polynomial", op)
                value = value / rhs
        return value

    def factor(self) -> RationalFunction:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.advance().text == "-":
                sign = -sign
        value = self.power()
        return value if sign > 0 else -value

    def power(self) -> RationalFunction:
        value = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.advance()
            if tok.kind != "int":
                self.error("exponent must be a non-negative integer literal", tok)
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise ExponentLimitError(f"exponent {exponent} exceeds limit {MAX_EXPONENT}")
            value = value ** exponent
        return value

    def atom(self) -> RationalFunction:
        tok = self.advance()
        if tok.kind == "int":
            return RationalFunction.from_scalar(self.chart, int(tok.text))
        if tok.kind == "ident":
            if tok.text not in self.chart._index:
                raise UnknownSymbolError(f"unknown identifier {tok.text!r}", line=self.line,
                                         column=tok.pos + 1)
            return self.chart.coordinate(tok.text)
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            closing = self.advance()
            if not (closing.kind == "op" and closing.text == ")"):
                self.error("expected ')'", closing)
            return value
        self.error("expected a number, symbol, or '('", tok)


def parse_expression(text: str, chart: Chart, line: int | None = None) -> RationalFunction:
    """Parse an expression into an exact rational function on ``chart``.

    Raises :class:`ParseError` (with position) on bad syntax,
    :class:`UnknownSymbolError` for undeclared identifiers, and
    ``ZeroDivisionError``-flavored :class:`ParseError` when dividing by
    a syntactically zero polynomial.  Too large an expansion raises :class:`ExponentLimitError`
    or :class:`ExpressionSizeError`, naming ``line`` when it is given.
    """
    tokens = tokenize_expression(text, line=line)
    try:
        return _ExpressionParser(tokens, chart, line=line).parse()
    except (ExponentLimitError, ExpressionSizeError) as exc:
        if line is None:
            raise
        raise type(exc)(f"{exc} at line {line}") from None
