"""Exact multivariate rational functions over the rationals, plus the
textual expression parser.

Everything symbolic in this package is built from three types:

* :class:`Chart` -- an ordered list of coordinate names, optionally
  extended by named symbolic constants (``omega``, ``lam``, ...).
  Constants behave like extra variables that derivatives treat as
  scalars.
* :class:`Polynomial` -- sparse terms ``exponent tuple -> Fraction``,
  kept canonical (no zero coefficients), so equality is dict equality.
* :class:`RationalFunction` -- a numerator/denominator pair.  Quotients
  are *not* reduced to lowest terms (no multivariate gcd); equality is
  decided by cross-multiplication, which is exact regardless of the
  representation.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import string
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import (
    ChartMismatchError,
    ExponentLimitError,
    ParseError,
    PoleError,
    UnknownSymbolError,
)

#: Largest exponent a single variable may carry; guards runaway expansion.
MAX_EXPONENT = 2 ** 16

Scalar = Union[int, Fraction]


class Chart:
    """An ordered coordinate chart with optional symbolic constants.

    ``names`` are the actual coordinates (the ones differentials and
    vector fields range over); ``constants`` are extra symbols allowed
    in expressions whose derivatives along coordinates vanish.
    """

    __slots__ = ("names", "constants", "_index")

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
        return (
            isinstance(other, Chart)
            and self.names == other.names
            and self.constants == other.constants
        )

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
    if a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart!r} vs {b.chart!r}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map an exponent tuple (one entry per chart variable,
    constants included) to a non-zero ``Fraction``.  The representation
    is canonical, so ``==`` is plain dict comparison.
    """

    __slots__ = ("chart", "terms")

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
            for e in exps:
                if e < 0:
                    raise ValueError("negative exponent")
                if e > MAX_EXPONENT:
                    raise ExponentLimitError(f"exponent {e} exceeds limit {MAX_EXPONENT}")
            clean[exps] = coeff
        self.chart = chart
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, chart: Chart) -> "Polynomial":
        return cls(chart, {})

    @classmethod
    def constant(cls, chart: Chart, value: Scalar) -> "Polynomial":
        zero_exp = (0,) * len(chart.variables)
        return cls(chart, {zero_exp: _as_fraction(value)})

    @classmethod
    def variable(cls, chart: Chart, axis: int) -> "Polynomial":
        exps = [0] * len(chart.variables)
        exps[axis] = 1
        return cls(chart, {tuple(exps): Fraction(1)})

    # -- ring operations -------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        require_same_chart(self, other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return Polynomial(self.chart, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        require_same_chart(self, other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc = terms.get(exps, Fraction(0)) + ca * cb
                if acc == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = acc
        return Polynomial(self.chart, terms)

    def scale(self, value: Scalar) -> "Polynomial":
        value = _as_fraction(value)
        if value == 0:
            return Polynomial.zero(self.chart)
        return Polynomial(self.chart, {e: c * value for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent on a polynomial")
        result = Polynomial.constant(self.chart, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus and evaluation ------------------------------------------
    def derivative(self, axis: int) -> "Polynomial":
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[axis]
            if e == 0:
                continue
            new = list(exps)
            new[axis] = e - 1
            terms[tuple(new)] = coeff * e
        return Polynomial(self.chart, terms)

    def evaluate(self, values: Sequence):
        """Evaluate at a full variable vector (coordinates + constants)."""
        if len(values) != len(self.chart.variables):
            raise ValueError("value vector length does not match chart variables")
        exact = all(isinstance(v, (int, Fraction)) for v in values)
        total = Fraction(0) if exact else 0.0
        for exps, coeff in self.terms.items():
            term = coeff if exact else float(coeff)
            for v, e in zip(values, exps):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        """True for the zero polynomial and for a lone term of degree 0."""
        return len(self.terms) <= 1 and not any(next(iter(self.terms), ()))

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex largest term."""
        exps = max(self.terms, key=lambda e: (sum(e), e))
        return exps, self.terms[exps]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.chart == other.chart
            and self.terms == other.terms
        )

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self})"


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text: terms in descending graded-lex order, exact coefficients."""
    if poly.is_zero:
        return "0"
    variables = poly.chart.variables
    pieces = []
    for exps in sorted(poly.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = poly.terms[exps]
        factors = []
        for name, e in zip(variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


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
            den = Polynomial.constant(num.chart, 1)
        require_same_chart(num, den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        # normalize: constant denominators fold away, otherwise make monic
        _, lead = den.leading_term()
        if den.is_constant:
            num = num.scale(1 / lead)
            den = Polynomial.constant(num.chart, 1)
        elif lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
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
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
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
        """
        chart = self.chart
        if len(point) != chart.dimension:
            raise ValueError(
                f"point has {len(point)} entries, chart has dimension {chart.dimension}"
            )
        values = list(point)
        for name in chart.constants:
            axis = chart.axis(name)
            used = any(
                exps[axis] for exps in list(self.num.terms) + list(self.den.terms)
            )
            if constants is not None and name in constants:
                values.append(constants[name])
            elif used:
                raise ValueError(f"no value supplied for constant {name!r}")
            else:
                values.append(0)
        values = [v if isinstance(v, (int, Fraction, float)) else Fraction(v) for v in values]
        den_val = self.den.evaluate(values)
        if den_val == 0:
            raise PoleError(f"denominator vanishes at {tuple(point)}")
        num_val = self.num.evaluate(values)
        if isinstance(num_val, Fraction) and isinstance(den_val, Fraction):
            return num_val / den_val
        return float(num_val) / float(den_val)

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
        num = next(iter(self.num.terms.values()), Fraction(0))
        den = next(iter(self.den.terms.values()))
        return num / den

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    def __str__(self):
        num = format_polynomial(self.num)
        if self.den.is_constant:
            return num
        return f"({num})/({format_polynomial(self.den)})"

    def __repr__(self):
        return f"RationalFunction({self})"


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


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def tokenize_expression(text: str, line: int | None = None) -> list:
    tokens = []
    i = 0
    n = len(text)
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
            tok = self.peek()
            if tok.kind != "int":
                self.error("exponent must be a non-negative integer literal", tok)
            self.advance()
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise ExponentLimitError(
                    f"exponent {exponent} exceeds limit {MAX_EXPONENT}"
                )
            value = value ** exponent
        return value

    def atom(self) -> RationalFunction:
        tok = self.advance()
        if tok.kind == "int":
            return RationalFunction.from_scalar(self.chart, int(tok.text))
        if tok.kind == "ident":
            if tok.text not in self.chart._index:
                raise UnknownSymbolError(
                    f"unknown identifier {tok.text!r}", line=self.line, column=tok.pos + 1
                )
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
    a syntactically zero polynomial.
    """
    tokens = tokenize_expression(text, line=line)
    return _ExpressionParser(tokens, chart, line=line).parse()
