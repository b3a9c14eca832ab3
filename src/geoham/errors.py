"""Exception types shared across the package."""


class GeohamError(Exception):
    """Base class for all package errors."""


class ParseError(GeohamError):
    """Syntax error in an expression or system file, with position info."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" if column is None else f" at line {line}, column {column}"
        elif column is not None:
            where = f" at column {column}"
        super().__init__(message + where)


class UnknownSymbolError(ParseError):
    """Identifier not declared in the chart (coordinate or constant)."""


class DimensionError(GeohamError, ValueError):
    """An analysis was asked of a chart whose dimension it cannot handle
    (Hamiltonian descriptions and flows need an even dimension)."""


class ChartMismatchError(GeohamError):
    """Objects living on different charts were combined."""


class PoleError(GeohamError):
    """A rational function was evaluated where its denominator vanishes."""


class CoefficientRangeError(GeohamError):
    """A coefficient of a compiled flow, with the declared constants folded
    in, is beyond the float range."""


class ExponentLimitError(GeohamError):
    """A polynomial exponent exceeded the per-variable limit (2**16)."""


class ExpressionSizeError(GeohamError):
    """A polynomial product exceeded the term-pair budget (``expr.MAX_TERM_PAIRS``)."""


class NotDecomposableError(GeohamError):
    """A linear system admits no Poisson-times-symmetric factorization.

    ``reason`` is "no skew solution" when no skew Ω solves ΩA + AᵀΩ = 0,
    and "every skew solution is singular" when the Pfaffian of the
    generic solution vanishes identically.  Either one is a proof.
    """

    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class FloatSymmetryError(GeohamError, ArithmeticError):
    """The float symmetry exp(λA^(2k)) of a linear system, or the description
    it transports, is beyond the float range, singular, or fails its float check."""


class IntegrationError(GeohamError):
    """Numerical flow integration failed (step underflow, pole, ...)."""


class RootFindError(GeohamError):
    """No phase-space point with the requested energy was found."""
