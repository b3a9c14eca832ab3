"""Parser for system-definition files.

A file declares one chart, optional constants, named objects, and named
analysis requests, one item per logical line (lines continue while
brackets are open; ``#`` starts a comment):

    chart q1, q2, p1, p2
    constants omega

    scalar H1 = 1/2*omega*(p1^2 + p2^2 + q1^2 + q2^2)
    form w1 = 2-form: (1) dq1^dp1 + (1) dq2^dp2
    vectorfield G = [omega*p1, omega*p2, -omega*q1, -omega*q2]
    tensor T = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    matrix A = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    frequencies nu = { basis: [1, sqrt2]; omega: [[1, 0], [0, 1]] }

    verify primary : G w1 H1
    factorize fac : A
    altgen exp : matrix=A k=1 lam=-1/2
    altgen twist : tensor=T invariant=F field=G
    resonance res : nu
    period scan : H1 energies=[0.5, 2, 8] seeds=3
    normalform nf : G integrals=[f1, f2] fields=[X1, X2] nu=[omega, omega]
    validate tan : tangent S Delta

Form literals use exactly the serialization the reports emit, so every
printed object re-parses.  All referenced names must resolve at parse
time.  The full grammar is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import ParseError, UnknownSymbolError
from .expr import Chart, _is_identifier, parse_expression
from .geom import DifferentialForm, Tensor11, VectorField
from .linfact import ExactMatrix
from .torus import FrequencySpec

REQUEST_KINDS = ("verify", "factorize", "altgen", "resonance", "period", "normalform", "validate")


@dataclass
class Request:
    kind: str
    name: str
    objects: dict
    options: dict
    line: int


@dataclass
class SystemFile:
    path: str
    chart: Chart
    objects: dict
    constant_values: dict = dataclass_field(default_factory=dict)
    requests: list = dataclass_field(default_factory=list)

    def requests_of(self, kind):
        return [r for r in self.requests if r.kind == kind]


def _depths(text, depth=0, opens="([{", closes=")]}"):
    """The bracket depth after each character of ``text``, counted from ``depth``."""
    for c in text:
        if c in opens:
            depth += 1
        elif c in closes:
            depth -= 1
        yield depth


def split_top_level(text, separator, line=None):
    """Split on a separator character outside brackets; the parts are stripped."""
    parts = []
    start = 0
    for i, depth in enumerate(_depths(text)):
        if depth < 0:
            raise ParseError("unbalanced brackets", line=line)
        if depth == 0 and text[i] == separator:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def parse_nested_list(text, line=None):
    """Parse '[a, [b, c], ...]' into nested lists of leaf strings."""
    text = text.strip()
    if not text.startswith("[") or not text.endswith("]"):
        raise ParseError(f"expected a bracketed list, got {text!r}", line=line)
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [parse_nested_list(part, line) if part.startswith("[") else part
            for part in split_top_level(inner, ",", line)]


def parse_form_literal(text, chart: Chart, line=None) -> DifferentialForm:
    """Parse 'k-form: (coeff) dx^dy + ...' (the report serialization)."""
    head, _, body = text.partition(":")
    head = head.strip()
    if not head.endswith("-form"):
        raise ParseError(f"form literal must start with '<k>-form:', got {head!r}", line=line)
    try:
        degree = int(head[: -len("-form")])
    except ValueError:
        raise ParseError(f"bad form degree in {head!r}", line=line) from None
    if not 0 <= degree <= chart.dimension:
        raise ParseError(f"degree {degree} out of range for dimension {chart.dimension}",
                         line=line)
    if body.strip() in ("0", ""):
        return DifferentialForm.zero(chart, degree)
    coeffs = {}
    for term in split_top_level(body, "+", line):
        if not term.startswith("("):
            raise ParseError(f"form term must start with a parenthesized coefficient: {term!r}",
                             line=line)
        # Only parentheses delimit the coefficient; a '[' or '{' inside it is the
        # expression parser's to reject.
        close = next((i for i, depth in enumerate(_depths(term, 0, "(", ")")) if depth == 0),
                     None)
        if close is None:
            raise ParseError(f"unbalanced parentheses in form term {term!r}", line=line)
        coeff = parse_expression(term[1:close], chart, line=line)
        basis = term[close + 1:].strip()
        if degree == 0 and basis:
            raise ParseError("0-form terms cannot carry differentials", line=line)
        pieces = [p.strip() for p in basis.split("^")] if degree else []
        if len(pieces) != degree or any(not p.startswith("d") for p in pieces):
            raise ParseError(
                f"expected {degree} wedge factors like 'dq1^dp1', got {basis!r}", line=line
            )
        try:
            idx = tuple(chart.coordinate_axis(p[1:]) for p in pieces)
        except UnknownSymbolError as exc:
            raise UnknownSymbolError(str(exc), line=line) from None
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ParseError(f"wedge factors must be strictly increasing in {basis!r}", line=line)
        coeffs[idx] = coeffs[idx] + coeff if idx in coeffs else coeff
    return DifferentialForm(chart, degree, coeffs)


def _checked(build, line):
    """``build()``, with the ValueError of a constructor reported as a located ParseError."""
    try:
        return build()
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


def parse_vector_field_literal(text, chart: Chart, line=None) -> VectorField:
    leaves = parse_nested_list(text, line=line)
    if any(isinstance(x, list) for x in leaves):
        raise ParseError("vector field entries must be expressions", line=line)
    return _checked(lambda: VectorField(chart, [parse_expression(x, chart, line=line)
                                                for x in leaves]), line)


def _rows(text, what, line=None):
    """A bracketed list of bracketed rows of entries: [[a, b], [c, d]]."""
    rows = parse_nested_list(text, line=line)
    if any(not isinstance(row, list) or any(isinstance(x, list) for x in row) for row in rows):
        raise ParseError(f"{what} literal must be a list of rows of entries", line=line)
    return rows


def parse_tensor_literal(text, chart: Chart, line=None) -> Tensor11:
    rows = _rows(text, "tensor", line)
    return _checked(lambda: Tensor11(chart, [[parse_expression(x, chart, line=line) for x in row]
                                             for row in rows]), line)


def _number(read, text, line=None):
    """``text`` read by ``int`` or ``Fraction``; a literal it rejects is a ParseError."""
    text = text.strip()
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        what = "integer" if read is int else "rational"
        raise ParseError(f"bad {what} literal {text!r}", line=line) from exc


def _float(text, what, line=None) -> float:
    """A rational literal rounded to a float; one beyond the float range is a ParseError."""
    try:
        return float(_number(Fraction, text, line))
    except OverflowError:
        raise ParseError(f"{what} {text.strip()!r} is beyond the float range", line=line) from None


def parse_matrix_literal(text, line=None) -> ExactMatrix:
    rows = _rows(text, "matrix", line)
    return _checked(lambda: ExactMatrix([[_number(Fraction, x, line) for x in row]
                                         for row in rows]), line)


def parse_frequencies_literal(text, line=None) -> FrequencySpec:
    text = text.strip()
    if not text.startswith("{") or not text.endswith("}"):
        raise ParseError("frequencies literal must be brace-enclosed", line=line)
    basis = coeffs = None
    for clause in filter(None, split_top_level(text[1:-1], ";", line)):
        key, _, value = clause.partition(":")
        key = key.strip()
        if key == "basis":
            basis = [str(x).strip() for x in parse_nested_list(value, line=line)]
        elif key == "omega":
            coeffs = [[_number(Fraction, x, line) for x in row]
                      for row in _rows(value, "omega", line)]
        else:
            raise ParseError(f"unknown frequencies key {key!r}", line=line)
    if basis is None or coeffs is None:
        raise ParseError("frequencies literal needs 'basis' and 'omega' clauses", line=line)
    return _checked(lambda: FrequencySpec(basis, coeffs), line)


_OBJECT_PARSERS = {
    "scalar": parse_expression,
    "hamiltonian": parse_expression,
    "form": parse_form_literal,
    "vectorfield": parse_vector_field_literal,
    "tensor": parse_tensor_literal,
    "matrix": lambda text, chart, line: parse_matrix_literal(text, line),
    "frequencies": lambda text, chart, line: parse_frequencies_literal(text, line),
}
OBJECT_KINDS = tuple(_OBJECT_PARSERS)


def _logical_lines(text):
    """Merge bracket-continued lines; yields (line_number, content).

    A bracket closed without an opener is an error at its line, and one
    still open at the end of the file an error at the line where it opened.
    """
    pending = ""
    depth = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].strip()
        if not code and not pending:
            continue
        if pending:
            pending += " " + code
        else:
            pending, start = code, number
        for depth in _depths(code, depth):
            if depth < 0:
                raise ParseError("unbalanced brackets", line=number)
        if depth == 0:
            yield start, pending
            pending = ""
    if pending:
        raise ParseError("unclosed bracket", line=start)


class _Arguments:
    """One request's arguments, split once into ``positional`` tokens and
    ``keyword`` values, with the checks that each kind of request makes
    on them (the methods named after the kinds)."""

    def __init__(self, system: SystemFile, rest, line):
        self.system = system
        self.rest = rest
        self.line = line
        self.positional = []
        self.keyword = {}
        for token in split_top_level(rest, " ", line):
            key, equals, value = token.partition("=")
            if equals and not token.startswith("["):
                self.keyword[key.strip()] = value.strip()
            elif token:
                self.positional.append(token)

    def error(self, message):
        return ParseError(message, line=self.line)

    def exactly(self, count, usage):
        if len(self.positional) != count or self.keyword:
            raise self.error(usage)
        return self.positional

    def only_keys(self, kind, allowed):
        unknown = set(self.keyword) - allowed
        if unknown:
            raise self.error(f"unknown {kind} keys {sorted(unknown)}")

    def object(self, name, kind):
        if name not in self.system.objects:
            raise self.error(f"unknown object name {name!r}")
        declared, value = self.system.objects[name]
        if declared == "hamiltonian":
            declared = "scalar"
        if declared != kind:
            raise self.error(f"object {name!r} has kind {declared}, expected one of {(kind,)}")
        return value

    def form(self, name, degree):
        form = self.object(name, "form")
        if form.degree != degree:
            raise self.error(f"form {name!r} has degree {form.degree}, expected {degree}")
        return form

    def flat_list(self, key, what):
        entries = parse_nested_list(self.keyword[key], line=self.line)
        if any(isinstance(x, list) for x in entries):
            raise self.error(f"{key} must be a flat list of {what}")
        return entries

    def verify(self):
        field, form, hamiltonian = self.exactly(3, "verify needs: <field> <2-form> <scalar>")
        return {
            "field": self.object(field, "vectorfield"),
            "form": self.form(form, 2),
            "hamiltonian": self.object(hamiltonian, "scalar"),
        }, {}

    def factorize(self):
        (matrix,) = self.exactly(1, "factorize needs: <matrix>")
        return {"matrix": self.object(matrix, "matrix")}, {}

    def resonance(self):
        (spec,) = self.exactly(1, "resonance needs: <frequencies>")
        return {"spec": self.object(spec, "frequencies")}, {}

    def altgen(self):
        if self.positional:
            raise self.error("altgen takes only key=value arguments")
        if "matrix" in self.keyword:
            self.only_keys("altgen", {"matrix", "k", "lam"})
            objects = {"matrix": self.object(self.keyword["matrix"], "matrix")}
            k = _number(int, self.keyword.get("k", "1"), self.line)
            lam = _number(Fraction, self.keyword.get("lam", "1"), self.line)
            if k < 1:
                raise self.error(f"altgen k must be a positive integer, got {k}")
            return objects, {"k": k, "lam": lam}
        if "tensor" in self.keyword:
            if set(self.keyword) != {"tensor", "invariant", "field"}:
                raise self.error("tensor altgen needs tensor=<T> invariant=<F> field=<G>")
            return {
                "tensor": self.object(self.keyword["tensor"], "tensor"),
                "invariant": self.object(self.keyword["invariant"], "scalar"),
                "field": self.object(self.keyword["field"], "vectorfield"),
            }, {}
        raise self.error("altgen needs either matrix=... or tensor=...")

    def period(self):
        if len(self.positional) != 1:
            raise self.error("period needs: <scalar> energies=[...] seeds=<n>")
        if "energies" not in self.keyword:
            raise self.error("period needs energies=[...]")
        energies = [_float(x, "energy", self.line)
                    for x in self.flat_list("energies", "rationals")]
        seeds = _number(int, self.keyword.get("seeds", "3"), self.line)
        if seeds < 1:
            raise self.error(f"period seeds must be a positive integer, got {seeds}")
        self.only_keys("period", {"energies", "seeds"})
        return ({"hamiltonian": self.object(self.positional[0], "scalar")},
                {"energies": energies, "seeds": seeds})

    def normalform(self):
        if (len(self.positional) != 1 or "integrals" not in self.keyword
                or "fields" not in self.keyword):
            raise self.error("normalform needs: <field> integrals=[...] fields=[...] [nu=[...]]")
        self.only_keys("normalform", {"integrals", "fields", "nu"})
        integrals = [self.object(n, "scalar") for n in self.flat_list("integrals", "names")]
        fields = [self.object(n, "vectorfield") for n in self.flat_list("fields", "names")]
        if not integrals or len(integrals) != len(fields):
            raise self.error("normalform needs non-empty integral and field lists of equal length")
        objects = {"field": self.object(self.positional[0], "vectorfield"),
                   "integrals": integrals, "fields": fields}
        if "nu" in self.keyword:
            nu = [parse_expression(x, self.system.chart, line=self.line)
                  for x in self.flat_list("nu", "expressions")]
            if len(nu) != len(fields):
                raise self.error(f"normalform nu needs one coefficient per field, "
                                 f"got {len(nu)} for {len(fields)}")
            objects["nu"] = nu
        return objects, {}

    def validate(self):
        if self.keyword or not self.positional:
            raise self.error("validate needs: tangent <tensor> <field> "
                             "| cotangent <form> <field> | linear <field>")
        subkind, *names = self.positional
        if subkind == "tangent" and len(names) == 2:
            objects = {"tensor": self.object(names[0], "tensor"),
                       "delta": self.object(names[1], "vectorfield")}
        elif subkind == "cotangent" and len(names) == 2:
            objects = {"one_form": self.form(names[0], 1),
                       "delta": self.object(names[1], "vectorfield")}
        elif subkind == "linear" and len(names) == 1:
            objects = {"delta": self.object(names[0], "vectorfield")}
        else:
            raise self.error(f"bad validate request {self.rest!r}")
        return objects, {"structure": subkind}


def _name(name, what, line):
    """An object or request name: an identifier, by the rule for chart symbols."""
    if not _is_identifier(name):
        raise ParseError(f"invalid {what} name {name!r}", line=line)
    return name


def parse_system_file(text: str, path: str = "<string>") -> SystemFile:
    """Parse a system-definition file; raises :class:`ParseError` with
    line information on any defect, including unresolved names."""
    chart = None
    constants = []
    objects = {}
    requests = []
    for line, content in _logical_lines(text):
        head, _, rest = content.partition(" ")
        head = head.strip()
        if head == "chart":
            if chart is not None:
                raise ParseError("only one chart per file", line=line)
            names = rest.replace(",", " ").split()
            if not names:
                raise ParseError("chart needs coordinate names", line=line)
            chart = _checked(lambda: Chart(names), line)
        elif head == "constants":
            if chart is None:
                raise ParseError("constants must follow the chart declaration", line=line)
            if objects:
                raise ParseError("constants must be declared before objects", line=line)
            for entry in filter(None, split_top_level(rest, ",", line)):
                name, _, value = entry.partition("=")
                constants.append((name.strip(),
                                  _number(Fraction, value, line) if value.strip() else Fraction(1)))
            chart = _checked(lambda: Chart(chart.names, [name for name, _ in constants]), line)
        elif head in _OBJECT_PARSERS:
            if chart is None:
                raise ParseError("chart must be declared before objects", line=line)
            name, _, value = rest.partition("=")
            name = name.strip()
            value = value.strip()
            if not name or not value:
                raise ParseError(f"expected '{head} <name> = <value>'", line=line)
            if _name(name, "object", line) in objects:
                raise ParseError(f"duplicate object name {name!r}", line=line)
            objects[name] = (head, _OBJECT_PARSERS[head](value, chart, line=line))
        elif head in REQUEST_KINDS:
            name, colon, args = rest.partition(":")
            name = name.strip()
            if not name or not colon:
                raise ParseError(f"expected '{head} <name> : <arguments>'", line=line)
            requests.append((head, _name(name, "request", line), args.strip(), line))
        else:
            raise ParseError(f"unknown directive {head!r}", line=line)

    if chart is None:
        raise ParseError("file declares no chart", line=1)
    system = SystemFile(path=path, chart=chart, objects=objects, constant_values=dict(constants))
    seen = set()
    for kind, name, args, line in requests:
        if name in seen:
            raise ParseError(f"duplicate request name {name!r}", line=line)
        seen.add(name)
        resolved, options = getattr(_Arguments(system, args, line), kind)()
        system.requests.append(Request(kind, name, resolved, options, line))
    return system


def load_system_file(path: str) -> SystemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system_file(handle.read(), path=path)
