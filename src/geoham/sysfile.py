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

from .errors import ParseError
from .expr import Chart, parse_expression
from .geom import DifferentialForm, Tensor11, VectorField
from .linfact import ExactMatrix
from .torus import FrequencySpec

OBJECT_KINDS = ("scalar", "hamiltonian", "form", "vectorfield", "tensor", "matrix", "frequencies")
REQUEST_KINDS = ("verify", "factorize", "altgen", "resonance", "period", "normalform", "validate")

_BRACKETS = {"(": ")", "[": "]", "{": "}"}


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

    def object(self, name, kinds, line=None):
        if name not in self.objects:
            raise ParseError(f"unknown object name {name!r}", line=line)
        kind, value = self.objects[name]
        if kind == "hamiltonian":
            kind = "scalar"
        if kind not in kinds:
            raise ParseError(
                f"object {name!r} has kind {kind}, expected one of {kinds}", line=line
            )
        return value


def split_top_level(text, separator, line=None):
    """Split on a separator character, ignoring bracketed regions."""
    parts = []
    depth = 0
    current = []
    for c in text:
        if c in _BRACKETS:
            depth += 1
        elif c in _BRACKETS.values():
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", line=line)
        if c == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    parts.append("".join(current))
    return parts


def parse_nested_list(text, line=None):
    """Parse '[a, [b, c], ...]' into nested lists of leaf strings."""
    text = text.strip()
    if not text.startswith("[") or not text.endswith("]"):
        raise ParseError(f"expected a bracketed list, got {text!r}", line=line)
    inner = text[1:-1].strip()
    if not inner:
        return []
    out = []
    for part in split_top_level(inner, ",", line):
        part = part.strip()
        if part.startswith("["):
            out.append(parse_nested_list(part, line=line))
        else:
            out.append(part)
    return out


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
    body = body.strip()
    if body == "0" or not body:
        return DifferentialForm.zero(chart, degree)
    coeffs = {}
    for term in split_top_level(body, "+", line):
        term = term.strip()
        if not term.startswith("("):
            raise ParseError(f"form term must start with a parenthesized coefficient: {term!r}",
                             line=line)
        depth = 0
        close = None
        for i, c in enumerate(term):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close is None:
            raise ParseError(f"unbalanced parentheses in form term {term!r}", line=line)
        coeff = parse_expression(term[1:close], chart, line=line)
        basis = term[close + 1:].strip()
        if degree == 0:
            if basis:
                raise ParseError("0-form terms cannot carry differentials", line=line)
            idx = ()
        else:
            pieces = [p.strip() for p in basis.split("^")]
            if len(pieces) != degree or any(not p.startswith("d") for p in pieces):
                raise ParseError(
                    f"expected {degree} wedge factors like 'dq1^dp1', got {basis!r}", line=line
                )
            idx = tuple(chart.coordinate_axis(p[1:]) for p in pieces)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ParseError(f"wedge factors must be strictly increasing in {basis!r}", line=line)
        prev = coeffs.get(idx)
        coeffs[idx] = coeff if prev is None else prev + coeff
    return DifferentialForm(chart, degree, coeffs)


def parse_vector_field_literal(text, chart: Chart, line=None) -> VectorField:
    leaves = parse_nested_list(text, line=line)
    if any(isinstance(x, list) for x in leaves):
        raise ParseError("vector field entries must be expressions", line=line)
    try:
        return VectorField(chart, [parse_expression(x, chart, line=line) for x in leaves])
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


def _rows(text, what, line=None):
    """A bracketed list of bracketed rows of entries: [[a, b], [c, d]]."""
    rows = parse_nested_list(text, line=line)
    if any(not isinstance(row, list) or any(isinstance(x, list) for x in row) for row in rows):
        raise ParseError(f"{what} literal must be a list of rows of entries", line=line)
    return rows


def parse_tensor_literal(text, chart: Chart, line=None) -> Tensor11:
    rows = _rows(text, "tensor", line)
    try:
        return Tensor11(chart, [[parse_expression(x, chart, line=line) for x in row]
                                for row in rows])
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


def _fraction(text, line=None) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}", line=line) from exc


def _integer(text, line=None) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ParseError(f"bad integer literal {text!r}", line=line) from exc


def _float(text, what, line=None) -> float:
    """A rational literal rounded to a float; one beyond the float range is a ParseError."""
    try:
        return float(_fraction(text, line))
    except OverflowError:
        raise ParseError(f"{what} {text.strip()!r} is beyond the float range", line=line) from None


def parse_matrix_literal(text, line=None) -> ExactMatrix:
    rows = _rows(text, "matrix", line)
    try:
        return ExactMatrix([[_fraction(x, line=line) for x in row] for row in rows])
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


def parse_frequencies_literal(text, line=None) -> FrequencySpec:
    text = text.strip()
    if not text.startswith("{") or not text.endswith("}"):
        raise ParseError("frequencies literal must be brace-enclosed", line=line)
    basis = None
    coeffs = None
    for clause in split_top_level(text[1:-1], ";", line):
        clause = clause.strip()
        if not clause:
            continue
        key, _, value = clause.partition(":")
        key = key.strip()
        if key == "basis":
            basis = [str(x).strip() for x in parse_nested_list(value.strip(), line=line)]
        elif key == "omega":
            coeffs = [[_fraction(x, line=line) for x in row]
                      for row in _rows(value.strip(), "omega", line)]
        else:
            raise ParseError(f"unknown frequencies key {key!r}", line=line)
    if basis is None or coeffs is None:
        raise ParseError("frequencies literal needs 'basis' and 'omega' clauses", line=line)
    try:
        return FrequencySpec(basis, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc), line=line) from exc


def _logical_lines(text):
    """Merge bracket-continued lines; yields (line_number, content)."""
    pending = ""
    pending_line = None
    depth = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        if not code.strip() and depth == 0:
            continue
        if pending:
            pending += " " + code.strip()
        else:
            pending = code.strip()
            pending_line = number
        depth = 0
        for c in pending:
            if c in _BRACKETS:
                depth += 1
            elif c in _BRACKETS.values():
                depth -= 1
        if depth == 0:
            if pending:
                yield pending_line, pending
            pending = ""
            pending_line = None
    if pending:
        yield pending_line, pending


def _names_list(text, line=None):
    return [n.strip() for n in text.replace(",", " ").split() if n.strip()]


class _RequestParser:
    """Resolves request argument lines against the declared objects."""

    def __init__(self, system: SystemFile):
        self.system = system

    def parse(self, kind, name, rest, line) -> Request:
        handler = getattr(self, f"_{kind}")
        objects, options = handler(rest, line)
        return Request(kind=kind, name=name, objects=objects, options=options, line=line)

    @staticmethod
    def _split_args(rest, line):
        positional = []
        keyword = {}
        for token in split_top_level(rest, " ", line):
            token = token.strip()
            if not token:
                continue
            if "=" in token and not token.startswith("["):
                key, _, value = token.partition("=")
                keyword[key.strip()] = value.strip()
            else:
                positional.append(token)
        return positional, keyword

    def _verify(self, rest, line):
        args, kwargs = self._split_args(rest, line)
        if len(args) != 3 or kwargs:
            raise ParseError("verify needs: <field> <2-form> <scalar>", line=line)
        return {
            "field": self.system.object(args[0], ("vectorfield",), line),
            "form": self._form(args[1], 2, line),
            "hamiltonian": self.system.object(args[2], ("scalar",), line),
        }, {}

    def _form(self, name, degree, line):
        form = self.system.object(name, ("form",), line)
        if form.degree != degree:
            raise ParseError(f"form {name!r} has degree {form.degree}, expected {degree}",
                             line=line)
        return form

    def _factorize(self, rest, line):
        args, kwargs = self._split_args(rest, line)
        if len(args) != 1 or kwargs:
            raise ParseError("factorize needs: <matrix>", line=line)
        return {"matrix": self.system.object(args[0], ("matrix",), line)}, {}

    def _altgen(self, rest, line):
        args, kwargs = self._split_args(rest, line)
        if args:
            raise ParseError("altgen takes only key=value arguments", line=line)
        if "matrix" in kwargs:
            unknown = set(kwargs) - {"matrix", "k", "lam"}
            if unknown:
                raise ParseError(f"unknown altgen keys {sorted(unknown)}", line=line)
            objects = {"matrix": self.system.object(kwargs["matrix"], ("matrix",), line)}
            options = {
                "k": _integer(kwargs.get("k", "1"), line),
                "lam": _fraction(kwargs.get("lam", "1"), line),
            }
            if options["k"] < 1:
                raise ParseError(f"altgen k must be a positive integer, got {options['k']}",
                                 line=line)
            return objects, options
        if "tensor" in kwargs:
            unknown = set(kwargs) - {"tensor", "invariant", "field"}
            if unknown or "invariant" not in kwargs or "field" not in kwargs:
                raise ParseError(
                    "tensor altgen needs tensor=<T> invariant=<F> field=<G>", line=line
                )
            objects = {
                "tensor": self.system.object(kwargs["tensor"], ("tensor",), line),
                "invariant": self.system.object(kwargs["invariant"], ("scalar",), line),
                "field": self.system.object(kwargs["field"], ("vectorfield",), line),
            }
            return objects, {}
        raise ParseError("altgen needs either matrix=... or tensor=...", line=line)

    def _resonance(self, rest, line):
        args, kwargs = self._split_args(rest, line)
        if len(args) != 1 or kwargs:
            raise ParseError("resonance needs: <frequencies>", line=line)
        return {"spec": self.system.object(args[0], ("frequencies",), line)}, {}

    def _period(self, rest, line):
        args, kwargs = self._split_args(rest, line)
        if len(args) != 1:
            raise ParseError("period needs: <scalar> energies=[...] seeds=<n>", line=line)
        if "energies" not in kwargs:
            raise ParseError("period needs energies=[...]", line=line)
        entries = parse_nested_list(kwargs["energies"], line=line)
        if any(isinstance(x, list) for x in entries):
            raise ParseError("energies must be a flat list of rationals", line=line)
        energies = [_float(x, "energy", line) for x in entries]
        seeds = _integer(kwargs.get("seeds", "3"), line)
        if seeds < 1:
            raise ParseError(f"period seeds must be a positive integer, got {seeds}", line=line)
        unknown = set(kwargs) - {"energies", "seeds"}
        if unknown:
            raise ParseError(f"unknown period keys {sorted(unknown)}", line=line)
        return (
            {"hamiltonian": self.system.object(args[0], ("scalar",), line)},
            {"energies": energies, "seeds": seeds},
        )

    def _normalform(self, rest, line):
        args, kwargs = self._split_args(rest, line)
        if len(args) != 1 or "integrals" not in kwargs or "fields" not in kwargs:
            raise ParseError(
                "normalform needs: <field> integrals=[...] fields=[...] [nu=[...]]", line=line
            )
        unknown = set(kwargs) - {"integrals", "fields", "nu"}
        if unknown:
            raise ParseError(f"unknown normalform keys {sorted(unknown)}", line=line)
        integrals = [
            self.system.object(n, ("scalar",), line)
            for n in parse_nested_list(kwargs["integrals"], line=line)
        ]
        fields = [
            self.system.object(n, ("vectorfield",), line)
            for n in parse_nested_list(kwargs["fields"], line=line)
        ]
        if not integrals or len(integrals) != len(fields):
            raise ParseError("normalform needs non-empty integral and field lists of equal length",
                             line=line)
        objects = {
            "field": self.system.object(args[0], ("vectorfield",), line),
            "integrals": integrals,
            "fields": fields,
        }
        if "nu" in kwargs:
            objects["nu"] = [
                parse_expression(x, self.system.chart, line=line)
                for x in parse_nested_list(kwargs["nu"], line=line)
            ]
            if len(objects["nu"]) != len(fields):
                raise ParseError(f"normalform nu needs one coefficient per field, "
                                 f"got {len(objects['nu'])} for {len(fields)}", line=line)
        return objects, {}

    def _validate(self, rest, line):
        args, kwargs = self._split_args(rest, line)
        if kwargs or not args:
            raise ParseError(
                "validate needs: tangent <tensor> <field> | cotangent <form> <field> | linear <field>",
                line=line,
            )
        subkind = args[0]
        if subkind == "tangent" and len(args) == 3:
            objects = {
                "tensor": self.system.object(args[1], ("tensor",), line),
                "delta": self.system.object(args[2], ("vectorfield",), line),
            }
        elif subkind == "cotangent" and len(args) == 3:
            objects = {
                "one_form": self._form(args[1], 1, line),
                "delta": self.system.object(args[2], ("vectorfield",), line),
            }
        elif subkind == "linear" and len(args) == 2:
            objects = {"delta": self.system.object(args[1], ("vectorfield",), line)}
        else:
            raise ParseError(f"bad validate request {rest!r}", line=line)
        return objects, {"structure": subkind}


def parse_system_file(text: str, path: str = "<string>") -> SystemFile:
    """Parse a system-definition file; raises :class:`ParseError` with
    line information on any defect, including unresolved names."""
    chart_names = None
    chart_line = None
    constants = []
    constant_values = {}
    objects_seen_before_constants = False
    system = None
    pending_requests = []

    def new_system():
        try:
            chart = Chart(chart_names, constants=constants)
        except ValueError as exc:
            raise ParseError(str(exc), line=chart_line) from exc
        return SystemFile(path=path, chart=chart, objects={}, constant_values=dict(constant_values))

    for line, content in _logical_lines(text):
        head, _, rest = content.partition(" ")
        head = head.strip()
        rest = rest.strip()
        if head == "chart":
            if chart_names is not None:
                raise ParseError("only one chart per file", line=line)
            chart_names = _names_list(rest, line)
            chart_line = line
            if not chart_names:
                raise ParseError("chart needs coordinate names", line=line)
            continue
        if head == "constants":
            if chart_names is None:
                raise ParseError("constants must follow the chart declaration", line=line)
            if objects_seen_before_constants:
                raise ParseError("constants must be declared before objects", line=line)
            for entry in split_top_level(rest, ",", line):
                entry = entry.strip()
                if not entry:
                    continue
                name, _, value = entry.partition("=")
                name = name.strip()
                constants.append(name)
                constant_values[name] = _fraction(value, line) if value.strip() else Fraction(1)
            continue
        if head in OBJECT_KINDS:
            if chart_names is None:
                raise ParseError("chart must be declared before objects", line=line)
            if system is None:
                system = new_system()
            objects_seen_before_constants = True
            name, _, value = rest.partition("=")
            name = name.strip()
            value = value.strip()
            if not name or not value:
                raise ParseError(f"expected '{head} <name> = <value>'", line=line)
            if name in system.objects:
                raise ParseError(f"duplicate object name {name!r}", line=line)
            if head in ("scalar", "hamiltonian"):
                parsed = parse_expression(value, system.chart, line=line)
            elif head == "form":
                parsed = parse_form_literal(value, system.chart, line=line)
            elif head == "vectorfield":
                parsed = parse_vector_field_literal(value, system.chart, line=line)
            elif head == "tensor":
                parsed = parse_tensor_literal(value, system.chart, line=line)
            elif head == "matrix":
                parsed = parse_matrix_literal(value, line=line)
            else:
                parsed = parse_frequencies_literal(value, line=line)
            system.objects[name] = (head, parsed)
            continue
        if head in REQUEST_KINDS:
            name, _, args = rest.partition(":")
            name = name.strip()
            if not name or ":" not in rest:
                raise ParseError(f"expected '{head} <name> : <arguments>'", line=line)
            pending_requests.append((head, name, args.strip(), line))
            continue
        raise ParseError(f"unknown directive {head!r}", line=line)

    if chart_names is None:
        raise ParseError("file declares no chart", line=1)
    if system is None:
        system = new_system()
    parser = _RequestParser(system)
    seen = set()
    for kind, name, args, line in pending_requests:
        if name in seen:
            raise ParseError(f"duplicate request name {name!r}", line=line)
        seen.add(name)
        system.requests.append(parser.parse(kind, name, args, line))
    return system


def load_system_file(path: str) -> SystemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system_file(handle.read(), path=path)
