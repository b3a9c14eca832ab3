"""Mutated fixture files through ``cli.run`` in-process.

Each example drops, duplicates or swaps a token of a fixture line,
truncates a line, or replaces a number with a digit 0-9.  Every run must
end in exit code 0, 1 or 2 with no exception escaping and no traceback
printed.  The period fixtures are loaded by ``verify``, which parses and
resolves every request line but integrates no orbit: a mutated
Hamiltonian can blow up in finite time, and the integrator has no step
budget yet.

A second generator writes request lines token by token: every request
kind, object names of every kind and ``key=value`` pairs, starting from a
valid line of each kind (both altgen forms, the three validate subkinds)
and dropping, adding or replacing tokens.
"""

import contextlib
import io
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from geoham.cli import run
from geoham.sysfile import REQUEST_KINDS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
JOBS = [
    ("verify", "oscillator_r4.sys"),
    ("altgen", "oscillator_r4.sys"),
    ("normalform", "oscillator_r4.sys"),
    ("factorize", "linear_r4.sys"),
    ("altgen", "linear_r4.sys"),
    ("factorize", "identity.sys"),
    ("resonance", "resonance.sys"),
    ("validate", "structures_tangent.sys"),
    ("validate", "structures_cotangent.sys"),
    ("verify", "harmonic.sys"),
    ("verify", "quartic.sys"),
]
TOKEN = re.compile(r"\w+|[^\w\s]|\s+")


@st.composite
def mutated_line(draw, line):
    tokens = TOKEN.findall(line)
    solid = [k for k, token in enumerate(tokens) if not token.isspace()]
    numbers = [k for k in solid if tokens[k].isdigit()]
    operation = draw(st.sampled_from(
        ["drop", "duplicate", "swap", "truncate"] + (["number"] if numbers else [])))
    if operation == "truncate":
        return line[:draw(st.integers(0, len(line)))]
    if operation == "number":
        tokens[draw(st.sampled_from(numbers))] = str(draw(st.integers(0, 9)))
        return "".join(tokens)
    k = draw(st.sampled_from(solid))
    if operation == "drop":
        del tokens[k]
    elif operation == "duplicate":
        tokens.insert(k, tokens[k])
    else:
        j = draw(st.sampled_from(solid))
        tokens[k], tokens[j] = tokens[j], tokens[k]
    return "".join(tokens)


@st.composite
def mutated_jobs(draw):
    subcommand, name = draw(st.sampled_from(JOBS))
    lines = (FIXTURES / name).read_text(encoding="utf-8").split("\n")
    for _ in range(draw(st.integers(1, 3))):
        candidates = [i for i, line in enumerate(lines) if line.strip()]
        if not candidates:
            break
        i = draw(st.sampled_from(candidates))
        lines[i] = draw(mutated_line(lines[i]))
    return subcommand, "\n".join(lines)


@settings(max_examples=400)
@given(mutated_jobs())
def test_mutated_fixture_exits_0_1_or_2(tmp_path_factory, job):
    subcommand, text = job
    path = tmp_path_factory.mktemp("fuzz") / "input.sys"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([subcommand, str(path)], stdout=io.StringIO())
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


PRELUDE = """chart q, p
constants k = 2
scalar H = p^2/2 + k*q^2/2
hamiltonian K = p^2 + q^2
form w = 2-form: (1) dq^dp
form a = 1-form: (p) dq
vectorfield G = [p, -k*q]
tensor T = [[0, 1], [1, 0]]
matrix A = [[0, 1], [-1, 0]]
frequencies nu = { basis: [1, sqrt2]; omega: [[1, 0], [0, 1]] }
"""
VALID_REQUESTS = [
    "verify r : G w H", "factorize r : A", "altgen r : matrix=A k=1 lam=-1/2",
    "altgen r : tensor=T invariant=H field=G", "resonance r : nu",
    "period r : H energies=[1/2, 2] seeds=2", "normalform r : G integrals=[K] fields=[G] nu=[k]",
    "validate r : tangent T G", "validate r : cotangent a G", "validate r : linear G",
]
NAMES = ["H", "K", "w", "a", "G", "T", "A", "nu", "X", "k", "tangent", "cotangent", "linear"]
KEYS = ["matrix", "k", "lam", "tensor", "invariant", "field", "energies", "seeds", "integrals",
        "fields", "nu", "x"]
VALUES = NAMES + ["1", "0", "-1", "1/2", "x", "1e400", "1/0", "[1]", "[1, 2]", "[[1]]", "[]",
                  "[H, K]", "[G]", "[G, G]", "[[H]]", "[k]", "[1", "1]"]
ARGUMENT = st.one_of(st.sampled_from(NAMES),
                     st.builds("{}={}".format, st.sampled_from(KEYS), st.sampled_from(VALUES)))


@st.composite
def request_line(draw):
    kind, name, arguments = draw(st.sampled_from(VALID_REQUESTS)).split(" ", 2)
    kind = draw(st.sampled_from([kind, kind, kind, *REQUEST_KINDS]))  # mostly the line's own
    tokens = arguments.split(" ")[1:]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(tokens)))
        operation = draw(st.sampled_from(["drop", "add", "replace", "value"]))
        if operation == "add" or not tokens:
            tokens.insert(k, draw(ARGUMENT))
            continue
        k = min(k, len(tokens) - 1)
        key, equals, _ = tokens[k].partition("=")
        if operation == "drop":
            del tokens[k]
        elif operation == "value" and equals:
            tokens[k] = f"{key}={draw(st.sampled_from(VALUES))}"
        else:
            tokens[k] = draw(ARGUMENT)
    name = draw(st.sampled_from([name, "s", "2r", "../r"]))
    return kind, f"{kind} {name} : {' '.join(tokens)}"


@settings(max_examples=300)
@given(st.lists(request_line(), min_size=1, max_size=3))
def test_mutated_request_lines_exit_0_1_or_2(tmp_path_factory, requests):
    # period requests are parsed and resolved by verify, not integrated
    subcommand = requests[0][0] if requests[0][0] != "period" else "verify"
    path = tmp_path_factory.mktemp("fuzz") / "input.sys"
    path.write_text(PRELUDE + "".join(f"{line}\n" for _, line in requests), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([subcommand, str(path)], stdout=io.StringIO())
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
