"""Mutated fixture files through ``cli.run`` in-process.

Each example drops, duplicates or swaps a token of a fixture line,
truncates a line, or replaces a number with a digit 0-9.  Every run must
end in exit code 0, 1 or 2 with no exception escaping and no traceback
printed.  The period fixtures are loaded by ``verify``, which parses and
resolves every request line but integrates no orbit: a mutated
Hamiltonian can blow up in finite time, and the integrator has no step
budget yet.
"""

import contextlib
import io
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from geoham.cli import run

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
