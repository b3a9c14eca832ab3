import gc
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import geoham
from geoham import geom
from geoham.cli import _build_argument_parser, run
from geoham.expr import Chart, parse_expression
from geoham.linfact import ExactMatrix, skew_constraint_kernel
from geoham.sysfile import load_system_file, parse_form_literal, parse_vector_field_literal
from geoham.torus import INDEPENDENCE_ASSUMPTION

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    buffer = io.StringIO()
    code = run(list(args), stdout=buffer)
    return code, buffer.getvalue()


def run_json(*args):
    code, text = run_cli(*args)
    return code, json.loads(text)


def fixture(name):
    return str(FIXTURES / name)


# -- verify ------------------------------------------------------------------

def test_verify_oscillator_both_descriptions_hold():
    code, report = run_json("verify", fixture("oscillator_r4.sys"))
    assert code == 0
    assert report["schema"] == "1"
    assert report["status"] == "ok"
    assert [r["request"] for r in report["results"]] == ["primary", "swapped"]
    for result in report["results"]:
        assert result["holds"] and result["closed"] and result["nondegenerate"]
        assert result["residual"] == "1-form: 0"


def test_verify_objects_roundtrip():
    code, report = run_json("verify", fixture("oscillator_r4.sys"))
    system = load_system_file(fixture("oscillator_r4.sys"))
    chart = system.chart
    for result in report["results"]:
        printed = result["objects"]
        assert parse_vector_field_literal(printed["field"], chart) == system.objects["Gamma"][1]
        form_name = "w1" if result["request"] == "primary" else "w2"
        assert parse_form_literal(printed["form"], chart) == system.objects[form_name][1]
        h_name = "H1" if result["request"] == "primary" else "H2"
        assert parse_expression(printed["hamiltonian"], chart) == system.objects[h_name][1]


# -- factorize ----------------------------------------------------------------

def test_factorize_identity_exits_2_with_trace_witness():
    code, report = run_json("factorize", fixture("identity.sys"))
    assert code == 2
    assert report["status"] == "analysis-failure"
    result = report["results"][0]
    assert result["error"] == "no skew solution"
    assert result["odd_trace"]["passed"] is False
    assert result["odd_trace"]["failing_k"] == 0
    assert result["odd_trace"]["failing_value"] == "2"


def test_factorize_oscillator_generator():
    code, report = run_json("factorize", fixture("linear_r4.sys"))
    assert code == 0
    result = report["results"][0]
    assert result["odd_trace"]["passed"] is True
    lam = [[Fraction(x) for x in row] for row in result["factorization"]["lam"]["entries"]]
    ham = [[Fraction(x) for x in row] for row in result["factorization"]["ham"]["entries"]]
    n = len(lam)
    assert all(lam[i][j] == -lam[j][i] for i in range(n) for j in range(n))
    assert all(ham[i][j] == ham[j][i] for i in range(n) for j in range(n))
    system = load_system_file(fixture("linear_r4.sys"))
    source = system.objects["A"][1]
    product = [
        [sum(lam[i][k] * ham[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]
    assert product == [list(row) for row in source.entries]


def factorize_input(path, rows):
    chart = ", ".join(f"x{i}" for i in range(1, len(rows) + 1))
    path.write_text(f"chart {chart}\nmatrix A = {rows}\nfactorize fac : A\n")
    return str(path)


def test_factorize_8x8_with_one_nonzero_entry_exits_0(tmp_path):
    rows = [[1 if (i, j) == (0, 1) else 0 for j in range(8)] for i in range(8)]
    code, report = run_json("factorize", factorize_input(tmp_path / "one.sys", rows))
    assert code == 0
    assert report["results"][0]["factorization"] is not None


def test_factorize_singular_kernels_exit_2_with_a_proof(tmp_path):
    """4×4 matrices over {−1, 0, 1} with a non-trivial skew kernel: each is decided
    exactly and fast, and most have only singular kernel elements."""
    rng = random.Random(7)
    proved = 0
    gc.collect()  # a full collection of the test process's heap is not the runs' cost
    for index in range(40):
        while True:
            rows = [[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)]
            if skew_constraint_kernel(ExactMatrix(rows)):
                break
        path = factorize_input(tmp_path / f"m{index}.sys", rows)
        start = time.perf_counter()
        code, report = run_json("factorize", path)
        assert time.perf_counter() - start < 0.05
        if code == 2:
            assert report["results"][0]["error"] == "every skew solution is singular"
            proved += 1
        else:
            assert code == 0
    assert proved >= 20


# -- altgen ---------------------------------------------------------------------

def test_altgen_matrix_pipeline_scales_description():
    code, report = run_json("altgen", fixture("linear_r4.sys"))
    assert code == 0
    result = report["results"][0]
    assert result["pipeline"] == "matrix-symmetry"
    assert result["exact"] is True
    assert result["canonical"] is False
    assert result["same_description"] is False
    assert result["symmetry"]["log_scale"] == "1/2"
    assert result["transformed"]["lam"]["log_scale"] == "1"
    assert result["transformed"]["ham"]["log_scale"] == "-1"


def test_altgen_tensor_pipeline_reports_description():
    code, report = run_json("altgen", fixture("oscillator_r4.sys"))
    assert code == 0
    result = report["results"][0]
    assert result["pipeline"] == "twisted-two-form"
    assert result["tensor_invariant"] is True
    assert result["function_invariant"] is True
    assert result["description"]["holds"] is True
    # this particular twisted 2-form is a wedge of two exact 1-forms: degenerate
    assert result["description"]["nondegenerate"] is False


# -- resonance ---------------------------------------------------------------------

def test_resonance_classifications():
    code, report = run_json("resonance", fixture("resonance.sys"))
    assert code == 0
    by_name = {r["request"]: r for r in report["results"]}
    assert by_name["irrational"]["kind"] == "integrable"
    assert by_name["isotropic"]["kind"] == "maximally_superintegrable"
    assert by_name["isotropic"]["lattice"]["rank"] == 2
    assert by_name["commensurate"]["kind"] == "maximally_superintegrable"
    assert by_name["partial"]["kind"] == "superintegrable"
    assert by_name["partial"]["extra_integrals"] == 1
    assert any("algebraically independent" in a for a in report["assumptions"])


# -- period -------------------------------------------------------------------------

def test_period_harmonic_scan_report(tmp_path):
    csv_dir = tmp_path / "csv"
    code, report = run_json(
        "period", fixture("harmonic.sys"), "--csv-dir", str(csv_dir)
    )
    assert code == 0
    result = report["results"][0]
    assert result["dependence"]["dependent"] is True
    records = result["table"]["records"]
    assert len(records) == 9
    for record in records:
        assert abs(record["period"] - 2 * math.pi) < 1e-6
    csv_text = (csv_dir / "scan.csv").read_text()
    assert csv_text.splitlines()[0] == "seed_0,seed_1,energy,period,converged,drift"
    assert len(csv_text.splitlines()) == 10


def test_period_compare_obstruction():
    code, report = run_json(
        "period", fixture("quartic.sys"), "--compare", fixture("harmonic.sys")
    )
    assert code == 0
    obstruction = [r for r in report["results"] if r["kind"] == "obstruction"]
    assert len(obstruction) == 1
    assert obstruction[0]["obstructed"] is True
    assert obstruction[0]["reason"] == "constant vs energy-dependent period"
    assert "compare_input" in report


# -- normalform / validate ------------------------------------------------------------

def test_normalform_oscillator():
    code, report = run_json("normalform", fixture("oscillator_r4.sys"))
    assert code == 0
    result = report["results"][0]
    assert result["passed"] is True
    assert result["coefficients_match"] is True
    assert result["completeness_assumed"] is True
    assert any("completeness" in a for a in report["assumptions"])


def test_validate_structures():
    code, report = run_json("validate", fixture("structures_tangent.sys"))
    assert code == 0
    by_name = {r["request"]: r for r in report["results"]}
    assert by_name["tan"]["valid"] is True
    assert by_name["lin"]["valid"] is True
    code, report = run_json("validate", fixture("structures_cotangent.sys"))
    assert code == 0
    assert report["results"][0]["valid"] is True


# -- process behavior -------------------------------------------------------------------

def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text("chart q, p\nscalar H = q +\n")
    code, text = run_cli("verify", str(bad))
    assert code == 1
    assert text == ""


def run_text(tmp_path, capsys, subcommand, text):
    path = tmp_path / "input.sys"
    path.write_text(text)
    code, out = run_cli(subcommand, str(path))
    err = capsys.readouterr().err
    assert out == "" and "Traceback" not in err
    return code, err


@pytest.mark.parametrize(
    "subcommand,text",
    [
        ("verify", "chart q1, q2, p1\nvectorfield G = [p1, q1, q2]\n"
                   "form w = 2-form: (1) dq1^dp1\nscalar H = p1\nverify v : G w H\n"),
        ("period", "chart q1, q2, p1\nscalar H = p1^2 + q1^2\nperiod s : H energies=[1] seeds=2\n"),
    ],
    ids=["verify", "period"],
)
def test_odd_dimensional_chart_exits_2(tmp_path, capsys, subcommand, text):
    code, err = run_text(tmp_path, capsys, subcommand, text)
    assert code == 2
    assert err.startswith("analysis error:") and "even-dimensional" in err


@pytest.mark.parametrize(
    "subcommand,request_line,message",
    [
        ("period", "period s : H energies=[1] seeds=three", "bad integer literal 'three'"),
        ("period", "period s : H energies=[abc] seeds=2", "bad rational literal 'abc'"),
        ("altgen", "altgen e : matrix=A k=x lam=1", "bad integer literal 'x'"),
        ("altgen", "altgen e : matrix=A k=0 lam=1", "altgen k must be a positive integer, got 0"),
        ("period", "period s : H energies=[[1]] seeds=2",
         "energies must be a flat list of rationals"),
        ("period", "period s : H energies=[1, 1e400] seeds=2",
         "energy '1e400' is beyond the float range"),
        ("period", f"period s : H energies=[-1{'0' * 400}] seeds=2",
         f"energy '-1{'0' * 400}' is beyond the float range"),
        ("period", "period s : H energies=[1] seeds=0",
         "period seeds must be a positive integer, got 0"),
        ("period", "period s : H energies=[1] seeds=-1",
         "period seeds must be a positive integer, got -1"),
    ],
    ids=["seeds", "energies", "k", "k-zero", "energies-nested", "energies-overflow",
         "energies-long-integer", "seeds-zero", "seeds-negative"],
)
def test_bad_option_literal_is_a_located_parse_error(tmp_path, capsys, subcommand, request_line,
                                                     message):
    text = f"chart q, p\nscalar H = p^2 + q^2\nmatrix A = [[0, 1], [-1, 0]]\n{request_line}\n"
    code, err = run_text(tmp_path, capsys, subcommand, text)
    assert code == 1
    assert err == f"parse error: {message} at line 4\n"


@pytest.mark.parametrize(
    "text",
    ["chart q, q\n", "chart q, q\nscalar H = q\nverify v : G w H\n"],
    ids=["alone", "with-objects"],
)
def test_duplicate_chart_symbol_is_a_located_parse_error(tmp_path, capsys, text):
    code, err = run_text(tmp_path, capsys, "verify", text)
    assert code == 1
    assert err == "parse error: duplicate symbol name 'q' at line 1\n"


@pytest.mark.parametrize(
    "body,message",
    [("scalar H = p^2 + q^2\nperiod s : H energies=[1: 2] seeds=3]", "unbalanced brackets"),
     ("form w = 2-form: (1) dq^dp) + (1) dq^dp", "unbalanced brackets"),
     ("constants k = 1), m", "unbalanced brackets"),
     ("vectorfield G = [p -q]", "component count does not match chart dimension"),
     ("tensor S = [[0, 0, 0], [1, 0, 0]]", "tensor component matrix must be dim x dim"),
     ("matrix A = [[[1], 0], [0, 1]]", "matrix literal must be a list of rows of entries"),
     ("frequencies nu = { basis: [1]; omega: [12, 3] }",
      "omega literal must be a list of rows of entries")],
    ids=["request", "form", "constants", "vectorfield", "tensor", "matrix", "omega"],
)
def test_malformed_literal_is_a_located_parse_error(tmp_path, capsys, body, message):
    code, err = run_text(tmp_path, capsys, "verify", f"chart q, p\n{body}\n")
    assert code == 1
    assert err == f"parse error: {message} at line {body.count(chr(10)) + 2}\n"


@pytest.mark.parametrize(
    "subcommand,body,message",
    [("verify", "form w = 5-form: 0", "degree 5 out of range for dimension 2"),
     ("verify", "form w = -1-form: 0", "degree -1 out of range for dimension 2"),
     ("verify", "form a = 1-form: (1) dq\nverify v : G a H", "form 'a' has degree 1, expected 2"),
     ("validate", "form w = 2-form: (1) dq^dp\nvalidate c : cotangent w G",
      "form 'w' has degree 2, expected 1"),
     ("normalform", "normalform n : G integrals=[H, H] fields=[G]",
      "normalform needs non-empty integral and field lists of equal length"),
     ("normalform", "normalform n : G integrals=[] fields=[]",
      "normalform needs non-empty integral and field lists of equal length"),
     ("normalform", "normalform n : G integrals=[H] fields=[G] nu=[1, 2]",
      "normalform nu needs one coefficient per field, got 2 for 1")],
    ids=["degree-too-high", "degree-negative", "verify-1-form", "cotangent-2-form",
         "normalform-unequal", "normalform-empty", "normalform-nu"],
)
def test_form_degree_and_list_length_are_located_parse_errors(tmp_path, capsys, subcommand,
                                                              body, message):
    text = f"chart q, p\nscalar H = p^2 + q^2\nvectorfield G = [p, -q]\n{body}\n"
    code, err = run_text(tmp_path, capsys, subcommand, text)
    assert code == 1
    assert err == f"parse error: {message} at line {body.count(chr(10)) + 4}\n"


PRELUDE = ("chart q, p\nscalar H = p^2 + q^2\nvectorfield G = [p, -q]\nform w = 2-form: (1) dq^dp\n"
           "matrix A = [[0, 1], [-1, 0]]\ntensor T = [[0, 1], [1, 0]]\n"
           "frequencies nu = { basis: [1]; omega: [[1]] }\n")
AT_8 = " at line 8"


INPUT_LAYER_MESSAGES = [  # (id, input, the stderr line after 'parse error: ')
    # the file's layout
    ("no-chart", "# nothing\n", "file declares no chart at line 1"),
    ("chart-empty", "chart\n", "chart needs coordinate names at line 1"),
    ("chart-invalid", "chart q, 2p\n", "invalid symbol name '2p' at line 1"),
    ("chart-twice", PRELUDE + "chart x\n", "only one chart per file" + AT_8),
    ("constants-first", "constants k\nchart q, p\n",
     "constants must follow the chart declaration at line 1"),
    ("constants-late", PRELUDE + "constants k\n",
     "constants must be declared before objects" + AT_8),
    ("constants-duplicate", "chart q, p\nconstants k, k\n", "duplicate symbol name 'k' at line 2"),
    ("constants-shadow-coordinate", "chart q, p\nconstants q = 2\n",
     "duplicate symbol name 'q' at line 2"),
    ("constants-invalid", "chart q, p\nconstants 2k = 1\n", "invalid symbol name '2k' at line 2"),
    ("constants-value", "chart q, p\nconstants k = x\n", "bad rational literal 'x' at line 2"),
    ("constants-unbalanced", "chart q, p\nconstants k = 1), m\n", "unbalanced brackets at line 2"),
    ("object-first", "scalar H = 1\n", "chart must be declared before objects at line 1"),
    ("unknown-directive", PRELUDE + "plot H\n", "unknown directive 'plot'" + AT_8),
    ("object-shape", PRELUDE + "scalar K\n", "expected 'scalar <name> = <value>'" + AT_8),
    ("object-duplicate", PRELUDE + "scalar H = 1\n", "duplicate object name 'H'" + AT_8),
    ("object-name", PRELUDE + "scalar 2K = 1\n", "invalid object name '2K'" + AT_8),
    ("request-shape", PRELUDE + "verify v G w H\n",
     "expected 'verify <name> : <arguments>'" + AT_8),
    ("request-duplicate", PRELUDE + "verify v : G w H\nverify v : G w H\n",
     "duplicate request name 'v' at line 9"),
    ("request-name", PRELUDE + "verify v-1 : G w H\n", "invalid request name 'v-1'" + AT_8),
    # brackets
    ("unbalanced-line", PRELUDE + "scalar K = p^2 + q^2)\nverify v : G w H\n",
     "unbalanced brackets" + AT_8),
    ("unclosed-bracket", PRELUDE + "vectorfield K = [p, -q\nverify v : G w H\n",
     "unclosed bracket" + AT_8),
    ("unbalanced-list", PRELUDE + "vectorfield K = [p], [q]\n", "unbalanced brackets" + AT_8),
    ("not-a-list", PRELUDE + "vectorfield K = p\n", "expected a bracketed list, got 'p'" + AT_8),
    # object literals
    ("form-head", PRELUDE + "form K = 2form: 0\n",
     "form literal must start with '<k>-form:', got '2form'" + AT_8),
    ("form-degree", PRELUDE + "form K = x-form: 0\n", "bad form degree in 'x-form'" + AT_8),
    ("form-degree-range", PRELUDE + "form K = 3-form: 0\n",
     "degree 3 out of range for dimension 2" + AT_8),
    ("form-term", PRELUDE + "form K = 1-form: dq\n",
     "form term must start with a parenthesized coefficient: 'dq'" + AT_8),
    ("form-term-parens", PRELUDE + "form K = 1-form: ((1]) dq\n",
     "unbalanced parentheses in form term '((1]) dq'" + AT_8),
    ("form-0-form-differential", PRELUDE + "form K = 0-form: (1) dq\n",
     "0-form terms cannot carry differentials" + AT_8),
    ("form-wedge-count", PRELUDE + "form K = 2-form: (1) dq\n",
     "expected 2 wedge factors like 'dq1^dp1', got 'dq'" + AT_8),
    ("form-wedge-order", PRELUDE + "form K = 2-form: (1) dp^dq\n",
     "wedge factors must be strictly increasing in 'dp^dq'" + AT_8),
    ("form-wedge-unknown", PRELUDE + "form K = 1-form: (1) dx\n", "unknown symbol 'x'" + AT_8),
    ("form-wedge-constant", "chart q, p\nconstants k = 1\nform K = 1-form: (1) dk\n",
     "'k' is a declared constant, not a coordinate at line 3"),
    ("vectorfield-nested", PRELUDE + "vectorfield K = [[p], q]\n",
     "vector field entries must be expressions" + AT_8),
    ("vectorfield-length", PRELUDE + "vectorfield K = [p]\n",
     "component count does not match chart dimension" + AT_8),
    ("tensor-rows", PRELUDE + "tensor K = [0, 1]\n",
     "tensor literal must be a list of rows of entries" + AT_8),
    ("tensor-shape", PRELUDE + "tensor K = [[0]]\n",
     "tensor component matrix must be dim x dim" + AT_8),
    ("matrix-entry", PRELUDE + "matrix K = [[x]]\n", "bad rational literal 'x'" + AT_8),
    ("matrix-shape", PRELUDE + "matrix K = [[1, 2]]\n",
     "entries must form a non-empty square matrix" + AT_8),
    ("frequencies-braces", PRELUDE + "frequencies K = [1]\n",
     "frequencies literal must be brace-enclosed" + AT_8),
    ("frequencies-key", PRELUDE + "frequencies K = { basis: [1]; foo: 1 }\n",
     "unknown frequencies key 'foo'" + AT_8),
    ("frequencies-clauses", PRELUDE + "frequencies K = { basis: [1] }\n",
     "frequencies literal needs 'basis' and 'omega' clauses" + AT_8),
    ("frequencies-spec", PRELUDE + "frequencies K = { basis: [1, 1]; omega: [[1, 0]] }\n",
     "basis symbols must be distinct" + AT_8),
    # requests
    ("unknown-object", PRELUDE + "verify v : X w H\n", "unknown object name 'X'" + AT_8),
    ("object-kind", PRELUDE + "factorize f : H\n",
     "object 'H' has kind scalar, expected one of ('matrix',)" + AT_8),
    ("verify-usage", PRELUDE + "verify v : G w\n",
     "verify needs: <field> <2-form> <scalar>" + AT_8),
    ("factorize-usage", PRELUDE + "factorize f : A A\n", "factorize needs: <matrix>" + AT_8),
    ("altgen-positional", PRELUDE + "altgen e : A\n",
     "altgen takes only key=value arguments" + AT_8),
    ("altgen-matrix-keys", PRELUDE + "altgen e : matrix=A x=1\n",
     "unknown altgen keys ['x']" + AT_8),
    ("altgen-k-literal", PRELUDE + "altgen e : matrix=A k=x\n", "bad integer literal 'x'" + AT_8),
    ("altgen-k-range", PRELUDE + "altgen e : matrix=A k=0\n",
     "altgen k must be a positive integer, got 0" + AT_8),
    ("altgen-tensor-usage", PRELUDE + "altgen e : tensor=T field=G\n",
     "tensor altgen needs tensor=<T> invariant=<F> field=<G>" + AT_8),
    ("altgen-usage", PRELUDE + "altgen e : k=1\n",
     "altgen needs either matrix=... or tensor=..." + AT_8),
    ("resonance-usage", PRELUDE + "resonance r : nu nu\n",
     "resonance needs: <frequencies>" + AT_8),
    ("period-usage", PRELUDE + "period s : energies=[1]\n",
     "period needs: <scalar> energies=[...] seeds=<n>" + AT_8),
    ("period-energies", PRELUDE + "period s : H seeds=2\n", "period needs energies=[...]" + AT_8),
    ("period-energies-nested", PRELUDE + "period s : H energies=[[1]]\n",
     "energies must be a flat list of rationals" + AT_8),
    ("period-energies-overflow", PRELUDE + "period s : H energies=[1e400]\n",
     "energy '1e400' is beyond the float range" + AT_8),
    ("period-seeds", PRELUDE + "period s : H energies=[1] seeds=0\n",
     "period seeds must be a positive integer, got 0" + AT_8),
    ("period-keys", PRELUDE + "period s : H energies=[1] x=2\n",
     "unknown period keys ['x']" + AT_8),
    ("normalform-usage", PRELUDE + "normalform n : G integrals=[H]\n",
     "normalform needs: <field> integrals=[...] fields=[...] [nu=[...]]" + AT_8),
    ("normalform-nested", PRELUDE + "normalform n : G integrals=[[H]] fields=[G]\n",
     "integrals must be a flat list of names" + AT_8),
    ("normalform-nu-nested", PRELUDE + "normalform n : G integrals=[H] fields=[G] nu=[[1]]\n",
     "nu must be a flat list of expressions" + AT_8),
    ("normalform-keys", PRELUDE + "normalform n : G integrals=[H] fields=[G] x=1\n",
     "unknown normalform keys ['x']" + AT_8),
    ("normalform-lengths", PRELUDE + "normalform n : G integrals=[H, H] fields=[G]\n",
     "normalform needs non-empty integral and field lists of equal length" + AT_8),
    ("normalform-nu", PRELUDE + "normalform n : G integrals=[H] fields=[G] nu=[1, 2]\n",
     "normalform nu needs one coefficient per field, got 2 for 1" + AT_8),
    ("validate-usage", PRELUDE + "validate c : x=1\n",
     "validate needs: tangent <tensor> <field> | cotangent <form> <field> | linear <field>" + AT_8),
    ("validate-subkind", PRELUDE + "validate c : tangent T\n",
     "bad validate request 'tangent T'" + AT_8),
    ("validate-form-degree", PRELUDE + "validate c : cotangent w G\n",
     "form 'w' has degree 2, expected 1" + AT_8),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in INPUT_LAYER_MESSAGES],
                         ids=[case[0] for case in INPUT_LAYER_MESSAGES])
def test_every_input_layer_message_names_its_line(tmp_path, capsys, text, message):
    """One input per ParseError raised in sysfile: exit 1 and exactly this stderr line."""
    code, err = run_text(tmp_path, capsys, "verify", text)
    assert code == 1
    assert err == f"parse error: {message}\n"


def test_request_name_cannot_escape_the_csv_directory(tmp_path):
    path = tmp_path / "input.sys"
    path.write_text("chart q, p\nscalar H = p^2/2 + q^2/2\n"
                    "period ../escaped : H energies=[1/2] seeds=1\n")
    out = tmp_path / "out"
    result = run_subprocess("period", str(path), "--csv-dir", str(out), timeout=10)
    assert result.returncode == 1
    assert result.stderr == "parse error: invalid request name '../escaped' at line 3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.sys"]


def test_constant_that_zeroes_a_denominator_exits_2(tmp_path, capsys):
    text = ("chart q, p\nconstants omega = 0\nscalar H = p^2/2 + q/omega\n"
            "period s : H energies=[1] seeds=1\n")
    code, err = run_text(tmp_path, capsys, "period", text)
    assert code == 2
    assert err.startswith("analysis error:") and "vanishes at the declared constant values" in err


def test_constant_beyond_the_float_range_exits_2(tmp_path, capsys):
    text = (f"chart q, p\nconstants omega = 1{'0' * 200}\nscalar H = p^2/2 + omega^2*q^2\n"
            "period s : H energies=[1] seeds=1\n")
    code, err = run_text(tmp_path, capsys, "period", text)
    assert code == 2
    assert err == "analysis error: the coefficient of q^2*omega^2 is beyond the float range\n"


@pytest.mark.parametrize(
    "chart,expression,message",
    [("q, p", "q^70000", "exponent 70000 exceeds limit 65536"),
     ("q, p", "q^65536*q^65536", "exponent 131072 exceeds limit 65536"),
     ("a, b, c, d", "(a+b+c+d+1)^60",
      "a product of 1820 by 4845 terms exceeds the budget of 1000000 term pairs"),
     ("q, p", "(q^3)^32769", "exponent 98307 exceeds limit 65536"),
     ("q, p", "(q^2*p + 1)^40000", "exponent 80000 exceeds limit 65536")],
    ids=["power", "product", "size-budget", "power-of-power", "dense-power"],
)
def test_too_large_expression_exits_2_within_a_second(tmp_path, capsys, chart, expression,
                                                      message):
    start = time.perf_counter()
    code, err = run_text(tmp_path, capsys, "verify", f"chart {chart}\nscalar H = {expression}\n")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == f"analysis error: {message} at line 2\n"


@pytest.mark.parametrize(
    "lam,cause",
    [(-400, "exp(-400 * A^2) is beyond the float range"),
     (200, "the transported description is beyond the float range"),
     (2000, "exp(2000 * A^2) is singular in floating point")],
)
def test_float_symmetry_beyond_the_float_range_exits_2(tmp_path, lam, cause):
    """A² = diag(−1, −2, −1, −2), so exp(λA²) holds e^{−λ} and e^{−2λ}: at λ = −400 it
    overflows, at 2000 it underflows to a singular matrix, and at 200 it is finite but
    the transported Hamiltonian factor holds e^{800}."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoham.__file__)))
    path = tmp_path / "split.sys"
    path.write_text("chart q1, q2, p1, p2\n"
                    "matrix A = [[0,0,1,0],[0,0,0,2],[-1,0,0,0],[0,-1,0,0]]\n"
                    f"altgen exp : matrix=A k=1 lam={lam}\n")
    argv = [sys.executable, "-m", "geoham.cli", "altgen", str(path)]
    result = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                            text=True, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"analysis error: {cause}\n"


def test_period_scan_survives_a_seed_that_hits_a_pole(tmp_path):
    path = tmp_path / "kepler.sys"
    path.write_text("chart q, p\nscalar H = p^2/2 - 1/q\nperiod s : H energies=[-1, 1/2] seeds=2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = run_json("period", str(path), "--seed", "1")
    assert code == 0
    records = report["results"][0]["table"]["records"]
    assert [r["level"] for r in records] == [-1.0, -1.0, 0.5, 0.5]
    failed = [r for r in records if r["reason"].startswith("integration failed: step size")]
    assert failed and all(not r["converged"] and r["period"] is None for r in failed)
    assert any(r["reason"] == "no return within t_max" for r in records)


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoham.__file__)))
    check = "import sys, geoham.cli; assert 'scipy.integrate' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_period_run_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoham.__file__)))
    check = ("import io, sys; from geoham.cli import run\n"
             "assert run(['period', sys.argv[1]], stdout=io.StringIO()) == 0\n"
             "assert 'scipy.integrate' not in sys.modules")
    result = subprocess.run([sys.executable, "-c", check, fixture("harmonic.sys")],
                            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "option,value",
    [("--rtol", "nan"), ("--atol", "inf"), ("--tmax", "inf"), ("--rtol", "0"), ("--eps", "0"),
     ("--tmax", "-1"), ("--eps", "nan"), ("--atol", "-inf")],
)
def test_period_option_that_is_not_positive_and_finite_is_a_usage_error(tmp_path, option, value):
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoham.__file__)))
    path = tmp_path / "one.sys"
    path.write_text("chart q, p\nscalar H = p^2/2 + q^2/2\nperiod s : H energies=[1] seeds=1\n")
    argv = [sys.executable, "-m", "geoham.cli", "period", str(path), f"{option}={value}"]
    result = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                            text=True, timeout=5)
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert f"argument {option}: " in result.stderr


def run_subprocess(*args, timeout):
    src = os.path.dirname(os.path.dirname(os.path.abspath(geoham.__file__)))
    return subprocess.run([sys.executable, "-m", "geoham.cli", *args], timeout=timeout,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)


@pytest.mark.parametrize("rtol", ["10", "30"])
def test_orbit_that_leaves_the_float_range_ends_its_seed(rtol):
    result = run_subprocess("period", fixture("harmonic.sys"), "--rtol", rtol, timeout=5)
    assert result.returncode == 0
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    records = [r for entry in json.loads(result.stdout)["results"]
               for r in entry["table"]["records"]]
    assert records and all(not r["converged"] and r["reason"] == "orbit left the float range"
                           for r in records)


def test_orbit_that_blows_up_in_finite_time_ends_on_the_step_budget(tmp_path):
    from geoham.period import MAX_STEP_ATTEMPTS

    path = tmp_path / "blowup.sys"
    path.write_text("chart q, p\nscalar H = (p^3 + q^2)^2\nperiod scan : H energies=[1] seeds=1\n")
    result = run_subprocess("period", str(path), "--tmax", "2", timeout=5)
    assert result.returncode == 0
    assert "Warning" not in result.stderr and "Traceback" not in result.stderr
    [record] = [r for entry in json.loads(result.stdout)["results"]
                for r in entry["table"]["records"]]
    assert not record["converged"]
    assert record["reason"].startswith(
        f"integration failed: the budget of {MAX_STEP_ATTEMPTS} step attempts ran out at t = ")


def test_a_fast_bounded_orbit_ends_within_its_step_budget(tmp_path):
    # each mode turns at angular speed 4·r_k² ≤ 64 at E = 256: about 12,000 steps per 64-unit span
    path = tmp_path / "fast.sys"
    path.write_text("chart q1, q2, p1, p2\nscalar H = (p1^2 + q1^2)^2 + (p2^2 + q2^2)^2\n"
                    "period scan : H energies=[256] seeds=1\n")
    result = run_subprocess("period", str(path), "--tmax", "200", timeout=30)
    assert result.returncode == 0
    [record] = [r for entry in json.loads(result.stdout)["results"]
                for r in entry["table"]["records"]]
    assert record["period"] is not None or record["reason"] == "no return within t_max"


SWAP_ALTGEN = """chart q1, q2, p1, p2
scalar F = {invariant}
vectorfield Gamma = [p1, p2, -q1, -q2]
tensor T = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
altgen twist : tensor=T invariant=F field=Gamma
"""


@pytest.mark.parametrize(
    "invariant",
    ["(p1^2 + q1^2)/(1 + p2^2 + q2^2)", "(q1*p2 - q2*p1)/(p1^2 + q1^2 + p2^2 + q2^2)"],
    ids=["shifted-quotient", "angular-momentum-quotient"],
)
def test_altgen_quotient_invariant_is_decided_within_a_second(tmp_path, invariant):
    path = tmp_path / "swap.sys"
    path.write_text(SWAP_ALTGEN.format(invariant=invariant))
    result = run_subprocess("altgen", str(path), timeout=1)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["results"][0]["description"]["nondegenerate"] is True


def test_usage_error_then_valid_run_in_one_process(capsys):
    alone_usage = run_subprocess("verify", timeout=5)
    alone_report = run_subprocess("verify", fixture("oscillator_r4.sys"), timeout=5)
    with pytest.raises(SystemExit) as usage:
        run(["verify"])
    assert usage.value.code == alone_usage.returncode == 2
    assert capsys.readouterr().err == alone_usage.stderr
    assert run_cli("verify", fixture("oscillator_r4.sys")) == (0, alone_report.stdout)
    assert _build_argument_parser() is _build_argument_parser()


def test_missing_file_exit_code():
    code, _ = run_cli("verify", "/nonexistent/path.sys")
    assert code == 1
    code, _ = run_cli("period", fixture("harmonic.sys"), "--compare", "")
    assert code == 1


def test_out_flag_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli("resonance", fixture("resonance.sys"), "--out", str(out))
    assert code == 0
    assert text == ""
    parsed = json.loads(out.read_text())
    assert parsed["subcommand"] == "resonance"


@pytest.mark.parametrize(
    "subcommand,name,option,target",
    [("verify", "oscillator_r4.sys", "--out", "missing/report.json"),
     ("period", "harmonic.sys", "--csv-dir", "a-file")],
    ids=["out-into-a-missing-directory", "csv-dir-naming-a-file"],
)
def test_unwritable_output_exits_1_without_a_traceback(tmp_path, subcommand, name, option, target):
    (tmp_path / "a-file").write_text("")
    result = run_subprocess(subcommand, fixture(name), option, str(tmp_path / target), timeout=10)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("cannot write output: ")


def test_compare_outside_period_is_a_usage_error():
    result = run_subprocess("verify", fixture("oscillator_r4.sys"), "--compare",
                            fixture("harmonic.sys"), timeout=5)
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert "--compare is for period only" in result.stderr


# -- the exit status and the assumptions follow from the results -------------------

def test_only_the_failing_factorization_carries_an_error(tmp_path):
    path = tmp_path / "two.sys"
    path.write_text(
        "chart q1, q2, p1, p2\n"
        "matrix A = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]\n"
        "matrix I = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n"
        "factorize linear : A\n"
        "factorize identity : I\n"
    )
    code, report = run_json("factorize", str(path))
    assert code == 2
    assert report["status"] == "analysis-failure"
    linear, identity = report["results"]
    assert "error" not in linear and linear["factorization"] is not None
    assert identity["error"] == "no skew solution" and identity["factorization"] is None
    assert report["assumptions"] == []


def test_matrix_altgen_without_a_factorization_reports_its_error(tmp_path):
    path = tmp_path / "identity-altgen.sys"
    path.write_text("chart x1, x2\nmatrix I = [[1, 0], [0, 1]]\n"
                    "altgen exp : matrix=I k=1 lam=-1/2\n")
    code, report = run_json("altgen", str(path))
    assert code == 2
    assert report["status"] == "analysis-failure"
    [result] = report["results"]
    assert result == {"request": "exp", "kind": "altgen", "pipeline": "matrix-symmetry",
                      "error": "no skew solution"}


def test_compare_whose_table_fails_the_dependence_test_reports_an_error(tmp_path):
    # an asymmetric double well: at energy 1 the two wells are separate orbits with
    # periods of about 1.08 and 1.42, so the first table has no single period per level
    path = tmp_path / "wells.sys"
    path.write_text("chart q, p\nscalar H = p^2/2 + 16*q^2*(q - 1)^2*(1 + q^2)\n"
                    "period wells : H energies=[1] seeds=8\n")
    code, report = run_json("period", str(path), "--compare", fixture("harmonic.sys"))
    assert code == 2
    assert report["status"] == "analysis-failure"
    assert report["results"][0]["dependence"]["dependent"] is False
    assert "error" not in report["results"][0]
    assert report["results"][1] == {
        "request": "wells-vs-scan", "kind": "obstruction",
        "error": "first table fails the energy-period dependence test",
    }


def test_compare_against_a_file_without_a_period_request_exits_2(capsys):
    code, text = run_cli("period", fixture("harmonic.sys"), "--compare", fixture("identity.sys"))
    assert code == 2 and text == ""
    assert "needs a period request in both files" in capsys.readouterr().err


def test_resonance_states_the_independence_assumption_once():
    code, report = run_json("resonance", fixture("resonance.sys"))
    assert code == 0
    assert len(report["results"]) == 4
    assert report["assumptions"] == [INDEPENDENCE_ASSUMPTION]


@pytest.mark.parametrize(
    "subcommand,name",
    [
        ("verify", "oscillator_r4.sys"),
        ("altgen", "oscillator_r4.sys"),
        ("factorize", "linear_r4.sys"),
        ("resonance", "resonance.sys"),
        ("normalform", "oscillator_r4.sys"),
        ("validate", "structures_tangent.sys"),
        ("period", "harmonic.sys"),
    ],
)
def test_reports_are_deterministic(subcommand, name):
    first = run_cli(subcommand, fixture(name), "--seed", "42")
    second = run_cli(subcommand, fixture(name), "--seed", "42")
    assert first == second


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_report_matches_its_golden_file(monkeypatch, name):
    subcommand, stem = name.split("-", 1)
    monkeypatch.chdir(ROOT)
    code, text = run_cli(subcommand, f"fixtures/{stem}.sys", "--seed", "42")
    assert code == (2 if name in {"factorize-identity", "factorize-linear_r8"} else 0)
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def without_digits(value):
    """The value with every float replaced by None: what a change of digits leaves alone."""
    if isinstance(value, float):
        return None
    if isinstance(value, dict):
        return {key: without_digits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [without_digits(item) for item in value]
    return value


@pytest.mark.parametrize("name,levels", [("period-harmonic", ["0.5", "2.0", "8.0"]),
                                         ("period-quartic", ["0.25", "1.0", "16.0", "4.0"])])
def test_golden_period_reports_keep_their_verdicts(name, levels):
    # the verdicts of the earlier grid-and-golden return search, which gave other digits
    record = {"ambiguous": False, "converged": True, "drift": None, "energy": None, "level": None,
              "min_distance": None, "period": None, "reason": None, "seed": [None, None]}
    dependence = {"dependent": True, "insufficient_sampling": False,
                  "level_spreads": dict.fromkeys(levels), "violations": []}
    expected = {"dependence": dependence, "kind": "period", "request": "scan",
                "table": {"notes": [], "records": [record] * (3 * len(levels))}}
    report = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert without_digits(report["results"]) == [expected]


# -- declared constants reach the sampled checks -----------------------------------

CONSTANT_FORM = ("chart q, p\nconstants k = {k}\nform w = 2-form: (k) dq^dp\n"
                 "form theta = 1-form: (k*p) dq\nvectorfield G = [p, -q]\n"
                 "vectorfield Delta = [0, p]\nscalar H = k/2*(p^2 + q^2)\n"
                 "verify v : G w H\nvalidate cot : cotangent theta Delta\n")


def test_linear_structure_with_a_declared_constant_exits_0(tmp_path):
    path = tmp_path / "input.sys"
    path.write_text("chart q, p\nconstants k = 2\nvectorfield Delta = [0, k*p]\n"
                    "validate lin : linear Delta\n")
    code, report = run_json("validate", str(path))
    assert code == 0
    checks = report["results"][0]["checks"]
    assert checks["invariant_coordinates"] == ["q"] and checks["non_eigen_coordinates"] == ["p"]


@pytest.mark.parametrize("subcommand,verdict", [("verify", "nondegenerate"), ("validate", "valid")])
def test_form_with_a_declared_constant_is_certified_by_a_sample_point(tmp_path, monkeypatch,
                                                                    subcommand, verdict):
    def refuse(rows):
        raise AssertionError("the symbolic determinant ran although a sample certifies")

    monkeypatch.setattr(geom, "symbolic_determinant", refuse)
    path = tmp_path / "input.sys"
    path.write_text(CONSTANT_FORM.format(k=2))
    code, report = run_json(subcommand, str(path))
    assert code == 0 and report["results"][0][verdict] is True


def rank_four_form(n):
    """ω = α∧β + γ∧δ on Rⁿ, degenerate: the 1-form with shift s = 1..4 has
    x_(i+s) + ((i+s) mod 3) − 1 on dx_i, indices mod n."""
    chart = Chart([f"x{i}" for i in range(n)])
    alpha, beta, gamma, delta = (
        geom.DifferentialForm(chart, 1, {(i,): parse_expression(
            f"x{(i + s) % n} + {(i + s) % 3 - 1}", chart) for i in range(n)})
        for s in range(1, 5))
    return geom.wedge(alpha, beta) + geom.wedge(gamma, delta)


def timed_fallback(monkeypatch):
    """Wrap geom.symbolic_determinant; the returned list gets each call's seconds."""
    seconds, determinant = [], geom.symbolic_determinant

    def timed(form):
        gc.collect()  # a full collection of the test process's heap is not the fallback's cost
        start = time.perf_counter()
        result = determinant(form)
        seconds.append(time.perf_counter() - start)
        return result

    monkeypatch.setattr(geom, "symbolic_determinant", timed)
    return seconds


@pytest.mark.parametrize("n,limit", [(6, 0.15), (8, 0.5)], ids=["R6", "R8"])
def test_degenerate_form_is_decided_by_one_fast_fallback(tmp_path, monkeypatch, n, limit):
    seconds = timed_fallback(monkeypatch)
    path = tmp_path / "input.sys"
    path.write_text(f"chart {', '.join(f'x{i}' for i in range(n))}\n"
                    f"form w = {rank_four_form(n)}\nvectorfield G = [{', '.join('0' * n)}]\n"
                    "scalar H = 0\nverify v : G w H\n")
    code, report = run_json("verify", str(path))
    assert code == 0 and report["results"][0]["nondegenerate"] is False
    assert len(seconds) == 1
    assert seconds[0] < limit, f"the fallback took {seconds[0]:.3f} s on R^{n}"


def test_fallback_decides_a_pfaffian_of_thousands_of_terms(tmp_path, monkeypatch):
    # Every sample vanishes at k = 0, but over the polynomials the Pfaffian has
    # 3,704 terms: its square alone would exceed the term-pair budget.
    seconds = timed_fallback(monkeypatch)
    n = 6
    entries = " + ".join(
        f"(k*((x{i} + x{j} + k*x{(i + j) % n} + x{(j + 1) % n} + {i - j})^2 + k*x{(i + 3) % n}))"
        f" dx{i}^dx{j}" for i, j in itertools.combinations(range(n), 2))
    path = tmp_path / "input.sys"
    path.write_text(f"chart {', '.join(f'x{i}' for i in range(n))}\nconstants k = 0\n"
                    f"form w = 2-form: {entries}\nvectorfield G = [{', '.join('0' * n)}]\n"
                    "scalar H = 0\nverify v : G w H\n")
    code, report = run_json("verify", str(path))
    result = report["results"][0]
    assert code == 0 and result["nondegenerate"] is True
    assert len(seconds) == 1 and len(result["degenerate_samples"]) == geom.SAMPLE_COUNT


def test_samples_use_the_declared_constant_values(tmp_path):
    path = tmp_path / "input.sys"
    path.write_text(CONSTANT_FORM.format(k=0))
    code, report = run_json("verify", str(path))
    result = report["results"][0]
    # det W = k^2 is a nonzero polynomial, but it vanishes at the declared k = 0
    assert code == 0 and result["nondegenerate"] is True
    assert len(result["degenerate_samples"]) == geom.SAMPLE_COUNT


def test_input_digest_recorded():
    code, report = run_json("factorize", fixture("identity.sys"))
    assert len(report["input"]["sha256"]) == 64
    assert report["input"]["path"].endswith("identity.sys")
