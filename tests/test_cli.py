import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import geoham
from geoham.cli import run
from geoham.expr import parse_expression
from geoham.sysfile import load_system_file, parse_form_literal, parse_vector_field_literal

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
    ],
    ids=["seeds", "energies", "k", "k-zero", "energies-nested"],
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
      "a product of 1820 by 4845 terms exceeds the budget of 1000000 term pairs")],
    ids=["power", "product", "size-budget"],
)
def test_too_large_expression_exits_2_within_a_second(tmp_path, capsys, chart, expression,
                                                      message):
    start = time.perf_counter()
    code, err = run_text(tmp_path, capsys, "verify", f"chart {chart}\nscalar H = {expression}\n")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == f"analysis error: {message} at line 2\n"


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


def test_missing_file_exit_code():
    code, _ = run_cli("verify", "/nonexistent/path.sys")
    assert code == 1


def test_out_flag_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli("resonance", fixture("resonance.sys"), "--out", str(out))
    assert code == 0
    assert text == ""
    parsed = json.loads(out.read_text())
    assert parsed["subcommand"] == "resonance"


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


def test_input_digest_recorded():
    code, report = run_json("factorize", fixture("identity.sys"))
    assert len(report["input"]["sha256"]) == 64
    assert report["input"]["path"].endswith("identity.sys")
