"""Self-test of the benchmark's output checks.

For one request of every class in every workload, geoham's real report
must pass ``checks.check``, and a deliberately corrupted copy (a flipped
verdict, a wrong matrix entry, a period off by 1e-3) must fail it and make
``run.judge`` count the request as failed.

    python3 bench/test_checks.py
    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _flip(mapping, key):
    mapping[key] = not mapping[key]


def _scale_first_period(table):
    for record in table["records"]:
        if record["period"] is not None:
            record["period"] *= 1 + 1e-3
            return


def _corrupt_verify(report):
    _flip(report["results"][0], "holds")


def _corrupt_twisted(report):
    _flip(report["results"][0]["description"], "nondegenerate")


def _corrupt_normalform(report):
    _flip(report["results"][0], "fields_commute")


def _corrupt_validate(report):
    _flip(report["results"][0], "valid")


def _corrupt_factorization(report):
    entries = report["results"][0]["factorization"]["lam"]["entries"]
    entries[0][1], entries[1][0] = entries[1][0], entries[0][1]   # no longer skew


def _corrupt_odd_trace(report):
    odd = report["results"][0]["odd_trace"]
    odd["failing_exponent"] += 2


def _corrupt_symmetry(report):
    _flip(report["results"][0], "canonical")


def _corrupt_resonance(report):
    result = report["results"][0]
    result["closure_dimension"] += 1


def _corrupt_period(report):
    _scale_first_period(report["results"][0]["table"])


def _corrupt_quasi(report):
    record = report["results"][0]["table"]["records"][0]
    record.update(period=6.283185307179586, converged=True)


def _corrupt_compare(report):
    report["results"][-1]["reason"] = "disjoint period ranges"


CORRUPTIONS = {
    "verify-r4": _corrupt_verify, "verify-r6": _corrupt_verify, "verify-aniso": _corrupt_verify,
    "altgen-rational": _corrupt_twisted, "altgen-quotient": _corrupt_twisted,
    "altgen-polynomial": _corrupt_twisted, "altgen-r6": _corrupt_twisted,
    "normalform-r4": _corrupt_normalform, "normalform-r6": _corrupt_normalform,
    "validate-tangent": _corrupt_validate, "validate-cotangent": _corrupt_validate,
    "validate-linear": _corrupt_validate,
    "factorize-n2": _corrupt_factorization, "factorize-n4": _corrupt_factorization,
    "factorize-n6": _corrupt_factorization, "factorize-n8": _corrupt_factorization,
    "not-decomposable": _corrupt_odd_trace,
    "symmetry-exact": _corrupt_symmetry, "symmetry-float": _corrupt_symmetry,
    "resonance": _corrupt_resonance,
    "harmonic": _corrupt_period, "harmonic-rational": _corrupt_period,
    "oscillator-r4": _corrupt_period, "quartic": _corrupt_period,
    "quasi-periodic": _corrupt_quasi, "compare": _corrupt_compare,
}


def _one_per_class(workload):
    seen = {}
    for request in workloads.build(workload, SEED):
        seen.setdefault(request.cls, request)
    return list(seen.values())


def _self_test(workload):
    import geoham.cli as cli

    requests = _one_per_class(workload)
    with tempfile.TemporaryDirectory() as directory:
        argvs, _ = run._write_inputs(requests, directory)
        loop = run.Loop(cli, requests, argvs)
        loop.warm_up()
    failures = []
    corrupted = []
    for request, (code, text) in zip(requests, loop.reference):
        problems = checks.check(request, code, text)
        if problems:
            failures.append(f"{request.cls}: real report rejected: {problems}")
        report = json.loads(text)
        CORRUPTIONS[request.cls](report)
        corrupted.append((code, json.dumps(report)))
    loop.reference = corrupted
    loop.attempted = len(requests)
    with contextlib.redirect_stderr(io.StringIO()):
        correct = run.judge(loop, checks)
    if correct:
        failures.append("judge reported corrupted reports as correct")
    for request, failed in zip(requests, loop.failed):
        if failed != 1:
            failures.append(f"{request.cls}: corrupted report not counted as failed")
    return failures


def test_exact_geometry_checks():
    assert _self_test("exact-geometry") == []


def test_linear_algebra_checks():
    assert _self_test("linear-algebra") == []


def test_period_scan_checks():
    assert _self_test("period-scan") == []


def test_every_class_has_a_corruption():
    classes = {r.cls for w in workloads.WORKLOADS for r in workloads.build(w, SEED)}
    assert classes == set(CORRUPTIONS)


if __name__ == "__main__":
    problems = []
    for name in workloads.WORKLOADS:
        found = _self_test(name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(problem)
    sys.exit(1 if problems else 0)
