"""Command-line driver: parse a system file, run one analysis family,
emit a deterministic JSON report (stdout or --out) and optional CSV
side files.

Exit codes: 0 success (false verdicts are still success), 1 parse
error, 2 analysis failure (e.g. a requested factorization does not
exist).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

from .errors import GeohamError, NotDecomposableError, ParseError
from .geom import (
    differential,
    interior_product,
    is_hamiltonian_description,
    check_normal_form,
    lie_derivative,
    twisted_two_form,
    validate_structures,
)
from .linfact import ExactMatrix, hamiltonian_factorize, is_canonical, noncanonical_symmetry, odd_trace_test, transform_description
from .period import FlowSystem, dependence_test, equivalence_obstruction, period_energy_scan
from .report import (
    build_report,
    float_matrix_to_dict,
    matrix_to_dict,
    period_table_to_dict,
    render_report,
)
from .sysfile import load_system_file
from .torus import INDEPENDENCE_ASSUMPTION, classify

DEPENDENCE_REL_TOL = 1e-6
OBSTRUCTION_REL_TOL = 1e-4
COMPLETENESS_ASSUMPTION = "completeness of normal-form fields assumed, not verified"


def _positive_finite(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _build_argument_parser():
    parser = argparse.ArgumentParser(
        prog="geoham",
        description="verify and generate Hamiltonian structures for dynamical systems",
    )
    parser.add_argument(
        "subcommand",
        choices=["verify", "factorize", "altgen", "resonance", "period", "normalform", "validate"],
    )
    parser.add_argument("file", help="system-definition file")
    parser.add_argument("--seed", type=int, default=42, help="seed for all randomness")
    parser.add_argument("--rtol", type=_positive_finite,
                        default=1e-10, help="integration relative tolerance")
    parser.add_argument("--atol", type=_positive_finite,
                        default=1e-12, help="integration absolute tolerance")
    parser.add_argument("--eps", type=_positive_finite,
                        default=1e-6, help="period-detection return ball")
    parser.add_argument("--tmax", type=_positive_finite,
                        default=1e3, help="period-detection time horizon")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--csv-dir", help="directory for CSV side files (period tables)")
    parser.add_argument("--compare", help="second system file for the period obstruction test")
    return parser


def _run_verify(system, options):
    results = []
    for request in system.requests_of("verify"):
        report = is_hamiltonian_description(
            request.objects["field"],
            request.objects["form"],
            request.objects["hamiltonian"],
            sample_seed=options.seed,
        )
        entry = {"request": request.name, "kind": "verify"}
        entry.update(report.to_dict())
        entry["objects"] = {
            "field": str(request.objects["field"]),
            "form": str(request.objects["form"]),
            "hamiltonian": str(request.objects["hamiltonian"]),
        }
        results.append(entry)
    return results, [], False


def _run_factorize(system, options):
    results = []
    failed = False
    for request in system.requests_of("factorize"):
        matrix = request.objects["matrix"]
        entry = {"request": request.name, "kind": "factorize",
                 "odd_trace": odd_trace_test(matrix).to_dict()}
        try:
            fact = hamiltonian_factorize(matrix, seed=options.seed)
            entry["factorization"] = {
                "lam": matrix_to_dict(fact.lam),
                "ham": matrix_to_dict(fact.ham),
            }
        except NotDecomposableError as exc:
            entry["factorization"] = None
            entry["error"] = exc.reason
            failed = True
        results.append(entry)
    return results, [], failed


def _symmetry_to_dict(T):
    if isinstance(T, ExactMatrix):
        return matrix_to_dict(T)
    return float_matrix_to_dict(T)


def _run_altgen(system, options):
    results = []
    failed = False
    for request in system.requests_of("altgen"):
        entry = {"request": request.name, "kind": "altgen"}
        if "matrix" in request.objects:
            matrix = request.objects["matrix"]
            entry["pipeline"] = "matrix-symmetry"
            try:
                fact = hamiltonian_factorize(matrix, seed=options.seed)
            except NotDecomposableError as exc:
                entry["error"] = exc.reason
                failed = True
                results.append(entry)
                continue
            T = noncanonical_symmetry(matrix, request.options["k"], request.options["lam"])
            moved = transform_description(fact, T)
            entry.update(
                {
                    "symmetry": _symmetry_to_dict(T),
                    "canonical": is_canonical(T, fact.lam),
                    "base": {"lam": matrix_to_dict(fact.lam), "ham": matrix_to_dict(fact.ham)},
                    "transformed": {
                        "lam": _symmetry_to_dict(moved.lam),
                        "ham": _symmetry_to_dict(moved.ham),
                    },
                    "same_description": moved.same_description,
                    "exact": moved.exact,
                }
            )
        else:
            gamma = request.objects["field"]
            tensor = request.objects["tensor"]
            invariant = request.objects["invariant"]
            entry["pipeline"] = "twisted-two-form"
            tensor_invariant = lie_derivative(gamma, tensor).is_zero
            function_invariant = gamma.apply(invariant).is_zero
            two_form = twisted_two_form(tensor, invariant)
            new_hamiltonian = -(
                interior_product(tensor.apply(gamma), differential(invariant)).coefficient(())
            )
            description = is_hamiltonian_description(
                gamma, two_form, new_hamiltonian, sample_seed=options.seed
            )
            entry.update(
                {
                    "tensor_invariant": tensor_invariant,
                    "function_invariant": function_invariant,
                    "two_form": str(two_form),
                    "hamiltonian": str(new_hamiltonian),
                    "description": description.to_dict(),
                }
            )
        results.append(entry)
    return results, [], failed


def _run_resonance(system, options):
    results = []
    assumptions = []
    for request in system.requests_of("resonance"):
        classification = classify(request.objects["spec"])
        assumptions.append(INDEPENDENCE_ASSUMPTION)
        results.append(
            {"request": request.name, "kind": "resonance", **classification.to_dict()}
        )
    return results, assumptions, False


def _scan_for_request(system, request, options):
    flow = FlowSystem(
        system.chart,
        hamiltonian=request.objects["hamiltonian"],
        constant_values=system.constant_values,
    )
    return period_energy_scan(
        flow,
        request.options["energies"],
        request.options["seeds"],
        seed=options.seed,
        eps=options.eps,
        t_max=options.tmax,
        rtol=options.rtol,
        atol=options.atol,
    )


def _run_period(system, options, compare_system=None):
    results = []
    failed = False
    tables = []
    for request in system.requests_of("period"):
        table = _scan_for_request(system, request, options)
        tables.append(table)
        dependence = dependence_test(table, rel_tol=DEPENDENCE_REL_TOL)
        results.append(
            {
                "request": request.name,
                "kind": "period",
                "table": period_table_to_dict(table),
                "dependence": dependence.to_dict(),
            }
        )
        if options.csv_dir:
            os.makedirs(options.csv_dir, exist_ok=True)
            path = os.path.join(options.csv_dir, f"{request.name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(table.csv_rows(system.chart.dimension))
    if compare_system is not None:
        own = system.requests_of("period")
        other = compare_system.requests_of("period")
        if not own or not other:
            raise GeohamError("period --compare needs a period request in both files")
        other_table = _scan_for_request(compare_system, other[0], options)
        try:
            obstruction = equivalence_obstruction(
                tables[0], other_table, rel_tol=OBSTRUCTION_REL_TOL
            )
            results.append(
                {
                    "request": f"{own[0].name}-vs-{other[0].name}",
                    "kind": "obstruction",
                    "compare_table": period_table_to_dict(other_table),
                    **obstruction.to_dict(),
                }
            )
        except ValueError as exc:
            results.append(
                {
                    "request": f"{own[0].name}-vs-{other[0].name}",
                    "kind": "obstruction",
                    "error": str(exc),
                }
            )
            failed = True
    return results, [], failed


def _run_normalform(system, options):
    results = []
    assumptions = []
    for request in system.requests_of("normalform"):
        report = check_normal_form(
            request.objects["field"],
            request.objects["integrals"],
            request.objects["fields"],
            nu=request.objects.get("nu"),
            sample_seed=options.seed,
            constants=system.constant_values,
        )
        assumptions.append(COMPLETENESS_ASSUMPTION)
        results.append({"request": request.name, "kind": "normalform", **report.to_dict()})
    return results, assumptions, False


def _run_validate(system, options):
    results = []
    for request in system.requests_of("validate"):
        report = validate_structures(
            request.options["structure"], sample_seed=options.seed, **request.objects
        )
        results.append({"request": request.name, "kind": "validate", **report.to_dict()})
    return results, [], False


_HANDLERS = {
    "verify": _run_verify,
    "factorize": _run_factorize,
    "altgen": _run_altgen,
    "resonance": _run_resonance,
    "normalform": _run_normalform,
    "validate": _run_validate,
}


def run(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    options = _build_argument_parser().parse_args(argv)
    try:
        system = load_system_file(options.file)
        compare_system = load_system_file(options.compare) if options.compare else None
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except GeohamError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1

    try:
        if options.subcommand == "period":
            results, assumptions, failed = _run_period(system, options, compare_system)
        else:
            results, assumptions, failed = _HANDLERS[options.subcommand](system, options)
    except GeohamError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2

    report = build_report(
        subcommand=options.subcommand,
        input_path=options.file,
        seed=options.seed,
        parameters={
            "rtol": options.rtol,
            "atol": options.atol,
            "eps": options.eps,
            "tmax": options.tmax,
        },
        results=results,
        assumptions=assumptions,
        status="analysis-failure" if failed else "ok",
        compare_path=options.compare,
    )
    rendered = render_report(report)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        stdout.write(rendered)
    return 2 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
