"""Command-line driver: parse a system file, run one analysis family,
emit a deterministic JSON report (stdout or --out) and optional CSV
side files.

Exit codes: 0 success (false verdicts are still success), 1 parse
error or unreadable input or unwritable output, 2 usage error or
analysis failure (some result carries an ``error``, e.g. a requested
factorization does not exist).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
from dataclasses import asdict

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
from .linfact import (
    hamiltonian_factorize,
    noncanonical_symmetry,
    odd_trace_test,
    transform_description,
)
from .period import FlowSystem, dependence_test, equivalence_obstruction, period_energy_scan
from .report import build_report, matrix_to_dict, render_report
from .sysfile import REQUEST_KINDS, load_system_file
from .torus import INDEPENDENCE_ASSUMPTION, classify

COMPLETENESS_ASSUMPTION = "completeness of normal-form fields assumed, not verified"


def _positive_finite(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


@functools.cache  # built on first use, once per process
def _build_argument_parser():
    parser = argparse.ArgumentParser(
        prog="geoham",
        description="verify and generate Hamiltonian structures for dynamical systems",
    )
    parser.add_argument(
        "subcommand",
        choices=REQUEST_KINDS,
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


def _verify(system, request, options):
    objects = request.objects
    return {
        **is_hamiltonian_description(
            objects["field"], objects["form"], objects["hamiltonian"],
            sample_seed=options.seed, constants=system.constant_values,
        ).to_dict(),
        "objects": {name: str(objects[name]) for name in ("field", "form", "hamiltonian")},
    }


def _description_to_dict(description):
    return {"lam": matrix_to_dict(description.lam), "ham": matrix_to_dict(description.ham)}


def _factorize(system, request, options):
    matrix = request.objects["matrix"]
    entry = {"odd_trace": odd_trace_test(matrix).to_dict()}
    try:
        return {**entry, "factorization": _description_to_dict(hamiltonian_factorize(matrix))}
    except NotDecomposableError as exc:
        return {**entry, "factorization": None, "error": exc.reason}


def _matrix_symmetry(system, request, options):
    matrix = request.objects["matrix"]
    try:
        fact = hamiltonian_factorize(matrix)
    except NotDecomposableError as exc:
        return {"pipeline": "matrix-symmetry", "error": exc.reason}
    T = noncanonical_symmetry(matrix, request.options["k"], request.options["lam"])
    moved = transform_description(fact, T)
    return {
        "pipeline": "matrix-symmetry",
        "symmetry": matrix_to_dict(T),
        "canonical": moved.same_description,
        "base": _description_to_dict(fact),
        "transformed": _description_to_dict(moved),
        "same_description": moved.same_description,
        "exact": moved.exact,
    }


def _altgen(system, request, options):
    if "matrix" in request.objects:
        return _matrix_symmetry(system, request, options)
    gamma, tensor, invariant = (request.objects[name] for name in ("field", "tensor", "invariant"))
    tensor_invariant = lie_derivative(gamma, tensor).is_zero
    function_invariant = gamma.apply(invariant).is_zero
    two_form = twisted_two_form(tensor, invariant)
    new_hamiltonian = -(
        interior_product(tensor.apply(gamma), differential(invariant)).coefficient(())
    )
    return {
        "pipeline": "twisted-two-form",
        "tensor_invariant": tensor_invariant,
        "function_invariant": function_invariant,
        "two_form": str(two_form),
        "hamiltonian": str(new_hamiltonian),
        "description": is_hamiltonian_description(
            gamma, two_form, new_hamiltonian, sample_seed=options.seed,
            constants=system.constant_values,
        ).to_dict(),
    }


def _resonance(system, request, options):
    return classify(request.objects["spec"]).to_dict()


def _normalform(system, request, options):
    return check_normal_form(
        request.objects["field"],
        request.objects["integrals"],
        request.objects["fields"],
        nu=request.objects.get("nu"),
        sample_seed=options.seed,
        constants=system.constant_values,
    ).to_dict()


def _validate(system, request, options):
    return validate_structures(
        request.options["structure"], sample_seed=options.seed,
        constants=system.constant_values, **request.objects
    ).to_dict()


# The fields of one result, by request kind; period keeps its tables and is run in ``run``.
_KINDS = {
    "verify": _verify,
    "factorize": _factorize,
    "altgen": _altgen,
    "resonance": _resonance,
    "normalform": _normalform,
    "validate": _validate,
}

# The assumption a report states when it holds a request of that kind.
_ASSUMPTIONS = {"resonance": INDEPENDENCE_ASSUMPTION, "normalform": COMPLETENESS_ASSUMPTION}


def _scan(system, request, options):
    return period_energy_scan(
        FlowSystem(system.chart, hamiltonian=request.objects["hamiltonian"],
                   constant_values=system.constant_values),
        request.options["energies"],
        request.options["seeds"],
        seed=options.seed,
        eps=options.eps,
        t_max=options.tmax,
        rtol=options.rtol,
        atol=options.atol,
    )


def _obstruction(system, compare_system, tables, options):
    own = system.requests_of("period")
    other = compare_system.requests_of("period")
    if not own or not other:
        raise GeohamError("period --compare needs a period request in both files")
    other_table = _scan(compare_system, other[0], options)
    entry = {"request": f"{own[0].name}-vs-{other[0].name}", "kind": "obstruction"}
    try:
        return {**entry, **equivalence_obstruction(tables[0], other_table).to_dict(),
                "compare_table": asdict(other_table)}
    except ValueError as exc:
        return {**entry, "error": str(exc)}


def _write_outputs(options, rendered, requests, tables, dimension):
    if options.csv_dir and tables:
        os.makedirs(options.csv_dir, exist_ok=True)
        for request, table in zip(requests, tables):
            path = os.path.join(options.csv_dir, f"{request.name}.csv")
            with open(path, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(table.csv_rows(dimension))
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)


def run(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_argument_parser()
    options = parser.parse_args(argv)
    kind = options.subcommand
    if options.compare is not None and kind != "period":
        parser.error("--compare is for period only")
    try:
        system = load_system_file(options.file)
        compare_system = load_system_file(options.compare) if options.compare is not None else None
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except GeohamError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1

    requests = system.requests_of(kind)
    results, tables = [], []
    try:
        for request in requests:
            if kind == "period":
                tables.append(_scan(system, request, options))
                fields = {"table": asdict(tables[-1]),
                          "dependence": dependence_test(tables[-1]).to_dict()}
            else:
                fields = _KINDS[kind](system, request, options)
            results.append({"request": request.name, "kind": kind, **fields})
        if compare_system is not None:
            results.append(_obstruction(system, compare_system, tables, options))
    except GeohamError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2

    failed = any("error" in entry for entry in results)
    report = build_report(
        subcommand=kind,
        input_path=options.file,
        seed=options.seed,
        parameters={
            "rtol": options.rtol,
            "atol": options.atol,
            "eps": options.eps,
            "tmax": options.tmax,
        },
        results=results,
        assumptions=[_ASSUMPTIONS[kind]] if requests and kind in _ASSUMPTIONS else [],
        status="analysis-failure" if failed else "ok",
        compare_path=options.compare,
    )
    rendered = render_report(report)
    try:
        _write_outputs(options, rendered, requests, tables, system.chart.dimension)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    if not options.out:
        stdout.write(rendered)
    return 2 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
