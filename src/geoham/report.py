"""Structured JSON reports.

Reports are deterministic for fixed inputs and seeds: keys are sorted,
results keep file order, exact rationals are rendered as strings, and
floats use Python's shortest round-trip repr via the json encoder.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__
from .linfact import ExactMatrix

SCHEMA_VERSION = "1"


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def matrix_to_dict(matrix) -> dict:
    """An ExactMatrix as rational strings (with its log scale, if any); a float array as floats."""
    if not isinstance(matrix, ExactMatrix):
        return {"entries_float": [[float(x) for x in row] for row in matrix]}
    out = {"entries": [[str(x) for x in row] for row in matrix.entries]}
    if matrix.log_scale:
        out["log_scale"] = str(matrix.log_scale)
    return out


def build_report(subcommand, input_path, seed, parameters, results, assumptions,
                 status="ok", compare_path=None) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "geoham", "version": __version__},
        "subcommand": subcommand,
        "input": {"path": input_path, "sha256": file_digest(input_path)},
        "seed": seed,
        "parameters": parameters,
        "assumptions": sorted(set(assumptions)),
        "results": results,
        "status": status,
    }
    if compare_path is not None:
        report["compare_input"] = {"path": compare_path, "sha256": file_digest(compare_path)}
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
