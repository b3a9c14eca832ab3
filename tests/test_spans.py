"""The benchmark's span harness (``bench/spans.py``) wraps geoham functions by
name; a rename or removal under ``src/`` would break ``bench/run.py --trace 1``.
The harness is loaded by path and only read: no bytecode is written under
``bench/``."""

import importlib.util
import io
import sys
from pathlib import Path

from geoham import cli, geom

ROOT = Path(__file__).resolve().parent.parent


def test_span_harness_installs_and_traces_a_verify_run(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    determinant = geom.symbolic_determinant
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert geom.symbolic_determinant is not determinant
        code = cli.run(["verify", str(ROOT / "fixtures" / "oscillator_r4.sys")], stdout=io.StringIO())
    finally:
        tracer.uninstall()
    assert code == 0
    assert geom.symbolic_determinant is determinant
    assert tracer.calls[tracer.name_index["cli"]] == 1
    assert tracer.calls[tracer.name_index["geom.is_hamiltonian_description"]] > 0
