"""The benchmark's self-test (``bench/test_checks.py``) passes: geoham's real
report for one request of every class is accepted, and a corrupted copy is
rejected.  It runs in its own interpreter with -B, so no bytecode is written
under ``bench/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    result = subprocess.run([sys.executable, "-B", str(ROOT / "bench" / "test_checks.py")],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
