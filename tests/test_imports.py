"""numpy and scipy stay off the exact paths: what each subcommand loads, what the
modules import at load time, and what the package declares it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoham

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PACKAGE = Path(geoham.__file__).resolve().parent

# A 4×4 system whose A² = diag(−1, −2, −1, −2) is not scalar: exp(λA²) is the float symmetry.
FLOAT_SYMMETRY = ("chart q1, q2, p1, p2\n"
                  "matrix A = [[0,0,1,0],[0,0,0,2],[-1,0,0,0],[0,-1,0,0]]\n"
                  "altgen exp : matrix=A k=1 lam=-1/2\n")

LOADED = """
import io, sys
from geoham.cli import run
for argv in sys.argv[1:]:
    code = run(argv.split(), stdout=io.StringIO())
    assert code == 0, (argv, code)
print(" ".join(name for name in ("numpy", "scipy") if name in sys.modules))
"""


def loaded_after(*argvs):
    """The names among numpy and scipy that a fresh process holds after the runs."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", LOADED, *argvs], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_exact_subcommands_load_neither_numpy_nor_scipy():
    argvs = [f"{sub} {FIXTURES / name}" for sub, name in [
        ("verify", "oscillator_r4.sys"), ("factorize", "linear_r4.sys"),
        ("altgen", "oscillator_r4.sys"), ("altgen", "linear_r4.sys"),
        ("resonance", "resonance.sys"), ("normalform", "oscillator_r4.sys"),
        ("validate", "structures_tangent.sys"), ("validate", "structures_cotangent.sys")]]
    assert loaded_after(*argvs) == []


def test_period_loads_numpy_but_not_scipy():
    assert loaded_after(f"period {FIXTURES / 'harmonic.sys'}") == ["numpy"]


def test_float_symmetry_loads_numpy_but_not_scipy(tmp_path):
    path = tmp_path / "float.sys"
    path.write_text(FLOAT_SYMMETRY)
    assert loaded_after(f"altgen {path}") == ["numpy"]


def module_level_imports(tree):
    """The modules imported by statements that run when the module is loaded:
    everything outside a function body, class bodies included."""
    names = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return names


def all_imports(tree):
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_numpy_at_load_or_scipy_at_all(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not [n for n in module_level_imports(tree) if n.split(".")[0] == "numpy"]
    assert not [n for n in all_imports(tree) if n.split(".")[0] == "scipy"]


def test_module_level_import_scan_sees_class_bodies_and_skips_functions():
    tree = ast.parse("import a\nclass C:\n    import b\ndef f():\n    import c\n"
                     "if True:\n    from d.e import f\n")
    assert sorted(module_level_imports(tree)) == ["a", "b", "d.e"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy"]
    assert "scipy" in project["optional-dependencies"]["test"]
