import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankmoa"


def _unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as a ``Name`` node; an attribute
    access ``np.x`` reads ``np``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert _unused_imports(source) == [(2, "os"), (4, "field")]


def test_package_modules_have_no_unused_imports():
    found = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert "solver.py" in found
    assert {name: hits for name, hits in found.items() if hits} == {}


# analyze and a short solve through the CLI in a fresh interpreter; prints the
# scipy modules loaded by then
_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
import rankmoa.cli as cli
from rankmoa import build_trace_example, save_problem
work = sys.argv[1]
spec, points = build_trace_example()
save_problem(spec, work + "/tr.prob", named_points=points)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", work + "/tr.prob", "--point", "X4", "--json"]) == 0
    assert cli.main(["solve", work + "/tr.prob", "--x0", "H", "--iters", "3",
                     "--out", work + "/out"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh_python(script, *args):
    """Run script in a new interpreter that imports this checkout's rankmoa."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_analyze_and_solve_do_not_import_scipy(tmp_path):
    # scipy costs every process about 0.3 s of start-up; only `rankmoa oracle` needs it
    assert _fresh_python(_NO_SCIPY_SCRIPT, str(tmp_path)) == "[]"
    assert (tmp_path / "out" / "x_star.txt").is_file()


# every oracle suite in a fresh interpreter; prints whether scipy.optimize was loaded
_ORACLE_SCRIPT = """
import sys
from rankmoa.oracle import SUITES, run_suite
for name in SUITES:
    ok, lines = run_suite(name)
    assert ok, (name, lines)
print("scipy.optimize" in sys.modules)
"""


def test_oracle_suites_do_not_import_scipy_optimize():
    # scipy.optimize costs every process about 21 MB of RSS; the rank-1 Hankel
    # minimum is a closed form. scipy.linalg stays imported at module level:
    # the bench tracer reads it from sys.modules (ROADMAP item 4)
    assert _fresh_python(_ORACLE_SCRIPT) == "False"
