import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rankmoa import FrobeniusDistance, save_problem
from rankmoa.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def problem_files(tmp_path, hankel_case, trace_case, diagonal_case):
    paths = {}
    for name, (spec, points) in (("hankel33", hankel_case), ("tr", trace_case),
                                 ("diag", diagonal_case)):
        p = tmp_path / f"{name}.prob"
        save_problem(spec, p, named_points=points)
        paths[name] = p
    return paths


def test_analyze_hankel_text(problem_files, capsys):
    code = main(["analyze", str(problem_files["hankel33"]), "--point", "Xbar"])
    out = capsys.readouterr().out
    assert code == 0
    assert "F-stationary: yes" in out
    assert "Assumption 1 holds (t_rank=4)" in out
    assert "case full_rank" in out
    assert "sufficient: ok" in out


def test_analyze_trace_x1_reports_m_not_f(problem_files, capsys):
    code = main(["analyze", str(problem_files["tr"]), "--point", "X1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "F-stationary: no" in out
    assert "M-stationary: yes" in out
    assert "summary: M-stationary, not F-stationary" in out


def test_analyze_missing_file_exit_2(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "nope.prob"), "--point", "X"])
    assert code == 2


def test_analyze_unknown_point_exit_2(problem_files, capsys):
    code = main(["analyze", str(problem_files["tr"]), "--point", "Zeta"])
    assert code == 2
    assert "Zeta" in capsys.readouterr().err


def test_analyze_wrong_shape_point_exit_2(problem_files, tmp_path, capsys):
    np.savetxt(tmp_path / "wide.txt", np.zeros((2, 5)))
    code = main(["analyze", str(problem_files["tr"]), "--point",
                 str(tmp_path / "wide.txt")])
    assert code == 2
    assert "shape" in capsys.readouterr().err


def test_analyze_strict_uncertified_exit_3(problem_files, capsys):
    code = main(["analyze", str(problem_files["diag"]), "--point", "Xbar",
                 "--strict"])
    assert code == 3
    # without --strict the same analysis succeeds
    code = main(["analyze", str(problem_files["diag"]), "--point", "Xbar"])
    assert code == 0


def test_analyze_tol_override(problem_files, tmp_path, capsys):
    # a slightly perturbed candidate fails at the default tolerance but is
    # accepted once the membership tolerance is relaxed
    x = (2.0 / 3.0) * np.diag([1.0, 1.0, 0.0, 1.0])
    x[0, 1] = 1e-6
    x[1, 0] = -1e-6
    np.savetxt(tmp_path / "near.txt", x)
    main(["analyze", str(problem_files["tr"]), "--point",
          str(tmp_path / "near.txt")])
    strict_out = capsys.readouterr().out
    assert "F-stationary: no" in strict_out
    main(["analyze", str(problem_files["tr"]), "--point",
          str(tmp_path / "near.txt"), "--tol", "1e-4"])
    loose_out = capsys.readouterr().out
    assert "F-stationary: yes" in loose_out


def test_analyze_point_from_file(problem_files, tmp_path, capsys):
    x = np.diag([1.0, 1.0, 0.0, 0.0])
    np.savetxt(tmp_path / "x.txt", x)
    code = main(["analyze", str(problem_files["tr"]), "--point",
                 str(tmp_path / "x.txt")])
    assert code == 0
    assert "M-stationary, not F-stationary" in capsys.readouterr().out


def test_analyze_json_golden_schema(problem_files, capsys):
    code = main(["analyze", str(problem_files["hankel33"]), "--point", "Xbar",
                 "--alpha", "1", "--json"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    golden = json.loads((DATA / "analyze_hankel_xbar.json").read_text())

    def compare(a, b, where="$"):
        assert type(a) is type(b), f"{where}: {type(a)} vs {type(b)}"
        if isinstance(a, dict):
            assert sorted(a) == sorted(b), f"{where}: key set changed"
            for k in a:
                if k == "path":
                    continue
                compare(a[k], b[k], f"{where}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), f"{where}: length changed"
            for i, (x, y) in enumerate(zip(a, b)):
                compare(x, y, f"{where}[{i}]")
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9), where
        else:
            assert a == b, where

    compare(got, golden)


def test_analyze_factors_the_point_once(problem_files, monkeypatch, capsys):
    # count through every module alias, since callers import these by name
    from rankmoa.linalg import orient_svd
    from rankmoa.qualification import bq_certificates
    calls = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name == "rankmoa" or name.startswith("rankmoa.")]
    for fn in (orient_svd, bq_certificates):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    # the reduced second-order form applies the Hessian once per basis direction
    hess_apply = FrobeniusDistance.hess_apply

    def counted_hess(self, X, Xi):
        calls["hess_apply"] += 1
        return hess_apply(self, X, Xi)
    monkeypatch.setattr(FrobeniusDistance, "hess_apply", counted_hess)
    code = main(["analyze", str(problem_files["hankel33"]), "--point", "Xbar", "--json"])
    assert code == 0
    basis_dim = json.loads(capsys.readouterr().out)["second_order"]["basis_dim"]
    assert basis_dim == 4
    assert calls == {"orient_svd": 1, "bq_certificates": 1, "hess_apply": basis_dim}


def test_solve_writes_outputs(problem_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", str(problem_files["tr"]), "--x0", "H",
                 "--out", str(out)])
    assert code == 0
    x = np.loadtxt(out / "x_star.txt")
    assert np.allclose(x, (2.0 / 3.0) * np.diag([1, 1, 0, 1]), atol=1e-8)
    lines = (out / "iterates.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,f,feas_residual,stat_residual"
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["report"]["is_F"] is True


def test_solve_divergence_exit_4(problem_files, tmp_path, capsys):
    np.savetxt(tmp_path / "big.txt", 1e5 * np.eye(4))
    code = main(["solve", str(problem_files["tr"]), "--x0",
                 str(tmp_path / "big.txt"), "--alpha", "50", "--iters", "200",
                 "--out", str(tmp_path / "o")])
    assert code == 4


def test_solve_random_start_seeded(problem_files, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["solve", str(problem_files["hankel33"]), "--x0", "rand",
                     "--seed", "7", "--iters", "4000", "--out", str(out)])
        assert code == 0
    x1 = np.loadtxt(out1 / "x_star.txt")
    x2 = np.loadtxt(out2 / "x_star.txt")
    assert np.array_equal(x1, x2)  # deterministic given the seed


def test_oracle_suites(capsys):
    for suite in ("fd", "projection", "hankel-rank1", "diag-embed"):
        code = main(["oracle", suite])
        out = capsys.readouterr().out
        assert code == 0
        assert f"suite {suite}: PASS" in out
    assert main(["oracle", "bogus"]) == 2


def test_env_seed_respected(problem_files, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RANKMOA_SEED", "11")
    out = tmp_path / "env"
    code = main(["solve", str(problem_files["hankel33"]), "--iters", "4000",
                 "--out", str(out)])
    assert code == 0
    monkeypatch.setenv("RANKMOA_SEED", "not-an-int")
    code = main(["oracle", "projection"])
    capsys.readouterr()
    assert code == 0


def test_module_entry_point(problem_files):
    proc = subprocess.run(
        [sys.executable, "-m", "rankmoa", "analyze",
         str(problem_files["hankel33"]), "--point", "Xtilde"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Assumption 1 fails" in proc.stdout
