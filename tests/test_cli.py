import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rankmoa import AffineMap, FrobeniusDistance, ProblemSpec, RankBound, save_problem
from rankmoa.cli import main
from rankmoa.cones import in_tangent_bouligand_Mr
from rankmoa.linalg import project_low_rank
from rankmoa.second_order import CONE_BLOCK

from conftest import random_rank_matrix

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


def _set_rhs(value):
    return lambda doc: doc["constraints"][0].update(rhs=value)


@pytest.mark.parametrize("argv, edit, point_row", [
    pytest.param(["solve"], _set_rhs("abc"), None, id="solve-rhs-not-a-number"),
    pytest.param(["solve"], _set_rhs(None), None, id="solve-rhs-null"),
    pytest.param(["analyze", "--point", "X4"], _set_rhs(None), None, id="analyze-rhs-null"),
    pytest.param(["analyze", "--point", "X4"], lambda doc: doc.update(named_points=5),
                 None, id="named-points-not-a-list"),
    pytest.param(["analyze", "--point"], None, "nan 0 0 0", id="analyze-point-nan"),
    pytest.param(["solve", "--x0"], None, "nan 0 0 0", id="solve-x0-nan"),
    pytest.param(["solve", "--x0"], None, "a b c d", id="solve-x0-not-numeric"),
    pytest.param(["solve", "--iters", "0"], None, None, id="solve-iters-0"),
    pytest.param(["solve", "--alpha", "-1"], None, None, id="solve-alpha-negative"),
    pytest.param(["analyze", "--point", "X4", "--alpha", "-1"], None, None,
                 id="analyze-alpha-negative"),
    pytest.param(["analyze", "--point", "X4", "--alpha", "0"], None, None,
                 id="analyze-alpha-0"),
    pytest.param(["analyze", "--point", "X4", "--alpha", "nan"], None, None,
                 id="analyze-alpha-nan"),
    pytest.param(["analyze", "--point", "X4", "--tol", "nan"], None, None,
                 id="analyze-tol-nan"),
    pytest.param(["analyze", "--point", "X4", "--tol", "inf"], None, None,
                 id="analyze-tol-inf"),
    pytest.param(["analyze", "--point", "X4"], lambda doc: doc.update(tol=math.nan),
                 None, id="analyze-file-tol-nan"),
    pytest.param(["analyze", "--point", "X4", "--samples", "-5"], None, None,
                 id="analyze-samples-negative"),
    pytest.param(["solve", "--alpha", "nan"], None, None, id="solve-alpha-nan"),
    pytest.param(["solve", "--mode", "quadratic_penalty", "--rho", "nan"], None, None,
                 id="solve-rho-nan"),
    pytest.param(["solve", "--stop-tol", "nan"], None, None, id="solve-stop-tol-nan"),
    pytest.param(["solve", "--seed", "-1"], None, None, id="solve-seed-negative"),
    pytest.param(["RANKMOA_SEED=-2", "solve"], None, None, id="solve-env-seed-negative"),
    pytest.param(["analyze", "--point", "X4", "--seed", "-1"], None, None,
                 id="analyze-seed-negative"),
])
def test_malformed_input_exit_2(problem_files, tmp_path, capsys, monkeypatch, argv, edit,
                                point_row):
    while "=" in argv[0]:  # leading NAME=value entries set the environment, as in a shell
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    doc = json.loads(problem_files["tr"].read_text())
    if edit is not None:
        edit(doc)
    path = tmp_path / "case.prob"
    path.write_text(json.dumps(doc))
    args = [argv[0], str(path), *argv[1:]]
    if point_row is not None:
        point = tmp_path / "point.txt"
        point.write_text("\n".join([point_row] + ["0 0 0 0"] * 3) + "\n")
        args.append(str(point))
    code = main(args)  # an uncaught exception here is the traceback under test
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


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


def _count_hess_apply(monkeypatch, calls):
    hess_apply = FrobeniusDistance.hess_apply

    def counted_hess(self, X, Xi):
        calls["hess_apply"] += 1
        return hess_apply(self, X, Xi)
    monkeypatch.setattr(FrobeniusDistance, "hess_apply", counted_hess)


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
    # the reduced second-order form applies the Hessian to its whole basis at once
    _count_hess_apply(monkeypatch, calls)
    code = main(["analyze", str(problem_files["hankel33"]), "--point", "Xbar", "--json"])
    assert code == 0
    basis_dim = json.loads(capsys.readouterr().out)["second_order"]["basis_dim"]
    assert basis_dim == 4
    assert calls == {"orient_svd": 1, "bq_certificates": 1, "hess_apply": 1}


def _deficient_problem(path):
    """A rank-1 5x4 point X, F-stationary at r = 3 under two random constraints."""
    rng = np.random.default_rng(11)
    X = random_rank_matrix(rng, 5, 4, 1)
    mats = rng.standard_normal((2, 5, 4))
    amap = AffineMap(mats, np.tensordot(mats, X))
    target = X + amap.adjoint(rng.standard_normal(2))
    save_problem(ProblemSpec(FrobeniusDistance(target), amap, RankBound(3)), path,
                 named_points={"X": X})
    return path


def test_analyze_compresses_the_constraint_stack_once(problem_files, tmp_path,
                                                      monkeypatch, capsys):
    # Assumption 1 and 2, the tangential multiplier fit and the reduced
    # second-order basis all read one U^T A^i V stack per analyzed point
    from rankmoa.cones import compress
    shapes = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "rankmoa" or name.startswith("rankmoa.")]

    def spy(svd, Z):
        shapes.append(np.shape(Z))
        return compress(svd, Z)
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is compress:
                monkeypatch.setattr(mod, attr, spy)
    cases = ((problem_files["hankel33"], "Xbar", (4, 3, 3), "full_rank"),
             (_deficient_problem(tmp_path / "deficient.prob"), "X", (2, 5, 4),
              "rank_deficient"))
    for path, point, stack, case in cases:
        shapes.clear()
        assert main(["analyze", str(path), "--point", point, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["second_order"]["case"] == case
        assert shapes.count(stack) == 1


def test_analyze_cone_sampling_runs_in_blocks(tmp_path, monkeypatch, capsys):
    # the rank-deficient sampler factors its draws as stacks: SVDs, cone and
    # Hessian calls grow with the number of blocks, not with the number of samples
    rng = np.random.default_rng(3)
    X = random_rank_matrix(rng, 5, 4, 1)
    # constraints inside the tangent space keep kernel-projected draws in the cone
    u1 = np.linalg.svd(X)[0][:, :1]
    mats = [u1 @ rng.standard_normal((1, 4)) for _ in range(2)]
    amaps = {0: AffineMap([], [], shape=(5, 4)),
             2: AffineMap(mats, [float(np.tensordot(a, X)) for a in mats])}
    calls = Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name == "rankmoa" or name.startswith("rankmoa.")]
    for fn in (in_tangent_bouligand_Mr, project_low_rank, np.linalg.svd):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules + [np.linalg]:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    _count_hess_apply(monkeypatch, calls)

    def run(path, *extra):
        calls.clear()
        code = main(["analyze", str(path), "--point", "X", "--json", *extra])
        assert code == 0
        second = json.loads(capsys.readouterr().out)["second_order"]
        assert second["case"] == "rank_deficient"
        return dict(calls), second["cone_samples_tested"]

    blocks = math.ceil(2000 / CONE_BLOCK)
    # one truncation per block; with constraints also the normal-block spectra
    # of the membership test, and the full spectra of its undecided draws
    for l, svds_per_block in ((0, 1), (2, 3)):
        path = tmp_path / f"deficient{l}.prob"
        save_problem(ProblemSpec(FrobeniusDistance(X), amaps[l], RankBound(3)), path,
                     named_points={"X": X})
        base, _ = run(path, "--samples", "0")
        sampled, tested = run(path)  # the default 2000 samples
        assert tested == 2000
        for k in ("in_tangent_bouligand_Mr", "project_low_rank", "hess_apply"):
            assert sampled.get(k, 0) - base.get(k, 0) <= blocks
        assert sampled["svd"] - base["svd"] <= svds_per_block * blocks


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


def test_solve_out_is_a_file_exit_2_before_solving(problem_files, tmp_path, monkeypatch,
                                                   capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    monkeypatch.setattr("rankmoa.cli.solve", lambda *a, **k: pytest.fail("solved"))
    for out, named in ((afile, f"--out {afile} "), (afile / "sub", "afile")):
        code = main(["solve", str(problem_files["tr"]), "--x0", "H", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert afile.read_text() == "keep\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solve_overflowing_step_exit_4(problem_files, tmp_path, capsys):
    code = main(["solve", str(problem_files["hankel33"]), "--x0", "rand",
                 "--alpha", "1e308", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("divergence: ") and "Traceback" not in err


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


def test_env_seed_read_per_call(problem_files, tmp_path, monkeypatch, capsys):
    # the parser is built once per process, so the default seed must not be
    # frozen into it
    def start(seed, env=None):
        out = tmp_path / f"{seed}-{env}"
        if env is None:
            argv = ["--seed", str(seed)]
        else:
            monkeypatch.setenv("RANKMOA_SEED", env)
            argv = []
        assert main(["solve", str(problem_files["hankel33"]), "--iters", "1",
                     "--out", str(out), *argv]) == 0
        return np.loadtxt(out / "x_star.txt")

    assert np.array_equal(start(3, env="3"), start(3))
    assert np.array_equal(start(5, env="5"), start(5))
    assert not np.array_equal(start(3), start(5))


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["RANKMOA_SEED=-1"]])
def test_oracle_negative_seed_exit_2(monkeypatch, capsys, argv):
    if argv[0].startswith("RANKMOA_SEED="):
        monkeypatch.setenv("RANKMOA_SEED", argv[0].split("=", 1)[1])
        argv = []
    assert main(["oracle", "fd", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: --seed (or RANKMOA_SEED) must be")


def test_module_entry_point(problem_files):
    proc = subprocess.run(
        [sys.executable, "-m", "rankmoa", "analyze",
         str(problem_files["hankel33"]), "--point", "Xtilde"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "Assumption 1 fails" in proc.stdout
