import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rankmoa import (AffineMap, FrobeniusDistance, LinearTrace, ProblemSpec, RankBound,
                     build_hankel, save_problem)
from rankmoa.cli import main
from rankmoa.model import CustomObjective, make_custom, register_objective

from conftest import planted_curvature, random_rank_matrix

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


def _set(*keys, value):
    """An edit that sets doc[k0][k1]...[kn] = value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


BIG = 10 ** 400  # json.dumps writes every digit: an integer literal beyond double range
BIG_EDITS = {
    "matrix": _set("constraints", 0, "matrix", 1, 2, value=BIG),
    "rhs": _set_rhs(BIG),
    "target": _set("objective", "target", 0, 0, value=BIG),
    "named-point": _set("named_points", 0, "matrix", 0, 0, value=BIG),
    "rank-tol": _set("rank_tol", value=BIG),
    "tol": _set("tol", value=BIG),
}


@pytest.mark.parametrize("argv, edit, point_row", [
    pytest.param(["solve"], _set_rhs("abc"), None, id="solve-rhs-not-a-number"),
    pytest.param(["solve"], _set_rhs(None), None, id="solve-rhs-null"),
    pytest.param(["analyze", "--point", "X4"], _set_rhs(None), None, id="analyze-rhs-null"),
    pytest.param(["analyze", "--point", "X4"], lambda doc: doc.update(named_points=5),
                 None, id="named-points-not-a-list"),
    # a repeated label would otherwise let the last entry win silently
    pytest.param(["analyze", "--point", "X4"],
                 lambda doc: doc["named_points"].append({"label": "X4",
                                                         "matrix": [[0.0] * 4] * 4}),
                 None, id="named-points-repeated-label"),
    pytest.param(["analyze", "--point"], None, "nan 0 0 0", id="analyze-point-nan"),
    # ||grad f|| overflows: an infinite residual scale would pass every test
    pytest.param(["analyze", "--point"], None, "1e300 0 0 0",
                 id="analyze-gradient-norm-overflow"),
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
    # exact_projection never reads rho, but the option's contract holds in every mode
    pytest.param(["solve", "--rho", "nan"], None, None, id="solve-exact-rho-nan"),
    pytest.param(["solve", "--stop-tol", "nan"], None, None, id="solve-stop-tol-nan"),
    pytest.param(["solve", "--seed", "-1"], None, None, id="solve-seed-negative"),
    pytest.param(["RANKMOA_SEED=-2", "solve"], None, None, id="solve-env-seed-negative"),
    pytest.param(["analyze", "--point", "X4", "--seed", "-1"], None, None,
                 id="analyze-seed-negative"),
    pytest.param(["analyze", "--point", "X4"],
                 lambda doc: doc.update(objective={"kind": "registered_custom", "id": "x",
                                                   "params": 5}),
                 None, id="objective-params-not-an-object"),
    pytest.param(["analyze", "--point", "X4"], lambda doc: doc.update(objective=5), None,
                 id="objective-not-an-object"),
    pytest.param(["solve"], lambda doc: doc["objective"].pop("target"), None,
                 id="objective-target-missing"),
    *[pytest.param(argv, edit, None, id=f"{argv[0]}-{field}-beyond-double-range")
      for field, edit in BIG_EDITS.items()
      for argv in (["analyze", "--point", "X4"], ["solve"])],
    # a list row is written as a .json point file
    pytest.param(["analyze", "--point"], None, [BIG, 0, 0, 0],
                 id="analyze-json-point-beyond-double-range"),
    pytest.param(["solve", "--x0"], None, [BIG, 0, 0, 0],
                 id="solve-json-x0-beyond-double-range"),
    pytest.param(["analyze", "--point"], None, [0, 0, 0], id="analyze-json-point-ragged"),
    pytest.param(["analyze", "--point"], None, {"0": 0}, id="analyze-json-point-dict-row"),
    # no m x n float array of these sizes can exist, not even an empty stack of them
    pytest.param(["analyze", "--point", "X4"], lambda doc: doc.update(l=0, constraints=[],
                                                                     m=10 ** 400),
                 None, id="dimension-m-400-digits"),
    pytest.param(["solve"], lambda doc: doc.update(l=0, constraints=[], m=2 ** 40, n=2 ** 40),
                 None, id="dimensions-m-n-2-pow-40"),
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
    if isinstance(point_row, str):
        point = tmp_path / "point.txt"
        point.write_text("\n".join([point_row] + ["0 0 0 0"] * 3) + "\n")
        args.append(str(point))
    elif point_row is not None:
        point = tmp_path / "point.json"
        point.write_text(json.dumps([point_row] + [[0, 0, 0, 0]] * 3))
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
    out = capsys.readouterr().out
    got = json.loads(out)
    assert out == json.dumps(got, indent=2, sort_keys=True) + "\n"
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


def _spy_svd_shapes(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def test_analyze_certifies_the_hankel_stack_without_factoring_it(tmp_path, monkeypatch,
                                                                 capsys):
    # the 8 x 8 reference Hankel instance (l = 49) at a feasible rank-2 point:
    # its full row rank is proved by a Cholesky of the 49 x 49 Gram matrix
    G = np.random.default_rng(0).standard_normal((8, 8))
    k = np.add.outer(np.arange(8), np.arange(8))
    X = 0.9 ** k + (-0.5) ** k  # a rank-2 Hankel matrix
    path = tmp_path / "hankel8.prob"
    save_problem(build_hankel(G + G.T, 2), path, named_points={"X": X})
    shapes = _spy_svd_shapes(monkeypatch)
    assert main(["analyze", str(path), "--point", "X", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["problem"]["l"] == 49 and doc["stationarity"]["feasible"]
    assert "constraint matrices are linearly dependent" not in doc["qualification"]["warnings"]
    assert (49, 64) not in shapes


def test_analyze_notes_duplicated_constraints(problem_files, tmp_path, monkeypatch, capsys):
    # a repeated row defeats the certificate: the stack is ranked by its SVD
    doc = json.loads(problem_files["hankel33"].read_text())
    doc["constraints"].append(doc["constraints"][0])
    doc["l"] += 1
    path = tmp_path / "duplicated.prob"
    path.write_text(json.dumps(doc))
    shapes = _spy_svd_shapes(monkeypatch)
    assert main(["analyze", str(path), "--point", "Xbar", "--json"]) == 0
    warnings = json.loads(capsys.readouterr().out)["qualification"]["warnings"]
    assert "constraint matrices are linearly dependent" in warnings
    assert (5, 9) in shapes


def _count_hess_apply(monkeypatch, calls, cls=FrobeniusDistance):
    hess_apply = cls.hess_apply

    def counted_hess(self, X, Xi):
        calls["hess_apply"] += 1
        return hess_apply(self, X, Xi)
    monkeypatch.setattr(cls, "hess_apply", counted_hess)


def _counted(calls, fn):
    """fn, counting its calls in calls by name."""
    def counted(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)
    return counted


def _count_calls(monkeypatch, calls, *fns):
    """Count each call of fns in calls by name, through every module alias,
    since callers import these by name."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "rankmoa" or name.startswith("rankmoa.")]
    for fn in fns:
        counted = _counted(calls, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)


def test_analyze_factors_the_point_once(problem_files, monkeypatch, capsys):
    from rankmoa.linalg import orient_svd
    from rankmoa.qualification import bq_certificates
    calls = Counter()
    _count_calls(monkeypatch, calls, orient_svd, bq_certificates)
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


def test_analyze_forms_the_lagrangian_gradient_once(problem_files, tmp_path,
                                                    monkeypatch, capsys):
    # the F, alpha, beta, M and second-order tests all read one record of
    # grad L at the recovered multiplier: one A*(y), one tangent projection,
    # and its singular values taken directly, not by spectral_norm
    from rankmoa.cones import project_tangent_fixed_rank
    from rankmoa.linalg import spectral_norm
    calls = Counter()
    _count_calls(monkeypatch, calls, project_tangent_fixed_rank, spectral_norm)
    adjoint = AffineMap.adjoint

    def counted_adjoint(self, y):
        calls["adjoint"] += 1
        return adjoint(self, y)
    monkeypatch.setattr(AffineMap, "adjoint", counted_adjoint)
    cases = ((problem_files["hankel33"], "Xbar", "full_rank"),
             (_deficient_problem(tmp_path / "deficient.prob"), "X", "rank_deficient"))
    for path, point, case in cases:
        calls.clear()
        assert main(["analyze", str(path), "--point", point, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["second_order"]["case"] == case
        assert calls == {"adjoint": 1, "project_tangent_fixed_rank": 1}


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


def test_each_constraint_system_is_factored_once_per_request(problem_files, tmp_path,
                                                              monkeypatch, capsys):
    # one StackSVD of the l x mn stack per map and one of the l x d_T tangent
    # coordinates per analyzed point serve every rank, multiplier fit, kernel
    # and pseudo-inverse; nothing calls lstsq
    from rankmoa.linalg import StackSVD
    from rankmoa.stationarity import PointAnalysis
    shapes, calls = [], Counter()
    init, analysis, lstsq = StackSVD.__init__, PointAnalysis.__init__, np.linalg.lstsq

    def spy(self, S):
        shapes.append(S.shape)
        init(self, S)

    def counted_analysis(self, *args):
        calls["analyses"] += 1
        analysis(self, *args)

    def counted_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)
    monkeypatch.setattr(StackSVD, "__init__", spy)
    monkeypatch.setattr(PointAnalysis, "__init__", counted_analysis)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    hankel = problem_files["hankel33"]
    cases = ((hankel, "Xbar", (4, 9), "full_rank"),
             (_deficient_problem(tmp_path / "deficient.prob"), "X", (2, 20), "rank_deficient"))
    for path, point, stack, case in cases:
        shapes.clear()
        assert main(["analyze", str(path), "--point", point, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["second_order"]["case"] == case
        tangent = [shape for shape in shapes if shape != stack]
        assert shapes.count(stack) <= 1 and len(tangent) <= 1
        assert tangent == [(stack[0], 8)]  # d_T = mn - (m - s)(n - s) = 8 at both points
    assert calls["lstsq"] == 0
    shapes.clear()
    calls.clear()
    out = tmp_path / "out"
    assert main(["solve", str(hankel), "--x0", "Xtilde", "--iters", "3",
                 "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["iterations"] == 3
    # three stopping tests and the final classification, each at a rank-2 point
    assert calls == {"analyses": 4}
    assert shapes.count((4, 9)) == 1 and shapes.count((4, 8)) == 4 and len(shapes) == 5


def test_analyze_cone_search_call_counts(tmp_path, monkeypatch, capsys):
    # the rank-deficient cone search runs only where the ker A certificate fails and
    # hess f has curvature below -tol on ker A; there each linear space it examines
    # costs at most one SVD and one hess_apply call
    rng = np.random.default_rng(3)
    X = random_rank_matrix(rng, 5, 4, 1)
    u, _, vh = np.linalg.svd(X)
    mats = [u[:, :1] @ rng.standard_normal((1, 4)) for _ in range(2)]
    amaps = {0: AffineMap([], [], shape=(5, 4)),
             2: AffineMap(mats, [float(np.tensordot(a, X)) for a in mats])}
    register_objective("planted-curvature",
                       lambda X, dirs, weights: planted_curvature(np.array(X), dirs, weights))
    # a rank-1 normal direction with curvature -2, and one whose normal block
    # I / sqrt(3) carries -0.5 on ker A but at least 0.5 on every rank-1 block
    witness = np.outer(u[:, 1], vh[1])
    hidden = u[:, 1:4] @ vh[1:] / np.sqrt(3.0)
    calls = Counter()
    monkeypatch.setattr(np.linalg, "svd", _counted(calls, np.linalg.svd))
    for cls in (FrobeniusDistance, LinearTrace, CustomObjective):
        _count_hess_apply(monkeypatch, calls, cls)

    def added(objective, l):
        """Calls that 2000 samples add over --samples 0, and the second-order report."""
        path = tmp_path / f"deficient{l}.prob"
        save_problem(ProblemSpec(objective, amaps[l], RankBound(2)), path,
                     named_points={"X": X})
        counts = []
        for extra in (["--samples", "0"], []):  # then the default 2000 samples
            calls.clear()
            assert main(["analyze", str(path), "--point", "X", "--json", *extra]) == 0
            second = json.loads(capsys.readouterr().out)["second_order"]
            assert second["case"] == "rank_deficient"
            counts.append(dict(calls))
        base, searched = counts
        return {k: searched.get(k, 0) - base.get(k, 0) for k in ("svd", "hess_apply")}, second

    for l in (0, 2):
        # certified, or no curvature below -tol on ker A: nothing is searched
        for objective in (FrobeniusDistance(X), LinearTrace(np.zeros((5, 4)))):
            calls_added, second = added(objective, l)
            assert calls_added == {"svd": 0, "hess_apply": 0}
            assert second["cone_samples_tested"] == 0 and second["necessary_ok"]
        for dirs, weights, tested, ok in (([witness], [3.0], 1, False),
                                         ([hidden], [1.5], 2, True)):
            objective = make_custom("planted-curvature", X=X.tolist(),
                                    dirs=np.array(dirs).tolist(), weights=weights)
            calls_added, second = added(objective, l)
            assert (second["cone_samples_tested"], second["necessary_ok"]) == (tested, ok)
            assert second["cone_violations"] == int(not ok)
            assert calls_added == {"svd": tested, "hess_apply": tested}


def test_solve_writes_outputs(problem_files, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", str(problem_files["tr"]), "--x0", "H",
                 "--out", str(out)])
    assert code == 0
    x = np.loadtxt(out / "x_star.txt")
    assert np.allclose(x, (2.0 / 3.0) * np.diag([1, 1, 0, 1]), atol=1e-8)
    np.savetxt(tmp_path / "numpy.txt", x)  # "%.18e" reads back exactly
    assert (out / "x_star.txt").read_bytes() == (tmp_path / "numpy.txt").read_bytes()
    lines = (out / "iterates.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,f,feas_residual,stat_residual"
    text = (out / "report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["converged"] is True
    assert report["report"]["is_F"] is True


def test_solve_divergence_exit_4(problem_files, tmp_path, capsys):
    np.savetxt(tmp_path / "big.txt", 1e5 * np.eye(4))
    code = main(["solve", str(problem_files["tr"]), "--x0",
                 str(tmp_path / "big.txt"), "--alpha", "50", "--iters", "200",
                 "--out", str(tmp_path / "o")])
    assert code == 4


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solve_affine_correction_overflow_exit_4(tmp_path, capsys):
    # a finite gradient step whose constraint residual b - A(W) overflows
    rng = np.random.default_rng(0)
    H = 1e150 * rng.standard_normal((4, 4))
    A = 1e160 * rng.standard_normal((2, 4, 4))
    path = tmp_path / "huge.prob"
    save_problem(ProblemSpec(FrobeniusDistance(H), AffineMap(A, [0, 0]), RankBound(1)),
                 path, named_points={"x0": H})
    code = main(["solve", str(path), "--x0", "x0", "--iters", "3",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("divergence: ") and "iteration 1" in err


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
    from rankmoa.oracle import SUITES
    for suite in SUITES:
        code = main(["oracle", suite])
        out = capsys.readouterr().out
        assert code == 0
        assert f"suite {suite}: PASS" in out
    assert main(["oracle", "bogus"]) == 2


def test_oracle_help_names_every_suite():
    # the help is a literal: building the parser must not import the oracles,
    # which import scipy (test_analyze_and_solve_do_not_import_scipy)
    import argparse
    from rankmoa.cli import build_parser
    from rankmoa.oracle import SUITES
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["oracle"]._actions if a.dest == "suite")
    assert suite.help.split(" | ") == list(SUITES)


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
