import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoa import (AffineMap, DivergenceError, FrobeniusDistance, ProblemSpec,
                     RankBound, SolverConfig, build_hankel, build_hankel_example,
                     build_trace_example, project_affine, project_low_rank,
                     rank_estimate, solve)
from rankmoa import cones, linalg, solver
from rankmoa.linalg import DEFAULT_TOL, as_matrix
from rankmoa.report import _dumps
from rankmoa.solver import (MODE_EXACT, MODE_PENALTY, stationarity_residual,
                            write_iterate_log)
from rankmoa.stationarity import classify_first_order


def _hankel_average(X):
    """Closed-form projection onto 3x3 Hankel matrices: anti-diagonal means."""
    out = np.zeros_like(X)
    for d in range(5):
        idx = [(i, d - i) for i in range(3) if 0 <= d - i < 3]
        mean = np.mean([X[i, j] for i, j in idx])
        for i, j in idx:
            out[i, j] = mean
    return out


def test_project_affine_identity_cases(hankel_case):
    spec, points = hankel_case
    assert np.allclose(project_affine(spec.affine, points["Xbar"]), points["Xbar"])
    amap = AffineMap([], [], shape=(2, 2))
    X = np.arange(4.0).reshape(2, 2)
    assert np.allclose(project_affine(amap, X), X)


def test_project_affine_matches_hankel_averaging(hankel_case, rng):
    spec, _ = hankel_case
    for _ in range(10):
        X = rng.standard_normal((3, 3))
        got = project_affine(spec.affine, X)
        assert np.allclose(got, _hankel_average(X), atol=1e-10)
        assert spec.affine.residual(got) <= 1e-10


def _lstsq_projection(amap, X):
    """Reference projection: one np.linalg.lstsq(rcond=None) solve per call."""
    if amap.l == 0:
        return X
    c, *_ = np.linalg.lstsq(amap.stack, amap.rhs - amap.apply(X), rcond=None)
    return X + c.reshape(amap.shape)


def _consistent_map(rng, m, n, rows):
    """Constraints A^i = B^rows[i] from random m x n matrices B, with b = A(X0)."""
    basis = rng.standard_normal((max(rows) + 1, m, n))
    x0 = rng.standard_normal((m, n))
    mats = [basis[i] for i in rows]
    return AffineMap(mats, [float(np.vdot(a, x0)) for a in mats])


def test_project_affine_matches_lstsq_reference(rng):
    maps = [
        _consistent_map(rng, 4, 3, range(5)),
        _consistent_map(rng, 2, 5, range(10)),  # l = mn: the only feasible point
        _consistent_map(rng, 4, 3, [0, 1, 2, 0, 2, 1, 1]),  # linearly dependent
        AffineMap([], [], shape=(3, 4)),
    ]
    for amap in maps:
        for _ in range(5):
            X = 10.0 * rng.standard_normal(amap.shape)
            ref = _lstsq_projection(amap, X)
            assert np.max(np.abs(project_affine(amap, X) - ref)) <= 1e-12 * max(
                1.0, np.max(np.abs(ref)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 8), st.integers(0, 10**6))
def test_project_affine_is_the_affine_projection(m, n, l, seed):
    rng = np.random.default_rng(seed)
    independent = int(rng.integers(1, min(l, m * n) + 1))
    amap = _consistent_map(rng, m, n, rng.integers(0, independent, size=l))
    X = 10.0 * rng.standard_normal((m, n))
    P = project_affine(amap, X)
    scale = max(1.0, float(np.linalg.norm(X)))
    assert np.linalg.norm(project_affine(amap, P) - P) <= 1e-10 * scale
    assert amap.residual(P) <= 1e-10 * scale
    assert amap.normal_space_member(X - P)[0]


def _gap_checking_projection(amap, X):
    """The projection as first written: validate X twice, test consistency per call."""
    X = as_matrix(X, "X")
    if amap.l == 0:
        return X
    target = amap.rhs - amap.apply(X)
    c = amap.stack_pinv @ target
    gap = float(np.linalg.norm(amap.stack @ c - target))
    if gap > DEFAULT_TOL * max(1.0, float(np.linalg.norm(amap.rhs))):
        warnings.warn("constraint system is inconsistent; returning the least-squares "
                      "projection", RuntimeWarning, stacklevel=2)
    return X + c.reshape(amap.shape)


def test_project_affine_matches_gap_checking_projection_bitwise(rng):
    # dropping the per-call consistency test and the second validation leaves
    # the same float operations, so the solver's iterates cannot move
    G = rng.standard_normal((6, 6))
    maps = [
        _consistent_map(rng, 4, 3, range(5)),
        _consistent_map(rng, 2, 5, range(10)),  # l = mn
        _consistent_map(rng, 4, 3, [0, 1, 2, 0, 2, 1, 1]),
        build_hankel(G + G.T, 2).affine,
        build_hankel_example()[0].affine,
    ]
    for amap in maps:
        assert amap.consistent
        for _ in range(5):
            X = 10.0 * rng.standard_normal(amap.shape)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # neither may call these maps inconsistent
                assert np.array_equal(project_affine(amap, X),
                                      _gap_checking_projection(amap, X))


def test_project_affine_inconsistent_warns():
    a = np.eye(2)
    amap = AffineMap([a, a.copy()], [0.0, 1.0])
    for _ in range(2):  # the cached pseudo-inverse must not silence later calls
        with pytest.warns(RuntimeWarning):
            Y = project_affine(amap, np.zeros((2, 2)))
        assert np.isclose(np.trace(Y), 0.5)  # least-squares compromise


def test_project_affine_rejects_bad_input_once(hankel_case):
    amap = hankel_case[0].affine
    with pytest.raises(ValueError, match="non-finite"):
        project_affine(amap, np.full((3, 3), np.inf))
    with pytest.raises(ValueError, match="shape"):
        project_affine(amap, np.zeros((3, 4)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    # the count check of samples and seed: 2.5 used to fail inside solve, True to run once
    for bad in (2.5, True, np.float64(3.0), "10", None):
        with pytest.raises(TypeError, match="max_iters"):
            SolverConfig(max_iters=bad)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
    with pytest.raises(ValueError):
        SolverConfig(affine_mode="bogus")
    with pytest.raises(ValueError):
        SolverConfig(affine_mode=MODE_PENALTY, rho=0.0)
    # rho is checked in every mode, as the CLI's --rho promises
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rho"):
            SolverConfig(rho=bad)


def test_solve_hankel_recovers_target(hankel_case):
    spec, points = hankel_case
    H = spec.objective.target
    x0, _ = project_low_rank(H, 2)
    result = solve(spec, x0, SolverConfig(alpha=0.5, stop_tol=1e-10))
    assert result.converged
    assert result.iterations < 10**4
    assert np.linalg.norm(result.x - points["Xbar"]) <= 1e-6
    assert result.report.is_F
    f_star = spec.objective.value(result.x)
    assert abs(f_star - 0.5e-12) <= 1e-15


def test_solve_trace_recovers_x4(trace_case):
    spec, points = trace_case
    result = solve(spec, points["H"], SolverConfig(alpha=0.5, stop_tol=1e-12))
    assert result.converged
    assert result.iterations < 10**4
    assert np.linalg.norm(result.x - points["X4"]) <= 1e-6
    assert "unique global minimizer (Thm 4.2 ii)" in result.report.classification


def test_solve_zero_gradient_start_stops_immediately(rng):
    X0 = np.diag([1.0, 2.0, 0.0])
    prob = ProblemSpec(FrobeniusDistance(X0), AffineMap([], [], shape=(3, 3)),
                       RankBound(2))
    result = solve(prob, X0, SolverConfig())
    assert result.converged
    assert result.iterations == 1
    assert np.allclose(result.x, X0)


def test_solve_invariants(hankel_case, trace_case):
    for spec, start in ((hankel_case[0], project_low_rank(
            hankel_case[0].objective.target, 2)[0]),
            (trace_case[0], trace_case[1]["H"])):
        result = solve(spec, start, SolverConfig(stop_tol=1e-10))
        assert rank_estimate(result.x, spec.rank_tol) <= spec.r
        assert spec.affine.residual(result.x) <= 10 * 1e-10
        # the log is for inspection: columns are iter, f, feas, stat
        ks, fs, feas, stats = zip(*result.log)
        assert list(ks) == list(range(1, len(ks) + 1))
        assert stats[-1] <= 1e-10


def test_solve_penalty_mode(trace_case):
    # stability needs alpha below 2 / (1 + 4*rho) for the trace constraint
    spec, points = trace_case
    cfg = SolverConfig(alpha=0.008, affine_mode=MODE_PENALTY, rho=50.0,
                       stop_tol=1e-7, max_iters=5000)
    result = solve(spec, points["H"], cfg)
    # penalty mode only approximately enforces the constraint; the penalized
    # minimizer sits at diag(t, t, 0, t) with t = 100/151
    assert np.linalg.norm(result.x - points["X4"]) <= 2e-2
    assert spec.affine.residual(result.x) <= 2e-2


def test_solve_divergence(trace_case):
    spec, _ = trace_case
    with pytest.raises(DivergenceError):
        solve(spec, 1e5 * np.eye(4), SolverConfig(alpha=50.0, max_iters=200))


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_PENALTY])
def test_solve_overflowing_step_raises_divergence(hankel_case, mode):
    # alpha * grad overflows to inf in the first step; the projections used to
    # reject it with a ValueError that no caller expects
    spec, points = hankel_case
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="iteration 1"):
        solve(spec, points["Xbar"] + 1.0, SolverConfig(alpha=1e308, affine_mode=mode))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_solve_overflowing_affine_correction_raises_divergence():
    # the step itself is finite, but b - A(W) overflows in the first round and
    # the SVD would be handed NaN entries
    rng = np.random.default_rng(0)
    H = 1e150 * rng.standard_normal((4, 4))
    A = 1e160 * rng.standard_normal((2, 4, 4))
    prob = ProblemSpec(FrobeniusDistance(H), AffineMap(A, [0.0, 0.0]), RankBound(1))
    with pytest.raises(DivergenceError, match="affine projection overflowed at iteration 1"):
        solve(prob, H, SolverConfig(max_iters=3))


def test_stationarity_residual_at_solution(trace_case):
    spec, points = trace_case
    res, y = stationarity_residual(spec, points["X4"], alpha=0.5)
    assert res <= 1e-12
    assert abs(y[0] + 2.0 / 3.0) <= 1e-9
    res1, _ = stationarity_residual(spec, points["X1"], alpha=0.5)
    assert res1 > 1e-3


def test_stationarity_residual_below_the_rank_bound_projects_nothing(trace_case, monkeypatch):
    # at s < r the residual is all of grad L, so the solver's stopping test,
    # run every iteration, takes no tangent projection of it
    spec, points = trace_case
    calls = Counter()
    project = cones.project_tangent_fixed_rank

    def counted(*args):
        calls["project"] += 1
        return project(*args)
    monkeypatch.setattr(cones, "project_tangent_fixed_rank", counted)
    stationarity_residual(spec, points["X1"], alpha=0.5)  # rank 2, r = 3
    assert calls["project"] == 0
    stationarity_residual(spec, points["X4"], alpha=0.5)  # rank 3
    assert calls["project"] == 1


def _reference_hankel():
    G = np.random.default_rng(0).standard_normal((8, 8))
    H = G + G.T
    x0, _ = project_low_rank(H, 2)
    return build_hankel(H, 2), x0


def test_reference_hankel_solve_keeps_the_multiplier_bounded():
    # the tangential multiplier system here is 64 x 49 with only 24 singular
    # values above rank_tol; inverting one near 1e-14 gives residuals near 1e12
    prob, x0 = _reference_hankel()
    result = solve(prob, x0, SolverConfig(alpha=0.5, max_iters=3))
    assert len(result.log) == 3
    assert all(stat < 1.0 for _, _, _, stat in result.log)


def test_reference_hankel_solve_factors_the_projector_once(monkeypatch):
    # the inner rounds, one linalg._truncate call each, apply the cached
    # pseudo-inverse of the constraint stack; lstsq is left to the multiplier
    # solves, one per iteration and one for the final classification
    prob, x0 = _reference_hankel()
    stack = prob.affine.stack
    calls = Counter()
    lstsq, svd, truncate = np.linalg.lstsq, np.linalg.svd, solver._truncate

    def counting_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        if a is stack and kwargs.get("compute_uv", True):
            calls["factor"] += 1
        return svd(a, *args, **kwargs)

    def counting_truncate(*args, **kwargs):
        calls["round"] += 1
        return truncate(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(solver, "_truncate", counting_truncate)
    result = solve(prob, x0, SolverConfig(alpha=0.5, max_iters=3))
    assert result.iterations == 3
    assert calls["round"] >= 3 * solver._INNER_MIN
    assert calls["lstsq"] <= result.iterations + 1
    solve(prob, x0, SolverConfig(alpha=0.5, max_iters=3))
    assert calls["factor"] <= 1  # cached on the AffineMap


class _CountedArray(np.ndarray):
    """ndarray that tallies the matrix products it is the left factor of."""

    products = 0

    def __matmul__(self, other):
        _CountedArray.products += 1
        return np.asarray(self) @ other


def test_reference_hankel_solve_projects_with_two_products(monkeypatch):
    # the consistency verdict is the map's: computed once, then each round's
    # correction is stack @ x and stack_pinv @ (b - stack @ x), nothing more.
    # A round's products are those since the previous round, or since the
    # gradient step for an iteration's first round
    prob, x0 = _reference_hankel()
    amap = prob.affine
    amap.__dict__["stack"] = amap.stack.view(_CountedArray)
    amap.__dict__["stack_pinv"] = amap.stack_pinv.view(_CountedArray)
    prop = AffineMap.__dict__["consistent"]
    verdict, truncate = prop.func, solver._truncate
    objective = type(prob.objective)
    grad = objective.grad
    verdicts = []
    per_round = []
    mark = [0]

    def counting_verdict(self):
        before = _CountedArray.products
        out = verdict(self)
        verdicts.append(_CountedArray.products - before)
        return out

    def marking_grad(*args, **kwargs):
        out = grad(*args, **kwargs)
        mark[0] = _CountedArray.products
        return out

    def counting_truncate(*args, **kwargs):
        per_round.append(_CountedArray.products - mark[0])
        out = truncate(*args, **kwargs)
        mark[0] = _CountedArray.products
        return out

    monkeypatch.setattr(prop, "func", counting_verdict)
    monkeypatch.setattr(objective, "grad", marking_grad)
    monkeypatch.setattr(solver, "_truncate", counting_truncate)
    _CountedArray.products = 0
    result = solve(prob, x0, SolverConfig(alpha=0.5, max_iters=3))
    assert result.iterations == 3
    assert len(verdicts) == 1
    assert len(per_round) >= 3 * solver._INNER_MIN
    assert set(per_round) == {2}


def test_reference_hankel_inner_round_is_one_kernel_call(monkeypatch):
    # a round is the affine correction, then one linalg._truncate call (one
    # call of numpy's thin-SVD gufunc); np.linalg.svd is left to the
    # per-iteration analysis. The step is validated once per iteration, and
    # project_affine, the validated public entry, runs once: the final projection
    prob, x0 = _reference_hankel()
    assert prob.affine.consistent  # factors the map's pseudo-inverse up front
    calls = Counter()
    depth = [0]
    svd, gufunc, as_shaped = np.linalg.svd, linalg._svd_thin, solver.as_shaped

    def counted(fn, name):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    def counting_svd(*args, **kwargs):
        calls["svd in a round" if depth[0] else "svd"] += 1
        return svd(*args, **kwargs)

    def counting_gufunc(*args, **kwargs):
        calls["gufunc"] += 1
        return gufunc(*args, **kwargs)

    def counting_validation(x, shape, name="matrix", stack=False):
        calls[f"validate {name}"] += 1
        return as_shaped(x, shape, name, stack)

    monkeypatch.setattr(solver, "project_affine", counted(solver.project_affine, "project"))
    monkeypatch.setattr(solver, "_truncate", counted(solver._truncate, "round"))
    monkeypatch.setattr(solver, "as_shaped", counting_validation)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    if gufunc is not None:
        monkeypatch.setattr(linalg, "_svd_thin", counting_gufunc)
    result = solve(prob, x0, SolverConfig(alpha=0.5, max_iters=3))
    assert result.iterations == 3
    assert calls["round"] >= 3 * solver._INNER_MIN
    assert calls["svd in a round"] == 0
    if gufunc is not None:
        assert calls["gufunc"] == calls["round"]
    assert 0 < calls["svd"] < calls["round"]
    assert calls["project"] == 1
    assert calls["validate X"] == result.iterations + 1  # the last by project_affine


def _ravel_norm(x):
    x = x.ravel()
    return math.sqrt(x @ x)


def _reference_solve(prob, X0, cfg):
    """solve's exact_projection loop as first written: every round is
    project_affine, then the rank-r truncation by np.linalg.svd with the
    broadcast product, then the norm test."""
    X = as_matrix(X0)
    log, converged, iterations = [], False, 0
    for k in range(1, cfg.max_iters + 1):
        iterations = k
        W = X - cfg.alpha * prob.objective.grad(X)
        inner_tol = min(1e-13, 0.01 * cfg.stop_tol)
        for j in range(solver._INNER_CAP):
            prev = W
            u, sigma, vh = np.linalg.svd(project_affine(prob.affine, W), full_matrices=False)
            W = (u[..., :prob.r] * sigma[..., None, :prob.r]) @ vh[..., :prob.r, :]
            if (j + 1 >= solver._INNER_MIN
                    and _ravel_norm(W - prev) <= inner_tol * max(1.0, _ravel_norm(W))):
                break
        X = W
        f = prob.objective.value(X)
        stat, _ = stationarity_residual(prob, X, cfg.alpha)
        log.append((k, f, prob.affine.residual(X), stat))
        if stat <= cfg.stop_tol:
            converged = True
            break
    X = project_affine(prob.affine, X)
    return X, log, converged, iterations, classify_first_order(prob, X, alpha=cfg.alpha)


def _reference_cases():
    rng = np.random.default_rng(24)
    prob8, x8 = _reference_hankel()
    hk, hk_points = build_hankel_example()
    tr, tr_points = build_trace_example()
    cases = [("hankel8", prob8, x8, 3), ("hankel3-Xtilde", hk, hk_points["Xtilde"], 200),
             ("trace-H", tr, tr_points["H"], 200)]
    for l in (0, 2, 3, 4):
        amap = (_consistent_map(rng, 4, 3, range(l)) if l
                else AffineMap([], [], shape=(4, 3)))
        H = rng.standard_normal((4, 3))
        prob = ProblemSpec(FrobeniusDistance(H), amap, RankBound(1))
        cases.append((f"random-l{l}", prob, project_low_rank(H, 1)[0], 40))
    eye = np.eye(2)
    inconsistent = ProblemSpec(FrobeniusDistance(np.diag([2.0, 1.0])),
                               AffineMap([eye, eye], [0.0, 1.0]), RankBound(1))
    cases.append(("inconsistent", inconsistent, np.diag([1.0, 0.0]), 20))
    return cases


@pytest.mark.parametrize("stop_tol", [SolverConfig().stop_tol, 1e-12])
def test_solve_matches_the_per_round_reference_bitwise(stop_tol):
    # the rounds read the map's arrays once per solve and validate once per
    # iteration; the float operations, and so every output bit, are the reference's
    for name, prob, x0, iters in _reference_cases():
        cfg = SolverConfig(alpha=0.5, max_iters=iters, stop_tol=stop_tol)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(prob, x0, cfg)
            ref_x, ref_log, ref_converged, ref_iters, ref_report = _reference_solve(
                prob, x0, cfg)
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert bool(warned) == (name == "inconsistent"), name
        assert result.x.tobytes() == ref_x.tobytes(), name
        assert result.log == ref_log, name
        assert (result.iterations, result.converged) == (ref_iters, ref_converged), name
        assert _dumps(result.report.to_dict()) == _dumps(ref_report.to_dict()), name


def test_solve_warns_once_for_an_inconsistent_map():
    eye = np.eye(2)
    prob = ProblemSpec(FrobeniusDistance(np.diag([2.0, 1.0])),
                       AffineMap([eye, eye], [0.0, 1.0]), RankBound(1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(prob, np.diag([1.0, 0.0]), SolverConfig(max_iters=5))
    # one for the rounds, one from the final project_affine
    assert [issubclass(w.category, RuntimeWarning) for w in caught] == [True, True]


def test_write_iterate_log(tmp_path, hankel_case):
    spec, _ = hankel_case
    x0, _ = project_low_rank(spec.objective.target, 2)
    result = solve(spec, x0, SolverConfig())
    path = tmp_path / "log.csv"
    write_iterate_log(path, result.log)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,f,feas_residual,stat_residual"
    assert len(lines) == len(result.log) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1 and len(first) == 4
