import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankmoa import (AffineMap, DivergenceError, FrobeniusDistance, ProblemSpec,
                     RankBound, SolverConfig, build_hankel, build_hankel_example,
                     build_trace_example, project_affine, project_low_rank,
                     rank_estimate, solve)
from rankmoa import cones, linalg, solver
from rankmoa.linalg import DEFAULT_TOL, as_matrix
from rankmoa.report import _dumps
from rankmoa.solver import stationarity_residual, write_iterate_log
from rankmoa.stationarity import classify_first_order

from conftest import rank_zero_problem


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
    # solve has one constraint handling, so it takes no mode and no penalty weight
    for field, value in (("affine_mode", "quadratic_penalty"), ("rho", 10.0)):
        with pytest.raises(TypeError, match=field):
            SolverConfig(**{field: value})


def test_solve_hankel_recovers_target(hankel_case):
    spec, points = hankel_case
    H = spec.objective.target
    x0, _ = project_low_rank(H, 2)
    result = solve(spec, x0, SolverConfig(alpha=0.5))
    assert result.converged
    assert result.iterations < 10**4
    assert np.linalg.norm(result.x - points["Xbar"]) <= 1e-6
    assert result.report.is_F
    f_star = spec.objective.value(result.x)
    assert abs(f_star - 0.5e-12) <= 1e-15


def test_solve_trace_recovers_x4(trace_case):
    spec, points = trace_case
    result = solve(replace(spec, tol=1e-10), points["H"], SolverConfig(alpha=0.5))
    assert result.converged
    assert result.iterations < 10**4
    assert np.linalg.norm(result.x - points["X4"]) <= 1e-6
    assert "unique global minimizer (Thm 4.2 ii)" in result.report.classification


def test_solve_stops_at_the_problem_tol_at_a_certified_point(hankel_case):
    # the stopping test passes at tol / 100 and reads the Frechet residual the
    # F test passes at tol: the first row at or below 1e-6 stops the run (the
    # 24th here), and the point returned is certified F-stationary
    spec, points = hankel_case
    result = solve(replace(spec, tol=1e-4), points["Xtilde"], SolverConfig(alpha=0.5))
    stats = [row[3] for row in result.log]
    assert result.converged and result.report.is_F
    assert stats[-1] <= 1e-6 < min(stats[:-1])


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
        result = solve(spec, start, SolverConfig())
        assert rank_estimate(result.x, spec.rank_tol) <= spec.r
        assert spec.affine.residual(result.x) <= 10 * 1e-10
        # the log is for inspection: columns are iter, f, feas, stat
        ks, fs, feas, stats = zip(*result.log)
        assert list(ks) == list(range(1, len(ks) + 1))
        assert stats[-1] <= 1e-10


def test_solve_divergence(trace_case):
    spec, _ = trace_case
    with pytest.raises(DivergenceError):
        solve(spec, 1e5 * np.eye(4), SolverConfig(alpha=50.0, max_iters=200))


def test_solve_overflowing_step_raises_divergence(hankel_case):
    # alpha * grad overflows to inf in the first step; the projections used to
    # reject it with a ValueError that no caller expects
    spec, points = hankel_case
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="iteration 1"):
        solve(spec, points["Xbar"] + 1.0, SolverConfig(alpha=1e308))


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


def test_a_non_finite_candidate_raises_divergence(monkeypatch):
    # the candidate is corrected after the rounds, outside their SVD's check: an
    # unconstrained iteration runs two rounds, so the third correction is its candidate
    corrected, calls = solver._corrected, Counter()

    def overflowing(x, *args):
        calls["corrected"] += 1
        out = corrected(x, *args)
        return np.full_like(out, np.inf) if calls["corrected"] == 3 else out
    monkeypatch.setattr(solver, "_corrected", overflowing)
    H = np.random.default_rng(0).standard_normal((4, 3))
    prob = ProblemSpec(FrobeniusDistance(H), AffineMap([], [], shape=(4, 3)), RankBound(1))
    with pytest.raises(DivergenceError, match="affine projection overflowed at iteration 1"):
        solve(prob, H, SolverConfig(max_iters=3))
    assert calls["corrected"] == 3


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
    # x0 is not stationary: an iteration's first round moves, and a second one stops
    assert calls["round"] >= 2 * result.iterations
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
    assert len(per_round) >= 2 * result.iterations
    assert set(per_round) == {2}


def test_reference_hankel_inner_round_is_one_kernel_call(monkeypatch):
    # a round is the affine correction, then one linalg._truncate call (one
    # call of numpy's thin-SVD gufunc); np.linalg.svd is left to the
    # per-iteration analysis. The step is validated once per iteration, and
    # project_affine, the validated public entry, never runs: each iteration
    # corrects its own truncation into the candidate it analyzes
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
    assert calls["round"] >= 2 * result.iterations
    assert calls["svd in a round"] == 0
    if gufunc is not None:
        assert calls["gufunc"] == calls["round"]
    assert 0 < calls["svd"] < calls["round"]
    assert calls["project"] == 0
    assert calls["validate X"] == result.iterations


def _ravel_norm(x):
    x = x.ravel()
    return math.sqrt(x @ x)


def _reference_solve(prob, X0, cfg):
    """solve's loop as first written, with plain rounds only and no round
    minimum: a round is project_affine, then the rank-r truncation by
    np.linalg.svd with the broadcast product, then the norm test. Returns X,
    the log, converged, iterations, the report and each iteration's number
    of rounds."""
    X = as_matrix(X0)
    amap = prob.affine
    stop_tol = prob.tol / 100
    inner_tol = max(min(1e-13, 0.01 * stop_tol), np.finfo(float).eps * max(prob.m, prob.n))
    log, converged, iterations, rounds = [], False, 0, []
    for k in range(1, cfg.max_iters + 1):
        iterations = k
        W = X - cfg.alpha * prob.objective.grad(X)
        rounds.append(0)
        for _ in range(solver._INNER_CAP):
            rounds[-1] += 1
            prev = W
            u, sigma, vh = np.linalg.svd(project_affine(amap, W), full_matrices=False)
            W = (u[..., :prob.r] * sigma[..., None, :prob.r]) @ vh[..., :prob.r, :]
            if _ravel_norm(W - prev) <= inner_tol * max(1.0, _ravel_norm(W)):
                break
        X = W
        f = prob.objective.value(X)
        stat, _ = stationarity_residual(prob, X, cfg.alpha)
        log.append((k, f, amap.residual(X), stat))
        if stat <= stop_tol:
            converged = True
            break
    X = project_affine(amap, X)
    return (X, log, converged, iterations, classify_first_order(prob, X, alpha=cfg.alpha),
            rounds)


def _reference_cases():
    """(name, problem, x0, SolverConfig fields besides alpha)."""
    rng = np.random.default_rng(24)
    prob8, x8 = _reference_hankel()
    hk, hk_points = build_hankel_example()
    tr, tr_points = build_trace_example()
    cases = [("hankel8", prob8, x8, {"max_iters": 3}),
             ("hankel3-Xtilde", hk, hk_points["Xtilde"], {"max_iters": 200}),
             ("trace-H", tr, tr_points["H"], {"max_iters": 200})]
    for l in (0, 2, 3, 4):
        amap = (_consistent_map(rng, 4, 3, range(l)) if l
                else AffineMap([], [], shape=(4, 3)))
        H = rng.standard_normal((4, 3))
        prob = ProblemSpec(FrobeniusDistance(H), amap, RankBound(1))
        cases.append((f"random-l{l}", prob, project_low_rank(H, 1)[0], {"max_iters": 40}))
    eye = np.eye(2)
    inconsistent = ProblemSpec(FrobeniusDistance(np.diag([2.0, 1.0])),
                               AffineMap([eye, eye], [0.0, 1.0]), RankBound(1))
    cases.append(("inconsistent", inconsistent, np.diag([1.0, 0.0]), {"max_iters": 20}))
    return cases


def _verdicts(doc, path=""):
    """The report's non-float leaves, by path: its booleans, counts, labels and notes."""
    if isinstance(doc, dict):
        return {k: v for key in doc for k, v in _verdicts(doc[key], f"{path}.{key}").items()}
    if isinstance(doc, list):
        return {k: v for i, x in enumerate(doc) for k, v in _verdicts(x, f"{path}[{i}]").items()}
    return {} if isinstance(doc, float) else {path: doc}


def _assert_reaches_the_reference_limit(result, ref, name):
    """The extrapolated rounds' contract: the reference's iterations, convergence
    and verdicts, with X and the log's floats within 1e-10 * max(1, |ref|)."""
    ref_x, ref_log, ref_converged, ref_iters, ref_report, _ = ref
    assert (result.iterations, result.converged) == (ref_iters, ref_converged), name
    assert _verdicts(result.report.to_dict()) == _verdicts(ref_report.to_dict()), name
    assert _ravel_norm(result.x - ref_x) <= 1e-10 * max(1.0, _ravel_norm(ref_x)), name
    assert [row[0] for row in result.log] == [row[0] for row in ref_log], name
    for row, ref_row in zip(result.log, ref_log):
        for got, want in zip(row[1:], ref_row[1:]):
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), name


# l = 0 runs only plain rounds, so every output bit is the reference's
_PLAIN_CASES = ("random-l0",)


@pytest.mark.parametrize("stop_tol", [DEFAULT_TOL / 100, 1e-12])
def test_solve_matches_the_per_round_reference(stop_tol):
    # the rounds read the map's arrays once per solve and validate once per
    # iteration; constrained rounds are extrapolated once they converge linearly.
    # solve stops at the problem's tol / 100
    for name, prob, x0, fields in _reference_cases():
        prob = replace(prob, tol=100 * stop_tol)
        cfg = SolverConfig(alpha=0.5, **fields)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = solve(prob, x0, cfg)
            ref = _reference_solve(prob, x0, cfg)
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert bool(warned) == (name == "inconsistent"), name
        if name not in _PLAIN_CASES:
            _assert_reaches_the_reference_limit(result, ref, name)
            continue
        ref_x, ref_log, ref_converged, ref_iters, ref_report, _ = ref
        assert result.x.tobytes() == ref_x.tobytes(), name
        assert result.log == ref_log, name
        assert (result.iterations, result.converged) == (ref_iters, ref_converged), name
        assert _dumps(result.report.to_dict()) == _dumps(ref_report.to_dict()), name


def _counting_truncate(monkeypatch):
    calls = Counter()
    truncate = solver._truncate

    def counting(*args, **kwargs):
        calls["round"] += 1
        return truncate(*args, **kwargs)
    monkeypatch.setattr(solver, "_truncate", counting)
    return calls


@pytest.mark.parametrize("max_iters", [3, 200])
def test_reference_hankel_extrapolation_saves_a_quarter_of_the_rounds(max_iters, monkeypatch):
    # the plain rounds contract at a rate near 0.4 here; past the switch the
    # secant steps reach the stopping test in about half as many
    prob, x0 = _reference_hankel()
    cfg = SolverConfig(alpha=0.5, max_iters=max_iters)
    calls = _counting_truncate(monkeypatch)
    solve(prob, x0, cfg)
    assert calls["round"] <= 0.75 * sum(_reference_solve(prob, x0, cfg)[-1])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(3, 5), st.integers(3, 5), st.integers(1, 2), st.integers(1, 4),
       st.integers(0, 10**6))
def test_extrapolated_rounds_reach_the_reference_limit(m, n, r, l, seed):
    # constraints consistent with a rank-r point, so M_r meets the affine set.
    # Where the plain rounds contract at a rate near 1 they reach _INNER_CAP
    # short of their own limit (by 4.5e-9 at m, n, r, l, seed = 4, 3, 1, 2, 931,
    # where the extrapolated rounds stop 2.9e-10 from it): no oracle there
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((l, m, n))
    Xr, _ = project_low_rank(rng.standard_normal((m, n)), r)
    H = rng.standard_normal((m, n))
    prob = ProblemSpec(FrobeniusDistance(H), AffineMap(A, np.tensordot(A, Xr)), RankBound(r))
    x0, _ = project_low_rank(H, r)
    cfg = SolverConfig(alpha=0.5, max_iters=10)
    ref = _reference_solve(prob, x0, cfg)
    assume(max(ref[-1]) < solver._INNER_CAP)
    result = solve(prob, x0, cfg)
    assert rank_estimate(result.x) <= r
    _assert_reaches_the_reference_limit(result, ref, seed)


def test_a_tolerance_below_rounding_never_runs_the_rounds_to_the_cap(monkeypatch):
    # tol = 1e-14 stops at 1e-16 and asks for an inner tolerance of 1e-18, below
    # what one round's SVD can resolve; floored at eps * max(m, n), the rounds still stop
    prob, x0 = _reference_hankel()
    prob = replace(prob, tol=1e-14)
    calls = _counting_truncate(monkeypatch)
    per_iteration = []
    residual = solver.stationarity_residual

    def marking_residual(*args):
        per_iteration.append(calls["round"])
        calls["round"] = 0
        return residual(*args)

    monkeypatch.setattr(solver, "stationarity_residual", marking_residual)
    result = solve(prob, x0, SolverConfig(alpha=0.5, max_iters=10))
    assert len(per_iteration) == result.iterations == 10
    assert max(per_iteration) < solver._INNER_CAP


def test_rounds_stopped_at_the_cap_warn_once_per_solve(monkeypatch):
    prob, x0 = _reference_hankel()
    monkeypatch.setattr(solver, "_INNER_CAP", 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(prob, x0, SolverConfig(max_iters=3))
    assert [str(w.message) for w in caught] == [
        "inner rounds stopped at the cap of 2 at iteration 1 before they converged"]
    assert caught[0].category is RuntimeWarning


def test_default_solve_rounds_stay_below_the_cap():
    # the CLI's `solve --iters 3` on the same instance
    prob, x0 = _reference_hankel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve(prob, x0, SolverConfig(max_iters=3))


def test_solve_warns_once_for_an_inconsistent_map():
    eye = np.eye(2)
    prob = ProblemSpec(FrobeniusDistance(np.diag([2.0, 1.0])),
                       AffineMap([eye, eye], [0.0, 1.0]), RankBound(1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(prob, np.diag([1.0, 0.0]), SolverConfig(max_iters=5))
    # the rounds and the candidates read the map's arrays, so one warning per solve
    assert [issubclass(w.category, RuntimeWarning) for w in caught] == [True]


@pytest.mark.parametrize("name", ["hankel3-Xtilde", "random-l3"])
def test_solve_analyzes_and_reports_one_point_per_iteration(name, monkeypatch):
    # each iteration's one PointAnalysis is of the point it would return, so the
    # report and the last log row describe result.x as a fresh classification does
    from rankmoa.stationarity import PointAnalysis
    _, prob, x0, fields = next(c for c in _reference_cases() if c[0] == name)
    cfg = SolverConfig(alpha=0.5, **fields)
    calls, init = Counter(), PointAnalysis.__init__

    def counted(self, *args):
        calls["analyses"] += 1
        init(self, *args)
    monkeypatch.setattr(PointAnalysis, "__init__", counted)
    result = solve(prob, x0, cfg)
    monkeypatch.undo()
    assert prob.affine.l
    assert calls["analyses"] == result.iterations
    fresh = classify_first_order(prob, result.x, alpha=cfg.alpha)
    assert _dumps(result.report.to_dict()) == _dumps(fresh.to_dict())
    _, f, feas, _ = result.log[-1]
    assert f == prob.objective.value(result.x)
    assert feas == result.report.feasibility_residual


@pytest.mark.parametrize("l", [0, 2])
def test_rank_zero_solve_stops_after_one_iteration(l):
    # one truncation to rank 0 reaches O, the only feasible point
    prob = rank_zero_problem(l)
    for x0 in (np.zeros((3, 4)), np.random.default_rng(1).standard_normal((3, 4))):
        result = solve(prob, x0)
        assert result.converged and result.iterations == 1
        assert not result.x.any() and result.report.is_alpha


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
