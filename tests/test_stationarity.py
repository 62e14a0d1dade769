import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoa import (AffineMap, FrobeniusDistance, ProblemSpec, RankBound,
                     beta_bound, check_F_stationary, check_M_stationary,
                     check_alpha_stationary, check_second_order, classify_first_order,
                     lagrangian, lagrangian_grad, orient_svd)
from rankmoa.model import CustomObjective
from rankmoa.oracle import fd_gradient
from rankmoa.solver import stationarity_residual
from rankmoa.stationarity import PointAnalysis

from conftest import random_rank_matrix, rank_zero_problem


def _e(i, j, n=3):
    out = np.zeros((n, n))
    out[i, j] = 1.0
    return out


def test_lagrangian_grad_lrr_vanishes(lrr_case):
    spec = lrr_case(4)
    wbar = np.full((4, 4), 0.25)
    ybar = -np.ones(4) / 4.0
    g = lagrangian_grad(spec, wbar, ybar)
    assert np.linalg.norm(g) <= 1e-14
    assert np.isclose(lagrangian(spec, wbar, ybar), spec.objective.value(wbar))


def test_lagrangian_grad_hankel(hankel_case):
    spec, points = hankel_case
    g = lagrangian_grad(spec, points["Xbar"], np.zeros(4))
    expect = np.zeros((3, 3))
    expect[2, 2] = -1e-6
    assert np.allclose(g, expect, atol=1e-18)


def test_lagrangian_grad_trace_display(trace_case):
    spec, points = trace_case
    for y in (-1.0, 0.3, 2.0):
        g = lagrangian_grad(spec, points["X1"], [y])
        expect = np.diag([1.0 + y, 1.0 + y, 1.0 + y, y])
        assert np.allclose(g, expect, atol=1e-14)


def test_lagrangian_matches_finite_differences(rng, trace_case):
    spec, points = trace_case

    class _LagObj:
        def value(self, X):
            return lagrangian(spec, X, [0.7])

    for _ in range(5):
        X = rng.standard_normal((4, 4))
        g = lagrangian_grad(spec, X, [0.7])
        fd = fd_gradient(_LagObj(), X)
        assert np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_check_F_diagonal_example(diagonal_case):
    # the pinned-diagonal instance: global minimizer that is not F-stationary
    spec, points = diagonal_case
    rep = check_F_stationary(spec, points["Xbar"])
    assert rep.feasible
    assert not rep.is_F
    # entries y1 at (1,1) and 1-y1 at (2,2) cannot both vanish; the least
    # squares optimum sits at y1 = 1/2 with residual sqrt(1/2)
    assert abs(rep.f_residual - np.sqrt(0.5)) <= 1e-9


def test_check_F_trace_example(trace_case):
    spec, points = trace_case
    rep4 = check_F_stationary(spec, points["X4"])
    assert rep4.feasible and rep4.is_F
    assert abs(rep4.y[0] + 2.0 / 3.0) <= 1e-8
    for label in ("X1", "X2", "X3"):
        rep = check_F_stationary(spec, points[label])
        assert rep.feasible and not rep.is_F
        assert rep.f_residual > 0.5


def test_check_F_hankel(hankel_case):
    spec, points = hankel_case
    rep = check_F_stationary(spec, points["Xbar"])
    assert rep.is_F
    assert np.allclose(rep.y, np.zeros(4), atol=1e-8)
    assert rep.f_residual <= 1e-8


def test_check_F_infeasible_inputs(trace_case):
    spec, points = trace_case
    rep = check_F_stationary(spec, np.eye(4))  # trace 4 != 2
    assert not rep.feasible and not rep.is_F
    rep = check_F_stationary(spec, points["H"] + 3.0 * np.eye(4))  # full rank
    assert not rep.feasible


def test_alpha_stationarity_trace_example(trace_case):
    spec, points = trace_case
    X4, y = points["X4"], [-2.0 / 3.0]
    for a in (0.5, 1.0, 1.9):
        assert check_alpha_stationary(spec, X4, y, a)
    for a in (2.1, 3.0):
        assert not check_alpha_stationary(spec, X4, y, a)
    for a in (0.0, float("nan")):
        with pytest.raises(ValueError):
            check_alpha_stationary(spec, X4, y, a)


def test_alpha_stationarity_rejects_unknown_method(trace_case):
    spec, points = trace_case
    zero = ProblemSpec(FrobeniusDistance(np.ones((3, 3))), AffineMap([], [], shape=(3, 3)),
                       RankBound(0))
    # a feasible point, an infeasible one (trace 4 != 2) and an r = 0 problem
    for prob, X, y in ((spec, points["X4"], [-2.0 / 3.0]), (spec, np.eye(4), [0.0]),
                       (zero, np.zeros((3, 3)), [])):
        with pytest.raises(ValueError, match="unknown method"):
            check_alpha_stationary(prob, X, y, 1.0, method="bogus")


def test_checks_at_an_infeasible_point_return_false(trace_case):
    spec, _ = trace_case
    X = np.eye(4)  # trace 4 != 2
    assert check_M_stationary(spec, X) == (False, None)
    assert check_M_stationary(spec, X, y_hint=[0.0]) == (False, None)
    for method in ("characterization", "projection"):
        assert check_alpha_stationary(spec, X, [0.0], 1.0, method=method) is False


@pytest.mark.parametrize("l", [0, 2])
def test_rank_zero_origin_passes_every_check(l):
    # with r = 0 the only feasible point is O: the tangent space there is {O}, so
    # the tangential fit is y = 0, and O is a fixed point of every projected step
    prob = rank_zero_problem(l)
    O = np.zeros((3, 4))
    rep = classify_first_order(prob, O, alpha=1.0)
    assert rep.is_F and rep.is_M and rep.is_alpha
    assert np.array_equal(rep.y, np.zeros(l))
    for alpha in (0.1, 1.0, 10.0):
        for method in ("characterization", "projection"):
            assert check_alpha_stationary(prob, O, rep.y, alpha, method=method)
    stat, y = stationarity_residual(prob, O, 1.0)
    assert stat == 0.0 and np.array_equal(y, np.zeros(l))
    assert check_second_order(prob, O, rep.y).basis_dim == 0


def test_alpha_stationarity_lrr_any_step(lrr_case):
    spec = lrr_case(3)
    wbar = np.full((3, 3), 1.0 / 3.0)
    ybar = -np.ones(3) / 3.0
    for a in (0.01, 1.0, 100.0):
        assert check_alpha_stationary(spec, wbar, ybar, a)


def test_beta_bound_values(trace_case, hankel_case):
    spec, points = trace_case
    assert abs(beta_bound(spec, points["X4"], [-2.0 / 3.0]) - 2.0) <= 1e-8
    hspec, hpoints = hankel_case
    assert abs(beta_bound(hspec, hpoints["Xbar"], np.zeros(4)) - 5e5) <= 1e-3


def test_beta_infinite_when_gradient_vanishes(lrr_case):
    spec = lrr_case(3)
    wbar = np.full((3, 3), 1.0 / 3.0)
    assert beta_bound(spec, wbar, -np.ones(3) / 3.0) == np.inf


def test_M_stationarity_trace_candidates(trace_case):
    spec, points = trace_case
    for label in ("X1", "X2", "X3"):
        ok, _ = check_M_stationary(spec, points[label], y_hint=[-1.0])
        assert ok
        ok2, y2 = check_M_stationary(spec, points[label])
        assert ok2 and abs(y2[0] + 1.0) <= 1e-8  # recovered multiplier
    ok, _ = check_M_stationary(spec, points["X4"], y_hint=[-2.0 / 3.0])
    assert ok


def test_M_stationarity_zero_gradient(lrr_case):
    spec = lrr_case(3)
    wbar = np.full((3, 3), 1.0 / 3.0)
    ok, _ = check_M_stationary(spec, wbar, y_hint=-np.ones(3) / 3.0)
    assert ok


def test_M_follows_F_at_full_rank(rng):
    # a small normal gradient of full normal rank plus a tangential residual
    # below tol: F holds, and M must too; a rank test ranking the residual
    # against the small gradient's sigma_1 used to report rank 3 > 2
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    X = (u[:, :2] * [2.0, 1.0]) @ v[:, :2].T
    G = (1e-3 * u[:, 2:] @ np.diag([1.0, 0.5]) @ v[:, 2:].T
         + 5e-9 * np.outer(u[:, 0], v[:, 0]))
    prob = ProblemSpec(FrobeniusDistance(X - G), AffineMap([], [], shape=(4, 4)),
                       RankBound(2))
    assert check_F_stationary(prob, X).is_F
    assert check_M_stationary(prob, X)[0]
    rep = classify_first_order(prob, X)
    assert rep.is_F and rep.is_M


def test_classify_trace_x4(trace_case):
    spec, points = trace_case
    rep = classify_first_order(spec, points["X4"], alpha=1.0)
    assert rep.is_F and rep.is_M and rep.is_alpha
    assert rep.alpha_tested == 1.0
    assert "unique global minimizer (Thm 4.2 ii)" in rep.classification
    f4 = spec.objective.value(points["X4"])
    others = min(spec.objective.value(points[k]) for k in ("X1", "X2", "X3"))
    assert f4 < others


@pytest.mark.parametrize("alpha", [None, 1.0, 2.0, 3.0])
def test_uniqueness_probed_at_inverse_modulus(trace_case, alpha):
    # X4 is alpha-stationary for every step up to beta = 2, so also at
    # 1/l_f = 1: Thm 4.2 ii holds whatever step is tested, even at 3 where
    # X4 is not alpha-stationary
    spec, points = trace_case
    rep = classify_first_order(spec, points["X4"], alpha=alpha)
    assert rep.alpha_tested == (1.0 if alpha is None else alpha)
    assert rep.is_alpha == (alpha != 3.0)
    assert "unique global minimizer (Thm 4.2 ii)" in rep.classification


def _tie_problem(h2):
    """f = 0.5 ||X - diag(1, h2)||^2 with r = 1 and no constraints."""
    return ProblemSpec(FrobeniusDistance(np.diag([1.0, h2])), AffineMap([], [], shape=(2, 2)),
                       RankBound(1))


def test_tied_minimizers_are_not_labelled_unique():
    # diag(1, 0) and diag(0, 1) both attain f = 0.5: each is a global minimizer
    # and alpha-stationary at 1/l_f = 1, but neither is the unique one
    prob = _tie_problem(1.0)
    for X in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        rep = classify_first_order(prob, X)
        assert rep.is_F and rep.alpha_tested == 1.0 and rep.is_alpha
        assert "global minimizer restricted on M_X(Γ) (Thm 4.1 ii)" in rep.classification
        assert "unique global minimizer (Thm 4.2 ii)" not in rep.classification


def test_near_tie_is_not_labelled_unique():
    # diag(1, 0) is feasible with f = 0.5 - 5e-10 + 5e-19 < 0.5 = f(X): X is not
    # even a global minimizer, and its spectral bound holds only within tol
    prob = _tie_problem(1.0 - 1e-9)
    X = np.diag([0.0, 1.0 - 1e-9])
    rep = classify_first_order(prob, X)
    assert rep.is_F
    assert "unique global minimizer (Thm 4.2 ii)" not in rep.classification
    assert prob.objective.value(np.diag([1.0, 0.0])) < prob.objective.value(X)
    # the spectral gap 1e-9 is inside tol, so the true minimizer diag(1, 0) is
    # not certified unique either; at a gap of 1e-3 it is
    for h2, unique in ((1.0 - 1e-9, False), (1.0 - 1e-3, True)):
        rep = classify_first_order(_tie_problem(h2), np.diag([1.0, 0.0]))
        assert ("unique global minimizer (Thm 4.2 ii)" in rep.classification) == unique


def _scaled_distance(H, lf):
    """f = lf/2 ||X - H||^2, strongly convex with modulus lf."""
    return CustomObjective("scaled-distance", H.shape,
                           lambda X: 0.5 * lf * float(np.sum((X - H) ** 2)),
                           lambda X: lf * (X - H), lambda X, Xi: lf * Xi,
                           convex=True, strong_convexity_modulus=lf)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-12.0, 0.0), st.integers(1, 2), st.booleans(),
       st.integers(0, 10**6))
def test_uniqueness_is_the_strict_margin_at_every_modulus(log_lf, log_gap, r, top, seed):
    # Thm 4.2 ii's margin written as sigma_1(grad L) + tol * scale < l_f * sigma_r(X)
    # decides the label at every l_f in [1e-3, 1e3]. X is the rank-r part of H on its
    # top r singular pairs (top) or on pairs 1..r-1 and r+1; a relative gap 10^log_gap
    # between sigma_r(H) and sigma_(r+1)(H) puts the margin on either side of tol
    lf = 10.0 ** log_lf
    rng = np.random.default_rng(seed)
    P, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    h = np.sort(rng.uniform(1.0, 2.0, 4))[::-1]
    h[r] = h[r - 1] * (1.0 - 10.0 ** log_gap)
    keep = list(range(r)) if top else list(range(r - 1)) + [r]
    X = (P[:, keep] * h[keep]) @ Q[:, keep].T
    prob = ProblemSpec(_scaled_distance((P * h) @ Q.T, lf), AffineMap([], [], shape=(4, 4)),
                       RankBound(r))
    rep = classify_first_order(prob, X)
    pa = PointAnalysis(prob, X)
    grad_l, tol = pa.at(rep.y), prob.tol * pa.scale
    margin = grad_l.frechet <= tol and (
        pa.s < r or float(grad_l.sigma[0]) + tol < lf * float(pa.svd.sigma[r - 1]))
    assert ("unique global minimizer (Thm 4.2 ii)" in rep.classification) == margin


def test_classify_lrr_global(lrr_case):
    spec = lrr_case(4)
    wbar = np.full((4, 4), 0.25)
    rep = classify_first_order(spec, wbar)
    assert rep.is_F
    assert "global minimizer (Thm 4.1 ii)" in rep.classification
    assert rep.is_alpha and rep.alpha_tested == 1.0  # probed at 1/l_f


def test_classify_infeasible_point(trace_case):
    spec, _ = trace_case
    rep = classify_first_order(spec, np.eye(4))
    assert not rep.feasible
    assert rep.classification == []
    assert not rep.is_F and not rep.is_M


def _certified_stationary_instance(rng, s_equals_r):
    """Random instance where X is F-stationary by construction."""
    m, n = int(rng.integers(3, 6)), int(rng.integers(3, 6))
    r = int(rng.integers(1, min(m, n)))
    s = r if s_equals_r else int(rng.integers(0, r))
    l = int(rng.integers(0, 3))
    X = random_rank_matrix(rng, m, n, s)
    svd = orient_svd(X)
    mats = [rng.standard_normal((m, n)) for _ in range(l)]
    amap0 = AffineMap(mats, np.zeros(l), shape=(m, n))
    y0 = rng.standard_normal(l)
    if s_equals_r:
        d = rng.standard_normal((m - s, n - s))
        normal_part = svd.u_perp @ d @ svd.v_perp.T
    else:
        normal_part = np.zeros((m, n))
    target = X + normal_part + amap0.adjoint(y0)
    amap = AffineMap(mats, amap0.apply(X), shape=(m, n))
    prob = ProblemSpec(FrobeniusDistance(target), amap, RankBound(r))
    return prob, X, y0


def test_implication_chain_alpha_F_M(rng):
    for trial in range(60):
        prob, X, y0 = _certified_stationary_instance(rng, s_equals_r=bool(trial % 2))
        rep = check_F_stationary(prob, X)
        assert rep.feasible and rep.is_F
        beta = beta_bound(prob, X, rep.y)
        alpha = 0.9 * beta if np.isfinite(beta) else 1.0
        if alpha > 0:
            assert check_alpha_stationary(prob, X, rep.y, alpha)
        rep_full = classify_first_order(prob, X)
        assert rep_full.is_F and rep_full.is_M


def test_alpha_window_matches_beta(rng):
    for _ in range(20):
        prob, X, _ = _certified_stationary_instance(rng, s_equals_r=True)
        rep = check_F_stationary(prob, X)
        beta = beta_bound(prob, X, rep.y)
        if not np.isfinite(beta):
            continue
        for frac in (0.25, 0.5, 1.0):
            assert check_alpha_stationary(prob, X, rep.y, frac * beta)
        assert not check_alpha_stationary(prob, X, rep.y,
                                          beta * (1.0 + 10 * prob.tol) + 1e-6)


def test_characterization_agrees_with_projection(rng):
    agree = 0
    for trial in range(500):
        if trial % 2 == 0:
            prob, X, y = _certified_stationary_instance(rng, s_equals_r=True)
            y = check_F_stationary(prob, X).y
        else:
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            r = int(rng.integers(1, min(m, n)))
            s = int(rng.integers(0, r + 1))
            X = random_rank_matrix(rng, m, n, s)
            mats = [rng.standard_normal((m, n)) for _ in range(int(rng.integers(0, 3)))]
            amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats],
                             shape=(m, n))
            prob = ProblemSpec(FrobeniusDistance(rng.standard_normal((m, n))),
                               amap, RankBound(r))
            y = rng.standard_normal(amap.l)
        alpha = float(rng.uniform(0.1, 3.0))
        Z = X - alpha * lagrangian_grad(prob, X, y)
        from rankmoa import project_low_rank
        _, tie = project_low_rank(Z, prob.r, prob.rank_tol)
        if tie:
            continue
        a = check_alpha_stationary(prob, X, y, alpha, method="characterization")
        b = check_alpha_stationary(prob, X, y, alpha, method="projection")
        assert a == b
        agree += 1
    assert agree >= 400  # ties are rare


def test_full_pipeline_on_wide_matrices(rng):
    # wider-than-tall instances go through the transposed conventions
    from rankmoa import bq_certificates, check_second_order
    m, n, r = 3, 5, 2
    for trial in range(5):
        s = r if trial % 2 else 1
        X = random_rank_matrix(rng, m, n, s)
        svd = orient_svd(X)
        mats = [rng.standard_normal((m, n)) for _ in range(2)]
        amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats],
                         shape=(m, n))
        y0 = rng.standard_normal(2)
        normal = np.zeros((m, n))
        if s == r:
            normal = svd.u_perp @ rng.standard_normal((m - s, n - s)) @ svd.v_perp.T
        prob = ProblemSpec(FrobeniusDistance(X + normal + amap.adjoint(y0)),
                           amap, RankBound(r))
        rep = classify_first_order(prob, X)
        assert rep.feasible and rep.is_F and rep.is_M
        qual = bq_certificates(svd, amap, r)
        assert qual.intersection_rule_case != "not_certified"
        so = check_second_order(prob, X, rep.y, samples=50)
        assert so.case == ("full_rank" if s == r else "rank_deficient")


def test_report_serialization_roundtrip(trace_case):
    spec, points = trace_case
    rep = classify_first_order(spec, points["X4"], alpha=1.0)
    doc = rep.to_dict()
    assert doc["is_F"] is True
    assert isinstance(doc["y"], list)
    assert doc["beta"] == pytest.approx(2.0, abs=1e-8)
    lrr_doc = classify_first_order(spec, points["X4"]).to_dict()
    assert set(doc) == set(lrr_doc)


def test_to_dict_matches_jsonable_asdict(trace_case, hankel_case):
    # to_dict converts the fields it reads once; the old deep copy through
    # asdict followed by jsonable is the reference, arrays and +-inf included
    import json
    from dataclasses import asdict

    from rankmoa import check_second_order
    from rankmoa.qualification import QualificationReport
    from rankmoa.report import jsonable
    from rankmoa.second_order import SecondOrderReport
    from rankmoa.stationarity import StationarityReport, PointAnalysis

    spec, points = trace_case
    hk, hk_points = hankel_case
    pa = PointAnalysis(hk, hk_points["Xbar"])
    reports = [
        classify_first_order(spec, points["X4"], alpha=1.0),
        classify_first_order(spec, points["H"]),
        pa.qualification,
        check_second_order(hk, pa, np.zeros(4)),
        StationarityReport(feasible=True, feasibility_residual=np.float64(0.0), s=np.int64(2),
                           y=np.array([1.5, -np.inf]), grad_lagrangian=np.eye(2),
                           beta=np.inf, is_alpha=np.bool_(True), notes=["n"]),
        SecondOrderReport(case="full_rank", basis_dim=0, min_eig=np.inf, max_eig=-np.inf,
                          necessary_ok=True, sufficient_ok=True,
                          subspace_min_eig=np.float64(-np.inf)),
        QualificationReport(s=1, r=2, l=0, t_rank=0, r_rank=0, assumption1=True,
                            assumption2=True, bq_subspace=True, bq_mordukhovich=True,
                            intersection_rule_case="eq_rank_deficient",
                            warnings=("a", "b")),
    ]
    for rep in reports:
        ref = jsonable(asdict(rep))
        got = rep.to_dict()
        assert got == ref
        assert (json.dumps(got, sort_keys=True, allow_nan=False)
                == json.dumps(ref, sort_keys=True, allow_nan=False))


def test_concurrent_analyses_match_sequential(rng):
    # two threads read the computed-once attributes of one problem's map and of
    # its points at once: of two different points, then both of one shared
    # analysis. Each report must equal its sequential twin
    import sys
    import threading
    # each point keeps two of H's four singular triplets, so both are F-stationary
    # for the nearest rank-2 matrix; constraints orthogonal to their difference keep
    # both feasible
    u, _, vt = np.linalg.svd(rng.standard_normal((5, 4)), full_matrices=False)
    H = (u * [4.0, 3.0, 2.0, 1.0]) @ vt
    points = [(u[:, :2] * [4.0, 3.0]) @ vt[:2], (u[:, ::2] * [4.0, 2.0]) @ vt[::2]]
    D = points[0] - points[1]
    mats = rng.standard_normal((2, 5, 4))
    mats -= np.tensordot(mats, D)[:, None, None] * D / np.vdot(D, D)

    def problem():
        return ProblemSpec(FrobeniusDistance(H), AffineMap(mats, np.tensordot(mats, points[0])),
                           RankBound(2))

    def analyze(prob, pa):
        first = classify_first_order(prob, pa, alpha=0.5)
        return first.to_dict(), check_second_order(prob, pa, first.y, samples=50).to_dict()

    seq = problem()
    want = [analyze(seq, PointAnalysis(seq, X)) for X in points]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            prob = problem()
            shared = PointAnalysis(prob, points[0])
            for which, pas in (([0, 1], [PointAnalysis(prob, X) for X in points]),
                               ([0, 0], [shared, shared])):
                start, got = threading.Barrier(2), [None, None]

                def run(i):
                    start.wait(10)
                    got[i] = analyze(prob, pas[i])
                threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                assert got == [want[k] for k in which]
    finally:
        sys.setswitchinterval(interval)
