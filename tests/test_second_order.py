import numpy as np
import pytest
import scipy.linalg

from rankmoa import (AffineMap, ConeQuery, FrobeniusDistance, LinearTrace, ProblemSpec,
                     RankBound, check_second_order, in_tangent_bouligand_Mr,
                     orient_svd, plain_quad, project_low_rank, riemannian_quad,
                     tangent_intersection_basis)
from rankmoa.cones import project_normal_fixed_rank, project_tangent_fixed_rank
from rankmoa.linalg import ThinSVD
from rankmoa.model import CustomObjective
from rankmoa.problems import hankel_constraints
from rankmoa.oracle import curvature_quadratic_terms, fd_quad

from conftest import random_rank_matrix


def test_riemannian_quad_reduces_to_hessian_when_gradient_vanishes(rng):
    X = random_rank_matrix(rng, 3, 3, 2)
    svd = orient_svd(X)
    prob = ProblemSpec(FrobeniusDistance(X), AffineMap([], [], shape=(3, 3)),
                       RankBound(2))
    for _ in range(5):
        xi = rng.standard_normal((3, 3))
        val = riemannian_quad(prob, svd, np.zeros(0), xi)
        assert abs(val - float(np.sum(xi * xi))) <= 1e-10
        assert abs(val - plain_quad(prob, X, xi)) <= 1e-10


def test_riemannian_quad_positive_at_hankel_target(hankel_case):
    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    rng = np.random.default_rng(7)
    for _ in range(20):
        xi = project_tangent_fixed_rank(svd, rng.standard_normal((3, 3)))
        if np.linalg.norm(xi) < 1e-12:
            continue
        assert riemannian_quad(spec, svd, np.zeros(4), xi) > 0.0


def test_riemannian_quad_wrong_case(trace_case):
    spec, points = trace_case
    svd = orient_svd(points["X1"])  # rank 2 < bound 3
    with pytest.raises(ValueError):
        riemannian_quad(spec, svd, [-1.0], np.eye(4))


def test_curvature_term_cross_check(rng):
    # two independent assemblies of the correction term must agree, and the
    # implemented form must match them
    for _ in range(20):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        r = int(rng.integers(1, min(m, n) + 1))
        X = random_rank_matrix(rng, m, n, r)
        svd = orient_svd(X)
        G = rng.standard_normal((m, n))
        xi = project_tangent_fixed_rank(svd, rng.standard_normal((m, n)))
        via_factors, via_pinv = curvature_quadratic_terms(X, G, xi)
        assert abs(via_factors - via_pinv) <= 1e-10 * max(1.0, abs(via_pinv))
        if r >= min(m, n):
            continue
        amap = AffineMap([], [], shape=(m, n))
        prob = ProblemSpec(FrobeniusDistance(X - project_normal_fixed_rank(svd, G)),
                           amap, RankBound(r))
        # grad L = normal part of G at y = (), so the +2 convention matches
        # twice the factored assembly of the correction
        got = riemannian_quad(prob, svd, np.zeros(0), xi, curvature_coeff=2.0)
        want = float(np.sum(xi * xi)) + 2.0 * via_factors
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_plain_quad_kinds(rng, lrr_case):
    xi = rng.standard_normal((3, 3))
    fr = ProblemSpec(FrobeniusDistance(np.zeros((3, 3))),
                     AffineMap([], [], shape=(3, 3)), RankBound(2))
    assert abs(plain_quad(fr, np.zeros((3, 3)), xi) - np.sum(xi * xi)) <= 1e-12
    lin = ProblemSpec(LinearTrace(np.eye(3)), AffineMap([], [], shape=(3, 3)),
                      RankBound(2))
    assert plain_quad(lin, np.zeros((3, 3)), xi) == 0.0
    spec = lrr_case(3)
    assert abs(plain_quad(spec, np.zeros((3, 3)), xi) - np.sum(xi * xi)) <= 1e-12
    # agree with the one-dimensional finite difference
    assert abs(plain_quad(spec, np.zeros((3, 3)), xi)
               - fd_quad(spec.objective, np.zeros((3, 3)), xi)) <= 1e-5


def test_tangent_intersection_basis_dimensions(rng, hankel_case):
    X = random_rank_matrix(rng, 3, 3, 2)
    svd = orient_svd(X)
    amap = AffineMap([], [], shape=(3, 3))
    basis = tangent_intersection_basis(svd, amap, 2)
    assert len(basis) == 8  # mn - (m-r)(n-r)

    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    basis = tangent_intersection_basis(svd, spec.affine, 2)
    assert len(basis) == 4  # 5-dim Hankel kernel meets the 8-dim tangent space
    for xi in basis:
        assert np.linalg.norm(spec.affine.apply(xi)) <= 1e-8
        normal_part = project_normal_fixed_rank(svd, xi)
        assert np.linalg.norm(normal_part) <= 1e-10
    gram = np.array([[float(np.tensordot(a, b)) for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(len(basis)), atol=1e-10)

    # constraints spanning the whole space leave nothing
    full = [m.reshape(3, 3) for m in np.eye(9)]
    amap_full = AffineMap(full, np.zeros(9))
    assert tangent_intersection_basis(svd, amap_full, 2) == []


def test_tangent_intersection_basis_wrong_case(trace_case):
    spec, points = trace_case
    svd = orient_svd(points["X1"])
    with pytest.raises(ValueError):
        tangent_intersection_basis(svd, spec.affine, 3)


def test_joint_nullspace_oracle_for_hankel_basis(hankel_case):
    # brute-force the joint nullspace dimension from stacked linear conditions
    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    rows = [a.ravel() for a in spec.affine.mats]
    up, vp = svd.u_perp, svd.v_perp
    for i in range(up.shape[1]):
        for j in range(vp.shape[1]):
            rows.append(np.outer(up[:, i], vp[:, j]).ravel())
    import scipy.linalg
    dim = scipy.linalg.null_space(np.stack(rows)).shape[1]
    assert dim == len(tangent_intersection_basis(svd, spec.affine, 2))


def test_check_second_order_hankel_both_signs(hankel_case):
    spec, points = hankel_case
    for coeff in (-2.0, 2.0):
        rep = check_second_order(spec, points["Xbar"], np.zeros(4),
                                 curvature_coeff=coeff)
        assert rep.case == "full_rank"
        assert rep.basis_dim == 4
        assert rep.min_eig > 0
        assert rep.sufficient_ok and rep.necessary_ok


def test_check_second_order_lrr_tier1(lrr_case):
    spec = lrr_case(3)
    wbar = np.full((3, 3), 1.0 / 3.0)
    rep = check_second_order(spec, wbar, -np.ones(3) / 3.0, samples=500, seed=3)
    assert rep.case == "rank_deficient"
    assert rep.sufficient_ok and rep.necessary_ok
    assert rep.basis_dim == 6  # dim ker A = N^2 - N
    assert abs(rep.min_eig - 1.0) <= 1e-9  # identity Hessian on ker A
    assert rep.cone_violations == 0


def test_check_second_order_linear_objective_flat(rng):
    # vanishing-gradient linear objective: the reduced form is identically
    # zero, so the necessary condition holds but sufficiency never certifies
    X = random_rank_matrix(rng, 3, 3, 2)
    prob = ProblemSpec(LinearTrace(np.zeros((3, 3))),
                       AffineMap([], [], shape=(3, 3)), RankBound(2))
    rep = check_second_order(prob, X, np.zeros(0))
    assert rep.case == "full_rank"
    assert abs(rep.min_eig) <= 1e-9 and abs(rep.max_eig) <= 1e-9
    assert rep.necessary_ok and not rep.sufficient_ok

    # rank-deficient variant: plain hessian of a linear objective is zero
    Xlow = random_rank_matrix(rng, 3, 3, 1)
    mats = [np.eye(3)]
    amap = AffineMap(mats, [float(np.trace(Xlow))])
    prob2 = ProblemSpec(LinearTrace(np.eye(3) / np.sqrt(3.0)), amap, RankBound(2))
    y = [-1.0 / np.sqrt(3.0)]  # makes grad L vanish
    rep2 = check_second_order(prob2, Xlow, y, samples=100)
    assert rep2.case == "rank_deficient"
    assert abs(rep2.min_eig) <= 1e-12 and abs(rep2.max_eig) <= 1e-12
    assert rep2.necessary_ok and not rep2.sufficient_ok


def test_check_second_order_requires_stationarity(trace_case):
    spec, points = trace_case
    with pytest.raises(ValueError):
        check_second_order(spec, points["X1"], [0.0])  # not F-stationary there


def test_negative_curvature_detected_by_sampling(rng):
    # concave objective at a rank-deficient stationary point: the ker-A
    # certificate fails and sampled cone directions expose the violation
    n = 3
    X = np.zeros((n, n))

    obj = CustomObjective(
        "concave-quadratic", (n, n),
        value_fn=lambda Y: -0.5 * float(np.sum(Y * Y)),
        grad_fn=lambda Y: -Y,
        hess_apply_fn=lambda Y, Xi: -Xi,
    )
    prob = ProblemSpec(obj, AffineMap([], [], shape=(n, n)), RankBound(2))
    rep = check_second_order(prob, X, np.zeros(0), samples=200, seed=1)
    assert rep.case == "rank_deficient"
    assert not rep.sufficient_ok
    assert not rep.necessary_ok
    assert rep.cone_violations > 0
    assert rep.cone_samples_tested > 0


def test_sufficient_certificate_forbids_violations(rng):
    for trial in range(10):
        m = n = 4
        r = 2
        s = int(rng.integers(0, r))
        X = random_rank_matrix(rng, m, n, s)
        mats = [rng.standard_normal((m, n)) for _ in range(2)]
        amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats])
        prob = ProblemSpec(FrobeniusDistance(X), amap, RankBound(r))
        rep = check_second_order(prob, X, np.zeros(2), samples=300, seed=trial)
        assert rep.sufficient_ok
        assert rep.cone_violations == 0


def test_riemannian_quad_invariant_under_reorientation(rng, hankel_case):
    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    xi = rng.standard_normal((3, 3))
    base = riemannian_quad(spec, svd, np.zeros(4), xi)
    signs = rng.choice([-1.0, 1.0], size=3)
    u = svd.u * signs
    v = svd.v * signs
    flipped = ThinSVD(u=u, v=v, sigma=svd.sigma, gamma=svd.gamma,
                      rank_tol=svd.rank_tol)
    assert abs(riemannian_quad(spec, flipped, np.zeros(4), xi) - base) <= 1e-9


def test_gram_form_symmetry(hankel_case):
    from rankmoa.linalg import pseudo_inverse
    from rankmoa.second_order import _gram_form, _reduced_basis
    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    pinv = pseudo_inverse(svd)
    gradL = np.zeros((3, 3))
    gradL[2, 2] = -1e-6
    X = points["Xbar"]
    basis = _reduced_basis(svd, AffineMap([], [], shape=(3, 3)))
    Q = _gram_form(spec.objective, X, basis, gradL, pinv)
    assert np.linalg.norm(Q - Q.T) <= 1e-12
    for i, P in enumerate(basis):
        for j, R in enumerate(basis[i:], start=i):
            hess = float(np.tensordot(spec.objective.hess_apply(X, P), R))
            curv = 0.5 * float(np.tensordot(gradL, P @ pinv @ R + R @ pinv @ P))
            assert abs(Q[i, j] - (hess - 2.0 * curv)) <= 1e-12 * max(1.0, abs(Q[i, j]))


def _stationary_full_rank_point(rng, m, n, r, l):
    """(prob, X, y) with X of rank r and grad f + A*(y) normal to M^r at X."""
    X = random_rank_matrix(rng, m, n, r)
    svd = orient_svd(X)
    W = project_normal_fixed_rank(svd, rng.standard_normal((m, n)))
    mats = [rng.standard_normal((m, n)) for _ in range(l)]
    y = rng.standard_normal(l)
    H = X + W + sum((yi * a for yi, a in zip(y, mats)), np.zeros((m, n)))
    amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats], shape=(m, n))
    return ProblemSpec(FrobeniusDistance(H), amap, RankBound(r)), X, y


@pytest.mark.parametrize("coeff", [-2.0, 2.0])
def test_reduced_form_matches_polarized_oracle(rng, hankel_case, coeff):
    # rebuild the reduced matrix entry by entry from quadratic values only:
    # hess_apply for the Hessian part and the factored oracle assembly of the
    # curvature term, polarized over B_i + B_j and B_i - B_j
    spec, points = hankel_case
    cases = [(spec, points["Xbar"], np.zeros(4)),
             _stationary_full_rank_point(rng, 5, 4, 2, 0),
             _stationary_full_rank_point(rng, 5, 5, 2, 3)]
    for prob, X, y in cases:
        G = prob.objective.grad(X) + prob.affine.adjoint(y)
        basis = tangent_intersection_basis(orient_svd(X), prob.affine, prob.r)

        def q(xi):
            hess = float(np.tensordot(prob.objective.hess_apply(X, xi), xi))
            return hess + coeff * curvature_quadratic_terms(X, G, xi)[0]

        d = len(basis)
        M = np.array([[(q(basis[i] + basis[j]) - q(basis[i] - basis[j])) / 4.0
                       for j in range(d)] for i in range(d)])
        eigs = np.linalg.eigvalsh(M)
        rep = check_second_order(prob, X, y, curvature_coeff=coeff)
        assert rep.basis_dim == d > 0
        scale = max(1.0, float(np.abs(eigs).max()))
        assert abs(rep.min_eig - eigs[0]) <= 1e-10 * scale
        assert abs(rep.max_eig - eigs[-1]) <= 1e-10 * scale


def _reference_cone_counts(prob, X, samples, seed):
    """Cumulative (tested, violations) after each draw of a per-draw sampler."""
    svd = orient_svd(X, prob.rank_tol)
    q = ConeQuery(svd, prob.r, prob.tol)
    K = prob.affine.kernel_basis().reshape(-1, X.size)
    rng = np.random.default_rng(seed)
    tested = violations = 0
    counts = [(0, 0)]
    for _ in range(samples):
        g1 = rng.standard_normal(X.shape)
        g2 = rng.standard_normal(X.shape)
        xi = project_tangent_fixed_rank(svd, g1) + project_low_rank(
            project_normal_fixed_rank(svd, g2), prob.r - svd.rank, prob.rank_tol)[0]
        if prob.l:
            xi = (K.T @ (K @ xi.ravel())).reshape(X.shape)
        norm = float(np.linalg.norm(xi))
        if norm >= 1e-10 and in_tangent_bouligand_Mr(q, xi):
            tested += 1
            violations += plain_quad(prob, X, xi) / norm**2 < -prob.tol
        counts.append((tested, violations))
    return counts


def _column_weighted(X, d):
    """f(Y) = 0.5 tr(Y D Y^T) - <X D, Y>, stationary at X, curvature of both signs."""
    D = np.diag(d)
    return CustomObjective("column-weighted", X.shape,
                           value_fn=lambda Y: 0.5 * float(np.sum((Y @ D) * Y - 2 * (X @ D) * Y)),
                           grad_fn=lambda Y: (Y - X) @ D,
                           hess_apply_fn=lambda Y, Xi: Xi @ D)


def test_cone_sampler_matches_per_draw_reference(rng):
    d = np.array([0.5, -1.0, 0.3, 0.2])
    X = random_rank_matrix(rng, 5, 4, 1)
    free = ProblemSpec(_column_weighted(X, d), AffineMap([], [], shape=(5, 4)), RankBound(3))
    # constraints inside the tangent space keep kernel-projected draws in the cone
    u1 = orient_svd(X).u[:, :1]
    mats = [u1 @ rng.standard_normal((1, 4)) for _ in range(2)]
    tangent_ker = ProblemSpec(_column_weighted(X, d),
                              AffineMap(mats, [float(np.tensordot(a, X)) for a in mats]),
                              RankBound(3))
    # rank-1 Hankel point H = X + A*(y0), F-stationary at y0
    z = 0.8 ** np.arange(5)
    Xh = 2.0 * np.outer(z, z)
    amap = hankel_constraints(5, 5)
    y0 = rng.standard_normal(amap.l)
    hankel = ProblemSpec(FrobeniusDistance(Xh + amap.adjoint(y0)), amap, RankBound(3))
    cases = [(free, X, np.zeros(0)), (tangent_ker, X, np.zeros(2)), (hankel, Xh, y0)]
    for prob, point, y in cases:
        ref = _reference_cone_counts(prob, point, 2000, seed=5)
        for samples in (0, 1, 513, 2000):
            rep = check_second_order(prob, point, y, samples=samples, seed=5)
            assert rep.case == "rank_deficient"
            assert (rep.cone_samples_tested, rep.cone_violations) == ref[samples]
    # the first two cases test draws and find curvature of both signs
    for prob, point, y in cases[:2]:
        rep = check_second_order(prob, point, y, seed=5)
        assert 0 < rep.cone_violations < rep.cone_samples_tested


def _reference_reduced_basis(svd, amap):
    """The tangent directions u_i v_j^T as an (mn, mn) tensor, cut down by ker A."""
    s, m, n = svd.rank, svd.m, svd.n
    i, j = np.divmod(np.arange(m * n), n)
    dirs = np.einsum("ai,bj->ijab", svd.u, svd.v).reshape(m * n, m * n)
    dirs = dirs[(i < s) | (j < s)]
    if amap.l:
        dirs = scipy.linalg.null_space(amap.stack @ dirs.T).T @ dirs
    return dirs


@pytest.mark.parametrize("m,n,s,l", [(5, 4, 2, 0), (5, 4, 2, 3), (4, 6, 1, 0),
                                     (4, 6, 1, 4), (4, 4, 0, 2), (6, 6, 3, 30)])
def test_reduced_basis_spans_the_reference_space(rng, m, n, s, l):
    from rankmoa.second_order import _reduced_basis
    svd = orient_svd(random_rank_matrix(rng, m, n, s))
    amap = AffineMap(rng.standard_normal((l, m, n)), np.zeros(l), shape=(m, n))
    basis = _reduced_basis(svd, amap).reshape(-1, m * n)
    ref = _reference_reduced_basis(svd, amap)
    assert basis.shape == ref.shape
    assert np.allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-12)
    assert np.allclose(basis.T @ basis, ref.T @ ref, atol=1e-12)


def test_check_second_order_rejects_negative_samples():
    X = np.zeros((4, 4))
    X[0, 0] = 1.0
    prob = ProblemSpec(FrobeniusDistance(X), AffineMap([], [], shape=(4, 4)), RankBound(2))
    with pytest.raises(ValueError, match="samples"):
        check_second_order(prob, X, np.zeros(0), samples=-5)
    # the seed is checked up front too, not where the sampler first uses it
    with pytest.raises(ValueError, match="seed"):
        check_second_order(prob, X, np.zeros(0), samples=0, seed=-1)
    assert check_second_order(prob, X, np.zeros(0), samples=0).cone_samples_tested == 0
    # non-integer and boolean counts are refused by name, before the point is read:
    # 2.5 used to run 2 draws, True 1, and None or 1.5 as a seed failed inside numpy
    for bad in (2.5, True, np.float64(3.0), "10", None):
        with pytest.raises(TypeError, match="samples"):
            check_second_order(prob, X, np.zeros(0), samples=bad)
    for bad in (None, 1.5, False, np.bool_(True)):
        with pytest.raises(TypeError, match="seed"):
            check_second_order(prob, X, np.zeros(0), seed=bad)
        with pytest.raises(TypeError, match="seed"):
            check_second_order(prob, np.eye(4), np.zeros(0), samples=10, seed=bad)
    rep = check_second_order(prob, X, np.zeros(0), samples=np.int64(5), seed=np.uint8(3))
    assert rep.cone_samples_tested == 5


def _sampler_cases(rng):
    """(prob, X, y) at a rank-1 5x4 point with r = 3: unconstrained, under two
    constraints inside the tangent space, and planted with negative curvature."""
    X = random_rank_matrix(rng, 5, 4, 1)
    free = ProblemSpec(FrobeniusDistance(X), AffineMap([], [], shape=(5, 4)), RankBound(3))
    u1 = orient_svd(X).u[:, :1]
    mats = [u1 @ rng.standard_normal((1, 4)) for _ in range(2)]
    amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats])
    constrained = ProblemSpec(FrobeniusDistance(X), amap, RankBound(3))
    planted = ProblemSpec(_column_weighted(X, np.array([0.5, -1.0, 0.3, 0.2])),
                          AffineMap([], [], shape=(5, 4)), RankBound(3))
    return [(free, X, np.zeros(0)), (constrained, X, np.zeros(2)), (planted, X, np.zeros(0))]


def test_cone_sampler_report_does_not_depend_on_pool_size(rng, monkeypatch):
    from rankmoa import second_order
    cases = _sampler_cases(rng)
    reports = {}
    for size in (1, 2, 4):
        monkeypatch.setattr(second_order, "_cpu_count", lambda size=size: size)
        reports[size] = [check_second_order(prob, X, y, samples=1700, seed=9)
                         for prob, X, y in cases]
    assert reports[1] == reports[2] == reports[4]
    free, constrained, planted = reports[1]
    assert free.cone_samples_tested == 1700 and constrained.cone_samples_tested > 0
    assert 0 < planted.cone_violations < planted.cone_samples_tested


def test_cone_sampler_keeps_hess_apply_on_the_calling_thread(rng, monkeypatch):
    import threading
    from rankmoa import second_order
    block_threads, hess_threads = set(), set()
    cone_block = second_order._cone_block

    def recorded_block(*args):
        block_threads.add(threading.current_thread().name)
        return cone_block(*args)
    monkeypatch.setattr(second_order, "_cone_block", recorded_block)
    for prob, X, y in _sampler_cases(rng):
        obj = prob.objective

        def hess(Y, Xi, obj=obj):
            hess_threads.add(threading.get_ident())
            return obj.hess_apply(Y, Xi)
        recorded = CustomObjective("recorded", (5, 4), value_fn=obj.value, grad_fn=obj.grad,
                                   hess_apply_fn=hess)
        rep = check_second_order(ProblemSpec(recorded, prob.affine, prob.rank_bound),
                                 X, y, samples=1100, seed=2)
        assert rep.cone_samples_tested > 0
    assert hess_threads == {threading.get_ident()}
    assert block_threads and all(n.startswith("rankmoa-cone") for n in block_threads)


def test_cone_sampler_block_errors_propagate(rng, monkeypatch):
    from rankmoa import second_order
    prob, X, y = _sampler_cases(rng)[1]
    want = check_second_order(prob, X, y, seed=4)
    err = np.linalg.LinAlgError("SVD did not converge")
    truncations = []

    def failing(Z, k, rank_tol):
        truncations.append(len(Z))
        if len(truncations) == 2:
            raise err
        return project_low_rank(Z, k, rank_tol)
    monkeypatch.setattr(second_order, "project_low_rank", failing)
    with pytest.raises(np.linalg.LinAlgError) as info:
        check_second_order(prob, X, y, seed=4)
    assert info.value is err
    monkeypatch.undo()
    assert check_second_order(prob, X, y, seed=4) == want


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with live pool threads
def test_cone_sampler_runs_in_a_forked_child(rng):
    import multiprocessing
    prob, X, y = _sampler_cases(rng)[2]
    want = check_second_order(prob, X, y, seed=6)  # the parent's pool is now running
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        send.send(check_second_order(prob, X, y, seed=6))
    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert recv.poll(60), "the forked child did not report within 60 s"
        assert recv.recv() == want
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0


def test_cone_sampler_concurrent_callers_share_the_pool(rng, monkeypatch):
    # more calling threads and pool workers than cores, with frequent thread
    # switches: every caller still gets the serial report
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from rankmoa import second_order
    monkeypatch.setattr(second_order, "_cpu_count", lambda: 3)
    cases = _sampler_cases(rng)
    want = [check_second_order(prob, X, y, samples=1100, seed=8) for prob, X, y in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as callers:
            futures = [callers.submit(check_second_order, prob, X, y, samples=1100, seed=8)
                       for _ in range(2) for prob, X, y in cases]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2
