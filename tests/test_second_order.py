import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg

from rankmoa import (AffineMap, ConeQuery, FrobeniusDistance, LinearTrace, ProblemSpec,
                     RankBound, bq_certificates, check_F_stationary, check_second_order,
                     in_tangent_bouligand_Mr, orient_svd, plain_quad, riemannian_quad,
                     save_problem, tangent_intersection_basis)
from rankmoa.cli import main
from rankmoa.cones import project_normal_fixed_rank, project_tangent_fixed_rank
from rankmoa.linalg import ThinSVD
from rankmoa.model import CustomObjective
from rankmoa.problems import hankel_constraints
from rankmoa.oracle import (curvature_quadratic_terms, fd_quad, planted_saddle,
                            planted_stationary, saddle_3x3)
from rankmoa.qualification import CASE_FULL_RANK, PointConstraints

from conftest import planted_curvature, random_rank_matrix


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
        # grad L = normal part of G at y = (), so the form's curvature term is
        # twice the factored assembly of the correction
        got = riemannian_quad(prob, svd, np.zeros(0), xi)
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


def test_check_second_order_hankel_xbar(hankel_case):
    spec, points = hankel_case
    rep = check_second_order(spec, points["Xbar"], np.zeros(4))
    assert rep.case == "full_rank"
    assert rep.basis_dim == 4
    # grad L = -1e-6 e3 e3^T bends the spectrum by 2e-6 above the Hessian's 1
    assert abs(rep.min_eig - 0.999999994) <= 1e-9
    assert abs(rep.max_eig - 1.000001997) <= 1e-9
    assert rep.sufficient_ok and rep.necessary_ok
    assert rep.notes == ["strictly local minimizer restricted on M^r (Thm 4.4 i)"]


def test_saddle_3x3_violates_the_necessary_condition(tmp_path, capsys):
    # f falls along the feasible curve 2 (e2 + t e1)(e2 + t e1)^T / (1 + t^2)
    prob, X, y = saddle_3x3()
    t = 0.01
    curve = 2.0 * np.outer([t, 1.0, 0.0], [t, 1.0, 0.0]) / (1.0 + t * t)
    assert prob.affine.residual(curve) == 0.0 and np.linalg.matrix_rank(curve) == 1
    assert prob.objective.value(X) - prob.objective.value(curve) >= 1.9e-4
    rep = check_second_order(prob, X, y)
    assert abs(rep.min_eig + 0.5) <= 1e-12 and abs(rep.max_eig - 1.5) <= 1e-12
    assert not rep.necessary_ok and not rep.sufficient_ok
    assert rep.notes == []

    path = tmp_path / "saddle.prob"
    save_problem(prob, path, named_points={"X": X})
    assert main(["analyze", str(path), "--point", "X", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stationarity"]["is_F"] is True
    so = doc["second_order"]
    assert so["case"] == "full_rank" and abs(so["min_eig"] + 0.5) <= 1e-12
    assert so["necessary_ok"] is False and so["sufficient_ok"] is False
    assert so["notes"] == []


@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("N", range(3, 9))
def test_planted_saddles_violate_the_necessary_condition(N, r, l):
    prob, X, y = planted_saddle(np.random.default_rng(100 * N + 10 * r + l), N, r, l)
    svd = orient_svd(X, prob.rank_tol)
    assert svd.rank == r
    qual = bq_certificates(svd, prob.affine, r)
    assert qual.assumption1 and qual.assumption2
    assert qual.intersection_rule_case == CASE_FULL_RANK
    assert check_F_stationary(prob, X).is_F
    rep = check_second_order(prob, X, y)
    assert rep.case == "full_rank"
    assert rep.min_eig < -0.1
    assert not rep.necessary_ok and not rep.sufficient_ok


def test_check_second_order_lrr_tier1(lrr_case):
    spec = lrr_case(3)
    wbar = np.full((3, 3), 1.0 / 3.0)
    rep = check_second_order(spec, wbar, -np.ones(3) / 3.0, samples=500)
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


def test_check_second_order_rejects_a_point_off_the_constraints(trace_case):
    spec, _ = trace_case
    # trace 3, not 2, with grad L = O at y = -1: the form alone would call it a
    # strict local minimizer
    X = np.diag([1.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match=r"not feasible \(feasibility residual 1\.000e\+00, "
                                         r"rank 3 with bound r=3\)"):
        check_second_order(spec, X, [-1.0])


def test_check_second_order_rejects_a_point_above_the_rank_bound(trace_case):
    spec, _ = trace_case
    # trace 2 and grad L = O at y = 1, but of rank 4 above r = 3: the sampler
    # used to fail on a negative rank bound r - s
    X = 0.5 * np.eye(4)
    prob = ProblemSpec(FrobeniusDistance(X + np.eye(4)), spec.affine, RankBound(3))
    with pytest.raises(ValueError, match="rank 4 with bound r=3"):
        check_second_order(prob, X, [1.0])


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
    rep = check_second_order(prob, X, np.zeros(0), samples=200)
    assert rep.case == "rank_deficient"
    assert not rep.sufficient_ok
    assert not rep.necessary_ok
    assert rep.cone_violations > 0
    assert rep.cone_samples_tested > 0


def test_sufficient_certificate_forbids_violations(rng):
    for _ in range(10):
        m = n = 4
        r = 2
        s = int(rng.integers(0, r))
        X = random_rank_matrix(rng, m, n, s)
        mats = [rng.standard_normal((m, n)) for _ in range(2)]
        amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats])
        prob = ProblemSpec(FrobeniusDistance(X), amap, RankBound(r))
        rep = check_second_order(prob, X, np.zeros(2), samples=300)
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
    basis = _reduced_basis(PointConstraints(svd, AffineMap([], [], shape=(3, 3))))
    Q = _gram_form(spec.objective, X, basis, gradL, pinv)
    assert np.linalg.norm(Q - Q.T) <= 1e-12
    for i, P in enumerate(basis):
        for j, R in enumerate(basis[i:], start=i):
            hess = float(np.tensordot(spec.objective.hess_apply(X, P), R))
            curv = 0.5 * float(np.tensordot(gradL, P @ pinv @ R + R @ pinv @ P))
            assert abs(Q[i, j] - (hess + 2.0 * curv)) <= 1e-12 * max(1.0, abs(Q[i, j]))


@pytest.mark.parametrize("m, n, r", [(6, 4, 2), (4, 6, 3), (5, 5, 2)])
@pytest.mark.parametrize("d", [0, 1, 7])
def test_gram_form_curvature_matches_einsum_reference(rng, m, n, r, d):
    # the matmul assembly against the four-index contraction it replaced
    from rankmoa.linalg import pseudo_inverse
    from rankmoa.second_order import _gram_form
    X = random_rank_matrix(rng, m, n, r)
    pinv = pseudo_inverse(orient_svd(X))
    gradL = rng.standard_normal((m, n))
    B = rng.standard_normal((d, m, n))
    objective = LinearTrace(np.zeros((m, n)))  # zero Hessian: only the curvature term
    Q = _gram_form(objective, X, B, gradL, pinv)
    C = np.einsum("iac,ce,jeb,ab->ij", B, pinv, B, gradL, optimize=True)
    ref = C + C.T
    assert Q.shape == (d, d)
    assert np.array_equal(Q, Q.T)
    assert np.abs(Q - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)


def test_kernel_gram_form_matches_scipy_basis_bitwise(rng):
    # the rank-deficient certificate's form on ker A of the 7 x 7 Hankel stack
    from rankmoa.second_order import _gram_form
    amap = hankel_constraints(7, 7)
    h = rng.standard_normal(2) @ (rng.uniform(0.5, 1.0, size=(2, 1)) ** np.arange(13))
    X = h[np.add.outer(np.arange(7), np.arange(7))]  # a rank-2 Hankel matrix
    objective = FrobeniusDistance(X + amap.adjoint(rng.standard_normal(amap.l)))
    basis = amap.kernel_basis()
    ref = scipy.linalg.null_space(amap.stack).T.reshape(-1, 7, 7)
    assert basis.shape == (13, 7, 7) and np.array_equal(basis, ref)
    assert np.array_equal(_gram_form(objective, X, basis), _gram_form(objective, X, ref))


def _scaled(prob, y, s):
    """(prob, y) with the objective and multipliers times s: still stationary."""
    f = prob.objective
    obj = CustomObjective(f"{s} * {f.kind}", f.shape,
                          value_fn=lambda Y: s * f.value(Y),
                          grad_fn=lambda Y: s * f.grad(Y),
                          hess_apply_fn=lambda Y, Xi: s * f.hess_apply(Y, Xi))
    return ProblemSpec(obj, prob.affine, prob.rank_bound, prob.rank_tol, prob.tol), s * y


@pytest.mark.parametrize("scale", [-2.0, 2.0])
def test_reduced_form_matches_polarized_oracle(rng, hankel_case, scale):
    # rebuild the reduced matrix entry by entry from quadratic values only:
    # hess_apply for the Hessian part and the factored oracle assembly of the
    # curvature term, polarized over B_i + B_j and B_i - B_j; a negative scale
    # flips the objective so the form's curvature of both signs is exercised
    spec, points = hankel_case
    cases = [(spec, points["Xbar"], np.zeros(4)),
             planted_stationary(rng, 5, 4, 2, 0),
             planted_stationary(rng, 5, 5, 2, 3)]
    for base, X, y0 in cases:
        prob, y = _scaled(base, y0, scale)
        G = prob.objective.grad(X) + prob.affine.adjoint(y)
        basis = tangent_intersection_basis(orient_svd(X), prob.affine, prob.r)

        def q(xi):
            hess = float(np.tensordot(prob.objective.hess_apply(X, xi), xi))
            return hess + 2.0 * curvature_quadratic_terms(X, G, xi)[0]

        d = len(basis)
        M = np.array([[(q(basis[i] + basis[j]) - q(basis[i] - basis[j])) / 4.0
                       for j in range(d)] for i in range(d)])
        eigs = np.linalg.eigvalsh(M)
        rep = check_second_order(prob, X, y)
        assert rep.basis_dim == d > 0
        scale = max(1.0, float(np.abs(eigs).max()))
        assert abs(rep.min_eig - eigs[0]) <= 1e-10 * scale
        assert abs(rep.max_eig - eigs[-1]) <= 1e-10 * scale


def _column_weighted(X, d):
    """f(Y) = 0.5 tr(Y D Y^T) - <X D, Y>, stationary at X, curvature of both signs."""
    D = np.diag(d)
    return CustomObjective("column-weighted", X.shape,
                           value_fn=lambda Y: 0.5 * float(np.sum((Y @ D) * Y - 2 * (X @ D) * Y)),
                           grad_fn=lambda Y: (Y - X) @ D,
                           hess_apply_fn=lambda Y, Xi: Xi @ D)


def _cone_witness(prob, X):
    """The first (lam, xi) of the cone search with lam below -tol, else None."""
    from rankmoa.second_order import _cone_search, _gram_form
    ker = prob.affine.kernel_basis()
    search = _cone_search(prob.objective, X, PointConstraints(orient_svd(X, prob.rank_tol),
                                                              prob.affine),
                          ker, _gram_form(prob.objective, X, ker), prob.r, prob.tol)
    return next(((lam, xi) for lam, xi in search if lam < -prob.tol), None)


def _one_sided_direction(rng, svd, amap, k):
    """A unit cone direction in ker A: tangent part plus a normal block whose columns lie
    in a random k-dimensional span P, from scipy's null space of A on that space."""
    s, (m, n) = svd.rank, (svd.m, svd.n)
    P = svd.u_perp @ np.linalg.qr(rng.standard_normal((m - s, k)))[0]
    space = [np.outer(svd.u[:, i], svd.v[:, j]) for i in range(m) for j in range(n)
             if i < s or j < s]
    space += [np.outer(P[:, a], svd.v_perp[:, b]) for a in range(k) for b in range(n - s)]
    space = np.array(space).reshape(len(space), -1)
    null = scipy.linalg.null_space(amap.stack @ space.T) if amap.l else np.eye(len(space))
    D = (null @ rng.standard_normal(null.shape[1])) @ space
    return (D / np.linalg.norm(D)).reshape(m, n)


@pytest.mark.parametrize("l", [0, 3])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_cone_search_witness_passes_independent_checks(rng, s, k, l):
    # a planted cone direction D in ker A with curvature -2, and a generic direction
    # G of ker A with -5 whose normal block has full rank: the constraints touch the
    # normal block, so the old projected draws left the cone
    m, n = 6, 5
    X = random_rank_matrix(rng, m, n, s)
    A = rng.standard_normal((l, m, n))
    amap = AffineMap(A, np.tensordot(A, X), shape=(m, n))
    svd = orient_svd(X)
    D = _one_sided_direction(rng, svd, amap, k)
    G = np.tensordot(rng.standard_normal(len(amap.kernel_basis())), amap.kernel_basis(), 1)
    G = G - np.tensordot(G, D) * D
    prob = ProblemSpec(planted_curvature(X, [D, G / np.linalg.norm(G)], [3.0, 6.0]),
                       amap, RankBound(s + k))
    lam, xi = _cone_witness(prob, X)
    norm = float(np.linalg.norm(xi))
    assert in_tangent_bouligand_Mr(ConeQuery(svd, s + k, prob.tol), xi)
    normal = np.linalg.svd(project_normal_fixed_rank(svd, xi), compute_uv=False)
    assert np.count_nonzero(normal > 1e-10 * norm) <= k
    assert np.linalg.norm(amap.apply(xi)) <= 1e-10 * norm
    quad = prob.objective.hess_quad(X, xi) / norm**2
    assert quad < -prob.tol and abs(quad - lam) <= 1e-10
    rep = check_second_order(prob, X, np.zeros(l))
    assert rep.case == "rank_deficient" and not rep.sufficient_ok
    assert not rep.necessary_ok and rep.cone_violations == 1
    assert 1 <= rep.cone_samples_tested <= 2000
    assert rep.min_eig <= -4.0


@pytest.mark.parametrize("seed, tested", [(30, 5), (149, 2)])
def test_cone_search_alternates_to_a_witness(seed, tested):
    # a generic direction G of ker A (s = 0, k = 1, l = 3): the space P from its
    # normal block has no negative curvature, the alternation finds some
    rng = np.random.default_rng(seed)
    m, n, s, k, l = 6, 5, int(rng.integers(0, 3)), int(rng.integers(1, 3)), int(rng.choice([0, 3]))
    assert (s, k, l) == (0, 1, 3)
    X = random_rank_matrix(rng, m, n, s)
    A = rng.standard_normal((l, m, n))
    amap = AffineMap(A, np.tensordot(A, X), shape=(m, n))
    K = amap.kernel_basis()
    G = np.tensordot(rng.standard_normal(len(K)), K, 1)
    prob = ProblemSpec(planted_curvature(X, [G / np.linalg.norm(G)], [rng.uniform(1.2, 4)]),
                       amap, RankBound(s + k))
    from rankmoa.second_order import _cone_search, _gram_form
    search = _cone_search(prob.objective, X, PointConstraints(orient_svd(X), amap), K,
                          _gram_form(prob.objective, X, K), prob.r, prob.tol)
    lams = [lam for lam, _ in itertools.islice(search, tested)]
    assert lams[-1] < -prob.tol <= lams[-2]
    assert all(b < a for a, b in zip(lams, lams[1:]))  # one start: never rising
    lam, xi = _cone_witness(prob, X)
    assert lam == lams[-1] and np.linalg.norm(amap.apply(xi)) <= 1e-10
    assert in_tangent_bouligand_Mr(ConeQuery(orient_svd(X), k, prob.tol), xi)
    rep = check_second_order(prob, X, np.zeros(l))
    assert (rep.necessary_ok, rep.cone_samples_tested, rep.cone_violations) == (False, tested, 1)


def test_cone_search_skips_what_ker_A_decides(rng):
    # the certificate holds at a Hankel point, at a Frobenius point of rank 1 and at
    # X = 0 (s = 0); hess f = 0 leaves it open but has no curvature below -tol on
    # ker A: nothing is searched in any of them
    z = 0.8 ** np.arange(5)
    Xh = 2.0 * np.outer(z, z)
    amap = hankel_constraints(5, 5)
    y0 = rng.standard_normal(amap.l)
    hankel = ProblemSpec(FrobeniusDistance(Xh + amap.adjoint(y0)), amap, RankBound(3))
    zero = np.zeros((5, 4))
    free = AffineMap([], [], shape=(5, 4))
    cases = [(hankel, Xh, y0), _sampler_cases(rng)[0],
             (ProblemSpec(FrobeniusDistance(zero), free, RankBound(2)), zero, np.zeros(0)),
             (ProblemSpec(LinearTrace(zero), free, RankBound(2)), zero, np.zeros(0))]
    for prob, point, y in cases:
        for samples in (0, 1, 513, 2000):
            rep = check_second_order(prob, point, y, samples=samples)
            assert rep.case == "rank_deficient" and rep.necessary_ok
            assert (rep.cone_samples_tested, rep.cone_violations) == (0, 0)


def test_cone_search_stops_when_the_eigenvalue_stops_falling(rng):
    # hess f = I - 1.5 V V^T with V's normal block I / sqrt(3) on three normal
    # directions: -0.5 on ker A, but a rank-1 block holds at most a third of V,
    # so every space of the cone has curvature >= 0.5 and no witness exists
    X = random_rank_matrix(rng, 5, 4, 1)
    svd = orient_svd(X)
    V = svd.u_perp[:, :3] @ svd.v_perp.T / np.sqrt(3.0)
    u1 = svd.u[:, :1]
    mats = [u1 @ rng.standard_normal((1, 4)) for _ in range(2)]
    for amap in (AffineMap([], [], shape=(5, 4)),
                 AffineMap(mats, [float(np.tensordot(a, X)) for a in mats])):
        prob = ProblemSpec(planted_curvature(X, [V], [1.5]), amap, RankBound(2))
        assert _cone_witness(prob, X) is None
        rep = check_second_order(prob, X, np.zeros(amap.l))
        assert abs(rep.min_eig + 0.5) <= 1e-12 and rep.necessary_ok
        # one space from V's start, its right-hand alternate, then no fall
        assert (rep.cone_samples_tested, rep.cone_violations) == (2, 0)
        assert check_second_order(prob, X, np.zeros(amap.l), samples=1).cone_samples_tested == 1


def test_cone_search_yields_inf_where_ker_A_leaves_only_O(rng):
    # X = 0, r = 1: 10 generic constraints on 4 x 4 leave a 6-dimensional ker A
    # that meets no 4-dimensional space {p z^T}, so every start ends at once
    concave = CustomObjective("concave", (4, 4), value_fn=lambda Y: -0.5 * float(np.sum(Y * Y)),
                              grad_fn=lambda Y: -Y, hess_apply_fn=lambda Y, Xi: -Xi)
    prob = ProblemSpec(concave, AffineMap(rng.standard_normal((10, 4, 4)), np.zeros(10)),
                       RankBound(1))
    rep = check_second_order(prob, np.zeros((4, 4)), np.zeros(10))
    assert abs(rep.min_eig + 1.0) <= 1e-12 and rep.subspace_min_eig == math.inf
    assert (rep.necessary_ok, rep.cone_samples_tested, rep.cone_violations) == (True, 6, 0)
    assert _cone_witness(prob, np.zeros((4, 4))) is None


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
    basis = _reduced_basis(PointConstraints(svd, amap)).reshape(-1, m * n)
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
    assert check_second_order(prob, X, np.zeros(0), samples=0).cone_samples_tested == 0
    # non-integer and boolean counts are refused by name, before the point is read:
    # 2.5 used to run 2 draws and True 1
    for bad in (2.5, True, np.float64(3.0), "10", None):
        with pytest.raises(TypeError, match="samples"):
            check_second_order(prob, X, np.zeros(0), samples=bad)
    # hess f = 0 leaves the ker A certificate open, but no curvature on ker A is below
    # -tol, so nothing is searched
    flat = ProblemSpec(LinearTrace(np.zeros((4, 4))), AffineMap([], [], shape=(4, 4)),
                       RankBound(2))
    rep = check_second_order(flat, X, np.zeros(0), samples=np.int64(5))
    assert rep.cone_samples_tested == 0 and rep.necessary_ok


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


def test_cone_sampler_concurrent_callers_get_the_serial_report(rng):
    # more calling threads than cores, with frequent thread switches
    import sys
    from concurrent.futures import ThreadPoolExecutor
    cases = _sampler_cases(rng)
    want = [check_second_order(prob, X, y, samples=1100) for prob, X, y in cases]
    assert want[2].cone_samples_tested > 0  # the planted case leaves the verdict open
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as callers:
            futures = [callers.submit(check_second_order, prob, X, y, samples=1100)
                       for _ in range(2) for prob, X, y in cases]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2
