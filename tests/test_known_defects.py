"""Verdicts known to be wrong, pinned as strict expected failures.

Each case reproduces an open ROADMAP item. When a change mends one, its case
starts to pass, the strict mark turns that into a failure, and the mark is
removed with the mend.
"""

import numpy as np
import pytest
import scipy.linalg

from rankmoa import (AffineMap, ProblemSpec, RankBound, SolverConfig, beta_bound,
                     build_hankel, check_alpha_stationary, check_second_order,
                     classify_first_order, orient_svd, project_low_rank, solve)
from rankmoa.cones import project_normal_fixed_rank
from rankmoa.oracle import saddle_3x3

from conftest import planted_curvature


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
def test_solve_does_not_call_the_3x3_saddle_converged():
    # from the saddle itself, solve stops after one iteration at f = 5 and
    # reports convergence, yet hess L has curvature -0.5 on the feasible directions
    prob, X, _ = saddle_3x3()
    res = solve(prob, X, SolverConfig(alpha=0.5, max_iters=50))
    assert not res.converged or check_second_order(prob, res.x, res.report.y).necessary_ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
def test_first_order_verdict_is_scale_invariant():
    # the 30-iteration point of the reference 8x8 Hankel instance is not
    # F-stationary at scales c = 1 down to 1e-6; scaled by 1e-8, its residual
    # falls below the absolute floor of the tolerance, and it is certified
    G = np.random.default_rng(0).standard_normal((8, 8))
    H = G + G.T
    x30 = solve(build_hankel(H, 2), project_low_rank(H, 2)[0],
                SolverConfig(alpha=0.5, max_iters=30)).x

    def is_F(c):
        return classify_first_order(build_hankel(c * H, 2), c * x30).is_F
    assert is_F(1e-8) == is_F(1.0)


def _planted_hankel_t0():
    """The planted 8x8 Hankel point t = 0: X of rank 2 with h_k = 0.9^k + (-0.7)^k,
    H = X + A*(y), so grad L vanishes at the planted y; (prob, X, y)."""
    k = np.add.outer(np.arange(8), np.arange(8))
    X = 0.9 ** k + (-0.7) ** k
    rng = np.random.default_rng(1)
    rng.standard_normal((6, 6))  # the normal block M, scaled by t = 0
    y = rng.standard_normal(49)
    return build_hankel(X + build_hankel(X, 2).affine.adjoint(y), 2), X, y


def test_the_planted_hankel_multiplier_witnesses_alpha_stationarity():
    prob, X, y = _planted_hankel_t0()
    assert beta_bound(prob, X, y) == np.inf
    assert check_alpha_stationary(prob, X, y, 0.5, method="projection")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 6")
def test_alpha_verdict_searches_the_multiplier_family():
    # the witness above exists, yet the minimum-norm multiplier of the
    # 25-dimensional family reads beta = 0.418 < 0.5, and only it is tested
    prob, X, _ = _planted_hankel_t0()
    assert classify_first_order(prob, X, alpha=0.5).is_alpha


def _least_curvature_alternation(prob, F, spaces=60):
    """At X = O: the least eigenpair of hess f on {F Z} cut by ker A, then on {W Q^T}
    with Q the row space of that minimizer, and so on, until the eigenvalue falls by
    less than 1e-12 or after ``spaces`` spaces; the last (lam, xi), xi of unit norm.
    Kernels come from scipy's null space, not from the package's factorizations."""
    (m, n), A, k = prob.affine.shape, prob.affine.mats, F.shape[1]
    X, left, prev = np.zeros((m, n)), True, np.inf
    for _ in range(spaces):
        if left:
            null = scipy.linalg.null_space(np.einsum("ia,lij->laj", F, A).reshape(len(A), -1))
            B = np.einsum("ia,daj->dij", F, null.T.reshape(-1, k, n))
        else:
            null = scipy.linalg.null_space(np.einsum("lij,ja->lia", A, F).reshape(len(A), -1))
            B = np.einsum("dia,ja->dij", null.T.reshape(-1, m, k), F)
        Q = np.array([[np.tensordot(prob.objective.hess_apply(X, a), b) for b in B] for a in B])
        lam, w = np.linalg.eigh(Q)
        xi = np.tensordot(w[:, 0], B, 1)
        if not lam[0] < prev - 1e-12:
            break
        prev = lam[0]
        u, _, vh = np.linalg.svd(xi)
        F, left = (vh[:k].T if left else u[:, :k]), not left
    return lam[0], xi


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15")
def test_cone_search_finds_the_violation_random_starts_find():
    # seed 27 of the cone-search scan: X = O (s = 0), r = 2, ten random constraints
    # and hess f = I - 2 G G^T for a unit G in ker A. The search reports necessity
    # after 36 spaces, yet the same alternation from random starts reaches rank-2
    # directions of ker A with curvature down to -0.099 (-0.057 from the second start)
    rng = np.random.default_rng(27)
    assert rng.integers(0, 2) == 0  # s = 0
    X = np.zeros((7, 7))
    A = rng.standard_normal((10, 7, 7))
    amap = AffineMap(A, np.tensordot(A, X))
    K = amap.kernel_basis()
    G = np.tensordot(rng.standard_normal(len(K)), K, 1)
    prob = ProblemSpec(planted_curvature(X, [G / np.linalg.norm(G)], [2.0]), amap,
                       RankBound(2))
    starts = np.random.default_rng(1027)
    for _ in range(100):
        lam, xi = _least_curvature_alternation(
            prob, np.linalg.qr(starts.standard_normal((7, 2)))[0])
        if lam < -prob.tol:
            break
    # the witness, checked apart from the search: in ker A, a normal block of rank
    # at most r - s = 2, and curvature below -tol
    norm = float(np.linalg.norm(xi))
    assert np.linalg.norm(amap.apply(xi)) <= 1e-10 * norm
    normal = np.linalg.svd(project_normal_fixed_rank(orient_svd(X), xi), compute_uv=False)
    assert np.count_nonzero(normal > 1e-10 * norm) <= 2
    assert prob.objective.hess_quad(X, xi) / norm**2 < -prob.tol
    assert not check_second_order(prob, X, np.zeros(10)).necessary_ok
