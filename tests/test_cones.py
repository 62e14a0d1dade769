import numpy as np
import pytest

from rankmoa import (AffineMap, ConeQuery, FrobeniusDistance, IndexSetJ, ProblemSpec,
                     RankBound, check_M_stationary, enumerate_J, in_normal_MXJ,
                     in_normal_frechet_MXr, in_normal_frechet_Mr,
                     in_normal_mordukhovich_Mr, in_tangent_bouligand_Mr,
                     orient_svd, project_low_rank, project_normal_fixed_rank,
                     project_tangent_fixed_rank)
from rankmoa.cones import compress, tangent_coordinates, tangent_mask

from conftest import random_rank_matrix


def _query(rng, m, n, s, r, scale=1.0):
    X = random_rank_matrix(rng, m, n, s, scale)
    svd = orient_svd(X)
    assert svd.rank == s
    return ConeQuery(svd, r)


def sample_tangent(rng, svd):
    return project_tangent_fixed_rank(svd, rng.standard_normal((svd.m, svd.n)))


def sample_bouligand(rng, svd, r):
    t = sample_tangent(rng, svd)
    n = project_normal_fixed_rank(svd, rng.standard_normal((svd.m, svd.n)))
    return t + project_low_rank(n, r - svd.rank)[0]


def sample_frechet_normal(rng, svd, r):
    if svd.rank < r:
        return np.zeros((svd.m, svd.n))
    d = rng.standard_normal((svd.m - svd.rank, svd.n - svd.rank))
    return svd.u_perp @ d @ svd.v_perp.T


def test_tangent_projection_fixed_points(rng):
    q = _query(rng, 4, 3, 2, 2)
    t = sample_tangent(rng, q.svd)
    assert np.allclose(project_tangent_fixed_rank(q.svd, t), t, atol=1e-12)


def test_pure_normal_direction_projects_to_zero():
    svd = orient_svd(np.diag([1.0, 0.0]))
    e2 = np.zeros((2, 2))
    e2[1, 1] = 1.0
    assert np.allclose(project_tangent_fixed_rank(svd, e2), np.zeros((2, 2)))
    assert np.allclose(project_normal_fixed_rank(svd, e2), e2)


def test_tangent_normal_complementarity(rng):
    for _ in range(30):
        m, n = rng.integers(2, 6, size=2)
        s = int(rng.integers(0, min(m, n) + 1))
        X = random_rank_matrix(rng, m, n, s)
        svd = orient_svd(X)
        Z = rng.standard_normal((m, n))
        t = project_tangent_fixed_rank(svd, Z)
        nn = project_normal_fixed_rank(svd, Z)
        assert np.allclose(t + nn, Z, atol=1e-12)
        assert abs(float(np.tensordot(t, nn))) <= 1e-10
        assert np.allclose(project_tangent_fixed_rank(svd, t), t, atol=1e-12)


def test_hankel_gradient_is_normal(hankel_case):
    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    g = np.zeros((3, 3))
    g[2, 2] = -1e-6  # Lagrangian gradient at (Xbar, y=0)
    assert np.allclose(project_normal_fixed_rank(svd, g), g, atol=1e-18)
    q = ConeQuery(svd, 2)
    assert in_normal_frechet_Mr(q, -g)


def test_bouligand_membership(rng):
    q = _query(rng, 4, 4, 2, 2)
    h = sample_tangent(rng, q.svd)
    assert in_tangent_bouligand_Mr(q, h)
    assert in_tangent_bouligand_Mr(q, np.zeros((4, 4)))

    svd = orient_svd(np.diag([1.0, 0.0, 0.0]))
    q2 = ConeQuery(svd, 2)
    h2 = np.diag([0.0, 1.0, 1.0])  # normal part of rank 2 > r - s = 1
    assert not in_tangent_bouligand_Mr(q2, h2)
    assert in_tangent_bouligand_Mr(q2, np.diag([0.0, 1.0, 0.0]))


def test_frechet_normal_collapses_below_the_bound(trace_case):
    _, points = trace_case
    svd = orient_svd(points["X1"])  # rank 2 below bound 3
    q = ConeQuery(svd, 3)
    assert in_normal_frechet_Mr(q, np.zeros((4, 4)))
    w = np.zeros((4, 4))
    w[3, 3] = -1.0
    assert not in_normal_frechet_Mr(q, w)  # only O is Frechet-normal when s < r


def test_mordukhovich_normal_at_trace_candidates(trace_case):
    _, points = trace_case
    svd = orient_svd(points["X1"])
    q = ConeQuery(svd, 3)
    w = np.zeros((4, 4))
    w[3, 3] = -1.0  # -grad L(X1; -1)
    assert in_normal_mordukhovich_Mr(q, w)
    w2 = np.zeros((4, 4))
    w2[2:, 2:] = np.diag([1.0, 2.0])  # rank 2 block exceeds min(m,n) - r = 1
    assert not in_normal_mordukhovich_Mr(q, w2)
    assert in_normal_mordukhovich_Mr(q, np.zeros((4, 4)))


def _pinned_mordukhovich_input(case):
    """(X, W) with r = 2 on which the rank of W counts values at rounding level."""
    if case == "s=r":  # a tangential residual 1.2e-8 within tol * ||W||
        W = np.diag([0.0, 0.0, 1.0, 1.0])
        W[0, 1] = 1.2e-8
        return np.diag([3.0, 2.0, 0.0, 0.0]), W
    # s = 1 < r and W within tol of O
    return np.diag([3.0, 0.0, 0.0, 0.0]), 1e-9 * np.random.default_rng(0).standard_normal((4, 4))


@pytest.mark.parametrize("case", ["s=r", "s<r"])
def test_mordukhovich_predicate_applies_the_stationarity_rule(case):
    # At s == r N^M is the normal space, and O is in every cone, so neither W is ranked:
    # the predicate agrees with check_M_stationary, here at grad f = -W, ||grad f|| = ||W||
    X, W = _pinned_mordukhovich_input(case)
    assert in_normal_mordukhovich_Mr(ConeQuery(orient_svd(X), 2), W)
    prob = ProblemSpec(FrobeniusDistance(X + W), AffineMap([], [], shape=(4, 4)), RankBound(2))
    assert check_M_stationary(prob, X)[0]


def test_frechet_implies_mordukhovich(rng):
    for _ in range(20):
        m, n = rng.integers(3, 6, size=2)
        r = int(rng.integers(1, min(m, n)))
        q = _query(rng, m, n, r, r)
        w = sample_frechet_normal(rng, q.svd, r)
        assert in_normal_frechet_Mr(q, w)
        assert in_normal_mordukhovich_Mr(q, w)


def test_polarity_sampling(rng):
    for _ in range(20):
        m, n = rng.integers(2, 6, size=2)
        r = int(rng.integers(1, min(m, n)))
        s = int(rng.integers(0, r + 1))
        q = _query(rng, m, n, s, r)
        w = sample_frechet_normal(rng, q.svd, r)
        assert in_normal_frechet_Mr(q, w)
        for _ in range(25):
            h = sample_bouligand(rng, q.svd, r)
            assert in_tangent_bouligand_Mr(q, h)
            bound = 1e-8 * max(1.0, np.linalg.norm(w) * np.linalg.norm(h))
            assert float(np.tensordot(w, h)) <= bound


def test_frechet_MXr_accepts_hankel_gradient(hankel_case):
    _, points = hankel_case
    svd = orient_svd(points["Xbar"])
    q = ConeQuery(svd, 2)
    w = np.zeros((3, 3))
    w[2, 2] = 1e-6
    assert in_normal_frechet_MXr(q, w)
    assert not in_normal_frechet_MXr(q, points["Xbar"])


def test_enumerate_J_counts():
    assert [j.indices for j in enumerate_J(2, 4, 2)] == [(0, 1)]
    assert [j.indices for j in enumerate_J(1, 3, 2)] == [(0, 1), (0, 2)]
    assert len(enumerate_J(0, 4, 2)) == 6
    with pytest.raises(ValueError):
        enumerate_J(3, 2, 2)
    with pytest.raises(ValueError):
        enumerate_J(0, 40, 20, cap=1000)


def test_index_set_validation():
    with pytest.raises(ValueError):
        IndexSetJ((1, 2), s=2)  # missing prefix index 0
    with pytest.raises(ValueError):
        IndexSetJ((0, 0), s=1)
    j = IndexSetJ((0, 2), s=1)
    assert j.indices == (0, 2)
    with pytest.raises(ValueError, match="negative"):
        IndexSetJ((0, 1, -1), s=2)
    # a raw tuple is validated too: -1 must not index column n - 1
    svd = orient_svd(np.diag([3.0, 2.0, 0.0, 0.0]))
    W = np.zeros((4, 4))
    with pytest.raises(ValueError, match="negative"):
        in_normal_MXJ(svd, (0, 1, -1), W)
    with pytest.raises(ValueError, match="exceeds"):
        in_normal_MXJ(svd, (0, 1, 4), W)


def test_in_normal_MXJ_validates_through_index_set_j():
    # in_normal_MXJ builds IndexSetJ(J, svd.rank) from a raw or a given set, so it
    # refuses what IndexSetJ refuses: a repeated column names no flat
    svd = orient_svd(np.diag([3.0, 2.0, 0.0, 0.0]))
    W = np.zeros((4, 4))
    with pytest.raises(ValueError, match="repeated"):
        in_normal_MXJ(svd, (0, 1, 1), W)
    for J in ((1, 2), IndexSetJ((0, 2), s=1)):  # the point's rank prefix is 0, 1
        with pytest.raises(ValueError, match="rank prefix"):
            in_normal_MXJ(svd, J, W)
    assert in_normal_MXJ(svd, IndexSetJ((0, 1, 3), s=2), W)
    assert in_normal_MXJ(svd, range(3), W)


def test_in_normal_MXJ_hand_case(diagonal_case):
    # base point e3 e3^T; J = first two columns of the oriented factors
    _, points = diagonal_case
    svd = orient_svd(points["Xbar"])
    J = IndexSetJ((0, 1), s=1)
    assert in_normal_MXJ(svd, J, np.zeros((3, 3)))
    w_in = np.outer(np.eye(3)[0], np.eye(3)[0])  # e1 e1^T: U^T W V_J = 0
    assert in_normal_MXJ(svd, J, w_in)
    w_out = svd.u[:, [0]] @ svd.v[:, [0]].T  # unit inner product against the flat
    assert not in_normal_MXJ(svd, J, w_out)


def test_frechet_MXr_equals_intersection_over_J(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 7))  # taller than wide (canonical orientation)
        r = int(rng.integers(1, n))
        s = int(rng.integers(0, r + 1))
        X = random_rank_matrix(rng, m, n, s)
        svd = orient_svd(X)
        q = ConeQuery(svd, r)
        sets = enumerate_J(s, n, r)
        for _ in range(10):
            if rng.random() < 0.5:
                w = rng.standard_normal((m, n))
            elif s == r:
                c = rng.standard_normal((m, n - s))
                w = svd.u @ np.hstack([np.zeros((m, s)), c]) @ svd.v.T
            else:
                w = np.zeros((m, n))
            member = in_normal_frechet_MXr(q, w)
            inter = all(in_normal_MXJ(svd, j, w) for j in sets)
            assert member == inter


def test_cone_tests_transpose_consistency(rng):
    X = random_rank_matrix(rng, 3, 5, 2)
    svd = orient_svd(X)
    q = ConeQuery(svd, 2)
    w = rng.standard_normal((3, 5))
    qt = ConeQuery(orient_svd(X.T), 2)
    assert in_normal_frechet_MXr(q, w) == in_normal_frechet_MXr(qt, w.T)
    J = IndexSetJ((0, 1), s=2)
    assert in_normal_MXJ(svd, J, w) == in_normal_MXJ(orient_svd(X.T), J, w.T)


def test_cone_query_validates_rank():
    svd = orient_svd(np.eye(3))
    with pytest.raises(ValueError):
        ConeQuery(svd, 2)
    low = orient_svd(np.diag([3.0, 2.0, 0.0]))
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ConeQuery(low, 2, bad)


def test_stacked_projections_match_slices(rng):
    for m, n, s, r in ((5, 4, 1, 3), (4, 6, 2, 3), (3, 3, 0, 2)):
        q = _query(rng, m, n, s, r)
        svd = q.svd
        H = np.stack([sample_tangent(rng, svd), sample_bouligand(rng, svd, r),
                      rng.standard_normal((m, n)), np.zeros((m, n)),
                      sample_bouligand(rng, svd, r) + 1e-3 * rng.standard_normal((m, n))])
        stack = H.reshape(5, 1, m, n)
        for project in (project_tangent_fixed_rank, project_normal_fixed_rank):
            P = project(svd, stack)
            assert P.shape == stack.shape
            for i, h in enumerate(H):
                assert np.array_equal(P[i, 0], project(svd, h))
        # the membership test takes one matrix
        with pytest.raises(ValueError, match="2-d"):
            in_tangent_bouligand_Mr(q, stack)
        want = [in_tangent_bouligand_Mr(q, h) for h in H]
        assert want[:2] == [True, True] and want[3]
        assert not want[2]


def _reference_bouligand(q, H):
    """The membership test in original coordinates: the normal part and H ranked by two SVDs."""
    N = project_normal_fixed_rank(q.svd, H)
    top = np.linalg.svd(H, compute_uv=False)[0]
    sv = np.linalg.svd(N, compute_uv=False)
    return bool(np.count_nonzero(sv > q.svd.rank_tol * top) <= q.r - q.s)


def _planted_bouligand(rng, svd, r, member, tangent_scale):
    """U C V^T whose normal block has r - s unit singular values and one more, just above
    or below rank_tol * sigma_1(H), strictly between rank_tol * sigma_1(N) and
    rank_tol * ||H||_F."""
    m, n, s = svd.m, svd.n, svd.rank
    p = min(m, n) - s
    P = np.linalg.qr(rng.standard_normal((m - s, p)))[0]
    Q = np.linalg.qr(rng.standard_normal((n - s, p)))[0]
    d = np.zeros(p)
    d[: r - s] = 1.0
    C = tangent_scale * rng.standard_normal((m, n))
    C[s:, s:] = (P * d) @ Q.T
    top, fro = np.linalg.svd(C, compute_uv=False)[0], np.linalg.norm(C)
    d[r - s] = svd.rank_tol * ((1.0 + top) / 2 if member else (top + fro) / 2)
    C[s:, s:] = (P * d) @ Q.T
    return svd.u @ C @ svd.v.T


def test_compressed_bouligand_rule_matches_original_coordinates(rng):
    # tall, wide and s = 0 points; the planted normal spectra sit on both sides
    # of rank_tol * sigma_1(H), where neither sigma_1(N) nor ||H||_F would rank them
    for m, n, s, r in ((6, 4, 1, 3), (4, 6, 2, 3), (5, 5, 0, 2), (6, 3, 0, 2)):
        q = _query(rng, m, n, s, r)
        svd, k = q.svd, r - s
        drawn = [sample_tangent(rng, svd), sample_bouligand(rng, svd, r),
                 rng.standard_normal((m, n)), np.zeros((m, n)),
                 sample_bouligand(rng, svd, r) + 1e-3 * rng.standard_normal((m, n))]
        # sigma_1(H) = sigma_1(N) at s = 0, so there no undecided draw is a member
        members = (True, False) if s else (False,)
        planted = [_planted_bouligand(rng, svd, r, member, scale)
                   for member in members for scale in (1.0, 10.0) for _ in range(3)]
        want = [_reference_bouligand(q, h) for h in drawn + planted]
        assert [in_tangent_bouligand_Mr(q, h) for h in drawn + planted] == want
        assert want[len(drawn):] == [mb for mb in members for _ in range(6)]
        C = compress(svd, np.stack(planted))
        sv = np.linalg.svd(C[:, s:, s:], compute_uv=False)
        fro = np.linalg.norm(C, axis=(1, 2))[:, None]
        assert (np.count_nonzero(sv > svd.rank_tol * sv[:, :1], axis=1) > k).all()
        assert (np.count_nonzero(sv > svd.rank_tol * fro, axis=1) <= k).all()


def test_stacked_projection_validation(rng):
    q = _query(rng, 4, 3, 1, 2)
    bad = np.zeros((2, 4, 3))
    bad[1, 2, 2] = np.inf
    for project in (project_tangent_fixed_rank, project_normal_fixed_rank):
        with pytest.raises(ValueError):
            project(q.svd, bad)
        with pytest.raises(ValueError):
            project(q.svd, np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            project(q.svd, np.zeros(12))
    for H in (bad, np.zeros((2, 3, 4)), np.zeros(12)):
        with pytest.raises(ValueError):
            in_tangent_bouligand_Mr(q, H)


@pytest.mark.parametrize("m,n,r", [(6, 4, 2), (4, 6, 2), (5, 5, 3)])
@pytest.mark.parametrize("full", [False, True])
def test_tangent_coordinates_are_an_isometry_of_the_tangent_space(rng, m, n, r, full):
    s = r if full else 0
    svd = orient_svd(random_rank_matrix(rng, m, n, s))
    d_T = m * n - (m - s) * (n - s)
    Z = rng.standard_normal((2, 3, m, n))
    coords = tangent_coordinates(svd, Z)
    assert coords.shape == (2, 3, d_T)
    want = np.linalg.norm(project_tangent_fixed_rank(svd, Z), axis=(-2, -1))
    assert np.allclose(np.linalg.norm(coords, axis=-1), want, rtol=1e-12, atol=1e-12)
    for z, c in zip(Z.reshape(6, m, n), coords.reshape(6, d_T)):
        assert np.array_equal(tangent_coordinates(svd, z), c)
        assert np.allclose(compress(svd, z), svd.u.T @ z @ svd.v, atol=1e-12)
    with pytest.raises(ValueError):
        compress(svd, np.zeros((n, m + 1)))


@pytest.mark.parametrize("m,n,s", [(6, 4, 2), (4, 6, 0), (5, 5, 5), (3, 3, 1)])
def test_tangent_mask_is_built_once_and_read_only(rng, m, n, s):
    svd = orient_svd(random_rank_matrix(rng, m, n, s))
    mask = tangent_mask(svd)
    i, j = np.indices((m, n))
    assert mask.dtype == bool and np.array_equal(mask, (i < s) | (j < s))
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]
    assert tangent_mask(orient_svd(random_rank_matrix(rng, m, n, s))) is mask
