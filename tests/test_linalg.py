import numpy as np
import pytest
import scipy.linalg

from rankmoa import linalg
from rankmoa import (ProblemSpec, RankBound, build_trace_example, orient_svd,
                     project_low_rank, pseudo_inverse, rank_estimate, spectral_norm, thin_svd)

from conftest import random_rank_matrix


def _check_factorization(X, f):
    m, n = X.shape
    assert np.linalg.norm(f.u @ f.u.T - np.eye(m)) <= 1e-10
    assert np.linalg.norm(f.v @ f.v.T - np.eye(n)) <= 1e-10
    scale = max(1.0, np.linalg.norm(X))
    assert np.linalg.norm(f.reconstruct() - X) <= 1e-10 * scale
    assert np.all(np.diff(f.sigma) <= 1e-12)
    # gamma is the prefix of singular values above the relative cutoff
    assert np.array_equal(f.gamma, np.arange(f.rank))
    assert np.all(f.sigma[: f.rank] > f.threshold)
    assert np.all(f.sigma[f.rank :] <= f.threshold)


def test_thin_svd_rank_one_outer_product():
    X = np.zeros((3, 3))
    X[0, 1] = 1.0  # e1 e2^T
    f = thin_svd(X)
    _check_factorization(X, f)
    assert np.allclose(f.sigma, [1.0, 0.0, 0.0])
    assert f.rank == 1


def test_thin_svd_zero_matrix():
    f = thin_svd(np.zeros((4, 3)))
    assert f.rank == 0
    assert f.gamma.size == 0
    _check_factorization(np.zeros((4, 3)), f)


def test_thin_svd_hankel_target(hankel_case):
    _, points = hankel_case
    f = thin_svd(points["Xbar"])
    assert np.allclose(f.sigma, [112.5, 0.5, 0.0], atol=1e-9)
    assert f.rank == 2


def test_thin_svd_random_shapes(rng):
    for m, n in [(5, 3), (3, 5), (4, 4), (6, 2)]:
        X = rng.standard_normal((m, n))
        _check_factorization(X, thin_svd(X))


def test_thin_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        thin_svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        thin_svd(np.ones(3))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            thin_svd(np.eye(2), rank_tol=bad)
        with pytest.raises(ValueError):  # NaN used to report rank 0
            orient_svd(np.diag([3.0, 2.0, 0.0]), bad)


def test_orient_sign_pushed_to_v():
    X = np.zeros((3, 3))
    X[0, 0] = -1.0  # -e1 e1^T
    f = orient_svd(X)
    assert np.allclose(f.u[:, 0], [1, 0, 0])
    assert np.allclose(f.v[:, 0], [-1, 0, 0])
    _check_factorization(X, f)


def test_orient_diagonal_is_identity():
    f = orient_svd(np.diag([2.0, 1.0]))
    assert np.allclose(f.u, np.eye(2))
    assert np.allclose(f.v, np.eye(2))


def test_orient_hankel_matches_hand_basis(hankel_case):
    # cross-checked against an independent routine and the closed form:
    # u1 = (a, b, 0), u2 = (-b, a, 0) with a = sqrt(112.5/113), b = sqrt(0.5/113)
    _, points = hankel_case
    f = orient_svd(points["Xbar"])
    a = np.sqrt(112.5 / 113.0)
    b = np.sqrt(0.5 / 113.0)
    assert np.allclose(f.u[:, 0], [a, b, 0], atol=1e-12)
    assert np.allclose(f.u[:, 1], [-b, a, 0], atol=1e-12)
    assert np.allclose(np.abs(f.u[:, 2]), [0, 0, 1], atol=1e-12)
    u2, s2, vh2 = scipy.linalg.svd(points["Xbar"])
    assert np.allclose(f.sigma, s2, atol=1e-9)
    for k in range(3):
        assert min(np.linalg.norm(f.u[:, k] - u2[:, k]),
                   np.linalg.norm(f.u[:, k] + u2[:, k])) <= 1e-9


def test_orient_convention_on_every_column(rng):
    # integer matrices give ties in |entry|; the first largest entry decides
    mats = []
    for _ in range(20):
        m, n = rng.integers(2, 6, size=2)
        mats.append(rng.standard_normal((m, n)))
        mats.append(rng.integers(-1, 2, size=(m, n)).astype(float))
    for X in mats:
        m, n = X.shape
        k = min(m, n)
        f = orient_svd(X)
        # every u column, and the v columns beyond min(m, n), on their own
        for a, cols in ((f.u, range(m)), (f.v, range(k, n))):
            for j in cols:
                i = int(np.argmax(np.abs(a[:, j])))
                assert a[i, j] >= 0
        # paired v columns carry the sign of their u column
        raw = thin_svd(X)
        flip = np.sign(np.sum(f.u * raw.u, axis=0))
        assert np.array_equal(f.u, raw.u * flip)
        assert np.array_equal(f.v[:, :k], raw.v[:, :k] * flip[:k])
        # C-ordered factors keep downstream products rounding the same way
        assert f.u.flags.c_contiguous and f.v.flags.c_contiguous
        _check_factorization(X, f)


def test_pseudo_inverse_diagonal():
    f = thin_svd(np.diag([2.0, 4.0]))
    assert np.allclose(pseudo_inverse(f), np.diag([0.5, 0.25]))


def test_pseudo_inverse_zero():
    assert np.allclose(pseudo_inverse(thin_svd(np.zeros((3, 2)))), np.zeros((2, 3)))


def test_pseudo_inverse_penrose_identities(hankel_case, rng):
    _, points = hankel_case
    mats = [points["Xbar"]] + [rng.standard_normal((4, 3)) for _ in range(5)]
    for X in mats:
        P = pseudo_inverse(thin_svd(X))
        assert np.linalg.norm(X @ P @ X - X) <= 1e-9 * max(1, np.linalg.norm(X))
        assert np.linalg.norm(P @ X @ P - P) <= 1e-9 * max(1, np.linalg.norm(P))
        assert np.allclose(pseudo_inverse(thin_svd(X)), np.linalg.pinv(X), atol=1e-9)


def test_project_low_rank_diagonal():
    P, tie = project_low_rank(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(P, np.diag([3.0, 2.0, 0.0]))
    assert not tie


def test_project_low_rank_tie_on_identity():
    P, tie = project_low_rank(np.eye(3), 2)
    assert tie
    assert rank_estimate(P) == 2
    assert abs(np.linalg.norm(np.eye(3) - P) - 1.0) <= 1e-12


def test_project_low_rank_gradient_step_returns_fixed_point(trace_case):
    # X4 minus the full Lagrangian gradient at y = -2/3 projects back to X4
    _, points = trace_case
    X4 = points["X4"]
    Z = X4.copy()
    Z[2, 2] = -1.0 / 3.0
    P, tie = project_low_rank(Z, 3)
    assert not tie
    assert np.allclose(P, X4, atol=1e-12)


def test_project_low_rank_range_errors():
    with pytest.raises(ValueError):
        project_low_rank(np.eye(3), 4)
    with pytest.raises(ValueError):
        project_low_rank(np.eye(3), -1)


def test_project_low_rank_accepts_rank_bound_record():
    P, _ = project_low_rank(np.diag([3.0, 2.0, 1.0]), RankBound(1))
    assert rank_estimate(P) == 1


def test_rank_bound_validation():
    with pytest.raises(ValueError):
        RankBound(-1)
    assert RankBound(np.int64(2)).r == 2 and type(RankBound(np.int64(2)).r) is int


def test_every_rank_bound_goes_through_rank_bound():
    # no bound is truncated (2.7 is not 2) or read from a boolean (True is not 1)
    spec = build_trace_example()[0]
    for bad in (2.7, True, np.bool_(True), "2", None, np.nan):
        with pytest.raises(ValueError, match="rank bound must be a nonnegative integer"):
            RankBound(bad)
        with pytest.raises(ValueError, match="rank bound must be a nonnegative integer"):
            project_low_rank(np.diag([3.0, 2.0, 1.0]), bad)
        with pytest.raises(ValueError, match="rank bound must be a nonnegative integer"):
            ProblemSpec(spec.objective, spec.affine, bad)
    assert ProblemSpec(spec.objective, spec.affine, np.int64(2)).r == 2
    with pytest.raises(ValueError):
        RankBound(3).check_shape(4, 3)
    RankBound(2).check_shape(4, 3)


def test_eckart_young_sampling(rng):
    for _ in range(40):
        m, n = rng.integers(2, 7, size=2)
        r = int(rng.integers(1, min(m, n)))
        Z = rng.standard_normal((m, n))
        P, _ = project_low_rank(Z, r)
        best = np.linalg.norm(Z - P)
        for _ in range(50):
            Y = random_rank_matrix(rng, m, n, r, scale=np.abs(Z).max())
            assert best <= np.linalg.norm(Z - Y) + 1e-9


def test_projection_idempotent(rng):
    for _ in range(20):
        m, n = rng.integers(2, 6, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        Z = rng.standard_normal((m, n))
        P, _ = project_low_rank(Z, r)
        P2, _ = project_low_rank(P, r)
        assert np.linalg.norm(P2 - P) <= 1e-10 * max(1.0, np.linalg.norm(P))
        assert rank_estimate(P) <= r


def test_spectral_norm_and_rank_estimate(hankel_case, trace_case):
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert rank_estimate(np.zeros((3, 3))) == 0
    # Lagrangian gradient of the trace instance at (X4, y=-2/3) is e3 e3^T / 3
    _, points = trace_case
    G = np.zeros((4, 4))
    G[2, 2] = 1.0 / 3.0
    assert abs(spectral_norm(G) - 1.0 / 3.0) <= 1e-15
    _, hpoints = hankel_case
    assert abs(spectral_norm(hpoints["Xbar"]) - 112.5) <= 1e-9
    assert rank_estimate(hpoints["Xbar"]) == 2


def test_project_low_rank_matches_oriented_truncation(rng):
    # the projection is bitwise the truncation of the sign-oriented factors
    for m, n in ((7, 6), (4, 5), (3, 3)):
        k = min(m, n)
        mats = [np.eye(m, n)] + [rng.standard_normal((m, n)) for _ in range(5)]
        for i, Z in enumerate(mats):
            for r in range(k + 1):
                P, tie = project_low_rank(Z, r)
                assert isinstance(tie, bool)
                if i == 0:  # sigma_r = sigma_{r+1}: a tie for every 0 < r < k
                    assert tie == (0 < r < k)
                f = orient_svd(Z)
                kept = f.sigma.copy()
                kept[r:] = 0.0
                assert np.array_equal(P, (f.u[:, :k] * kept) @ f.v[:, :k].T)


def test_project_low_rank_stack_validation():
    with pytest.raises(ValueError):
        project_low_rank(np.ones(3), 1)
    with pytest.raises(ValueError, match="2-d"):  # one matrix, never a stack
        project_low_rank(np.zeros((2, 3, 3)), 1)
    bad = np.zeros((2, 3, 3))
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        project_low_rank(bad, 1)
    with pytest.raises(ValueError):
        project_low_rank(np.zeros((2, 3, 3)), 4)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            project_low_rank(np.eye(3), 1, rank_tol=bad)


def _reference_truncation(Z, r):
    """np.linalg.svd's thin factors, then the product over all min(m, n) triplets."""
    u, s, vh = np.linalg.svd(Z, full_matrices=False)
    kept = s.copy()
    kept[..., r:] = 0.0
    return (u * kept[..., None, :]) @ vh, s


def _check_truncation(Z, r):
    P, sigma = linalg._truncate(Z, r)
    ref, s = _reference_truncation(Z, r)
    k = min(Z.shape[-2:])
    assert P.shape == Z.shape and np.array_equal(sigma, s)
    # the same factors as numpy's, truncated to r columns
    u, _, vh = np.linalg.svd(Z, full_matrices=False)
    assert np.array_equal(P, (u[..., :r] * s[..., None, :r]) @ vh[..., :r, :])
    if r in (0, 1, k) or k < 16:
        assert np.array_equal(P, ref)
    else:
        # BLAS sums an inner dimension of 16 or more in blocks, so a 2..15-wide
        # product can round differently from the k-wide one in the last bits
        assert np.allclose(P, ref, rtol=0.0, atol=1e-13 * max(1.0, np.abs(ref).max()))


def test_truncation_kernel_matches_numpy_svd_bitwise(rng):
    shapes = [(1, 1), (1, 5), (5, 1), (3, 3), (8, 6), (6, 8), (15, 15), (16, 16),
              (40, 12), (12, 40), (40, 40)]
    shapes += [tuple(int(x) for x in rng.integers(1, 41, size=2)) for _ in range(40)]
    for m, n in shapes:
        k = min(m, n)
        Z = rng.standard_normal((m, n))
        for r in sorted({0, 1, k // 2, max(k - 1, 0), k} & set(range(k + 1))):
            _check_truncation(Z, r)
    # empty matrices take numpy's path: nothing to keep
    for shape in ((0, 3), (3, 0)):
        P, sigma = linalg._truncate(np.zeros(shape), 0)
        assert P.shape == shape and sigma.shape == (0,)


def test_truncation_fallback_matches_gufunc_bitwise(rng, monkeypatch):
    # a NumPy without the svd_s gufunc takes np.linalg.svd; its factors are the same bits
    shapes = [(7, 4), (4, 7), (5, 5), (16, 16), (30, 9), (9, 30)]
    cases = [(rng.standard_normal(shape), r) for shape in shapes
             for r in range(min(shape) + 1)]
    fast = [linalg._truncate(Z, r) for Z, r in cases]
    monkeypatch.setattr(linalg, "_svd_thin", None)
    for (Z, r), (P, sigma) in zip(cases, fast):
        P_np, sigma_np = linalg._truncate(Z, r)
        assert np.array_equal(P_np, P) and np.array_equal(sigma_np, sigma)


def test_truncation_kernel_raises_when_lapack_fails(monkeypatch):
    # when dgesdd fails, numpy's SVD gufunc fills all three outputs with NaN
    def failing(a, **kwargs):
        m, n = a.shape
        k = min(m, n)
        return np.full((m, k), np.nan), np.full(k, np.nan), np.full((k, n), np.nan)

    monkeypatch.setattr(linalg, "_svd_thin", failing)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        linalg._truncate(np.eye(3), 2)
    with pytest.raises(np.linalg.LinAlgError):
        project_low_rank(np.eye(3), 2)


def test_null_space_matches_scipy_bitwise(rng):
    from rankmoa.problems import hankel_constraints
    cases = [rng.standard_normal(shape)
             for shape in ((0, 5), (5, 0), (0, 0), (1, 1), (3, 5), (5, 3), (4, 9), (9, 9))]
    A = rng.standard_normal((3, 8))
    cases.append(np.vstack([A, A[0] + A[1]]))  # a dependent row: the kernel grows by one
    cases.append(np.zeros((2, 4)))
    cases.append(hankel_constraints(7, 7).stack)  # 36 x 49, a 13-dimensional kernel
    # l >= N takes the thin SVD, whose vh is the full one's
    cases += [rng.standard_normal((225, 60)), rng.standard_normal((81, 64))]
    for A in cases:
        Q, ref = linalg.StackSVD(A).kernel(), scipy.linalg.null_space(A)
        assert Q.shape == ref.shape and np.array_equal(Q, ref)
        if A.size:
            # the same view of a Fortran-ordered vh, so later products round alike
            assert Q.strides == ref.strides


@pytest.mark.parametrize("shape", [(0,), (1,), (4,), (7,), (3, 0), (3, 4), (2, 3, 5)])
@pytest.mark.parametrize("given_top", [False, True])
def test_rank_count_matches_the_axis_count(rng, shape, given_top):
    # _rank on each row of sigma against one axis count over all the rows
    sigma = -np.sort(-rng.random(shape) * rng.choice([1e-10, 1.0], size=shape), axis=-1)
    if shape[-1] > 1:
        sigma[..., -1] = 1e-12  # one value below any cutoff
    top = rng.random(shape[:-1]) if given_top else None
    ref = top if given_top else (sigma[..., 0] if shape[-1] else np.zeros(shape[:-1]))
    want = np.count_nonzero(sigma > 1e-8 * ref[..., None], axis=-1)
    for idx in np.ndindex(shape[:-1]):
        got = linalg._rank(sigma[idx], 1e-8, None if top is None else top[idx])
        assert got == want[idx]
