import numpy as np
import pytest

from rankmoa import (AffineMap, FrobeniusDistance, ProblemSpec, RankBound, bq_certificates,
                     build_diagonal_example, build_hankel_example, build_lrr,
                     build_trace_example, orient_svd)
from rankmoa.qualification import CASE_NOT_CERTIFIED


@pytest.fixture(scope="session")
def hankel_case():
    spec, points = build_hankel_example()
    return spec, points


@pytest.fixture(scope="session")
def trace_case():
    spec, points = build_trace_example()
    return spec, points


@pytest.fixture(scope="session")
def diagonal_case():
    spec, points = build_diagonal_example()
    return spec, points


@pytest.fixture(scope="session")
def lrr_case():
    def make(n, r=2):
        return build_lrr([np.eye(n) for _ in range(n)], r)
    return make


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_rank_matrix(rng, m, n, rank, scale=1.0):
    """Random m x n matrix of exact rank with singular values in [1, 2]*scale."""
    if rank == 0:
        return np.zeros((m, n))
    u, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    s = scale * (1.0 + rng.random(rank))
    return (u * s) @ v.T


def rank_zero_problem(l, seed=0):
    """A 3 x 4 Frobenius problem with rank bound 0 and l random constraints, b = 0."""
    rng = np.random.default_rng(seed)
    amap = AffineMap(rng.standard_normal((l, 3, 4)), np.zeros(l), shape=(3, 4))
    return ProblemSpec(FrobeniusDistance(rng.standard_normal((3, 4))), amap, RankBound(0))


def certified_instance(rng):
    """Random (svd, amap, r) with a certified intersection-rule case."""
    for _ in range(50):
        m, n = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        r = int(rng.integers(1, min(m, n)))
        full = bool(rng.integers(0, 2))
        s = r if full else int(rng.integers(0, r))
        X = random_rank_matrix(rng, m, n, s)
        svd = orient_svd(X)
        l = int(rng.integers(1, min(4, m * s + 1) if s else 2))
        mats = [rng.standard_normal((m, n)) for _ in range(l)]
        amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats],
                         shape=(m, n))
        rep = bq_certificates(svd, amap, r)
        if rep.intersection_rule_case != CASE_NOT_CERTIFIED:
            return svd, amap, r
    raise AssertionError("failed to draw a certified instance")


def planted_curvature(X, dirs, weights):
    """f(Y) = 0.5 ||Y - X||^2 - 0.5 sum_j w_j <D_j, Y - X>^2: stationary at X with
    hess f = I - sum_j w_j D_j D_j^T, so unit D_j carry curvature 1 - w_j."""
    from rankmoa.model import CustomObjective
    dirs, weights = np.asarray(dirs, dtype=float), np.asarray(weights, dtype=float)

    def hess(Y, Xi):
        return Xi - np.tensordot(weights * np.tensordot(dirs, Xi, 2), dirs, 1)
    return CustomObjective("planted-curvature", X.shape,
                           value_fn=lambda Y: 0.5 * float(np.tensordot(hess(Y, Y - X), Y - X)),
                           grad_fn=lambda Y: hess(Y, Y - X), hess_apply_fn=hess)
