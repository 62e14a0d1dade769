import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoa import AffineMap
from rankmoa.linalg import StackSVD, _full_row_rank, rank_estimate
from rankmoa.problems import hankel_constraints


def test_apply_hankel_feasible_target(hankel_case):
    spec, points = hankel_case
    assert np.allclose(spec.affine.apply(points["Xbar"]), np.zeros(4))
    assert spec.affine.residual(points["Xbar"]) == 0.0


def test_apply_lrr_row_sums(lrr_case):
    spec = lrr_case(4)
    wbar = np.full((4, 4), 0.25)
    assert np.allclose(spec.affine.apply(wbar), np.ones(4))
    assert np.isclose(spec.affine.residual(np.zeros((4, 4))), 2.0)  # sqrt(N)


def test_empty_map():
    amap = AffineMap([], [], shape=(2, 2))
    assert amap.apply(np.eye(2)).shape == (0,)
    assert amap.residual(np.eye(2)) == 0.0
    assert len(amap.kernel_basis()) == 4


def test_adjoint_unit_and_zero(hankel_case):
    spec, _ = hankel_case
    amap = spec.affine
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.allclose(amap.adjoint(e0), amap.mats[0])
    assert np.allclose(amap.adjoint(np.zeros(4)), np.zeros((3, 3)))


def test_adjoint_lrr_all_rows(lrr_case):
    spec = lrr_case(5)
    out = spec.affine.adjoint(-np.ones(5) / 5.0)
    assert np.allclose(out, np.full((5, 5), -0.2))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))
def test_adjoint_identity(l, m, n, seed):
    rng = np.random.default_rng(seed)
    amap = AffineMap([rng.standard_normal((m, n)) for _ in range(l)],
                     rng.standard_normal(l) if l else [], shape=(m, n))
    y = rng.standard_normal(l) if l else np.zeros(0)
    xi = rng.standard_normal((m, n))
    lhs = float(np.tensordot(amap.adjoint(y), xi))
    rhs = float(y @ amap.apply(xi)) if l else 0.0
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_kernel_basis_hankel_dimension(hankel_case):
    spec, _ = hankel_case
    basis = spec.affine.kernel_basis()
    assert len(basis) == 5  # free anti-diagonals of a 3x3 Hankel matrix
    for k in basis:
        assert np.linalg.norm(spec.affine.apply(k)) <= 1e-10
    G = np.array([[float(np.tensordot(a, b)) for b in basis] for a in basis])
    assert np.allclose(G, np.eye(5), atol=1e-10)


def test_kernel_basis_trace_constraint(trace_case):
    spec, _ = trace_case
    assert len(spec.affine.kernel_basis()) == 15


def test_kernel_dimension_plus_rank(rng):
    for _ in range(10):
        m, n = rng.integers(2, 5, size=2)
        l = int(rng.integers(0, 6))
        mats = [rng.standard_normal((m, n)) for _ in range(l)]
        if l >= 2 and rng.random() < 0.5:
            mats[-1] = 2.0 * mats[0]  # force a dependent row
        amap = AffineMap(mats, np.zeros(l), shape=(m, n))
        assert len(amap.kernel_basis()) + amap.stack_rank() == m * n


def _stack_draw(rng, kind, l, m, n):
    """An (l, m, n) constraint stack of one of the kinds stack_rank must rank."""
    S = rng.standard_normal((l, m * n))
    if kind == "near-dependent" and l >= 2:
        S[-1] = S[0] + 10.0 ** rng.uniform(-12, -1) * rng.standard_normal(m * n)
    elif kind == "dependent" and l >= 2:
        S[-1] = 3.0 * S[0]
    elif kind == "row-scaled":
        S *= 10.0 ** rng.uniform(-9, 9, size=(l, 1))
    elif kind == "overall-scaled":
        S *= 10.0 ** rng.uniform(-300, 300)
    elif kind == "graded" and l:
        k = min(l, m * n)
        u, _ = np.linalg.qr(rng.standard_normal((l, k)))
        v, _ = np.linalg.qr(rng.standard_normal((m * n, k)))
        S = (u * 10.0 ** rng.uniform(-10, 0, size=k)) @ v.T
    return S.reshape(l, m, n)


def _spy_factorizations(monkeypatch, shapes):
    """Append the shape of every system StackSVD factors to shapes."""
    init = StackSVD.__init__

    def spy(self, S):
        shapes.append(S.shape)
        init(self, S)
    monkeypatch.setattr(StackSVD, "__init__", spy)


def test_stack_rank_equals_rank_estimate(rng, monkeypatch):
    # the Cholesky certificate only answers when the SVD rank is l, so
    # stack_rank must equal rank_estimate on every kind of stack, including
    # l = 0 and l > m*n; the spy shows how often it answered without an SVD
    # (a fresh map per question, so the map's cached SVD hides none)
    ranked = []
    _spy_factorizations(monkeypatch, ranked)
    kinds = ("generic", "near-dependent", "dependent", "row-scaled", "overall-scaled",
             "graded")
    asked = 0
    for draw in range(300):
        m, n = (int(k) for k in rng.integers(1, 5, size=2))
        l = int(rng.integers(0, m * n + 3))
        mats = _stack_draw(rng, kinds[draw % len(kinds)], l, m, n)
        for tol in (1e-8, 1e-3, 0.3):
            asked += 1
            amap = AffineMap(mats, np.zeros(l), shape=(m, n))
            assert amap.stack_rank(tol) == rank_estimate(amap.stack, tol)
    assert 0 < len(ranked) < asked


def test_stack_rank_certifies_hankel_stacks_without_an_svd(monkeypatch):
    monkeypatch.setattr(StackSVD, "__init__",
                        lambda *a: pytest.fail("full row rank should be certified"))
    for N in (3, 8, 16):
        assert hankel_constraints(N, N).stack_rank() == (N - 1) ** 2


def test_wide_stacks_hold_no_square_factor(rng):
    # a 3 x 2000 stack and an unconstrained 0 x 2000 one: the pseudo-inverse and
    # the full multiplier fit read thin factors, O(l * mn) numbers; a 2000 x 2000
    # vh would take 32 MB
    import tracemalloc
    m, n = 40, 50
    W = rng.standard_normal((m, n))
    for l in (3, 0):
        amap = AffineMap(rng.standard_normal((l, m, n)), np.zeros(l), shape=(m, n))
        tracemalloc.start()
        try:
            pinv = amap.stack_pinv
            y, resid = amap.fit_multiplier(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pinv.shape == (m * n, l) and y.shape == (l,)
        assert peak < (m * n) ** 2 * 8 / 20
        assert np.allclose(pinv, np.linalg.pinv(amap.stack))
        if l == 0:
            assert resid == pytest.approx(np.linalg.norm(W))


def test_full_row_rank_refuses_what_it_cannot_prove():
    eye = np.eye(3, 4)
    assert _full_row_rank(eye, 1e-8)
    assert not _full_row_rank(np.zeros((0, 4)), 1e-8)  # no rows
    assert not _full_row_rank(np.eye(4, 3), 1e-8)  # more rows than columns
    assert not _full_row_rank(np.zeros((2, 4)), 1e-8)
    assert not _full_row_rank(eye, 0.5)  # sigma_l > sigma_1 is impossible
    assert not _full_row_rank(eye, float("nan"))
    assert _full_row_rank(1e300 * eye, 1e-8) and _full_row_rank(1e-300 * eye, 1e-8)


def test_normal_space_member(hankel_case):
    spec, _ = hankel_case
    amap = spec.affine
    ok, y = amap.normal_space_member(amap.mats[0])
    assert ok
    assert np.allclose(amap.adjoint(y), amap.mats[0], atol=1e-8)
    k = amap.kernel_basis()[0]
    ok, y = amap.normal_space_member(k)
    assert not ok and y is None
    # the Hankel normal matrices all have zero diagonal pattern
    e3 = np.zeros((3, 3))
    e3[2, 2] = 1.0
    assert amap.normal_space_member(e3)[0] is False


def test_shape_validation():
    with pytest.raises(ValueError):
        AffineMap([np.eye(2), np.eye(3)], [0.0, 0.0])
    with pytest.raises(ValueError):
        AffineMap([], [])
    with pytest.raises(ValueError):
        AffineMap([np.eye(2)], [0.0, 1.0])
    amap = AffineMap([np.eye(2)], [1.0])
    with pytest.raises(ValueError):
        amap.apply(np.eye(3))
    with pytest.raises(ValueError):
        amap.adjoint([1.0, 2.0])


def test_constraints_are_one_read_only_array():
    rng = np.random.default_rng(0)
    given = [rng.standard_normal((3, 2)) for _ in range(4)]
    amap = AffineMap(given, np.zeros(4))
    assert amap.mats.shape == (4, 3, 2) and amap.stack.shape == (4, 6)
    assert np.shares_memory(amap.stack, amap.mats)
    with pytest.raises(ValueError):
        amap.mats[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        amap.stack[0, 0] = 1.0
    # the map holds a copy: the caller's arrays stay writable and unshared
    for a, b in zip(given, amap.mats):
        assert a.flags.writeable and not np.shares_memory(a, amap.mats)
        assert np.array_equal(a, b)
    one = np.stack(given)
    assert not np.shares_memory(one, AffineMap(one, np.zeros(4)).mats)
    assert one.flags.writeable
    empty = AffineMap([], [], shape=(3, 2))
    assert empty.mats.shape == (0, 3, 2) and empty.stack.shape == (0, 6)
    with pytest.raises(ValueError):
        AffineMap([np.eye(2), np.eye(3)], [0.0, 0.0])
    with pytest.raises(ValueError):
        AffineMap([np.eye(2), np.ones((2, 3))], [0.0, 0.0])


def test_hankel_constraints_count():
    amap = hankel_constraints(4, 5)
    assert amap.l == 12
    assert amap.shape == (4, 5)


def test_tangential_fit_solves_in_tangent_coordinates(monkeypatch):
    # rank-2 Hankel point of size 16: d_T = 256 - 14 * 14 = 60 tangent directions
    from rankmoa import FrobeniusDistance, ProblemSpec, RankBound
    from rankmoa.stationarity import PointAnalysis
    v = np.vander([0.6, -0.8], 16, increasing=True)
    X = v.T @ np.diag([1.0, 0.5]) @ v
    rng = np.random.default_rng(0)
    prob = ProblemSpec(FrobeniusDistance(X + rng.standard_normal((16, 16))),
                       hankel_constraints(16, 16), RankBound(2))
    shapes = []
    _spy_factorizations(monkeypatch, shapes)
    solve = StackSVD.solve

    def spy(self, t, rank_tol):
        shapes.append(np.shape(t))
        return solve(self, t, rank_tol)

    monkeypatch.setattr(StackSVD, "solve", spy)
    pa = PointAnalysis(prob, X)
    assert pa.feasible and pa.s == 2
    y, resid = pa.multiplier(tangential=True)
    assert shapes == [(225, 60), (60,)]
    assert np.isclose(resid, pa.at(y).tangential, rtol=1e-10, atol=1e-12)
