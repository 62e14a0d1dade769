import warnings

import numpy as np
import pytest

from rankmoa import FrobeniusDistance, LinearTrace, RowQuadratic
from rankmoa.model import CustomObjective
from rankmoa.oracle import (curvature_replay, diag_embedding_equivalence, fd_gradient,
                            fd_quad, planted_saddle, projection_cross_check,
                            rank1_hankel_min, run_suite, saddle_3x3)


def test_fd_gradient_frobenius(rng):
    H = rng.standard_normal((3, 4))
    obj = FrobeniusDistance(H)
    X = rng.standard_normal((3, 4))
    assert np.linalg.norm(fd_gradient(obj, X) - (X - H)) <= 1e-6


def test_fd_quad_linear_trace_is_flat(rng):
    obj = LinearTrace(rng.standard_normal((3, 3)))
    X = rng.standard_normal((3, 3))
    Xi = rng.standard_normal((3, 3))
    assert abs(fd_quad(obj, X, Xi)) <= 1e-6


def test_fd_matches_row_quadratic(rng):
    mats = [rng.standard_normal((4, 4)) for _ in range(4)]
    obj = RowQuadratic(mats)
    X = rng.standard_normal((4, 4))
    Xi = rng.standard_normal((4, 4))
    g = obj.grad(X)
    assert np.linalg.norm(fd_gradient(obj, X) - g) <= 1e-5 * max(1, np.linalg.norm(g))
    q = obj.hess_quad(X, Xi)
    assert abs(fd_quad(obj, X, Xi) - q) <= 1e-5 * max(1, abs(q))


def test_fd_on_nonquadratic_custom(rng):
    obj = CustomObjective(
        "logcosh", (3, 3),
        value_fn=lambda X: float(np.sum(np.log(np.cosh(X)))),
        grad_fn=lambda X: np.tanh(X),
        hess_apply_fn=lambda X, Xi: Xi / np.cosh(X) ** 2,
    )
    X = 0.3 * rng.standard_normal((3, 3))
    Xi = rng.standard_normal((3, 3))
    assert np.linalg.norm(fd_gradient(obj, X) - obj.grad(X)) <= 1e-6
    assert abs(fd_quad(obj, X, Xi) - obj.hess_quad(X, Xi)) <= 1e-5 * max(
        1.0, abs(obj.hess_quad(X, Xi)))


def test_projection_cross_check_values(rng):
    assert projection_cross_check(np.diag([3.0, 2.0, 1.0]), 2) == 0.0
    for _ in range(10):
        Z = rng.standard_normal((5, 4))
        assert projection_cross_check(Z, 2) <= 1e-8
    # tie: compares achieved distances instead of the representatives
    assert projection_cross_check(np.eye(3), 2) <= 1e-12


def test_rank1_hankel_min_on_example_target(hankel_case):
    spec, points = hankel_case
    H = spec.objective.target
    v_lines, x_lines = rank1_hankel_min(H, family="lines")
    assert abs(v_lines - (56.25 + 0.5e-12)) <= 1e-9
    assert np.allclose(x_lines, points["Xtilde"], atol=1e-9)
    v_full, x_full = rank1_hankel_min(H, family="full")
    # the geometric family c*(1,q,q^2)(1,q,q^2)^T dips far below the lines
    assert v_full < 0.5
    assert v_full > 0.25
    f_xbar = spec.objective.value(points["Xbar"])
    assert f_xbar < v_full
    assert np.linalg.matrix_rank(x_full, tol=1e-8) == 1
    assert spec.affine.residual(x_full) <= 1e-8  # still Hankel


def test_rank1_hankel_min_exact_recovery():
    v, X = rank1_hankel_min(np.ones((3, 3)))
    assert v <= 1e-12 and np.allclose(X, np.ones((3, 3)), atol=1e-6)
    e3 = np.zeros((3, 3))
    e3[2, 2] = 1.0
    v, X = rank1_hankel_min(e3)
    assert v <= 1e-12 and np.allclose(X, e3, atol=1e-9)
    geom = np.outer([1.0, 0.5, 0.25], [1.0, 0.5, 0.25])
    v, X = rank1_hankel_min(3.0 * geom)
    assert v <= 1e-10 and np.allclose(X, 3.0 * geom, atol=1e-5)


@pytest.mark.parametrize("q", [12.0, 20.0, -50.0])
def test_rank1_hankel_min_recovers_planted_targets_at_any_ratio(q):
    u = np.array([1.0, q, q * q])
    H = 3.0 * np.outer(u, u)
    v, _ = rank1_hankel_min(H)
    assert v <= 1e-12 * max(1.0, float(np.sum(H * H)))


def _rank1_hankel_sweep(H, points=200001):
    """min over a dense sweep of u = (cos^2, sin cos, sin^2)(theta), theta in [-pi/2, pi/2].

    That is (1, q, q^2) scaled by cos^2 theta at q = tan theta, so the sweep
    covers all of R and, at theta = +-pi/2, the e3 e3^T line.
    """
    theta = np.linspace(-np.pi / 2, np.pi / 2, points)
    c, s = np.cos(theta), np.sin(theta)
    U = np.stack([c * c, s * c, s * s], axis=1)
    p = np.einsum("ki,ij,kj->k", U, H, U)
    w = np.sum(U * U, axis=1)
    # the best c on u u^T leaves 0.5 (||H||^2 - <H, u u^T>^2 / ||u u^T||^2); the
    # three lines' terms follow
    best = max(float(np.max(p * p / (w * w))), H[0, 0] ** 2, H[2, 2] ** 2, np.sum(H) ** 2 / 9)
    return 0.5 * (float(np.sum(H * H)) - best)


def test_rank1_hankel_min_is_global_against_a_dense_sweep():
    rng = np.random.default_rng(5)
    for trial in range(40):
        G = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-2, 2)
        H = G + G.T if trial % 2 else G
        v, X = rank1_hankel_min(H)
        tol = 1e-12 * max(1.0, float(np.sum(H * H)))
        assert v <= _rank1_hankel_sweep(H) + tol
        assert abs(0.5 * float(np.sum((H - X) ** 2)) - v) <= tol


def test_rank1_hankel_min_survives_a_negligible_corner():
    # a corner entry of 1e-200 leads or ends the stationary polynomial with a
    # coefficient near 1e-200, which left alone breaks its companion matrix
    for H in (np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1e-200]]),
              np.array([[1e-200, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 1.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, _ = rank1_hankel_min(H)
        assert v <= _rank1_hankel_sweep(H) + 1e-12


def test_rank1_hankel_min_validation():
    with pytest.raises(ValueError):
        rank1_hankel_min(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        rank1_hankel_min(np.zeros((3, 3)), family="bogus")


def test_diag_embedding_trivial_and_off_pattern():
    assert diag_embedding_equivalence([], np.zeros(4), 2)
    x = np.array([1.0, 0.0, 0.0])
    assert diag_embedding_equivalence([np.array([0.0, 0.0, 1.0])], x, 1)
    with pytest.raises(ValueError):
        diag_embedding_equivalence([], np.ones(3), 2)  # support above bound


def test_run_suites_pass():
    for name in ("fd", "projection", "hankel-rank1", "diag-embed"):
        ok, lines = run_suite(name, seed=0)
        assert ok, f"suite {name} failed:\n" + "\n".join(lines)
        assert lines
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_curvature_suite_is_deterministic_and_fails_under_the_opposite_sign(monkeypatch):
    ok, lines = run_suite("curvature")
    assert ok and len(lines) == 9
    assert run_suite("curvature") == (ok, lines)
    # negating grad L flips the sign of the form's curvature term
    from rankmoa import second_order
    gram_form = second_order._gram_form

    def flipped(objective, X, B, gradL=None, pinv=None):
        return gram_form(objective, X, B, None if gradL is None else -gradL, pinv)
    monkeypatch.setattr(second_order, "_gram_form", flipped)
    ok, lines = run_suite("curvature")
    assert not ok
    # only the Hankel point, where grad L is 1e-6, cannot tell the signs apart
    assert [line.split(":")[0] for line in lines if line.startswith("ok")] == [
        "ok   3x3 Hankel Xbar"]


def test_curvature_replay_finds_the_saddles_descent():
    rng = np.random.default_rng(3)
    for prob, X, y in (saddle_3x3(), planted_saddle(rng, 4, 1, 2)):
        got = curvature_replay(prob, X, y, rng)
        assert got["replay_error"] <= 1e-4 and got["form_gap"] <= 1e-10
        assert got["min_replay"] < 0 and not got["report"].necessary_ok
    assert abs(curvature_replay(*saddle_3x3(), rng)["min_replay"] + 0.5) <= 1e-5
