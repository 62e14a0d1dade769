import math

import numpy as np
import pytest

from rankmoa import (CustomObjective, FrobeniusDistance, LinearTrace, LRRInstance,
                     RowQuadratic)

KINDS = ["frobenius_distance", "linear_trace", "row_quadratic", "registered_custom"]


def _one_matrix_hess(X, Xi):
    # the registered callback contract: one m x n direction per call
    assert Xi.shape == X.shape
    return Xi / np.cosh(X) ** 2


def _make(kind, rng):
    """(objective, per-slice reference hess_apply written from the definition)."""
    if kind == "frobenius_distance":
        return FrobeniusDistance(rng.standard_normal((3, 4))), lambda X, xi: xi
    if kind == "linear_trace":
        return LinearTrace(rng.standard_normal((3, 4))), lambda X, xi: np.zeros_like(xi)
    if kind == "row_quadratic":
        B = rng.standard_normal((4, 4, 4))
        sym = [0.5 * (b + b.T) for b in B]
        return RowQuadratic(B), lambda X, xi: np.stack([xi[i] @ sym[i] for i in range(4)])
    obj = CustomObjective("logcosh", (3, 4),
                          value_fn=lambda X: float(np.sum(np.log(np.cosh(X)))),
                          grad_fn=np.tanh, hess_apply_fn=_one_matrix_hess)
    return obj, _one_matrix_hess


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("lead", [(0,), (1,), (6,), (2, 3)])
def test_hess_apply_acts_on_stacks(kind, lead):
    rng = np.random.default_rng(11)
    obj, reference = _make(kind, rng)
    X = rng.standard_normal(obj.shape)
    Xi = rng.standard_normal(lead + obj.shape)
    got = obj.hess_apply(X, Xi)
    assert got.shape == Xi.shape
    slices = Xi.reshape(-1, *obj.shape)
    single = np.array([obj.hess_apply(X, xi) for xi in slices]).reshape(Xi.shape)
    want = np.array([reference(X, xi) for xi in slices]).reshape(Xi.shape)
    if kind == "row_quadratic":
        # the batched product may round differently from the per-row one
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale
        assert np.abs(got - single).max(initial=0.0) <= 1e-13 * scale
    else:
        assert np.array_equal(got, want) and np.array_equal(got, single)


@pytest.mark.parametrize("kind", KINDS)
def test_hess_apply_rejects_wrong_trailing_shape(kind):
    rng = np.random.default_rng(12)
    obj, _ = _make(kind, rng)
    m, n = obj.shape
    X = rng.standard_normal(obj.shape)
    for bad in ((2, m, n + 1), (m + 1, n), (m * n,)):
        with pytest.raises(ValueError):
            obj.hess_apply(X, np.zeros(bad))


def test_row_quadratic_holds_one_read_only_array(rng):
    given = [rng.standard_normal((3, 3)) for _ in range(3)]
    obj = RowQuadratic(given)
    assert obj.mats.shape == (3, 3, 3) and obj.shape == (3, 3)
    assert not any(np.shares_memory(b, obj.mats) for b in given)
    with pytest.raises(ValueError):
        obj.mats[0, 0, 0] = 1.0
    W = rng.standard_normal((3, 3))
    want = 0.5 * sum(W[i] @ given[i] @ W[i] for i in range(3))
    assert obj.value(W) == pytest.approx(want, rel=1e-13)
    assert np.array_equal(obj.grad(W), obj.hess_apply(W, W))
    assert obj.params() == {"mats": [b.tolist() for b in given]}


@pytest.mark.parametrize("mats", [
    pytest.param([], id="empty"),
    pytest.param([np.eye(2), np.eye(3)], id="ragged"),
    pytest.param([np.eye(3)], id="too-few-rows"),
    pytest.param(np.zeros((3, 3, 2)), id="not-square"),
    pytest.param([[[np.nan]]], id="nan"),
    pytest.param([[["a"]]], id="not-numeric"),
])
def test_row_quadratic_validation(mats):
    with pytest.raises(ValueError):
        RowQuadratic(mats)
    with pytest.raises(ValueError):
        LRRInstance(mats, 0)


def test_lrr_instance_keeps_the_objective_array(rng):
    given = tuple(rng.standard_normal((3, 3)) for _ in range(3))
    inst = LRRInstance(given, 1)
    assert inst.b_mats.shape == (3, 3, 3) and not inst.b_mats.flags.writeable
    assert np.array_equal(inst.build().objective.mats, np.stack(given))


def _well(modulus):
    return CustomObjective("well", (2, 2), value_fn=lambda X: float(np.sum(X * X)),
                           grad_fn=lambda X: 2.0 * X, hess_apply_fn=lambda X, Xi: 2.0 * Xi,
                           convex=True, strong_convexity_modulus=modulus)


@pytest.mark.parametrize("modulus, error", [
    (-1.0, ValueError), (0.0, ValueError), (math.nan, ValueError), (math.inf, ValueError),
    ("1", TypeError), (True, TypeError), (np.bool_(True), TypeError),
])
def test_custom_objective_rejects_a_bad_strong_convexity_modulus(modulus, error):
    # classify_first_order tests alpha = 1 / modulus, so a bad one must fail here,
    # not there as an alpha the caller never passed
    with pytest.raises(error, match="strong_convexity_modulus"):
        _well(modulus)


@pytest.mark.parametrize("modulus", [None, 2, 0.5, np.float64(2.0)])
def test_custom_objective_keeps_a_valid_strong_convexity_modulus(modulus):
    assert _well(modulus).strong_convexity_modulus == modulus
