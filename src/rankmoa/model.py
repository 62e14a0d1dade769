"""Objective models and the full problem record.

An objective exposes value, gradient, the Hessian as a linear map on
directions, and the induced quadratic form. Convexity and a strong-convexity
modulus are recorded where they can be certified at construction; the
classification logic only uses these flags, never re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineMap
from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL, RankBound, as_matrix


class Objective:
    """Base interface for twice continuously differentiable objectives."""

    kind = "abstract"
    convex = False
    strong_convexity_modulus: float | None = None

    @property
    def shape(self) -> tuple:
        raise NotImplementedError

    def value(self, X) -> float:
        raise NotImplementedError

    def grad(self, X) -> np.ndarray:
        raise NotImplementedError

    def hess_apply(self, X, Xi) -> np.ndarray:
        """Hessian applied to a direction, d/dt grad(X + t*Xi) at t=0."""
        raise NotImplementedError

    def hess_quad(self, X, Xi) -> float:
        """Quadratic form <hess_apply(X, Xi), Xi>."""
        Xi = as_matrix(Xi, "Xi")
        return float(np.tensordot(self.hess_apply(X, Xi), Xi))

    def params(self) -> dict:
        raise NotImplementedError

    def _check(self, X) -> np.ndarray:
        X = as_matrix(X, "X")
        if X.shape != self.shape:
            raise ValueError(f"X has shape {X.shape}, objective expects {self.shape}")
        return X


class FrobeniusDistance(Objective):
    """f(X) = 0.5 * ||X - target||_F^2; strongly convex with modulus 1."""

    kind = "frobenius_distance"
    convex = True
    strong_convexity_modulus = 1.0

    def __init__(self, target):
        self.target = as_matrix(target, "target")

    @property
    def shape(self):
        return self.target.shape

    def value(self, X) -> float:
        X = self._check(X)
        return 0.5 * float(np.sum((X - self.target) ** 2))

    def grad(self, X) -> np.ndarray:
        return self._check(X) - self.target

    def hess_apply(self, X, Xi) -> np.ndarray:
        return as_matrix(Xi, "Xi").copy()

    def params(self) -> dict:
        return {"target": self.target.tolist()}


class RowQuadratic(Objective):
    """f(W) = 0.5 * sum_i w_i B^i w_i^T over the rows w_i of an N x N matrix.

    Gradients use the symmetrized row matrices 0.5 * (B^i + B^i^T) so they
    match finite differences for arbitrary B^i. The objective is convex when
    every symmetrized matrix is positive semidefinite; the smallest eigenvalue
    across them, when positive, is the strong-convexity modulus.
    """

    kind = "row_quadratic"

    def __init__(self, mats):
        mats = [as_matrix(b, f"B^{i + 1}") for i, b in enumerate(mats)]
        if not mats:
            raise ValueError("row_quadratic needs at least one matrix")
        n = mats[0].shape[0]
        for i, b in enumerate(mats):
            if b.shape != (n, n):
                raise ValueError(f"B^{i + 1} has shape {b.shape}, expected ({n}, {n})")
        if len(mats) != n:
            raise ValueError(f"expected {n} row matrices, got {len(mats)}")
        self.mats = mats
        self._sym = [0.5 * (b + b.T) for b in mats]
        eigs = np.concatenate([np.linalg.eigvalsh(s) for s in self._sym])
        lo = float(eigs.min())
        self.convex = bool(lo >= -1e-10 * max(1.0, float(np.abs(eigs).max())))
        self.strong_convexity_modulus = lo if lo > 0 else None

    @property
    def shape(self):
        n = len(self.mats)
        return (n, n)

    def value(self, X) -> float:
        W = self._check(X)
        return 0.5 * float(sum(W[i] @ self.mats[i] @ W[i] for i in range(len(self.mats))))

    def grad(self, X) -> np.ndarray:
        W = self._check(X)
        return np.stack([W[i] @ self._sym[i] for i in range(len(self.mats))])

    def hess_apply(self, X, Xi) -> np.ndarray:
        Xi = as_matrix(Xi, "Xi")
        if Xi.shape != self.shape:
            raise ValueError(f"Xi has shape {Xi.shape}, expected {self.shape}")
        return np.stack([Xi[i] @ self._sym[i] for i in range(len(self.mats))])

    def params(self) -> dict:
        return {"mats": [b.tolist() for b in self.mats]}


class LinearTrace(Objective):
    """f(X) = <cost, X>; convex with zero curvature."""

    kind = "linear_trace"
    convex = True

    def __init__(self, cost):
        self.cost = as_matrix(cost, "cost")

    @property
    def shape(self):
        return self.cost.shape

    def value(self, X) -> float:
        return float(np.tensordot(self.cost, self._check(X)))

    def grad(self, X) -> np.ndarray:
        self._check(X)
        return self.cost.copy()

    def hess_apply(self, X, Xi) -> np.ndarray:
        return np.zeros(self.shape)

    def params(self) -> dict:
        return {"cost": self.cost.tolist()}


class CustomObjective(Objective):
    """Registered user objective; hess_apply must be a symmetric linear map."""

    kind = "registered_custom"

    def __init__(self, obj_id, shape, value_fn, grad_fn, hess_apply_fn,
                 convex=False, strong_convexity_modulus=None, init_params=None):
        self.obj_id = obj_id
        self._shape = (int(shape[0]), int(shape[1]))
        self._value = value_fn
        self._grad = grad_fn
        self._hess_apply = hess_apply_fn
        self.convex = bool(convex)
        self.strong_convexity_modulus = strong_convexity_modulus
        self.init_params = dict(init_params or {})

    @property
    def shape(self):
        return self._shape

    def value(self, X) -> float:
        return float(self._value(self._check(X)))

    def grad(self, X) -> np.ndarray:
        return np.asarray(self._grad(self._check(X)), dtype=float)

    def hess_apply(self, X, Xi) -> np.ndarray:
        return np.asarray(self._hess_apply(self._check(X), as_matrix(Xi, "Xi")),
                          dtype=float)

    def params(self) -> dict:
        return {"id": self.obj_id, "params": self.init_params}


_CUSTOM_REGISTRY: dict = {}


def register_objective(obj_id: str, factory) -> None:
    """Register a factory(**params) -> CustomObjective under an identifier."""
    _CUSTOM_REGISTRY[obj_id] = factory


def make_custom(obj_id: str, **params) -> CustomObjective:
    if obj_id not in _CUSTOM_REGISTRY:
        raise KeyError(f"no objective registered under id {obj_id!r}")
    obj = _CUSTOM_REGISTRY[obj_id](**params)
    obj.init_params = dict(params)
    return obj


def objective_to_doc(obj: Objective) -> dict:
    return {"kind": obj.kind, **obj.params()}


def objective_from_doc(doc: dict) -> Objective:
    kind = doc.get("kind")
    if kind == "frobenius_distance":
        return FrobeniusDistance(doc["target"])
    if kind == "row_quadratic":
        return RowQuadratic(doc["mats"])
    if kind == "linear_trace":
        return LinearTrace(doc["cost"])
    if kind == "registered_custom":
        return make_custom(doc["id"], **doc.get("params", {}))
    raise ValueError(f"unknown objective kind {kind!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """A full problem instance: objective, affine constraints, rank bound."""

    objective: Objective
    affine: AffineMap
    rank_bound: RankBound
    rank_tol: float = DEFAULT_RANK_TOL
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not isinstance(self.rank_bound, RankBound):
            object.__setattr__(self, "rank_bound", RankBound(int(self.rank_bound)))
        if self.objective.shape != self.affine.shape:
            raise ValueError(
                f"objective shape {self.objective.shape} disagrees with "
                f"constraint shape {self.affine.shape}"
            )
        m, n = self.affine.shape
        self.rank_bound.check_shape(m, n)
        if self.rank_tol <= 0 or self.tol <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def m(self) -> int:
        return self.affine.shape[0]

    @property
    def n(self) -> int:
        return self.affine.shape[1]

    @property
    def l(self) -> int:
        return self.affine.l

    @property
    def r(self) -> int:
        return self.rank_bound.r
