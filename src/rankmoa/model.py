"""Objective models and the full problem record.

An objective exposes value, gradient, the Hessian as a linear map on
directions (applied to a whole stack of them in one call), and the induced
quadratic form. Convexity and a strong-convexity modulus are recorded where
they can be certified at construction; the classification logic only uses
these flags, never re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import AffineMap
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, RankBound, _scale, as_matrix, as_shaped,
                     check_positive)


class Objective:
    """Base interface for twice continuously differentiable objectives.

    ``hess_apply`` maps a (..., m, n) stack of directions to the same shape,
    slice by slice, so a whole basis or block of directions costs one call.
    """

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
        """Per slice of the (..., m, n) stack Xi, d/dt grad(X + t*Xi) at t=0."""
        raise NotImplementedError

    def hess_quad(self, X, Xi) -> float:
        """Quadratic form <hess_apply(X, Xi), Xi>."""
        Xi = as_matrix(Xi, "Xi")
        return float(np.tensordot(self.hess_apply(X, Xi), Xi))

    def params(self) -> dict:
        raise NotImplementedError

    def _check(self, X, name: str = "X", stack: bool = False) -> np.ndarray:
        return as_shaped(X, self.shape, name, stack)


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
        return self._check(Xi, "Xi", stack=True).copy()

    def params(self) -> dict:
        return {"target": self.target.tolist()}


class RowQuadratic(Objective):
    """f(W) = 0.5 * sum_i w_i B^i w_i^T over the rows w_i of an N x N matrix.

    The row matrices are held once, as ``mats``: a read-only float array of
    shape (N, N, N) whose slice i is B^i, copied and validated in one pass.
    Gradients use the symmetrized row matrices 0.5 * (B^i + B^i^T) so they
    match finite differences for arbitrary B^i. The objective is convex when
    every symmetrized matrix is positive semidefinite; the smallest eigenvalue
    across them, when positive, is the strong-convexity modulus.
    """

    kind = "row_quadratic"

    def __init__(self, mats):
        try:
            mats = np.array(mats, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("row matrices must be numeric and of one shape") from exc
        if mats.ndim != 3 or mats.shape[0] == 0 or mats.shape[1:] != (len(mats),) * 2:
            raise ValueError(f"row matrices form shape {mats.shape}, expected (N, N, N)")
        if not np.all(np.isfinite(mats)):
            raise ValueError("row matrices have non-finite entries")
        mats.flags.writeable = False
        self.mats = mats
        self._sym = 0.5 * (mats + mats.transpose(0, 2, 1))
        eigs = np.linalg.eigvalsh(self._sym)
        lo = float(eigs.min())
        self.convex = bool(lo >= -1e-10 * _scale(float(np.abs(eigs).max())))
        self.strong_convexity_modulus = lo if lo > 0 else None

    @property
    def shape(self):
        return self.mats.shape[1:]

    def value(self, X) -> float:
        W = self._check(X)
        return 0.5 * float(np.einsum("ij,ijk,ik->", W, self.mats, W))

    def grad(self, X) -> np.ndarray:
        return self.hess_apply(X, self._check(X))

    def hess_apply(self, X, Xi) -> np.ndarray:
        # row i of every slice times its symmetrized row matrix
        return np.einsum("...ij,ijk->...ik", self._check(Xi, "Xi", stack=True), self._sym)

    def params(self) -> dict:
        return {"mats": self.mats.tolist()}


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
        return np.zeros(self._check(Xi, "Xi", stack=True).shape)

    def params(self) -> dict:
        return {"cost": self.cost.tolist()}


class CustomObjective(Objective):
    """Registered user objective; hess_apply must be a symmetric linear map.

    ``hess_apply_fn(X, Xi)`` takes one m x n direction; ``hess_apply`` calls
    it once per slice of a (..., m, n) stack.
    """

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
        X, Xi = self._check(X), self._check(Xi, "Xi", stack=True)
        out = [self._hess_apply(X, xi) for xi in Xi.reshape(-1, *self.shape)]
        return np.array(out, dtype=float).reshape(Xi.shape)

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


_DOC_FIELDS = {"frobenius_distance": (FrobeniusDistance, "target"),
               "row_quadratic": (RowQuadratic, "mats"),
               "linear_trace": (LinearTrace, "cost")}


def objective_from_doc(doc: dict) -> Objective:
    """The objective a document from ``objective_to_doc`` describes.

    Every failure is a ValueError that names the field at fault: a missing
    one, one of the wrong type or holding an integer beyond double range,
    or ``params`` the registered factory rejects.
    """
    kind = doc.get("kind")
    if kind == "registered_custom":
        obj_id, params = _field(doc, "id"), doc.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("field 'params' has the wrong type, expected an object")
        if not isinstance(obj_id, str) or obj_id not in _CUSTOM_REGISTRY:
            raise ValueError(f"field 'id': no objective registered under id {obj_id!r}")
        try:
            return make_custom(obj_id, **params)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"field 'params': objective {obj_id!r} rejects them: {exc}") from exc
    if not isinstance(kind, str) or kind not in _DOC_FIELDS:
        raise ValueError(f"unknown objective kind {kind!r}")
    cls, key = _DOC_FIELDS[kind]
    value = _field(doc, key)
    try:
        return cls(value)
    except OverflowError as exc:  # an integer literal beyond double range
        raise ValueError(f"field {key!r}: number beyond double range") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from exc


def _field(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    return doc[key]


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
            object.__setattr__(self, "rank_bound", RankBound(self.rank_bound))
        if self.objective.shape != self.affine.shape:
            raise ValueError(
                f"objective shape {self.objective.shape} disagrees with "
                f"constraint shape {self.affine.shape}"
            )
        m, n = self.affine.shape
        self.rank_bound.check_shape(m, n)
        check_positive(self.rank_tol, "rank_tol")
        check_positive(self.tol, "tol")

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
