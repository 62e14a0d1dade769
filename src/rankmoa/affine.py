"""Affine equality constraints <A^i, X> = b_i: evaluation, adjoint, bases."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL, as_matrix, least_squares, rank_estimate


@dataclass(frozen=True)
class AffineMap:
    """The linear map X -> (<A^1,X>, ..., <A^l,X>) together with its rhs b.

    Constraint matrices are stored dense; redundant (linearly dependent)
    matrices are allowed, the stack rank is reported so qualification checks
    can warn. ``shape`` is required when there are no constraints.
    """

    mats: tuple
    rhs: np.ndarray
    shape: tuple | None = None

    def __post_init__(self):
        mats = tuple(as_matrix(a, f"A^{i + 1}") for i, a in enumerate(self.mats))
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if rhs.ndim != 1:
            raise ValueError("rhs must be a vector")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs has non-finite entries")
        if len(mats) != rhs.size:
            raise ValueError(
                f"{len(mats)} constraint matrices but {rhs.size} rhs entries"
            )
        if mats:
            shape = mats[0].shape
            for i, a in enumerate(mats):
                if a.shape != shape:
                    raise ValueError(f"A^{i + 1} has shape {a.shape}, expected {shape}")
            if self.shape is not None and tuple(self.shape) != shape:
                raise ValueError("declared shape disagrees with constraint matrices")
        else:
            if self.shape is None:
                raise ValueError("shape is required when there are no constraints")
            shape = (int(self.shape[0]), int(self.shape[1]))
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "shape", shape)

    @property
    def l(self) -> int:
        return len(self.mats)

    @cached_property
    def stack(self) -> np.ndarray:
        """l x (m*n) matrix whose rows are the vectorized constraint matrices."""
        m, n = self.shape
        if not self.mats:
            return np.zeros((0, m * n))
        return np.stack([a.ravel() for a in self.mats])

    def _check_shape(self, X: np.ndarray) -> np.ndarray:
        X = as_matrix(X, "X")
        if X.shape != self.shape:
            raise ValueError(f"X has shape {X.shape}, constraints expect {self.shape}")
        return X

    def apply(self, X) -> np.ndarray:
        """Component i is <A^i, X>."""
        X = self._check_shape(X)
        return self.stack @ X.ravel()

    def adjoint(self, y) -> np.ndarray:
        """sum_i y_i A^i."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.l,):
            raise ValueError(f"multiplier has length {y.size}, expected {self.l}")
        return (self.stack.T @ y).reshape(self.shape)

    def residual(self, X) -> float:
        """Euclidean feasibility residual ||A(X) - b||."""
        return float(np.linalg.norm(self.apply(X) - self.rhs))

    def kernel_basis(self) -> np.ndarray:
        """Frobenius-orthonormal basis of {Xi : <A^i, Xi> = 0 for all i}, as k x m x n."""
        m, n = self.shape
        if self.l == 0:
            return np.eye(m * n).reshape(m * n, m, n)
        return scipy.linalg.null_space(self.stack).T.reshape(-1, m, n)

    def normal_space_member(self, W, tol: float = DEFAULT_TOL):
        """Least-squares test for W in span{A^i}; returns (verdict, y or None)."""
        W = self._check_shape(W)
        y, resid = least_squares(self.mats, W, DEFAULT_RANK_TOL)
        if resid <= tol * max(1.0, float(np.linalg.norm(W))):
            return True, y
        return False, None

    def stack_rank(self, rank_tol: float = DEFAULT_RANK_TOL) -> int:
        return rank_estimate(self.stack, rank_tol)
