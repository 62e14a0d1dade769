"""Affine equality constraints <A^i, X> = b_i: evaluation, adjoint, bases.

The l x mn stack is factored at most once per map, by one cached thin
``StackSVD`` (O(l mn) numbers): its pseudo-inverse and kernel cut at lstsq's
default eps * max(l, mn) * sigma_1, its multiplier fit and rank at
rank_tol * sigma_1; only ``kernel_basis`` at l < mn takes full factors.
``stack_rank`` reads that SVD when the map holds one, else first tries to
prove full row rank by one Cholesky of the l x l Gram matrix, without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL, StackSVD, _full_row_rank, _scale, as_shaped


@dataclass(frozen=True)
class AffineMap:
    """The linear map X -> (<A^1,X>, ..., <A^l,X>) together with its rhs b.

    The constraints are held once, as ``mats``: a read-only float array of
    shape (l, m, n), copied from the caller's input on construction, so it
    indexes and iterates like a sequence of m x n matrices. ``stack`` is its
    (l, m*n) view. Redundant (linearly dependent) matrices are allowed, the
    stack rank is reported so qualification checks can warn. ``shape`` is
    required when there are no constraints.

    ``_rhs_scale``, the scale of every feasibility test, is set on
    construction; the stack's SVD, ``stack_pinv`` and ``consistent`` are
    computed on first use and cached. ``mats`` and ``rhs`` are read-only
    copies, which keeps them valid.
    """

    mats: np.ndarray
    rhs: np.ndarray
    shape: tuple | None = None

    def __post_init__(self):
        try:
            mats = np.array(self.mats, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("constraint matrices must be numeric and of one shape") from exc
        if mats.size == 0 and mats.ndim < 3:
            if self.shape is None:
                raise ValueError("shape is required when there are no constraints")
            mats = mats.reshape(0, int(self.shape[0]), int(self.shape[1]))
        if mats.ndim != 3:
            raise ValueError(f"constraint matrices form shape {mats.shape}, expected (l, m, n)")
        if not np.all(np.isfinite(mats)):
            raise ValueError("constraint matrices have non-finite entries")
        shape = mats.shape[1:]
        if self.shape is not None and tuple(self.shape) != shape:
            raise ValueError("declared shape disagrees with constraint matrices")
        rhs = np.array(self.rhs, dtype=float, ndmin=1)
        if rhs.ndim != 1:
            raise ValueError("rhs must be a vector")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs has non-finite entries")
        if len(mats) != rhs.size:
            raise ValueError(
                f"{len(mats)} constraint matrices but {rhs.size} rhs entries"
            )
        mats.flags.writeable = False
        rhs.flags.writeable = False
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "shape", shape)
        # l x (m*n) view of mats: row i is the vectorized A^i
        object.__setattr__(self, "stack", mats.reshape(len(mats), shape[0] * shape[1]))
        object.__setattr__(self, "_rhs_scale", _scale(float(np.linalg.norm(rhs))))

    @property
    def l(self) -> int:
        return len(self.mats)

    @cached_property
    def _stack_svd(self) -> StackSVD:
        return StackSVD(self.stack)

    @cached_property
    def stack_pinv(self) -> np.ndarray:
        """(m*n) x l pseudo-inverse: ``stack_pinv @ t`` is lstsq's solution at rcond=None."""
        return self._stack_svd.pinv()

    @cached_property
    def consistent(self) -> bool:
        """Whether some X satisfies A(X) = b, to ``DEFAULT_TOL`` relative to max(1, ||b||).

        The test is the least-squares gap ||S S+ b - b|| with S = ``stack``.
        Because S S+ S = S, it equals the gap ||S S+ t - t|| of the
        projection's right-hand side t = b - S x at every X (up to the
        singular values ``stack_pinv`` drops), so it is a property of the
        map, not of the point projected.
        """
        gap = float(np.linalg.norm(self.stack @ (self.stack_pinv @ self.rhs) - self.rhs))
        return gap <= DEFAULT_TOL * self._rhs_scale

    def apply(self, X) -> np.ndarray:
        """Component i is <A^i, X>."""
        return self.stack @ as_shaped(X, self.shape, "X").ravel()

    def adjoint(self, y) -> np.ndarray:
        """sum_i y_i A^i."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.l,):
            raise ValueError(f"multiplier has length {y.size}, expected {self.l}")
        return (self.stack.T @ y).reshape(self.shape)

    def residual(self, X) -> float:
        """Euclidean feasibility residual ||A(X) - b||; inf, unwarned, when A(X) overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            res = float(np.linalg.norm(self.apply(X) - self.rhs))
        return math.inf if math.isnan(res) else res

    def kernel_basis(self) -> np.ndarray:
        """Frobenius-orthonormal basis of ker A, as k x m x n; the standard one when l = 0."""
        return self._stack_svd.kernel().T.reshape(-1, *self.shape)

    def normal_space_member(self, W, tol: float = DEFAULT_TOL):
        """Least-squares test for W in span{A^i}; returns (verdict, y or None)."""
        W = as_shaped(W, self.shape, "W")
        y, resid = self.fit_multiplier(W)
        if resid <= tol * _scale(float(np.linalg.norm(W))):
            return True, y
        return False, None

    def fit_multiplier(self, W, rank_tol: float = DEFAULT_RANK_TOL):
        """(y, residual) of the minimum-norm least-squares fit sum_i y_i A^i ~ W."""
        return self._stack_svd.solve(np.ravel(W), rank_tol)

    def stack_rank(self, rank_tol: float = DEFAULT_RANK_TOL) -> int:
        """``rank_estimate(stack, rank_tol)``: from the map's SVD if held, else l when
        ``_full_row_rank`` proves it, else (l = 0, l > m*n, dependent rows...) by the SVD."""
        if "_stack_svd" not in self.__dict__ and _full_row_rank(self.stack, rank_tol):
            return self.l
        return self._stack_svd.rank(rank_tol)
