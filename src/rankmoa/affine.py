"""Affine equality constraints <A^i, X> = b_i: evaluation, adjoint, bases."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import compress, tangent_coordinates, tangent_mask
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, ThinSVD, _full_row_rank, _scale,
                     as_shaped, least_squares, null_space, rank_estimate)


@dataclass(frozen=True)
class AffineMap:
    """The linear map X -> (<A^1,X>, ..., <A^l,X>) together with its rhs b.

    The constraints are held once, as ``mats``: a read-only float array of
    shape (l, m, n), copied from the caller's input on construction, so it
    indexes and iterates like a sequence of m x n matrices. ``stack`` is its
    (l, m*n) view. Redundant (linearly dependent) matrices are allowed, the
    stack rank is reported so qualification checks can warn: ``stack_rank``
    answers l from one Cholesky of the l x l Gram matrix when that proves
    full row rank, and ranks the stack by its SVD only otherwise. ``shape``
    is required when there are no constraints.

    The pseudo-inverse ``stack_pinv``, the consistency verdict ``consistent``
    and ``_rhs_scale``, the scale of every feasibility test, are computed on
    first use and cached; ``mats`` and ``rhs`` are read-only copies, which
    keeps them valid.
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

    @property
    def l(self) -> int:
        return len(self.mats)

    @cached_property
    def stack(self) -> np.ndarray:
        """l x (m*n) view of ``mats``: row i is the vectorized A^i."""
        return self.mats.reshape(self.l, self.shape[0] * self.shape[1])

    @cached_property
    def stack_pinv(self) -> np.ndarray:
        """(m*n) x l pseudo-inverse of ``stack``, from one SVD.

        ``stack_pinv @ t`` is the minimum-norm least-squares solution that
        ``np.linalg.lstsq(stack, t, rcond=None)`` returns: singular values at
        or below lstsq's default cutoff eps * max(l, m*n) * sigma_1 are
        dropped. The cutoff is lstsq's, not ``rank_tol``.
        """
        u, sigma, vt = np.linalg.svd(self.stack, full_matrices=False)
        keep = sigma > np.finfo(float).eps * max(self.stack.shape) * sigma.max(initial=0.0)
        return vt[keep].T @ (u[:, keep].T / sigma[keep, None])

    @cached_property
    def _rhs_scale(self) -> float:
        """``linalg._scale`` of ||b||."""
        return _scale(float(np.linalg.norm(self.rhs)))

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
        """Euclidean feasibility residual ||A(X) - b||."""
        return float(np.linalg.norm(self.apply(X) - self.rhs))

    def kernel_basis(self) -> np.ndarray:
        """Frobenius-orthonormal basis of {Xi : <A^i, Xi> = 0 for all i}, as k x m x n.

        The null space of the (l, m*n) stack by ``linalg.null_space``; with no
        constraints it is the standard basis.
        """
        return null_space(self.stack).T.reshape(-1, *self.shape)

    def normal_space_member(self, W, tol: float = DEFAULT_TOL):
        """Least-squares test for W in span{A^i}; returns (verdict, y or None)."""
        W = as_shaped(W, self.shape, "W")
        y, resid = self.fit_multiplier(W)
        if resid <= tol * _scale(float(np.linalg.norm(W))):
            return True, y
        return False, None

    def fit_multiplier(self, W, rank_tol: float = DEFAULT_RANK_TOL,
                       tangent: ThinSVD | None = None, compressed=None):
        """(y, residual) for the minimum-norm least-squares fit sum_i y_i A^i ~ W.

        With ``tangent``, the ranked SVD of a point, only the tangential part
        of W is fitted: both sides are read in the point's tangent coordinates.
        ``compressed``, when given, is ``compress(tangent, self.mats)`` already taken.
        """
        if tangent is None:
            return least_squares(self.mats, W, rank_tol)
        C = compress(tangent, self.mats) if compressed is None else compressed
        return least_squares(C[:, tangent_mask(tangent)], tangent_coordinates(tangent, W),
                             rank_tol)

    def stack_rank(self, rank_tol: float = DEFAULT_RANK_TOL) -> int:
        """``rank_estimate(stack, rank_tol)``, without its SVD when full row rank is proved.

        ``linalg._full_row_rank`` certifies that the estimate is l. When it
        cannot (no constraints, l > m*n, dependent or ill-conditioned rows),
        the stack is ranked by ``rank_estimate`` itself.
        """
        if _full_row_rank(self.stack, rank_tol):
            return self.l
        return rank_estimate(self.stack, rank_tol)
