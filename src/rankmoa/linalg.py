"""Dense matrix primitives: tolerance-ranked thin SVD, low-rank projection, norms.

Every rank decision in the package is relative: a singular value counts
toward the numerical rank when it exceeds ``rank_tol * sigma_1`` of the
matrix being ranked. ``rank_estimate`` is that rule, and ``least_squares``
truncates every multiplier solve by it.

All functions are pure; returned arrays should be treated as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_RANK_TOL = 1e-8
DEFAULT_TOL = 1e-8


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-d float array."""
    X = np.asarray(x, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {X.shape}")
    return _finite(X, name)


def as_stack(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite float array of matrices, shape (..., m, n)."""
    X = np.asarray(x, dtype=float)
    if X.ndim < 2:
        raise ValueError(f"{name} must be at least 2-d, got shape {X.shape}")
    return _finite(X, name)


def as_shaped(x, shape: tuple, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """as_matrix of the given (m, n) shape, or with ``stack`` an as_stack of them."""
    X = (as_stack if stack else as_matrix)(x, name)
    if X.shape[-2:] != shape:
        raise ValueError(f"{name} has shape {X.shape}, expected {shape}")
    return X


def _finite(X: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(X).all():
        raise ValueError(f"{name} has non-finite entries")
    return X


def check_positive(value, name: str) -> None:
    """Raise ValueError unless value is a finite positive number (NaN fails)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class RankBound:
    """Prescribed upper bound on admissible rank; must stay below min(m, n)."""

    r: int

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 0:
            raise ValueError(f"rank bound must be a nonnegative integer, got {self.r!r}")
        object.__setattr__(self, "r", int(self.r))

    def check_shape(self, m: int, n: int) -> None:
        if self.r >= min(m, n):
            raise ValueError(
                f"rank bound r={self.r} must be smaller than min(m, n)={min(m, n)}"
            )


def _coerce_rank(r) -> int:
    return r.r if isinstance(r, RankBound) else int(r)


@dataclass(frozen=True)
class ThinSVD:
    """Square-factor SVD with a tolerance-based numerical rank.

    ``u`` (m x m) and ``v`` (n x n) are orthogonal, ``sigma`` holds all
    min(m, n) singular values in nonincreasing order, and ``gamma`` indexes
    the values above ``rank_tol * sigma[0]``. Because sigma is sorted, gamma
    is always a prefix of 0..min(m, n)-1; the columns it selects from u and v
    span the row/column spaces, the remaining columns their complements.
    """

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    rank_tol: float

    @property
    def m(self) -> int:
        return self.u.shape[0]

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def rank(self) -> int:
        return int(self.gamma.size)

    @property
    def threshold(self) -> float:
        """Absolute singular-value cutoff actually applied."""
        top = float(self.sigma[0]) if self.sigma.size else 0.0
        return self.rank_tol * top

    @property
    def sigma_gamma(self) -> np.ndarray:
        return self.sigma[: self.rank]

    @property
    def u_gamma(self) -> np.ndarray:
        return self.u[:, : self.rank]

    @property
    def v_gamma(self) -> np.ndarray:
        return self.v[:, : self.rank]

    @property
    def u_perp(self) -> np.ndarray:
        return self.u[:, self.rank :]

    @property
    def v_perp(self) -> np.ndarray:
        return self.v[:, self.rank :]

    def reconstruct(self) -> np.ndarray:
        k = min(self.m, self.n)
        return (self.u[:, :k] * self.sigma) @ self.v[:, :k].T

    def transposed(self) -> "ThinSVD":
        """The factorization of the transpose (u and v swap roles)."""
        return ThinSVD(u=self.v, v=self.u, sigma=self.sigma, gamma=self.gamma,
                       rank_tol=self.rank_tol)


def thin_svd(X, rank_tol: float = DEFAULT_RANK_TOL) -> ThinSVD:
    """Full SVD of X with the index set of numerically nonzero singular values."""
    X = as_matrix(X)
    check_positive(rank_tol, "rank_tol")
    u, s, vh = np.linalg.svd(X, full_matrices=True)
    cutoff = rank_tol * (float(s[0]) if s.size else 0.0)
    gamma = np.flatnonzero(s > cutoff)
    return ThinSVD(u=u, v=vh.T, sigma=s, gamma=gamma, rank_tol=float(rank_tol))


def orient_svd(X, rank_tol: float = DEFAULT_RANK_TOL) -> ThinSVD:
    """thin_svd plus a deterministic sign convention on the singular vectors.

    In each (u_k, v_k) pair the entry of largest magnitude in the u column is
    made nonnegative (np.argmax breaks ties at the lowest row index); flipping
    u and v together preserves the factorization. Unpaired columns beyond
    min(m, n) are oriented on their own.
    """
    f = thin_svd(X, rank_tol)
    su, sv = _column_signs(f.u), _column_signs(f.v)
    k = min(f.m, f.n)
    sv[:k] = su[:k]  # paired v columns follow their u column
    # C order (v is a transposed view): later products then round the same way
    return ThinSVD(u=np.multiply(f.u, su, order="C"), v=np.multiply(f.v, sv, order="C"),
                   sigma=f.sigma, gamma=f.gamma, rank_tol=f.rank_tol)


def _column_signs(a: np.ndarray) -> np.ndarray:
    """Per column, -1.0 where its first entry of largest magnitude is negative, else 1.0."""
    if a.size == 0:
        return np.ones(a.shape[1])
    top = a[np.argmax(np.abs(a), axis=0), np.arange(a.shape[1])]
    return np.where(top < 0, -1.0, 1.0)


def pseudo_inverse(svd: ThinSVD) -> np.ndarray:
    """Moore-Penrose inverse from the ranked factors; zero matrix when rank 0."""
    if svd.rank == 0:
        return np.zeros((svd.n, svd.m))
    return (svd.v_gamma / svd.sigma_gamma) @ svd.u_gamma.T


def project_low_rank(Z, r, rank_tol: float = DEFAULT_RANK_TOL):
    """Nearest matrix of rank at most r in Frobenius norm, by truncation.

    Returns (projection, tie_flag). The tie flag is set when
    sigma_r <= sigma_{r+1} + rank_tol * sigma_1, in which case the projection
    is not unique. Z may be a (..., m, n) stack; each matrix is projected on
    its own and the tie flag is then a boolean array of the leading shape.
    The singular vectors' signs cancel in sum_k sigma_k u_k v_k^T, so no
    orientation is applied.
    """
    Z = as_stack(Z)
    r = _coerce_rank(r)
    k = min(Z.shape[-2:])
    if not 0 <= r <= k:
        raise ValueError(f"rank bound r={r} out of range for shape {Z.shape}")
    check_positive(rank_tol, "rank_tol")
    u, sigma, vh = np.linalg.svd(Z)
    kept = sigma.copy()
    kept[..., r:] = 0.0
    P = (u[..., :k] * kept[..., None, :]) @ vh[..., :k, :]
    if 0 < r < k:
        tie = sigma[..., r - 1] <= sigma[..., r] + rank_tol * sigma[..., 0]
    else:
        tie = np.zeros(Z.shape[:-2], dtype=bool)
    return P, (bool(tie) if Z.ndim == 2 else tie)


def spectral_norm(X) -> float:
    """Largest singular value."""
    X = as_matrix(X)
    if 0 in X.shape:
        return 0.0
    return float(np.linalg.svd(X, compute_uv=False)[0])


def rank_estimate(X, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rank_tol * sigma_1."""
    X = as_matrix(X)
    if 0 in X.shape:
        return 0
    s = np.linalg.svd(X, compute_uv=False)
    return int(np.count_nonzero(s > rank_tol * s[0]))


def least_squares(cols, target, rank_tol: float = DEFAULT_RANK_TOL):
    """Minimum-norm y minimizing ||sum_i y_i cols[i] - target||_F.

    Returns (y, residual norm). Singular values of the column system at or
    below ``rank_tol * sigma_1`` are dropped, the rule of ``rank_estimate``:
    a direction the columns span only to rounding error would otherwise
    enter y with the inverse of a value near machine precision.
    """
    t = np.ravel(target)
    C = np.ascontiguousarray(np.reshape(cols, (len(cols), t.size)).T)
    y, *_ = np.linalg.lstsq(C, t, rcond=rank_tol)
    return y, float(np.linalg.norm(C @ y - t))
