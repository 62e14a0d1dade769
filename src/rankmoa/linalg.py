"""Dense matrix primitives: tolerance-ranked SVDs, low-rank projection, norms.

Two rules decide the package's relative tolerance tests, and each is
written once here. A singular value counts toward the numerical rank when it exceeds
``_rank_cutoff``, ``rank_tol * sigma_1`` of the matrix being ranked; ``_rank``
counts them, and ``StackSVD.solve`` truncates every multiplier solve at the same
cutoff. A residual passes when it is at most ``tol * _scale(ref)``, its
reference norm floored at 1. The oracles keep their own copies, to stay
independent of what they check. ``_full_row_rank`` does not rank: it proves,
without an SVD, that ``rank_estimate`` would find full row rank. ``StackSVD``
factors a constraint system once, thin; its kernel and pseudo-inverse cut at
lstsq's, and its kernel takes the full factors itself when the system is wide.

All functions are pure; returned arrays should be treated as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:  # the thin-SVD gufunc behind np.linalg.svd(Z, full_matrices=False)
    from numpy.linalg._umath_linalg import svd_s as _svd_thin
except ImportError:  # a NumPy that does not ship it under this name
    _svd_thin = None

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


def _count_arg(value, name: str) -> int:
    """value as a nonnegative int; bools and non-integers raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


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
        return float(_rank_cutoff(self.sigma, self.rank_tol))

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
    gamma = np.arange(_rank(s, rank_tol), dtype=np.intp)  # s is nonincreasing
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
    Validation, then ``_truncate``, then the tie flag: callers that validated
    Z themselves and ignore ties (the solver's inner rounds) call ``_truncate``.
    """
    Z = as_stack(Z)
    r = _coerce_rank(r)
    k = min(Z.shape[-2:])
    if not 0 <= r <= k:
        raise ValueError(f"rank bound r={r} out of range for shape {Z.shape}")
    check_positive(rank_tol, "rank_tol")
    P, sigma = _truncate(Z, r)
    if 0 < r < k:
        tie = sigma[..., r - 1] <= sigma[..., r] + _rank_cutoff(sigma, rank_tol)
    else:
        tie = np.zeros(Z.shape[:-2], dtype=bool)
    return P, (bool(tie) if Z.ndim == 2 else tie)


def _truncate(Z: np.ndarray, r: int):
    """(sum of the top r triplets sigma_k u_k v_k^T, all singular values) of Z.

    Z must already be a finite float (..., m, n) array with 0 <= r <= min(m, n);
    nothing is checked. A nonempty matrix goes straight to NumPy's thin-SVD
    gufunc, the dgesdd call np.linalg.svd(Z, full_matrices=False) dispatches
    to, so the factors are the same bits without numpy's Python wrapper
    around them. A stack or an empty matrix (or a NumPy without the gufunc)
    goes through np.linalg.svd. Only the r kept triplets enter the product,
    and the singular vectors' signs cancel in it, so no orientation is applied.
    The 2-d product indexes without the stack's broadcast axes: the same
    float operations, fewer indexing steps.
    """
    if Z.ndim == 2 and Z.size and _svd_thin is not None:
        u, sigma, vh = _svd_thin(Z, signature="d->ddd")
        if sigma[0] != sigma[0]:  # the gufunc fills its outputs with NaN when dgesdd fails
            raise np.linalg.LinAlgError("SVD did not converge")
        return (u[:, :r] * sigma[:r]) @ vh[:r], sigma
    u, sigma, vh = np.linalg.svd(Z, full_matrices=False)
    return (u[..., :r] * sigma[..., None, :r]) @ vh[..., :r, :], sigma


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
    return int(_rank(np.linalg.svd(X, compute_uv=False), rank_tol))


def _rank_cutoff(sigma: np.ndarray, rank_tol: float, top=None):
    """rank_tol * top for each row of a (..., k) array of nonincreasing singular values.

    top defaults to sigma_1, the row's first value (0.0 when k == 0). The
    result has sigma's leading shape.
    """
    if top is None:
        top = sigma[..., 0] if sigma.shape[-1] else np.zeros(sigma.shape[:-1])
    return rank_tol * top


def _rank(sigma: np.ndarray, rank_tol: float, top=None):
    """Per row of sigma (..., k), the number of values above ``_rank_cutoff``."""
    cut = _rank_cutoff(sigma, rank_tol, top)
    if sigma.ndim == 1:  # one row: skip count_nonzero's Python-level axis path
        return np.count_nonzero(sigma > cut)
    return np.count_nonzero(sigma > cut[..., None], axis=-1)


def _scale(ref: float) -> float:
    """The reference norm ref floored at 1: a residual passes at most tol * _scale(ref).

    Returns the scale, not a verdict, so each caller keeps its own comparison
    (and with it how a NaN residual compares).
    """
    return max(1.0, ref)


def _full_row_rank(S: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> bool:
    """True only when S (l x N) provably has sigma_l(S) > 2 * rank_tol * sigma_1(S).

    Then ``rank_estimate(S, rank_tol)`` returns l: the factor 2 leaves room
    for the rounding of its own singular values. False proves nothing, it
    only means the caller must rank S itself. S must be a finite 2-d array.

    One shifted Cholesky of the Gram matrix, no SVD (Rump, "Verification of
    positive definiteness", BIT 2006; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10):

    1. S_hat = S / max|s_ij|, so G cannot overflow and its trace t >= 1
       (an entry of S_hat is +-1) keeps underflow below eps * t;
    2. G = S_hat S_hat^T;
    3. G - t * (4 rank_tol^2 + (l + N + 3) eps) I;
    4. Cholesky of the result.

    The computed G differs from the exact one by at most gamma_N * t in norm,
    and a Cholesky that succeeds factors its input up to gamma_(l+1) * t, so
    success bounds lambda_min(S_hat S_hat^T) above 4 rank_tol^2 t, and
    t = ||S_hat||_F^2 >= sigma_1(S_hat)^2.
    """
    l, N = S.shape
    if l == 0 or l > N:
        return False
    top = float(np.max(np.abs(S)))
    if not 0.0 < top < math.inf:
        return False
    S_hat = S / top
    G = S_hat @ S_hat.T
    t = float(np.trace(G))
    G.flat[:: l + 1] -= t * (4.0 * rank_tol ** 2 + (l + N + 3) * np.finfo(float).eps)
    try:
        R = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(R).all())


class StackSVD:
    """One thin SVD of an l x N system S: O(l N) numbers, never an N x N ``vh`` up front
    unless ``full``. ``rank`` and ``solve`` cut at ``_rank_cutoff``; ``kernel`` and ``pinv``
    at lstsq's default eps * max(l, N) * sigma_1."""

    def __init__(self, S: np.ndarray, full: bool = False):
        self.S = S
        self.u, self.sigma, self.vh = np.linalg.svd(S, full_matrices=full)

    def rank(self, rank_tol: float) -> int:
        return int(_rank(self.sigma, rank_tol))

    def solve(self, t: np.ndarray, rank_tol: float):
        """(y, ||S^T y - t||) for the minimum-norm least-squares y of S^T y ~ t. Values at
        or below the rank cutoff are dropped: a direction S spans only to rounding error
        would otherwise enter y with the inverse of a value near machine precision."""
        k = self.rank(rank_tol)
        y = self.u[:, :k] @ ((self.vh[:k] @ t) / self.sigma[:k])
        return y, float(np.linalg.norm(self.S.T @ y - t))

    def kernel(self) -> np.ndarray:
        """Orthonormal basis of ker S as columns, scipy's: a view of a Fortran-ordered vh.
        When l < N a thin vh lacks the kernel: the full factors are taken here unless ``full``."""
        sigma, vh = self.sigma, self.vh
        if len(vh) < self.S.shape[1]:
            _, sigma, vh = np.linalg.svd(self.S, full_matrices=True)
        return np.asfortranarray(vh)[self._lstsq_rank(sigma):].T

    def pinv(self) -> np.ndarray:
        k = self._lstsq_rank(self.sigma)
        return self.vh[:k].T @ (self.u[:, :k].T / self.sigma[:k, None])

    def _lstsq_rank(self, sigma: np.ndarray) -> int:
        return int(np.count_nonzero(sigma > np.amax(sigma, initial=0.0)
                                    * np.finfo(float).eps * max(self.S.shape)))
