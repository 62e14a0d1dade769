"""Tangent/normal cone projections and membership tests for low-rank sets.

The fixed-rank manifold has explicit tangent and normal spaces built from the
ranked SVD factors. For the set of matrices with rank at most r these combine
into the Bouligand tangent cone, the Frechet normal cone (its polar) and the
larger Mordukhovich normal cone:

    T^B(X) = T_fixed(X) + {H in N_fixed(X) : rank(H) <= r - s}
    N^F(X) = N_fixed(X)            if s == r, else {O}
    N^M(X) = {W in N_fixed(X) : rank(W) <= min(m, n) - r}

where s is the numerical rank of the base point. Cones are never
materialized; only projections and tolerance-relative predicates exist.

Constraints are read through one map: ``compress`` (U^T Z V) and its d_T
tangent entries, ``tangent_coordinates``, an isometry of the tangent space.

Membership tests for the flat subspaces U B V_J^T through the base point
assume the wider-than-tall case is transposed first; the public functions do
that transposition internally.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (DEFAULT_TOL, ThinSVD, _rank, _scale, as_matrix, as_shaped, check_positive,
                     spectral_norm)


@dataclass(frozen=True)
class ConeQuery:
    """Base-point context for cone tests: ranked SVD, rank bound, tolerance."""

    svd: ThinSVD
    r: int
    tol: float = DEFAULT_TOL
    s: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "s", self.svd.rank)
        if self.s > self.r:
            raise ValueError(
                f"base point has numerical rank {self.s} above the bound r={self.r}"
            )
        check_positive(self.tol, "tol")


@dataclass(frozen=True)
class IndexSetJ:
    """A size-r column index set containing the base point's prefix 0..s-1."""

    indices: tuple
    s: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError("index set has negative entries")
        if sorted(set(idx)) != sorted(idx):
            raise ValueError("index set has repeated entries")
        if not set(range(self.s)).issubset(idx):
            raise ValueError("index set must contain the rank prefix 0..s-1")
        object.__setattr__(self, "indices", idx)


def enumerate_J(s: int, n: int, r: int, cap: int = 10**6) -> list:
    """All C(n-s, r-s) size-r supersets of the prefix 0..s-1, lexicographic."""
    if not 0 <= s <= r <= n:
        raise ValueError(f"need 0 <= s <= r <= n, got s={s}, r={r}, n={n}")
    count = math.comb(n - s, r - s)
    if count > cap:
        raise ValueError(f"enumeration of {count} index sets exceeds cap {cap}")
    prefix = tuple(range(s))
    return [IndexSetJ(prefix + combo, s)
            for combo in itertools.combinations(range(s, n), r - s)]


def compress(svd: ThinSVD, Z) -> np.ndarray:
    """U^T Z V, Z in the point's singular-vector basis; Z may be a (..., m, n) stack."""
    return svd.u.T @ as_shaped(Z, (svd.m, svd.n), "Z", stack=True) @ svd.v


def tangent_mask(svd: ThinSVD) -> np.ndarray:
    """(m, n) mask of the tangent entries i < s or j < s of a compressed matrix.

    Built once per (m, n, s) and shared: the array is read-only.
    """
    return _tangent_mask(svd.m, svd.n, svd.rank)


@functools.lru_cache(maxsize=256)
def _tangent_mask(m: int, n: int, s: int) -> np.ndarray:
    i, j = np.indices((m, n))
    mask = (i < s) | (j < s)
    mask.flags.writeable = False
    return mask


def tangent_coordinates(svd: ThinSVD, Z) -> np.ndarray:
    """The d_T tangent entries of compress(svd, Z) in row-major order, (..., d_T)."""
    return compress(svd, Z)[..., tangent_mask(svd)]


def project_tangent_fixed_rank(svd: ThinSVD, Z) -> np.ndarray:
    """Pu Z Pv + Pu Z Pv_perp + Pu_perp Z Pv with Pu = U_g U_g^T etc.

    Z may be a (..., m, n) stack; every matrix in it is projected.
    """
    Z = as_shaped(Z, (svd.m, svd.n), "Z", stack=True)
    ug, vg = svd.u_gamma, svd.v_gamma
    zu = ug @ (ug.T @ Z)          # Pu Z
    zv = (Z @ vg) @ vg.T          # Z Pv
    zuv = ug @ ((ug.T @ Z) @ vg) @ vg.T
    return zu + zv - zuv


def project_normal_fixed_rank(svd: ThinSVD, Z) -> np.ndarray:
    """Pu_perp Z Pv_perp, the complement of the tangent projection; Z may be a stack."""
    Z = as_shaped(Z, (svd.m, svd.n), "Z", stack=True)
    up, vp = svd.u_perp, svd.v_perp
    return up @ (up.T @ Z @ vp) @ vp.T


def in_tangent_bouligand_Mr(q: ConeQuery, H) -> bool:
    """H is tangent iff its normal block N = C[s:, s:] of C = compress(svd, H) has rank
    at most r - s, counted against rank_tol * sigma_1(C) = rank_tol * sigma_1(H): relative
    to H, not to its (possibly vanishing) normal part, so exactly tangent directions and
    H = O pass."""
    C = compress(q.svd, as_shaped(H, (q.svd.m, q.svd.n), "H"))
    sv = np.linalg.svd(C[q.s:, q.s:], compute_uv=False)
    return bool(_rank(sv, q.svd.rank_tol, spectral_norm(C)) <= q.r - q.s)


def _frechet_residual(svd: ThinSVD, r: int, W) -> float:
    """Norm of the part of W outside the Frechet normal cone N^F(X) of rank <= r.

    That part is the tangential one when s == r and all of W when s < r,
    where N^F collapses to {O}. With r = s it is the tangential part at any
    s, the part outside the fixed-rank normal space N_fixed(X) that holds N^M.
    """
    if svd.rank == r:
        return float(np.linalg.norm(project_tangent_fixed_rank(svd, W)))
    return float(np.linalg.norm(W))


def _mordukhovich_rank_ok(svd: ThinSVD, r: int, sigma: np.ndarray) -> bool:
    """The rank bound of N^M(X), rank(W) <= min(m, n) - r, read off W's singular values."""
    return bool(_rank(sigma, svd.rank_tol) <= min(svd.m, svd.n) - r)


def _in_mordukhovich(svd: ThinSVD, r: int, tangential: float, norm: float, sigma,
                     threshold: float) -> bool:
    """W in N^M(X) from its residual outside the rank-s normal space, its norm and
    ``sigma()``, its singular values, which only the rank bound at s < r takes."""
    if tangential > threshold:
        return False
    if svd.rank == r or norm <= threshold:
        return True
    return _mordukhovich_rank_ok(svd, r, sigma())


def in_normal_frechet_Mr(q: ConeQuery, W) -> bool:
    """Frechet normality: tangential part vanishes if s == r, else W = O."""
    W = as_shaped(W, (q.svd.m, q.svd.n), "W")
    return _frechet_residual(q.svd, q.r, W) <= q.tol * _scale(float(np.linalg.norm(W)))


def in_normal_mordukhovich_Mr(q: ConeQuery, W) -> bool:
    """Tangential part vanishes and, unless s == r or W is within tolerance of O,
    rank(W) <= min(m, n) - r: ``check_M_stationary``'s rule, scaled by ||W||."""
    W = as_shaped(W, (q.svd.m, q.svd.n), "W")
    norm = float(np.linalg.norm(W))
    return _in_mordukhovich(q.svd, q.r, _frechet_residual(q.svd, q.s, W), norm,
                            lambda: np.linalg.svd(W, compute_uv=False), q.tol * _scale(norm))


def in_normal_MXJ(svd: ThinSVD, J, W, tol: float = DEFAULT_TOL) -> bool:
    """Normal-space test for the flat U B V_J^T through X: U^T W V_J = O.

    J, an ``IndexSetJ`` or its indices, is validated as an ``IndexSetJ`` of the
    point's rank, and its columns must exist."""
    if svd.m < svd.n:
        return in_normal_MXJ(svd.transposed(), J, as_matrix(W, "W").T, tol)
    W = as_shaped(W, (svd.m, svd.n), "W")
    idx = IndexSetJ(J.indices if isinstance(J, IndexSetJ) else J, svd.rank).indices
    if idx and max(idx) >= svd.n:
        raise ValueError("index set exceeds the number of columns")
    vj = svd.v[:, list(idx)]
    resid = float(np.linalg.norm(svd.u.T @ W @ vj))
    return resid <= tol * _scale(float(np.linalg.norm(W)))


def in_normal_frechet_MXr(q: ConeQuery, W) -> bool:
    """Frechet normal cone of the union of flats: at s == r the normal space of the flat
    on the rank prefix, U^T W V_g = O; at s < r, like N^F(X), only W = O."""
    if q.s == q.r:
        return in_normal_MXJ(q.svd, range(q.s), W, q.tol)
    return in_normal_frechet_Mr(q, W)
