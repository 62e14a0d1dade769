"""Constraint qualifications and the normal-cone intersection rule.

Two linear-independence conditions on compressed constraint matrices decide
when the Frechet normal cone of the feasible set splits into the sum of the
normal space of the affine manifold and the Frechet normal cone of the
low-rank set. Both are slices of ``cones.compress``, U^T A^i V:

    T^i = [[Ug^T A^i Vg, Ug^T A^i Vp], [Up^T A^i Vg, 0]]     (m x n)
    R^i = U^T A^i Vg                                          (m x s)

Assumption 1 asks for linearly independent T^i (ranked on their nonzero
entries, the tangent coordinates), Assumption 2 for linearly independent
R^i. The split is certified at s == r under Assumption 1 and at s < r under
Assumption 2; ``bq_certificates`` records both verdicts independently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .affine import AffineMap
from .cones import compress, tangent_mask
from .errors import QualificationError
from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL, ThinSVD, as_shaped, rank_estimate
from .report import JsonReport

CASE_FULL_RANK = "eq_full_rank"
CASE_RANK_DEFICIENT = "eq_rank_deficient"
CASE_NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class QualificationReport(JsonReport):
    """Ranks and verdicts of the two qualifications at a base point."""

    s: int
    r: int
    l: int
    t_rank: int
    r_rank: int
    assumption1: bool
    assumption2: bool
    bq_subspace: bool
    bq_mordukhovich: bool
    intersection_rule_case: str
    warnings: tuple = ()


def build_T(svd: ThinSVD, amap: AffineMap) -> np.ndarray:
    """l x m x n compressed constraint matrices, trailing (m-s) x (n-s) block zeroed."""
    T = compress(svd, amap.mats)
    T[:, svd.rank:, svd.rank:] = 0.0
    return T


def build_R(svd: ThinSVD, amap: AffineMap, compressed=None) -> np.ndarray:
    """U^T A^i V_g stacked (transposed convention when the point is wider than tall).

    ``compressed``, when given, is ``compress(svd, amap.mats)`` already taken.
    """
    C = compress(svd, amap.mats) if compressed is None else compressed
    if svd.m >= svd.n:
        return C[:, :, :svd.rank]
    return C[:, :svd.rank, :].transpose(0, 2, 1)


def _independent(mats: np.ndarray, what: str, tol: float):
    """(verdict, rank) for independence of an l x ... stack; its row width bounds l."""
    l = len(mats)
    bound = int(np.prod(mats.shape[1:]))
    if l > bound:
        warnings.warn(
            f"{l} constraints exceed the dimension {bound} available to the "
            f"{what} cannot hold",
            RuntimeWarning,
            stacklevel=3,
        )
    rank = rank_estimate(mats.reshape(l, bound), tol)
    return rank == l, rank


def assumption1_holds(svd: ThinSVD, amap: AffineMap, tol: float = DEFAULT_RANK_TOL,
                      compressed=None):
    """Linear independence of the T^i, ranked on their l x d_T nonzero entries; (verdict, rank)."""
    C = compress(svd, amap.mats) if compressed is None else compressed
    return _independent(C[:, tangent_mask(svd)],
                        "compressed matrices; the first qualification", tol)


def assumption2_holds(svd: ThinSVD, amap: AffineMap, tol: float = DEFAULT_RANK_TOL,
                      compressed=None):
    """Linear independence of the R^i stack; returns (verdict, rank)."""
    return _independent(build_R(svd, amap, compressed),
                        "column-compressed matrices; the second qualification", tol)


def bq_certificates(svd: ThinSVD, amap: AffineMap, r: int,
                    tol: float = DEFAULT_RANK_TOL, compressed=None) -> QualificationReport:
    """Qualification verdicts plus the intersection-rule case at the base point.

    The basic-qualification flag tests triviality of the kernel of
    y -> tangent-projection of sum_i y_i A^i. It equals the first
    qualification: the tangent projection of A^i is U T^i V^T, so both stacks
    have the same singular values. The Mordukhovich variant follows because
    that normal cone sits inside the fixed-rank normal space. Both
    qualifications read ``compressed`` (``compress(svd, amap.mats)``) when given.
    """
    s = svd.rank
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if compressed is None:
            compressed = compress(svd, amap.mats)
        a1, t_rank = assumption1_holds(svd, amap, tol, compressed)
        a2, r_rank = assumption2_holds(svd, amap, tol, compressed)
    notes.extend(str(w.message) for w in caught)

    if s == r and a1:
        case = CASE_FULL_RANK
    elif s < r and a2:
        case = CASE_RANK_DEFICIENT
    else:
        case = CASE_NOT_CERTIFIED

    if amap.l and amap.stack_rank(tol) < amap.l:
        notes.append("constraint matrices are linearly dependent")
    if _rank_fragile(svd):
        notes.append(
            "rank-fragile: a singular value sits within a decade of the rank "
            "cutoff, so the numerical rank may flip under perturbation"
        )
    return QualificationReport(
        s=s, r=int(r), l=amap.l, t_rank=t_rank, r_rank=r_rank,
        assumption1=a1, assumption2=a2,
        bq_subspace=a1, bq_mordukhovich=a1,
        intersection_rule_case=case, warnings=tuple(notes),
    )


def _rank_fragile(svd: ThinSVD) -> bool:
    cut = svd.threshold
    if cut == 0.0:
        return False
    sig = svd.sigma
    return bool(np.any((sig > cut / 10.0) & (sig <= cut * 10.0)))


def frechet_normal_decomposition(svd: ThinSVD, amap: AffineMap, r: int, W,
                                 tol: float = DEFAULT_TOL):
    """Least-squares split W = sum_i y_i A^i + Delta with Delta Frechet-normal.

    Returns (member, y, residual). Requires a certified intersection-rule
    case; the split formula is only valid under the matching qualification,
    the only one checked (Assumption 1 at s == r, Assumption 2 at s < r).
    """
    s = svd.rank
    if s > r:
        raise QualificationError(f"base point has rank {s} above the bound r={r}")
    holds = assumption1_holds if s == r else assumption2_holds
    C = compress(svd, amap.mats)
    with warnings.catch_warnings():  # a dimension-bound warning only restates the error
        warnings.simplefilter("ignore", RuntimeWarning)
        ok, _ = holds(svd, amap, min(tol, DEFAULT_RANK_TOL), C)
    if not ok:
        raise QualificationError(
            "intersection rule is not certified at this point: "
            f"Assumption {1 if s == r else 2} fails (s={s}, r={r})"
        )
    W = as_shaped(W, (svd.m, svd.n), "W")
    y, resid = amap.fit_multiplier(W, svd.rank_tol, svd if s == r else None, C)
    member = resid <= tol * max(1.0, float(np.linalg.norm(W)))
    return member, y, resid


def frechet_normal_of_feasible_set(svd: ThinSVD, amap: AffineMap, r: int, W,
                                   tol: float = DEFAULT_TOL) -> bool:
    """Membership of W in N_L(X) + N^F_{M(r)}(X) under a certified rule."""
    member, _, _ = frechet_normal_decomposition(svd, amap, r, W, tol)
    return member
