"""Constraint qualifications and the normal-cone intersection rule.

Two linear-independence conditions on compressed constraint matrices decide
when the Frechet normal cone of the feasible set splits into the sum of the
normal space of the affine manifold and the Frechet normal cone of the
low-rank set:

    T^i = [[Ug^T A^i Vg, Ug^T A^i Vp], [Up^T A^i Vg, 0]]     (m x n)
    R^i = U^T A^i Vg                                          (m x s)

Assumption 1 asks for linearly independent T^i, Assumption 2 for linearly
independent R^i. The split is certified at full-rank points (s == r) under
Assumption 1 and at rank-deficient points (s < r) under Assumption 2; both
verdicts are recorded independently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .affine import AffineMap
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
    _check_shapes(svd, amap)
    s = svd.rank
    T = svd.u.T @ amap.mats @ svd.v
    T[:, s:, s:] = 0.0
    return T


def build_R(svd: ThinSVD, amap: AffineMap) -> np.ndarray:
    """U^T A^i V_g stacked (transposed convention when the point is wider than tall)."""
    _check_shapes(svd, amap)
    if svd.m >= svd.n:
        return svd.u.T @ amap.mats @ svd.v_gamma
    return svd.v.T @ amap.mats.transpose(0, 2, 1) @ svd.u_gamma


def _check_shapes(svd: ThinSVD, amap: AffineMap) -> None:
    if amap.shape != (svd.m, svd.n):
        raise ValueError(
            f"constraints have shape {amap.shape}, base point is {(svd.m, svd.n)}"
        )


def _independent(mats: np.ndarray, bound: int, what: str, tol: float):
    """(verdict, rank) for linear independence of an l x p x q stack."""
    l = len(mats)
    if l > bound:
        warnings.warn(
            f"{l} constraints exceed the dimension {bound} available to the "
            f"{what} cannot hold",
            RuntimeWarning,
            stacklevel=3,
        )
    rank = rank_estimate(mats.reshape(l, -1), tol) if l else 0
    return rank == l, rank


def assumption1_holds(svd: ThinSVD, amap: AffineMap, tol: float = DEFAULT_RANK_TOL):
    """Linear independence of the T^i stack; returns (verdict, rank)."""
    s = svd.rank
    bound = svd.m * svd.n - (svd.m - s) * (svd.n - s)
    return _independent(build_T(svd, amap), bound,
                        "compressed matrices; the first qualification", tol)


def assumption2_holds(svd: ThinSVD, amap: AffineMap, tol: float = DEFAULT_RANK_TOL):
    """Linear independence of the R^i stack; returns (verdict, rank)."""
    return _independent(build_R(svd, amap), max(svd.m, svd.n) * svd.rank,
                        "column-compressed matrices; the second qualification", tol)


def bq_certificates(svd: ThinSVD, amap: AffineMap, r: int,
                    tol: float = DEFAULT_RANK_TOL) -> QualificationReport:
    """Qualification verdicts plus the intersection-rule case at the base point.

    The basic-qualification flag tests triviality of the kernel of
    y -> tangent-projection of sum_i y_i A^i. It equals the first
    qualification: the tangent projection of A^i is U T^i V^T, so both stacks
    have the same singular values. The Mordukhovich variant follows because
    that normal cone sits inside the fixed-rank normal space.
    """
    s = svd.rank
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a1, t_rank = assumption1_holds(svd, amap, tol)
        a2, r_rank = assumption2_holds(svd, amap, tol)
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
    case; the split formula is only valid under the matching qualification.
    """
    rep = bq_certificates(svd, amap, r, min(tol, DEFAULT_RANK_TOL))
    if rep.intersection_rule_case == CASE_NOT_CERTIFIED:
        raise QualificationError(
            "intersection rule is not certified at this point "
            f"(s={rep.s}, r={rep.r}, assumption1={rep.assumption1}, "
            f"assumption2={rep.assumption2})"
        )
    W = as_shaped(W, (svd.m, svd.n), "W")
    y, resid = amap.fit_multiplier(W, svd.rank_tol, svd if svd.rank == r else None)
    member = resid <= tol * max(1.0, float(np.linalg.norm(W)))
    return member, y, resid


def frechet_normal_of_feasible_set(svd: ThinSVD, amap: AffineMap, r: int, W,
                                   tol: float = DEFAULT_TOL) -> bool:
    """Membership of W in N_L(X) + N^F_{M(r)}(X) under a certified rule."""
    member, _, _ = frechet_normal_decomposition(svd, amap, r, W, tol)
    return member
