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
from functools import cached_property

import numpy as np

from .affine import AffineMap
from .cones import compress, tangent_coordinates, tangent_mask
from .errors import QualificationError
from .linalg import (DEFAULT_RANK_TOL, DEFAULT_TOL, StackSVD, ThinSVD, _scale, as_shaped,
                     rank_estimate)
from .report import JsonReport

CASE_FULL_RANK = "eq_full_rank"
CASE_RANK_DEFICIENT = "eq_rank_deficient"
CASE_NOT_CERTIFIED = "not_certified"
# the Assumption whose independence certifies each case; not_certified has none
CASE_ASSUMPTION = {CASE_FULL_RANK: 1, CASE_RANK_DEFICIENT: 2}


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


class PointConstraints:
    """U^T A^i V at ``svd``'s point; ``tangent``: on first use, the SVD of its tangent part."""

    def __init__(self, svd: ThinSVD, amap: AffineMap):
        self.svd = svd
        self.amap = amap
        self.compressed = compress(svd, amap.mats)

    @cached_property
    def tangent(self) -> StackSVD:
        return StackSVD(self.compressed[:, tangent_mask(self.svd)])

    def fit(self, W, tangential: bool, rank_tol: float):
        """(y, residual) of the minimum-norm least-squares fit sum_i y_i A^i ~ W: on W's
        tangent coordinates at the point when ``tangential``, else on all of W."""
        if tangential:
            return self.tangent.solve(tangent_coordinates(self.svd, W), rank_tol)
        return self.amap.fit_multiplier(W, rank_tol)


def build_T(svd: ThinSVD, amap: AffineMap) -> np.ndarray:
    """l x m x n compressed constraint matrices, trailing (m-s) x (n-s) block zeroed."""
    T = compress(svd, amap.mats)
    T[:, svd.rank:, svd.rank:] = 0.0
    return T


def build_R(svd: ThinSVD, amap: AffineMap) -> np.ndarray:
    """U^T A^i V_g stacked (transposed convention when the point is wider than tall)."""
    return _slice_R(svd, compress(svd, amap.mats))


def _slice_R(svd: ThinSVD, C: np.ndarray) -> np.ndarray:
    if svd.m >= svd.n:
        return C[:, :, :svd.rank]
    return C[:, :svd.rank, :].transpose(0, 2, 1)


def _independent(k: int, cons: PointConstraints, tol: float):
    """(verdict, rank, note) for Assumption k: independence of the T^i (k = 1) or R^i (k = 2).

    The row width of the ranked stack bounds l; ``note`` says so when l
    exceeds it, else it is None. The note is returned, not warned, so that
    concurrent callers each keep their own.
    """
    if k == 1:
        l, bound = cons.tangent.S.shape
        rank, what = cons.tangent.rank(tol), "compressed matrices; the first qualification"
    else:
        R = _slice_R(cons.svd, cons.compressed)
        l, bound = len(R), int(np.prod(R.shape[1:]))
        rank = rank_estimate(R.reshape(l, bound), tol)
        what = "column-compressed matrices; the second qualification"
    note = None
    if l > bound:
        note = (f"{l} constraints exceed the dimension {bound} available to the "
                f"{what} cannot hold")
    return rank == l, rank, note


def _warned(verdict: bool, rank: int, note):
    """(verdict, rank), warning the caller of the public check with the note if any."""
    if note is not None:
        warnings.warn(note, RuntimeWarning, stacklevel=3)
    return verdict, rank


def assumption1_holds(svd: ThinSVD, amap: AffineMap, tol: float = DEFAULT_RANK_TOL):
    """Linear independence of the T^i, ranked on their l x d_T nonzero entries; (verdict, rank)."""
    return _warned(*_independent(1, PointConstraints(svd, amap), tol))


def assumption2_holds(svd: ThinSVD, amap: AffineMap, tol: float = DEFAULT_RANK_TOL):
    """Linear independence of the R^i stack; returns (verdict, rank)."""
    return _warned(*_independent(2, PointConstraints(svd, amap), tol))


def bq_certificates(svd: ThinSVD, amap: AffineMap, r: int, tol: float = DEFAULT_RANK_TOL,
                    constraints: PointConstraints | None = None) -> QualificationReport:
    """Qualification verdicts plus the intersection-rule case at the base point.

    The basic-qualification flag tests triviality of the kernel of
    y -> tangent-projection of sum_i y_i A^i. It equals the first
    qualification: the tangent projection of A^i is U T^i V^T, so both stacks
    have the same singular values. The Mordukhovich variant follows because
    that normal cone sits inside the fixed-rank normal space. Both
    qualifications read ``constraints``, the point's record, when given.
    """
    s = svd.rank
    cons = PointConstraints(svd, amap) if constraints is None else constraints
    a1, t_rank, note1 = _independent(1, cons, tol)
    a2, r_rank, note2 = _independent(2, cons, tol)
    notes = [note for note in (note1, note2) if note is not None]

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
    cut, sig = svd.threshold, svd.sigma
    return bool(np.any((sig > cut / 10.0) & (sig <= cut * 10.0)))


def frechet_normal_decomposition(svd: ThinSVD, amap: AffineMap, r: int, W,
                                 tol: float = DEFAULT_TOL):
    """Least-squares split W = sum_i y_i A^i + Delta with Delta Frechet-normal.

    Returns (member, y, residual). Requires a certified intersection-rule
    case; the split formula is only valid under the matching qualification,
    the only one checked (Assumption 1 at s == r, Assumption 2 at s < r), at
    the cutoff ``PointAnalysis.qualification`` applies, min(tol, rank_tol).
    """
    s = svd.rank
    if s > r:
        raise QualificationError(f"base point has rank {s} above the bound r={r}")
    cons = PointConstraints(svd, amap)
    k = CASE_ASSUMPTION[CASE_FULL_RANK if s == r else CASE_RANK_DEFICIENT]
    ok, _, _ = _independent(k, cons, min(tol, svd.rank_tol))
    if not ok:
        raise QualificationError(
            "intersection rule is not certified at this point: "
            f"Assumption {k} fails (s={s}, r={r})"
        )
    W = as_shaped(W, (svd.m, svd.n), "W")
    y, resid = cons.fit(W, s == r, svd.rank_tol)
    member = resid <= tol * _scale(float(np.linalg.norm(W)))
    return member, y, resid


def frechet_normal_of_feasible_set(svd: ThinSVD, amap: AffineMap, r: int, W,
                                   tol: float = DEFAULT_TOL) -> bool:
    """Membership of W in N_L(X) + N^F_{M(r)}(X) under a certified rule."""
    member, _, _ = frechet_normal_decomposition(svd, amap, r, W, tol)
    return member
