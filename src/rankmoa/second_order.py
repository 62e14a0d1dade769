"""Second-order optimality checks on the reduced tangent intersection.

At a full-rank F-stationary point (s == r) the relevant quadratic form is

    q(Xi) = hess f(X)[Xi, Xi] - 2 <grad_X L(X; y), Xi X^+ Xi>

evaluated on an orthonormal basis of T_L(X) intersected with the tangent
space of the fixed-rank manifold; its extreme eigenvalues decide the
necessary (min >= 0) and sufficient (min > 0) conditions. The curvature
coefficient defaults to -2 but is a parameter: the two standard assemblies
of the correction term disagree in sign, and reports note which one ran so
the check can be repeated under the opposite convention.

At a rank-deficient point (s < r) the tangent cone of the feasible set is
not a subspace, so the check is two-tier: a positive-definiteness
certificate of plain hess f on all of ker A (a superset of the cone) proves
sufficiency, while randomized cone directions re-verified for membership can
only falsify the necessary condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .affine import AffineMap
from .cones import (ConeQuery, in_tangent_bouligand_Mr,
                    project_normal_fixed_rank, project_tangent_fixed_rank)
from .linalg import ThinSVD, as_matrix, project_low_rank, pseudo_inverse
from .model import ProblemSpec
from .stationarity import PointAnalysis, lagrangian_grad

CASE_FULL = "full_rank"
CASE_DEFICIENT = "rank_deficient"


@dataclass
class SecondOrderReport:
    case: str
    basis_dim: int
    min_eig: float
    max_eig: float
    necessary_ok: bool
    sufficient_ok: bool
    cone_samples_tested: int = 0
    cone_violations: int = 0
    subspace_min_eig: float | None = None
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        def _num(x):
            if x is None:
                return None
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return x
        return {
            "case": self.case,
            "basis_dim": self.basis_dim,
            "min_eig": _num(self.min_eig),
            "max_eig": _num(self.max_eig),
            "necessary_ok": self.necessary_ok,
            "sufficient_ok": self.sufficient_ok,
            "cone_samples_tested": self.cone_samples_tested,
            "cone_violations": self.cone_violations,
            "subspace_min_eig": _num(self.subspace_min_eig),
            "notes": list(self.notes),
        }


def _gram_form(objective, X, B, gradL=None, pinv=None,
               curvature_coeff: float = -2.0) -> np.ndarray:
    """Gram matrix of the second-order form on the d x m x n basis B.

    Entry (i, j) is hess f[B_i, B_j] + coeff * sym <grad_X L, B_i X^+ B_j>;
    without ``gradL`` it is the plain Hessian form of the rank-deficient
    case. The Hessian is applied once to each B_i and contracted with every
    B_j; the upper triangle (i <= j) is mirrored so the result is exactly
    symmetric even for a Hessian that is symmetric only up to rounding.
    """
    d = len(B)
    flat = B.reshape(d, X.size)
    H = np.array([objective.hess_apply(X, b) for b in B]).reshape(d, X.size)
    Q = H @ flat.T
    if gradL is not None:
        C = np.einsum("iac,ce,jeb,ab->ij", B, pinv, B, gradL, optimize=True)
        Q = Q + curvature_coeff * 0.5 * (C + C.T)
    return np.triu(Q) + np.triu(Q, 1).T


def riemannian_quad(prob: ProblemSpec, svd: ThinSVD, y, Xi,
                    curvature_coeff: float = -2.0) -> float:
    """hess f(X)[Xi, Xi] + coeff * <grad_X L(X; y), Xi X^+ Xi> at s == r."""
    if svd.rank != prob.r:
        raise ValueError(
            "curvature-corrected form applies only when the point's rank equals "
            "the bound; use plain_quad for rank-deficient points"
        )
    Xi = as_matrix(Xi, "Xi")
    X = svd.reconstruct()
    gradL = lagrangian_grad(prob, X, y)
    return float(_gram_form(prob.objective, X, Xi[None], gradL,
                            pseudo_inverse(svd), curvature_coeff)[0, 0])


def plain_quad(prob: ProblemSpec, X, Xi) -> float:
    """hess f(X)[Xi, Xi]; the rank-deficient case carries no curvature term."""
    return float(_gram_form(prob.objective, as_matrix(X, "X"),
                            as_matrix(Xi, "Xi")[None])[0, 0])


def _reduced_basis(svd: ThinSVD, amap: AffineMap) -> np.ndarray:
    """Orthonormal d x m x n basis of ker A intersected with the rank-s tangent space.

    The tangent space is spanned by the orthonormal directions u_i v_j^T with
    i < s or j < s; ker A is cut out of their span by one null-space solve.
    """
    s, m, n = svd.rank, svd.m, svd.n
    i, j = np.divmod(np.arange(m * n), n)
    dirs = np.einsum("ai,bj->ijab", svd.u, svd.v).reshape(m * n, m * n)
    dirs = dirs[(i < s) | (j < s)]
    if amap.l:
        dirs = scipy.linalg.null_space(amap.stack @ dirs.T).T @ dirs
    return dirs.reshape(-1, m, n)


def tangent_intersection_basis(svd: ThinSVD, amap: AffineMap, r: int) -> list:
    """Orthonormal basis of ker A intersected with the rank-r tangent space."""
    if svd.rank != int(r):
        raise ValueError(
            f"base point has rank {svd.rank}, but the rank-{r} tangent space "
            "is only a subspace when the rank equals the bound"
        )
    if amap.shape != (svd.m, svd.n):
        raise ValueError("constraint shape disagrees with the base point")
    return list(_reduced_basis(svd, amap))


def _extreme_eigs(Q: np.ndarray):
    if Q.shape[0] == 0:
        return math.inf, -math.inf
    eigs = np.linalg.eigvalsh(Q)
    return float(eigs[0]), float(eigs[-1])


def check_second_order(prob: ProblemSpec, X, y, samples: int = 2000,
                       seed: int = 0, curvature_coeff: float = -2.0) -> SecondOrderReport:
    """Second-order necessary/sufficient verdicts at an F-stationary point.

    X may be a ``PointAnalysis`` of the point, whose SVD and gradient are reused.
    """
    pa = PointAnalysis.of(prob, X)
    X, svd, s = pa.X, pa.svd, pa.s
    y = np.atleast_1d(np.asarray(y, dtype=float))
    gradL = pa.grad_lagrangian(y)
    resid = pa.frechet_residual(gradL)
    if resid > prob.tol * pa.scale:
        raise ValueError(
            f"point is not F-stationary at the supplied multiplier "
            f"(residual {resid:.3e} > {prob.tol * pa.scale:.3e})"
        )

    if s == prob.r:
        basis = np.reshape(tangent_intersection_basis(svd, prob.affine, prob.r),
                           (-1, prob.m, prob.n))
        Q = _gram_form(prob.objective, X, basis, gradL, pseudo_inverse(svd),
                       curvature_coeff)
        lo, hi = _extreme_eigs(Q)
        rep = SecondOrderReport(
            case=CASE_FULL, basis_dim=len(basis), min_eig=lo, max_eig=hi,
            necessary_ok=lo >= -prob.tol, sufficient_ok=lo > prob.tol,
        )
        rep.notes.append(
            f"curvature coefficient {curvature_coeff:+g}; rerun with the opposite "
            "sign to bound sign-convention sensitivity of the correction term"
        )
        if rep.sufficient_ok:
            rep.notes.append("strictly local minimizer restricted on M^r (Thm 4.4 i)")
        return rep

    # rank-deficient point: certificate on supersets, falsification by sampling
    sub_basis = _reduced_basis(svd, prob.affine)
    sub_lo, _ = _extreme_eigs(_gram_form(prob.objective, X, sub_basis))
    ker = prob.affine.kernel_basis()
    lo, hi = _extreme_eigs(_gram_form(prob.objective, X, ker))

    rep = SecondOrderReport(
        case=CASE_DEFICIENT, basis_dim=len(ker), min_eig=lo, max_eig=hi,
        necessary_ok=sub_lo >= -prob.tol, sufficient_ok=lo > prob.tol,
        subspace_min_eig=sub_lo,
    )
    if rep.sufficient_ok:
        rep.notes.append(
            "hess f is positive definite on ker A, a superset of the feasible "
            "tangent cone, so X is a strictly local minimizer (Thm 4.4 ii)"
        )

    rng = np.random.default_rng(seed)
    q = ConeQuery(svd, prob.r, prob.tol)
    K = ker.reshape(len(ker), -1)
    tested = violations = 0
    for _ in range(int(samples)):
        g1 = rng.standard_normal((prob.m, prob.n))
        g2 = rng.standard_normal((prob.m, prob.n))
        xi0 = project_tangent_fixed_rank(svd, g1)
        xi0 += project_low_rank(project_normal_fixed_rank(svd, g2),
                                prob.r - s, prob.rank_tol)[0]
        xi = (K.T @ (K @ xi0.ravel())).reshape(xi0.shape) if prob.l else xi0
        norm = float(np.linalg.norm(xi))
        if norm < 1e-10:
            continue
        if not in_tangent_bouligand_Mr(q, xi):
            continue  # the kernel projection may have broken the rank bound
        tested += 1
        if plain_quad(prob, X, xi) / norm**2 < -prob.tol:
            violations += 1
    rep.cone_samples_tested = tested
    rep.cone_violations = violations
    if violations:
        rep.necessary_ok = False
        rep.notes.append(
            f"{violations} sampled feasible cone directions carry negative "
            "curvature; the second-order necessary condition fails"
        )
    return rep
