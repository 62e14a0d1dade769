"""Second-order optimality checks on the reduced tangent intersection.

At a full-rank F-stationary point (s == r) the relevant quadratic form is

    q(Xi) = hess f(X)[Xi, Xi] + 2 <grad_X L(X; y), Xi X^+ Xi>

evaluated on an orthonormal basis B_1..B_d of T_L(X) intersected with the
tangent space of the fixed-rank manifold; its extreme eigenvalues decide the
necessary (min >= 0) and sufficient (min > 0) conditions. That basis is the
kernel of ``PointConstraints.tangent``, which Assumption 1 and the
tangential multiplier fit read too. The second term is the curvature of
the fixed-rank manifold: a feasible curve through X with velocity Xi has
normal acceleration 2 P_N(Xi X^+ Xi), which the normal gradient of L reads
(Absil, Mahony & Sepulchre, 2008); ``rankmoa oracle curvature`` replays the
form against second differences of f along such curves. The correction's
Gram matrix is assembled from matmuls alone, as
<grad_X L, B_i X^+ B_j> = <B_j, (X^+)^T B_i^T grad_X L>: the d products
(X^+)^T B_i^T grad_X L come from two stacked matmuls and are contracted with
the flattened basis in a third, with no contraction path to plan per call.

At a rank-deficient point (s < r) the feasible tangent cone is T_s(X) plus
the normal blocks U_perp N V_perp^T of rank <= k = r - s, cut by ker A: a
union of linear spaces (Levin, Kileel & Boumal, "Finding stationary points
on bounded-rank matrices"). Plain hess f positive definite on ker A, a
superset, proves sufficiency; its minimum there at or above -tol rules out
any violation. Only below -tol is the cone searched, which can only falsify.
From each eigenvector of the form on ker A below -tol, P spans the top k
left singular vectors of its normal block, and the form's exact minimum on
T_s(X) + {U_perp P Z V_perp^T}, cut by ker A, costs one SVD and one Hessian
call. The search alternates to the row space Q of the minimizer's block, on
T_s(X) + {U_perp W Q^T V_perp^T}, and back; each minimizer lies in the next
space, so the eigenvalue cannot rise. It stops at the first eigenvalue below
-tol, whose eigenvector is a witness, once the eigenvalue falls by less than
tol, or after ``samples`` spaces. The spaces are one-sided since a generic
pair P W Q^T meets ker A only in T_s(X) once l reaches the pair's dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineMap
from .cones import tangent_mask
from .linalg import StackSVD, ThinSVD, _count_arg, as_matrix, pseudo_inverse
from .model import ProblemSpec
from .qualification import PointConstraints
from .report import JsonReport
from .stationarity import PointAnalysis, lagrangian_grad

CASE_FULL = "full_rank"
CASE_DEFICIENT = "rank_deficient"


@dataclass
class SecondOrderReport(JsonReport):
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


def _gram_form(objective, X, B, gradL=None, pinv=None) -> np.ndarray:
    """Gram matrix of the second-order form on the d x m x n basis B.

    Entry (i, j) is hess f[B_i, B_j] + 2 sym <grad_X L, B_i X^+ B_j>;
    without ``gradL`` it is the plain Hessian form of the rank-deficient
    case. The Hessian is applied to the whole basis in one call and
    contracted with every B_j, and so is the curvature term's
    (X^+)^T B_i^T grad_X L (see the module docstring). The upper triangle
    (i <= j) is mirrored so the result is exactly symmetric even for a
    Hessian that is symmetric only up to rounding.
    """
    flat = B.reshape(len(B), X.size)
    Q = objective.hess_apply(X, B).reshape(flat.shape) @ flat.T
    if gradL is not None:
        C = ((pinv.T @ B.transpose(0, 2, 1)) @ gradL).reshape(flat.shape) @ flat.T
        Q = Q + (C + C.T)
    return np.triu(Q) + np.triu(Q, 1).T


def riemannian_quad(prob: ProblemSpec, svd: ThinSVD, y, Xi) -> float:
    """hess f(X)[Xi, Xi] + 2 <grad_X L(X; y), Xi X^+ Xi> at s == r."""
    if svd.rank != prob.r:
        raise ValueError(
            "curvature-corrected form applies only when the point's rank equals "
            "the bound; use plain_quad for rank-deficient points"
        )
    Xi = as_matrix(Xi, "Xi")
    X = svd.reconstruct()
    gradL = lagrangian_grad(prob, X, y)
    return float(_gram_form(prob.objective, X, Xi[None], gradL,
                            pseudo_inverse(svd))[0, 0])


def plain_quad(prob: ProblemSpec, X, Xi) -> float:
    """hess f(X)[Xi, Xi]; the rank-deficient case carries no curvature term."""
    return float(_gram_form(prob.objective, as_matrix(X, "X"),
                            as_matrix(Xi, "Xi")[None])[0, 0])


def _reduced_basis(cons: PointConstraints) -> np.ndarray:
    """Orthonormal d x m x n basis of ker A intersected with the rank-s tangent space.

    It is the kernel of the tangent coordinates of the A^i (all of them
    when l = 0), mapped back to matrices U E V^T, an isometry.
    """
    svd = cons.svd
    null = cons.tangent.kernel()
    E = np.zeros((null.shape[1], svd.m, svd.n))
    E[:, tangent_mask(svd)] = null.T
    return svd.u @ E @ svd.v.T


def tangent_intersection_basis(svd: ThinSVD, amap: AffineMap, r: int) -> list:
    """Orthonormal basis of ker A intersected with the rank-r tangent space."""
    if svd.rank != int(r):
        raise ValueError(
            f"base point has rank {svd.rank}, but the rank-{r} tangent space "
            "is only a subspace when the rank equals the bound"
        )
    return list(_reduced_basis(PointConstraints(svd, amap)))


def _extreme_eigs(Q: np.ndarray):
    eigs = np.linalg.eigvalsh(Q)
    return float(eigs.min(initial=math.inf)), float(eigs.max(initial=-math.inf))


def _cone_search(objective, X, cons: PointConstraints, ker, gram, r: int, tol: float):
    """Yield (lam, xi) per space of the cone examined (module docstring): the form's least
    eigenvalue there and a unit eigenvector, or (inf, O) where ker A leaves only O."""
    svd, (m, n), mask = cons.svd, X.shape, tangent_mask(cons.svd)
    s, k, d_t = svd.rank, r - svd.rank, int(mask.sum())
    tangent, normal = cons.compressed[:, mask], cons.compressed[:, s:, s:]
    eigs, vecs = np.linalg.eigh(gram)
    for N in svd.u_perp.T @ np.tensordot(vecs[:, eigs < -tol].T, ker, 1) @ svd.v_perp:
        # F = P: the top k eigenvectors of N N^T, the leading left singular vectors of N
        F, left, prev = np.linalg.eigh(N @ N.T)[1][:, -k:], True, math.inf
        while True:
            # coordinates: the tangent entries, then Z of the normal block F Z (left) or
            # Z F^T, an isometry since F has orthonormal columns
            zshape = (k, n - s) if left else (m - s, k)
            An = (F.T @ normal if left else normal @ F).reshape(len(normal), math.prod(zshape))
            W = StackSVD(np.concatenate([tangent, An], axis=1), full=True).kernel()
            E = np.zeros((W.shape[1], m, n))
            E[:, mask], Z = W[:d_t].T, W[d_t:].T.reshape(-1, *zshape)
            E[:, s:, s:] = F @ Z if left else Z @ F.T
            B = svd.u @ E @ svd.v.T
            lam, w = (np.linalg.eigh(_gram_form(objective, X, B)) if len(B)
                      else ([math.inf], np.zeros((0, 1))))
            yield lam[0], np.tensordot(w[:, 0], B, 1)
            if not lam[0] < prev - tol:
                break
            prev, z = lam[0], np.tensordot(w[:, 0], Z, 1)
            F, left = np.linalg.qr(z.T if left else z)[0], not left


def check_second_order(prob: ProblemSpec, X, y, samples: int = 2000) -> SecondOrderReport:
    """Second-order necessary/sufficient verdicts at an F-stationary point.

    X may be a ``PointAnalysis`` of the point, whose SVD, gradient and record
    of grad_X L at y are reused. At s < r ``samples`` bounds the linear spaces
    of the cone searched; the search is deterministic. A point that is not
    feasible or a negative ``samples`` raises ValueError, a non-integer or
    boolean one TypeError, all before any work.
    """
    samples = _count_arg(samples, "samples")
    pa = PointAnalysis.of(prob, X)
    if not pa.feasible:
        raise ValueError(
            f"point is not feasible (feasibility residual {pa.feasibility_residual:.3e}, "
            f"rank {pa.s} with bound r={prob.r})"
        )
    X, svd, s = pa.X, pa.svd, pa.s
    grad_l = pa.at(y)
    if grad_l.frechet > pa.threshold:
        raise ValueError(
            f"point is not F-stationary at the supplied multiplier "
            f"(residual {grad_l.frechet:.3e} > {pa.threshold:.3e})"
        )

    basis = _reduced_basis(pa.constraints)
    if s == prob.r:
        lo, hi = _extreme_eigs(_gram_form(prob.objective, X, basis, grad_l.matrix,
                                          pseudo_inverse(svd)))
        rep = SecondOrderReport(
            case=CASE_FULL, basis_dim=len(basis), min_eig=lo, max_eig=hi,
            necessary_ok=lo >= -prob.tol, sufficient_ok=lo > prob.tol,
        )
        if rep.sufficient_ok:
            rep.notes.append("strictly local minimizer restricted on M^r (Thm 4.4 i)")
        return rep

    # rank-deficient point: certificate on supersets, falsification by a cone search
    sub_lo, _ = _extreme_eigs(_gram_form(prob.objective, X, basis))
    ker = prob.affine.kernel_basis()
    gram = _gram_form(prob.objective, X, ker)
    lo, hi = _extreme_eigs(gram)

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
    if lo >= -prob.tol:  # no direction of ker A, so none of the cone, can violate
        return rep
    search = _cone_search(prob.objective, X, pa.constraints, ker, gram, prob.r, prob.tol)
    for lam, _ in itertools.islice(search, samples):
        rep.cone_samples_tested += 1
        if lam < -prob.tol:
            rep.cone_violations, rep.necessary_ok = 1, False
            rep.notes.append(
                f"a linear space of the feasible tangent cone carries curvature {lam:.3e}; "
                "the second-order necessary condition fails"
            )
            break
    return rep
