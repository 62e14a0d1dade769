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

At a rank-deficient point (s < r) the tangent cone of the feasible set is
not a subspace, so the check is two-tier: a positive-definiteness
certificate of plain hess f on all of ker A (a superset of the cone) proves
sufficiency, and only where it fails are randomized cone directions drawn,
which can only falsify the necessary condition. The directions are built in
the point's compressed coordinates U^T Xi V, where the normal part is the
trailing (m - s) x (n - s) block. Without constraints every draw lies in the
cone by construction; with them the projection onto ker A can break the rank
bound, so those draws are tested for membership in the same coordinates. The
draws are taken from the one seeded stream in blocks of ``CONE_BLOCK``, which
bounds memory whatever the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineMap
from .cones import compress, in_tangent_bouligand_compressed, tangent_mask
from .linalg import ThinSVD, _count_arg, as_matrix, project_low_rank, pseudo_inverse
from .model import ProblemSpec
from .qualification import PointConstraints
from .report import JsonReport
from .stationarity import PointAnalysis, lagrangian_grad

CASE_FULL = "full_rank"
CASE_DEFICIENT = "rank_deficient"
# cone directions drawn, projected and tested together; the sampler's memory is
# bounded by this many draws
CONE_BLOCK = 512


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
    if Q.shape[0] == 0:
        return math.inf, -math.inf
    eigs = np.linalg.eigvalsh(Q)
    return float(eigs[0]), float(eigs[-1])


def check_second_order(prob: ProblemSpec, X, y, samples: int = 2000,
                       seed: int = 0) -> SecondOrderReport:
    """Second-order necessary/sufficient verdicts at an F-stationary point.

    X may be a ``PointAnalysis`` of the point, whose SVD, gradient and record
    of grad_X L at y are reused. A point that is not feasible or a negative
    ``samples`` or ``seed`` raises ValueError, a non-integer or boolean one
    TypeError, all before any work.
    """
    samples = _count_arg(samples, "samples")
    seed = _count_arg(seed, "seed")
    pa = PointAnalysis.of(prob, X)
    if not pa.feasible:
        raise ValueError(
            f"point is not feasible (feasibility residual {pa.feasibility_residual:.3e}, "
            f"rank {pa.s} with bound r={prob.r})"
        )
    X, svd, s = pa.X, pa.svd, pa.s
    grad_l = pa.at(y)
    if grad_l.frechet > prob.tol * pa.scale:
        raise ValueError(
            f"point is not F-stationary at the supplied multiplier "
            f"(residual {grad_l.frechet:.3e} > {prob.tol * pa.scale:.3e})"
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

    # rank-deficient point: certificate on supersets, falsification by sampling
    sub_lo, _ = _extreme_eigs(_gram_form(prob.objective, X, basis))
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
        return rep

    # the verdict is open, so every draw is curvature-tested. In compressed
    # coordinates xi = U^T Xi V (an isometry) its tangent part is g1 off the
    # trailing (m - s) x (n - s) block, its normal part that block of g2
    # truncated to rank k = r - s; with constraints it is projected onto ker A
    # and kept only if still in the cone
    k = prob.r - s
    Kc = compress(svd, ker).reshape(len(ker), -1) if prob.l else None
    rng = np.random.default_rng(seed)
    for start in range(0, samples, CONE_BLOCK):
        # draw i holds (g1, g2) in the order a per-draw loop would take them
        g = compress(svd, rng.standard_normal((min(CONE_BLOCK, samples - start), 2,
                                               svd.m, svd.n)))
        xi = g[:, 0]
        xi[:, s:, s:] = project_low_rank(g[:, 1, s:, s:], k, svd.rank_tol)[0]
        flat = xi.reshape(len(xi), -1)
        member = True
        if Kc is not None:
            flat = (flat @ Kc.T) @ Kc
            xi = flat.reshape(xi.shape)
            # only the kernel projection can break the rank bound
            member = in_tangent_bouligand_compressed(xi, s, k, svd.rank_tol)
        norm = np.linalg.norm(flat, axis=1)
        keep = np.flatnonzero((norm >= 1e-10) & member)
        Xi = svd.u @ xi[keep] @ svd.v.T
        hess = prob.objective.hess_apply(X, Xi).reshape(len(keep), X.size)
        quad = np.einsum("ij,ij->i", hess, Xi.reshape(len(keep), X.size))
        rep.cone_samples_tested += len(keep)
        rep.cone_violations += int(np.count_nonzero(quad / norm[keep] ** 2 < -prob.tol))
    if rep.cone_violations:
        rep.necessary_ok = False
        rep.notes.append(
            f"{rep.cone_violations} sampled feasible cone directions carry negative "
            "curvature; the second-order necessary condition fails"
        )
    return rep
