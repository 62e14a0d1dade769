"""Second-order optimality checks on the reduced tangent intersection.

At a full-rank F-stationary point (s == r) the relevant quadratic form is

    q(Xi) = hess f(X)[Xi, Xi] - 2 <grad_X L(X; y), Xi X^+ Xi>

evaluated on an orthonormal basis of T_L(X) intersected with the tangent
space of the fixed-rank manifold; its extreme eigenvalues decide the
necessary (min >= 0) and sufficient (min > 0) conditions. That basis is the
null space of the constraints' tangent coordinates, read by Assumption 1
and the tangential multiplier fit too. The curvature
coefficient defaults to -2 but is a parameter: the two standard assemblies
of the correction term disagree in sign, and reports note which one ran so
the check can be repeated under the opposite convention.

At a rank-deficient point (s < r) the tangent cone of the feasible set is
not a subspace, so the check is two-tier: a positive-definiteness
certificate of plain hess f on all of ker A (a superset of the cone) proves
sufficiency, while randomized cone directions can only falsify the necessary
condition. The directions are built in the point's compressed coordinates
U^T Xi V, where the normal part is the trailing (m - s) x (n - s) block.
Without constraints every draw lies in the cone by construction; with them
the projection onto ker A can break the rank bound, so those draws are tested
for membership in the same coordinates.

The sampler runs in blocks of ``CONE_BLOCK`` draws. The calling thread draws
every block from the one seeded stream, in order, and hands its compression,
truncation, kernel projection and membership test to a thread pool, one per
process, sized by the CPU affinity mask; LAPACK releases the GIL, so blocks
overlap. At most pool-size blocks are in flight, which bounds memory by pool
size x ``CONE_BLOCK`` draws. ``hess_apply`` (possibly a user callback) and
the counts stay on the calling thread, which consumes the blocks in order,
so the report does not depend on the pool size.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .affine import AffineMap
from .cones import compress, in_tangent_bouligand_compressed, tangent_mask
from .linalg import ThinSVD, as_matrix, project_low_rank, pseudo_inverse
from .model import ProblemSpec
from .report import JsonReport
from .stationarity import PointAnalysis, lagrangian_grad

CASE_FULL = "full_rank"
CASE_DEFICIENT = "rank_deficient"
# cone directions drawn, projected and tested together; the sampler's memory is
# bounded by the pool size times this many draws
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


def _gram_form(objective, X, B, gradL=None, pinv=None,
               curvature_coeff: float = -2.0) -> np.ndarray:
    """Gram matrix of the second-order form on the d x m x n basis B.

    Entry (i, j) is hess f[B_i, B_j] + coeff * sym <grad_X L, B_i X^+ B_j>;
    without ``gradL`` it is the plain Hessian form of the rank-deficient
    case. The Hessian is applied to the whole basis in one call and
    contracted with every B_j; the upper triangle (i <= j) is mirrored so the
    result is exactly symmetric even for a Hessian that is symmetric only up
    to rounding.
    """
    flat = B.reshape(len(B), X.size)
    Q = objective.hess_apply(X, B).reshape(flat.shape) @ flat.T
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


def _reduced_basis(svd: ThinSVD, amap: AffineMap, compressed=None) -> np.ndarray:
    """Orthonormal d x m x n basis of ker A intersected with the rank-s tangent space.

    It is the null space of the tangent coordinates of the A^i (all of them
    when l = 0), mapped back to matrices U E V^T, an isometry. ``compressed``,
    when given, is ``compress(svd, amap.mats)`` already taken.
    """
    C = compress(svd, amap.mats) if compressed is None else compressed
    null = scipy.linalg.null_space(C[:, tangent_mask(svd)])
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
    return list(_reduced_basis(svd, amap))


def _extreme_eigs(Q: np.ndarray):
    if Q.shape[0] == 0:
        return math.inf, -math.inf
    eigs = np.linalg.eigvalsh(Q)
    return float(eigs[0]), float(eigs[-1])


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(pid: int, size: int) -> ThreadPoolExecutor:
    """The cone sampler's pool, created on first use; keyed by pid, so a forked
    child builds its own."""
    return ThreadPoolExecutor(size, thread_name_prefix="rankmoa-cone")


def _cone_block(svd: ThinSVD, g: np.ndarray, k: int, Kc):
    """Kept compressed cone directions of one block of draws and their norms.

    In compressed coordinates xi = U^T Xi V (an isometry) the tangent part of
    a draw is g1 off the trailing (m - s) x (n - s) block, the normal part
    that block of g2 truncated to rank k = r - s. With the compressed kernel
    basis Kc the draws are projected onto ker A and kept only if still in the
    cone; draws of vanishing norm are dropped. Pure, so blocks run on any thread.
    """
    s = svd.rank
    g = compress(svd, g)
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
    return xi[keep], norm[keep]


def _sampled_blocks(svd: ThinSVD, rng, samples: int, k: int, Kc):
    """``_cone_block`` of each block of ``samples`` draws, yielded in block order.

    The draws are taken here, on the caller's thread, from the one stream;
    the blocks run on the pool, at most pool-size of them in flight.
    """
    size = _cpu_count()
    pool = _pool(os.getpid(), size)
    pending = deque()
    for start in range(0, samples, CONE_BLOCK):
        # draw i holds (g1, g2) in the order a per-draw loop would take them
        g = rng.standard_normal((min(CONE_BLOCK, samples - start), 2, svd.m, svd.n))
        pending.append(pool.submit(_cone_block, svd, g, k, Kc))
        if len(pending) == size:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _count_arg(value, name: str) -> int:
    """value as a nonnegative int; bools and non-integers raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


def check_second_order(prob: ProblemSpec, X, y, samples: int = 2000,
                       seed: int = 0, curvature_coeff: float = -2.0) -> SecondOrderReport:
    """Second-order necessary/sufficient verdicts at an F-stationary point.

    X may be a ``PointAnalysis`` of the point, whose SVD and gradient are reused.
    A negative ``samples`` or ``seed`` raises ValueError, a non-integer or
    boolean one TypeError, both before any work.
    """
    samples = _count_arg(samples, "samples")
    seed = _count_arg(seed, "seed")
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
        basis = _reduced_basis(svd, prob.affine, pa.compressed)
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
    sub_basis = _reduced_basis(svd, prob.affine, pa.compressed)
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

    Kc = compress(svd, ker).reshape(len(ker), -1) if prob.l else None
    blocks = _sampled_blocks(svd, np.random.default_rng(seed), samples, prob.r - s, Kc)
    tested = violations = 0
    for xi, norm in blocks:
        Xi = svd.u @ xi @ svd.v.T
        hess = prob.objective.hess_apply(X, Xi).reshape(len(xi), X.size)
        quad = np.einsum("ij,ij->i", hess, Xi.reshape(len(xi), X.size))
        tested += len(xi)
        violations += int(np.count_nonzero(quad / norm ** 2 < -prob.tol))
    rep.cone_samples_tested = tested
    rep.cone_violations = violations
    if violations:
        rep.necessary_ok = False
        rep.notes.append(
            f"{violations} sampled feasible cone directions carry negative "
            "curvature; the second-order necessary condition fails"
        )
    return rep
