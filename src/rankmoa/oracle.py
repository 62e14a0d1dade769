"""Independent brute-force verifiers.

Everything here deliberately avoids the code paths it is meant to check:
finite differences touch only objective values, the projection cross-check
re-derives the truncation from an eigendecomposition, the rank-1 Hankel
minimum is exact over the whole 3 x 3 family, from the roots of one
polynomial in the family's ratio q plus the q -> inf limit, the curvature
cross-check assembles the correction term from the factored form with its
own projectors, and the curvature replay reads the second-order form off
second differences of f along feasible curves it builds itself. Oracle
tolerances are documented per function and are looser than the core
tolerances.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg

from .affine import AffineMap
from .linalg import RankBound, as_matrix, orient_svd
from .model import FrobeniusDistance, ProblemSpec
from .qualification import assumption1_holds, assumption2_holds
from .second_order import check_second_order, riemannian_quad

FD_STEP = 1e-4
# the curvature replay: curve step, and the agreement asked of its second
# differences, relative to max(1, largest |eigenvalue| of the form); the
# replay's own error is O(t^2) plus rounding over t^2, about 1e-6 here. A
# curve point counts as reached once its affine residual is CURVE_FEAS
# relative to max(1, ||Y||), within CURVE_ROUNDS rounds.
CURVE_STEP = 1e-3
CURVE_TOL = 1e-4
CURVE_FEAS = 1e-13
CURVE_ROUNDS = 1000


def fd_gradient(obj, X, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient, O(h^2); touches only obj.value."""
    X = as_matrix(X, "X")
    if h <= 0:
        raise ValueError("step h must be positive")
    g = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            e = np.zeros_like(X)
            e[i, j] = h
            g[i, j] = (obj.value(X + e) - obj.value(X - e)) / (2.0 * h)
    return g


def fd_quad(obj, X, Xi, h: float = FD_STEP) -> float:
    """Central second difference of t -> f(X + t*Xi), O(h^2)."""
    X = as_matrix(X, "X")
    Xi = as_matrix(Xi, "Xi")
    if h <= 0:
        raise ValueError("step h must be positive")
    return (obj.value(X + h * Xi) - 2.0 * obj.value(X) + obj.value(X - h * Xi)) / h**2


def _truncate_eigh(Z, r: int):
    """Best rank-r approximation from the top-r eigenvectors of Z^T Z (Z Z^T if wide)."""
    if Z.shape[0] < Z.shape[1]:
        return _truncate_eigh(Z.T, r).T
    V = np.linalg.eigh(Z.T @ Z)[1][:, Z.shape[1] - r:]
    return Z @ V @ V.T


def projection_cross_check(Z, r: int, rank_tol: float = 1e-8) -> float:
    """Discrepancy between two independent best rank-r approximations.

    Route one truncates the SVD; route two, ``_truncate_eigh``, projects Z
    onto the top-r eigenspace of Z^T Z (of Z Z^T when Z is wide). Away from
    a tie at sigma_r the result is the Frobenius distance between the two
    projections (expected <= 1e-8); at a tie the projections may
    legitimately differ, so the comparison falls back to the difference of
    the two approximation errors.
    """
    Z = as_matrix(Z, "Z")
    k = min(Z.shape)
    if not 0 <= r <= k:
        raise ValueError(f"rank {r} out of range for shape {Z.shape}")
    u, s, vh = np.linalg.svd(Z)
    p_svd = (u[:, :r] * s[:r]) @ vh[:r, :]
    p_eig = _truncate_eigh(Z, r)
    tie = bool(0 < r < k and s[r - 1] <= s[r] + rank_tol * (s[0] if s.size else 0.0))
    if tie:
        return abs(float(np.linalg.norm(Z - p_svd)) - float(np.linalg.norm(Z - p_eig)))
    return float(np.linalg.norm(p_svd - p_eig))


def _line_value(H, M):
    """min_t 0.5 * ||H - t*M||_F^2 and its minimizer."""
    denom = float(np.sum(M * M))
    t = float(np.sum(H * M)) / denom
    return 0.5 * float(np.sum((H - t * M) ** 2)), t * M


def rank1_hankel_min(H, family: str = "full"):
    """Exact minimum of 0.5 ||H - X||^2 over rank-1 Hankel 3 x 3 matrices.

    family="lines" restricts to the three coordinate lines t*e1e1^T, t*ee^T,
    t*e3e3^T. family="full" is the whole rank-1 Hankel set: the geometric
    family c * u u^T with u = (1, q, q^2), q real, and its q -> +-inf limit,
    the t*e3e3^T line. On u, the best c leaves
    f(q) = 0.5 (||H||^2 - p(q)^2 / w(q)^2) with p(q) = u^T H u = sum_k c_k q^k
    (c_k the k-th anti-diagonal sum of H) and w(q) = ||u||^2 = 1 + q^2 + q^4.
    f is smooth on the real line, so its minimum sits at a real root of
    p'w - pw' or in the limit; every root's real part and the three lines
    are scored with the same line minimization. Returns (value, minimizer).
    """
    H = as_matrix(H, "H")
    if H.shape != (3, 3):
        raise ValueError("rank-1 Hankel search is implemented for 3 x 3 targets")
    e1 = np.zeros((3, 3))
    e1[0, 0] = 1.0
    e3 = np.zeros((3, 3))
    e3[2, 2] = 1.0
    ones = np.ones((3, 3))
    candidates = [_line_value(H, M) for M in (e1, ones, e3)]
    if family not in ("full", "lines"):
        raise ValueError(f"unknown family {family!r}")
    if family == "full":
        # c_4, ..., c_0 (c_k sums H_ij over i + j = k): highest power first, as np.roots reads
        p = np.array([np.trace(H[:, ::-1], offset=2 - k) for k in range(4, -1, -1)])
        w = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        stationary = np.polysub(np.polymul(np.polyder(p), w), np.polymul(p, np.polyder(w)))
        # coefficients within rounding of the largest are noise, and a tiny leading one
        # wrecks the companion matrix (H[2, 2] = 1e-200 loses every root); zeroed, they
        # lower the degree, sending roots to the q -> inf limit, or put roots at 0
        small = np.abs(stationary) <= np.finfo(float).eps * np.abs(stationary).max()
        stationary[small] = 0.0
        for q in np.roots(stationary).real:
            u = np.array([1.0, q, q * q])
            candidates.append(_line_value(H, np.outer(u, u)))
    value, X = min(candidates, key=lambda c: c[0])
    return value, X


def diag_embedding_equivalence(a_vecs, x, r: int, rank_tol: float = 1e-8) -> bool:
    """Sparse-vector instance vs its diagonal-matrix embedding.

    The vector-side qualification asks the constraint vectors restricted to
    the support of x to be linearly independent. Embedding x as Diag(x) with
    constraints Diag(a_i), both compressed-matrix qualifications must give
    the same verdict; returns True when all three agree.
    """
    a_vecs = [np.atleast_1d(np.asarray(a, dtype=float)) for a in a_vecs]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    for a in a_vecs:
        if a.shape != (n,):
            raise ValueError("constraint vectors must match the length of x")
    supp = np.flatnonzero(np.abs(x) > rank_tol * max(1.0, float(np.abs(x).max(initial=0.0))))
    if len(supp) > r:
        raise ValueError(f"x has support {len(supp)} above the sparsity bound {r}")
    l = len(a_vecs)
    if l == 0:
        vec_ok = True
    elif supp.size == 0:
        vec_ok = False
    else:
        rows = np.stack([a[supp] for a in a_vecs])
        sv = np.linalg.svd(rows, compute_uv=False)
        vec_ok = sv.size > 0 and sv[0] > 0 and \
            int(np.count_nonzero(sv > rank_tol * sv[0])) == l

    amap = AffineMap([np.diag(a) for a in a_vecs], np.zeros(l), shape=(n, n))
    svd = orient_svd(np.diag(x), rank_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        a1, _ = assumption1_holds(svd, amap, rank_tol)
        a2, _ = assumption2_holds(svd, amap, rank_tol)
    return bool(a1 == a2 == vec_ok)


def saddle_3x3():
    """(prob, X, y) of the 3x3 saddle.

    f = 0.5 ||X - diag(3, 2, 1)||^2 with r = 1 and the one constraint
    <e1 e2^T - e2 e1^T, X> = 0. X = diag(0, 2, 0) is F-stationary at y = 0,
    and f falls along the feasible rank-1 curve 2 (e2 + t e1)(e2 + t e1)^T / (1 + t^2).
    """
    A = np.zeros((1, 3, 3))
    A[0, 0, 1], A[0, 1, 0] = 1.0, -1.0
    prob = ProblemSpec(FrobeniusDistance(np.diag([3.0, 2.0, 1.0])), AffineMap(A, [0.0]),
                       RankBound(1))
    return prob, np.diag([0.0, 2.0, 0.0]), np.zeros(1)


def planted_saddle(rng, N: int, r: int, l: int):
    """(prob, X, y): a saddle of 0.5 ||X - H||^2 under l antisymmetric constraints.

    H is symmetric positive definite with eigenvalue gaps above 0.6, and X is
    its rank-r part on r eigenpairs that are not the top r. The constraints
    (b = 0) vanish on symmetric matrices and grad f is symmetric, so X is
    F-stationary at y = 0; rotating an included eigenvector toward an
    excluded one of larger eigenvalue is a symmetric rank-r curve along which
    f falls.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    lam = np.arange(1.0, N + 1.0) + 0.4 * rng.random(N)  # ascending
    keep = rng.permutation(N)[:r]
    if keep.min() >= N - r:  # the top r: swap the smallest eigenpair in
        keep[0] = 0
    X = (Q[:, keep] * lam[keep]) @ Q[:, keep].T
    G = rng.standard_normal((l, N, N))
    amap = AffineMap(G - G.transpose(0, 2, 1), np.zeros(l), shape=(N, N))
    return ProblemSpec(FrobeniusDistance((Q * lam) @ Q.T), amap, RankBound(r)), X, np.zeros(l)


def planted_stationary(rng, m: int, n: int, r: int, l: int):
    """(prob, X, y): X of rank r, F-stationary at a random y for a random target.

    The target is X + W + A*(y) with W normal to the rank-r manifold at X, so
    grad L = -W and the curvature term does not vanish.
    """
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    X = (u[:, :r] * (1.0 + rng.random(r))) @ v[:, :r].T
    W = u[:, r:] @ rng.standard_normal((m - r, n - r)) @ v[:, r:].T
    A = rng.standard_normal((l, m, n))
    y = rng.standard_normal(l)
    amap = AffineMap(A, np.tensordot(A, X), shape=(m, n))
    return ProblemSpec(FrobeniusDistance(X + W + amap.adjoint(y)), amap, RankBound(r)), X, y


def _feasible_point(Z, r: int, stack, stack_pinv, rhs):
    """A point of rank r on {<A^i, Y> = b_i} near Z, or None if none is reached.

    Rank-r truncations alternate with pinv affine projections until the
    truncated point's affine residual reaches rounding, at most
    ``CURVE_ROUNDS`` times.
    """
    for _ in range(CURVE_ROUNDS):
        Z = _truncate_eigh(Z, r)
        if stack is None:
            return Z
        resid = stack @ Z.ravel() - rhs
        if np.linalg.norm(resid) <= CURVE_FEAS * max(1.0, float(np.linalg.norm(Z))):
            return Z
        Z = Z - (stack_pinv @ resid).reshape(Z.shape)
    return None


def _tangent_kernel_basis(X, r: int, amap: AffineMap):
    """Orthonormal basis of ker A meeting the rank-r tangent space at X, from a fresh
    SVD: the null space of the A^i and the normal directions u_i v_j^T, i, j >= r."""
    u, _, vh = np.linalg.svd(X)
    normal = np.einsum("ai,jb->ijab", u[:, r:], vh[r:]).reshape(-1, X.size)
    rows = np.concatenate([amap.mats.reshape(amap.l, X.size), normal])
    return scipy.linalg.null_space(rows).T.reshape(-1, *X.shape)


def curvature_replay(prob: ProblemSpec, X, y, rng) -> dict:
    """The second-order form at a rank-r F-stationary point against curve replays.

    Along a feasible C^2 curve through X with velocity Xi, d^2 f / dt^2 is the
    form's value at Xi, so each value is replayed as the central second
    difference of f along t -> Pi(X + t Xi), with Pi ``_feasible_point``
    and t = ``CURVE_STEP``. The form's matrix on an independent basis of the
    tangent intersection is polarized from ``riemannian_quad``; it is replayed
    in its two extreme eigendirections and in two random unit directions
    drawn from ``rng``. Returns the largest replay error and the gap between
    that matrix's extreme eigenvalues and ``check_second_order``'s, both
    relative to max(1, largest |eigenvalue|), with the report and the replayed
    value in the lowest eigendirection (``min_replay``). ``replay_error`` is
    inf when a curve point was not reached.
    """
    B = _tangent_kernel_basis(X, prob.r, prob.affine)
    d = len(B)
    if d == 0:
        raise ValueError("the tangent intersection is {O}: there is no form to replay")
    svd = orient_svd(X, prob.rank_tol)
    diag = [riemannian_quad(prob, svd, y, b) for b in B]
    Q = np.diag(diag)
    for i, j in zip(*np.triu_indices(d, 1)):
        Q[i, j] = Q[j, i] = (riemannian_quad(prob, svd, y, B[i] + B[j])
                             - diag[i] - diag[j]) / 2.0
    eigs, vecs = np.linalg.eigh(Q)
    rep = check_second_order(prob, X, y, samples=0)
    scale = max(1.0, float(np.abs(eigs).max()))

    stack = prob.affine.mats.reshape(prob.l, X.size) if prob.l else None
    stack_pinv = np.linalg.pinv(stack) if prob.l else None
    f0 = prob.objective.value(X)

    def replay(xi):
        ends = [_feasible_point(X + t * xi, prob.r, stack, stack_pinv, prob.affine.rhs)
                for t in (CURVE_STEP, -CURVE_STEP)]
        if any(end is None for end in ends):
            return math.inf
        return (sum(prob.objective.value(end) for end in ends) - 2.0 * f0) / CURVE_STEP**2

    extreme = [(np.tensordot(vecs[:, k], B, 1), eigs[k]) for k in (0, d - 1)]
    dirs = rng.standard_normal((2, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rand = [(xi, riemannian_quad(prob, svd, y, xi)) for xi in np.tensordot(dirs, B, 1)]
    replays = [(replay(xi), want) for xi, want in extreme + rand]
    return {"report": rep, "basis_dim": d, "min_replay": replays[0][0],
            "form_gap": max(abs(rep.min_eig - eigs[0]), abs(rep.max_eig - eigs[-1])) / scale,
            "replay_error": max(abs(got - want) for got, want in replays) / scale}


SUITES = ("fd", "projection", "hankel-rank1", "diag-embed", "curvature")


def run_suite(name: str, seed: int = 0):
    """Run a named verification suite; returns (ok, list of report lines)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    rng = np.random.default_rng(seed)
    lines = []
    ok = True

    def check(label, good):
        nonlocal ok
        lines.append(f"{'ok  ' if good else 'FAIL'} {label}")
        ok = ok and good

    if name == "fd":
        from .model import FrobeniusDistance, LinearTrace, RowQuadratic
        for trial in range(30):
            m, n = rng.integers(2, 5, size=2)
            pick = trial % 3
            if pick == 0:
                obj = FrobeniusDistance(rng.standard_normal((m, n)))
            elif pick == 1:
                obj = LinearTrace(rng.standard_normal((m, n)))
            else:
                obj = RowQuadratic([rng.standard_normal((n, n)) for _ in range(n)])
            X = rng.standard_normal(obj.shape)
            Xi = rng.standard_normal(obj.shape)
            g = obj.grad(X)
            gerr = np.linalg.norm(fd_gradient(obj, X) - g) / max(1.0, np.linalg.norm(g))
            q = obj.hess_quad(X, Xi)
            qerr = abs(fd_quad(obj, X, Xi) - q) / max(1.0, abs(q))
            check(f"{obj.kind} trial {trial}: grad {gerr:.2e}, quad {qerr:.2e}",
                  gerr <= 1e-5 and qerr <= 1e-5)
    elif name == "projection":
        from .linalg import project_low_rank
        for trial in range(30):
            m, n = rng.integers(2, 7, size=2)
            Z = rng.standard_normal((m, n))
            r = int(rng.integers(0, min(m, n) + 1))
            d = projection_cross_check(Z, r)
            P, tie = project_low_rank(Z, r)
            u, s, vh = np.linalg.svd(Z)
            resid = abs(np.linalg.norm(Z - P) - np.sqrt(np.sum(s[r:] ** 2)))
            check(f"shape {m}x{n} r={r}: routes {d:.2e}, error match {resid:.2e}"
                  f"{' (tie)' if tie else ''}", d <= 1e-8 and resid <= 1e-8)
    elif name == "hankel-rank1":
        H = np.array([[112.0, 7.5, 0.0], [7.5, 0.0, 0.0], [0.0, 0.0, 1e-6]])
        xbar = H.copy()
        xbar[2, 2] = 0.0
        f_xbar = 0.5 * float(np.sum((H - xbar) ** 2))
        v_lines, x_lines = rank1_hankel_min(H, family="lines")
        v_full, _ = rank1_hankel_min(H, family="full")
        check(f"coordinate-line minimum {v_lines:.6f} at t*e1e1^T",
              abs(v_lines - 56.25) <= 1e-6 and abs(x_lines[0, 0] - 112.0) <= 1e-6)
        check(f"full-family minimum {v_full:.6f} <= line minimum", v_full <= v_lines + 1e-12)
        check(f"f(Xbar) = {f_xbar:.3e} beats every rank-1 Hankel matrix",
              f_xbar < v_full)
    elif name == "diag-embed":
        for trial in range(30):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            s = int(rng.integers(0, r + 1))
            l = int(rng.integers(0, n + 1))
            x = np.zeros(n)
            supp = rng.choice(n, size=s, replace=False)
            x[supp] = rng.standard_normal(s) + np.sign(rng.standard_normal(s)) * 0.5
            a_vecs = [rng.standard_normal(n) for _ in range(l)]
            good = diag_embedding_equivalence(a_vecs, x, r)
            check(f"n={n} r={r} s={s} l={l}", good)
    elif name == "curvature":
        from .problems import build_hankel_example
        spec, points = build_hankel_example()
        cases = [("3x3 saddle", True, saddle_3x3())]
        cases += [(f"planted saddle N={N} r={r} l={l}", True, planted_saddle(rng, N, r, l))
                  for N, r, l in ((3, 1, 2), (4, 2, 0), (5, 1, 2), (6, 2, 2))]
        cases += [(f"random {m}x{n} r={r} l=3", False, planted_stationary(rng, m, n, r, 3))
                  for m, n, r in ((5, 4, 2), (4, 5, 1), (4, 4, 2))]
        cases.append(("3x3 Hankel Xbar", False, (spec, points["Xbar"], np.zeros(4))))
        for label, saddle, (prob, X, y) in cases:
            got = curvature_replay(prob, X, y, rng)
            rep = got["report"]
            good = (got["form_gap"] <= 1e-10 and got["replay_error"] <= CURVE_TOL
                    and rep.basis_dim == got["basis_dim"])
            if saddle:  # the replay finds f falling, and the verdict agrees
                good = good and got["min_replay"] < 0 and not rep.necessary_ok
            check(f"{label}: eigs [{rep.min_eig:+.6f}, {rep.max_eig:+.6f}], lowest "
                  f"replayed {got['min_replay']:+.6f}, replay error {got['replay_error']:.1e}, "
                  f"form gap {got['form_gap']:.1e}", good)
    return ok, lines


def curvature_quadratic_terms(X, G, Xi, rank_tol: float = 1e-8):
    """The curvature correction <G_N, Xi X^+ Xi> assembled two ways.

    Returns (via_factors, via_pinv): the first contracts the factored form
    built from P = Pu_perp Xi Vg and Q = Pv_perp Xi^T Ug against Xi, the
    second uses the Moore-Penrose inverse directly. Both are computed here
    from a fresh SVD with local projectors. Agreement is expected to 1e-10
    relative for tangent directions.
    """
    X = as_matrix(X, "X")
    G = as_matrix(G, "G")
    Xi = as_matrix(Xi, "Xi")
    u, s, vh = np.linalg.svd(X)
    cutoff = rank_tol * (s[0] if s.size else 0.0)
    k = int(np.count_nonzero(s > cutoff))
    ug, vg = u[:, :k], vh.T[:, :k]
    pu_perp = np.eye(X.shape[0]) - ug @ ug.T
    pv_perp = np.eye(X.shape[1]) - vg @ vg.T
    sig_inv = np.diag(1.0 / s[:k]) if k else np.zeros((0, 0))

    q_fac = pv_perp @ Xi.T @ ug
    p_fac = pu_perp @ Xi @ vg
    h_term = pu_perp @ G @ q_fac @ sig_inv @ vg.T + ug @ sig_inv @ p_fac.T @ G @ pv_perp
    via_factors = 0.5 * float(np.tensordot(h_term, Xi))

    pinv = vg @ sig_inv @ ug.T
    g_normal = pu_perp @ G @ pv_perp
    via_pinv = float(np.tensordot(g_normal, Xi @ pinv @ Xi))
    return via_factors, via_pinv
