"""Projected-gradient search for alpha-stationary points.

The base iteration is the rank-r projection of a gradient step. Nonempty
affine constraints are handled by a heuristic, exact_projection, labeled as
such in the result: the rounds of one loop alternate the closed-form affine
projection with the rank-r truncation, over the map's cached arrays, bound
once per solve. The gradient step is validated once per outer iteration,
and its rounds run under one ``np.errstate`` that silences overflow: a
round whose correction overflows raises ``DivergenceError``, with no
warning ahead of it. A round is the affine correction (two matrix-vector
products with the constraint stack and its pseudo-inverse
``AffineMap.stack_pinv``) and one ``linalg._truncate`` call (one call of
NumPy's thin-SVD kernel and an r-wide product; the tie flag of
``project_low_rank`` is not computed).

Rounds repeat until the inner iterate stops moving, up to a cap; the
first iteration whose rounds reach the cap is warned about, once per
solve. The returned iterate is affine-projected last so feasibility holds
at report time. A fixed round count leaves an error floor: the gradient
step re-enters the infeasible region by O(alpha * ||grad f||) every outer
iteration, so the inner loop must re-converge rather than run a constant
number of sweeps. The stopping test takes its norms inline as
sqrt(x @ x), the sum np.linalg.norm computes, against inner_tol =
min(1e-13, 0.01 * stop_tol) floored at the rounding level eps * max(m, n)
of a round. At l = 0 a round is one truncation, an exact projection, so
the second round repeats the first up to rounding. Otherwise the rounds
run in two phases. While the step ||T(x) - x|| of a round T (correction,
then truncation) is above sqrt(inner_tol) times the scale of ||T(x)||,
the next input is T(x). Below it the rounds converge linearly (Lewis,
Luke & Malick, 2009), and the next input is the one-memory Anderson
(secant) extrapolation T(x) - gamma (T(x) - T(x_prev)),
gamma = <df, f> / <df, df> for f = T(x) - x and df its change since the
last round (Walker & Ni, 2011). A round whose step is longer than the last
one's drops the memory and takes T(x). The residuals f are orthogonal to
the fixed set to first order, so the extrapolation keeps the plain rounds'
limit up to O(step^2) = O(inner_tol); the returned iterate is always a
truncation output, of rank at most r. The map's one SVD of its stack gives
the pseudo-inverse at lstsq's cutoff, the stopping tests' full multiplier
fit at rank_tol and ``AffineMap.consistent``, a verdict of the map, not
the point, warned about once per solve. The map's constraint array is
read-only, so neither cache can go stale.

Termination uses the alpha-stationarity residual with a freshly recovered
multiplier; the final point is classified by the first-order machinery.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .affine import AffineMap
from .errors import DivergenceError
from .linalg import _count_arg, _scale, _truncate, as_shaped, check_positive
from .model import ProblemSpec
from .stationarity import PointAnalysis, StationarityReport, classify_first_order

MODE_EXACT = "exact_projection"
_INNER_CAP = 500
_DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 0.5
    max_iters: int = 10000
    stop_tol: float = 1e-10

    def __post_init__(self):
        check_positive(self.alpha, "step alpha")
        if _count_arg(self.max_iters, "max_iters") < 1:
            raise ValueError("max_iters must be at least 1")
        check_positive(self.stop_tol, "stop_tol")


@dataclass
class SolveResult:
    x: np.ndarray
    report: StationarityReport
    log: list  # rows (iter, f, feas_residual, stat_residual)
    converged: bool
    iterations: int


def project_affine(amap: AffineMap, X) -> np.ndarray:
    """Frobenius-nearest matrix satisfying the constraints (least squares).

    The correction is the map's cached pseudo-inverse applied to b - A(X):
    two matrix-vector products, with X validated once. Falls back to the
    least-squares projection with a warning, on every call, when the map's
    cached verdict ``AffineMap.consistent`` says the system is inconsistent.
    """
    X = as_shaped(X, amap.shape, "X")
    if not amap.consistent:
        _warn_inconsistent(3)
    return _corrected(X, amap.stack, amap.stack_pinv, amap.rhs)


def _corrected(X: np.ndarray, stack: np.ndarray, pinv: np.ndarray, rhs: np.ndarray):
    """X + pinv (rhs - stack vec X), reshaped to X: the projection's two products."""
    return X + (pinv @ (rhs - stack @ X.ravel())).reshape(X.shape)


def _warn_inconsistent(stacklevel: int) -> None:
    warnings.warn("constraint system is inconsistent; returning the least-squares "
                  "projection", RuntimeWarning, stacklevel=stacklevel)


def stationarity_residual(prob: ProblemSpec, X, alpha: float):
    """Scaled alpha-stationarity residual with a recovered multiplier.

    Combines the tangential (or full) Lagrangian-gradient norm, the positive
    part of its ``excess`` over the alpha bound, and the feasibility residual.
    X may be a ``PointAnalysis`` of the point.
    """
    pa = PointAnalysis.of(prob, X)
    feas = pa.feasibility_residual / prob.affine._rhs_scale
    grad_l = pa.at(pa.multiplier(tangential=pa.s == prob.r)[0])
    return (grad_l.frechet + max(0.0, grad_l.excess(alpha))) / pa.scale + feas, grad_l.y


def solve(prob: ProblemSpec, X0, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Iterate projected gradient steps until alpha-stationarity or max_iters."""
    X = as_shaped(X0, (prob.m, prob.n), "X0")
    amap, r = prob.affine, prob.r
    # a round's step has a rounding floor near eps * max(m, n) * ||W||: a tolerance
    # below it would run every iteration's rounds up to _INNER_CAP
    inner_tol = max(min(1e-13, 0.01 * cfg.stop_tol), np.finfo(float).eps * max(prob.m, prob.n))
    switch_tol = math.sqrt(inner_tol)
    stack, pinv, rhs = amap.stack, amap.stack_pinv, amap.rhs
    if not amap.consistent:
        _warn_inconsistent(2)
    log = []
    converged = capped = False
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        iterations = k
        W = X - cfg.alpha * prob.objective.grad(X)
        # an overflowing ||W|| catches inf or NaN entries and steps too large to project
        if not math.isfinite(np.linalg.norm(W)):
            raise DivergenceError(f"gradient step norm overflowed at iteration {k} "
                                  f"(alpha = {cfg.alpha:g})")
        # validated once here; each round's input is built from earlier rounds' outputs
        W = as_shaped(W, amap.shape, "X")
        # an overflowing correction is reported below, not warned about round by round
        with np.errstate(over="ignore", invalid="ignore"):
            x, memory, last = W, None, math.inf
            for _ in range(_INNER_CAP):
                W = _corrected(x, stack, pinv, rhs)
                try:
                    W, _ = _truncate(W, r)
                except np.linalg.LinAlgError:
                    if np.isfinite(W).all():
                        raise
                    msg = f"affine projection overflowed at iteration {k}"
                    raise DivergenceError(msg) from None
                d, w = (W - x).ravel(), W.ravel()
                step, scale = math.sqrt(d @ d), _scale(math.sqrt(w @ w))
                if step <= inner_tol * scale:
                    break
                x = W
                # past the switch, the secant step x = T(x) - gamma (T(x) - T(x_prev));
                # a step longer than the last drops the memory and stays plain
                if memory is not None and step <= min(last, switch_tol * scale):
                    W_prev, d_prev = memory
                    df = d - d_prev
                    dd = df @ df
                    if dd:
                        x = W - ((df @ d) / dd) * (W - W_prev)
                memory, last = (W, d), step
            else:
                if not capped:
                    capped = True
                    warnings.warn(f"inner rounds stopped at the cap of {_INNER_CAP} at "
                                  f"iteration {k} before they converged", RuntimeWarning,
                                  stacklevel=2)
        X = W
        f = prob.objective.value(X)
        if not np.isfinite(f) or f > _DIVERGENCE_LIMIT:
            raise DivergenceError(f"objective reached {f:.3e} at iteration {k}")
        pa = PointAnalysis(prob, X)
        stat, _ = stationarity_residual(prob, pa, cfg.alpha)
        log.append((k, f, pa.feasibility_residual, stat))
        if stat <= cfg.stop_tol:
            converged = True
            break
    X = project_affine(amap, X)
    report = classify_first_order(prob, X, alpha=cfg.alpha)
    return SolveResult(x=X, report=report, log=log, converged=converged,
                       iterations=iterations)


def write_iterate_log(path, log) -> None:
    """Emit the iterate log as comma-delimited text with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,f,feas_residual,stat_residual\n")
        for k, f, feas, stat in log:
            fh.write(f"{k},{f!r},{feas!r},{stat!r}\n")
