"""Projected-gradient search for alpha-stationary points.

The base iteration is the rank-r projection of a gradient step. Nonempty
affine constraints are handled by one of two heuristics, clearly labeled as
such in the result:

* exact_projection: after each gradient step, alternate the closed-form
  affine projection and the rank-r truncation until the inner iterate stops
  moving (at least three rounds, capped); the returned iterate is
  affine-projected last so feasibility holds at report time. A fixed round
  count leaves an error floor: the gradient step re-enters the infeasible
  region by O(alpha * ||grad f||) every outer iteration, so the inner loop
  must re-converge rather than run a constant number of sweeps. The rounds
  are one loop over the map's cached arrays, bound once per solve: the
  gradient step is validated once per outer iteration, an inconsistent map
  is warned about once per solve, and a round is the affine correction (two
  matrix-vector products with the constraint stack and its pseudo-inverse
  ``AffineMap.stack_pinv``, none when l = 0), one ``linalg._truncate`` call
  (one call of NumPy's thin-SVD kernel and an r-wide product) and the
  stopping test, its norms taken inline as sqrt(x @ x), the sum
  np.linalg.norm computes. The map's one SVD of its stack gives the
  pseudo-inverse at lstsq's cutoff, the stopping tests' full multiplier fit
  at rank_tol and ``AffineMap.consistent``, a verdict of the map, not the
  point. The tie flag of ``project_low_rank`` is not computed. The map's
  constraint array is read-only, so neither cache can go stale. A round
  whose correction overflows raises ``DivergenceError``.
* quadratic_penalty: fold rho/2 * ||A(X) - b||^2 into the gradient and keep
  the plain rank-projected step.

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
from .linalg import _count_arg, _scale, _truncate, as_shaped, check_positive, project_low_rank
from .model import ProblemSpec
from .stationarity import PointAnalysis, StationarityReport, classify_first_order

MODE_EXACT = "exact_projection"
MODE_PENALTY = "quadratic_penalty"
_INNER_MIN = 3
_INNER_CAP = 500
_DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 0.5
    max_iters: int = 10000
    stop_tol: float = 1e-10
    affine_mode: str = MODE_EXACT
    rho: float = 10.0

    def __post_init__(self):
        check_positive(self.alpha, "step alpha")
        if _count_arg(self.max_iters, "max_iters") < 1:
            raise ValueError("max_iters must be at least 1")
        check_positive(self.stop_tol, "stop_tol")
        if self.affine_mode not in (MODE_EXACT, MODE_PENALTY):
            raise ValueError(f"unknown affine_mode {self.affine_mode!r}")
        check_positive(self.rho, "penalty weight rho")


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
    if amap.l == 0:
        return X
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

    Combines the tangential (or full) Lagrangian-gradient norm, the excess of
    the spectral norm over sigma_r / alpha, and the feasibility residual.
    """
    pa = PointAnalysis(prob, X)
    feas = pa.feasibility_residual / prob.affine._rhs_scale
    if prob.r == 0:
        return feas, np.zeros(prob.l)
    grad_l = pa.at(pa.multiplier(tangential=pa.s == prob.r)[0])
    excess = 0.0
    if pa.s == prob.r:
        excess = max(0.0, float(grad_l.sigma[0]) - float(pa.svd.sigma[prob.r - 1]) / alpha)
    return (grad_l.frechet + excess) / pa.scale + feas, grad_l.y


def solve(prob: ProblemSpec, X0, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Iterate projected gradient steps until alpha-stationarity or max_iters."""
    X = as_shaped(X0, (prob.m, prob.n), "X0")
    amap, r = prob.affine, prob.r
    exact = cfg.affine_mode == MODE_EXACT
    if exact:
        inner_tol = min(1e-13, 0.01 * cfg.stop_tol)
        stack, pinv, rhs = (amap.stack, amap.stack_pinv, amap.rhs) if amap.l else (None,) * 3
        if amap.l and not amap.consistent:
            _warn_inconsistent(2)
    log = []
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        iterations = k
        g = prob.objective.grad(X)
        if not exact:
            g = g + cfg.rho * amap.adjoint(amap.apply(X) - amap.rhs)
        W = X - cfg.alpha * g
        # an overflowing ||W|| catches inf or NaN entries and steps too large to project
        if not math.isfinite(np.linalg.norm(W)):
            raise DivergenceError(f"gradient step norm overflowed at iteration {k} "
                                  f"(alpha = {cfg.alpha:g})")
        if not exact:
            W, _ = project_low_rank(W, r, prob.rank_tol)
        else:
            # validated once here; each round's arrays are the previous round's output
            W = as_shaped(W, amap.shape, "X")
            for j in range(_INNER_CAP):
                prev = W
                if stack is not None:
                    W = _corrected(W, stack, pinv, rhs)
                try:
                    W, _ = _truncate(W, r)
                except np.linalg.LinAlgError:
                    if np.isfinite(W).all():
                        raise
                    msg = f"affine projection overflowed at iteration {k}"
                    raise DivergenceError(msg) from None
                if j + 1 >= _INNER_MIN:
                    d, w = (W - prev).ravel(), W.ravel()
                    if math.sqrt(d @ d) <= inner_tol * _scale(math.sqrt(w @ w)):
                        break
        X = W
        f = prob.objective.value(X)
        if not np.isfinite(f) or f > _DIVERGENCE_LIMIT:
            raise DivergenceError(f"objective reached {f:.3e} at iteration {k}")
        stat, _ = stationarity_residual(prob, X, cfg.alpha)
        log.append((k, f, amap.residual(X), stat))
        if stat <= cfg.stop_tol:
            converged = True
            break
    if exact:
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
