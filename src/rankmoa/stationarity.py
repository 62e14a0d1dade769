"""First-order stationarity tests with multiplier recovery.

Three nested notions are certified at a feasible point X of rank s:

* F-stationary: -grad_X L(X; y) lies in the Frechet normal cone of the
  low-rank set for some multiplier y. For s == r this means the tangential
  part of the Lagrangian gradient vanishes; for s < r the whole gradient
  must vanish.
* alpha-stationary: X is a fixed point of the rank-r projected gradient step
  on the Lagrangian with step alpha. Equivalent characterization: the
  Lagrangian gradient is normal and its spectral norm is at most
  sigma_r(X) / alpha (s == r), or vanishes (s < r).
* M-stationary: -grad_X L in the Mordukhovich normal cone, i.e. tangential
  part vanishes and rank(grad_X L) <= min(m, n) - r.

Multipliers are recovered by minimum-norm least squares truncated at
rank_tol; M-stationarity over the affine family of multipliers is only
certified at the tested y values. All tests at one point read a single
``PointAnalysis`` of it.
Infeasible inputs produce reports with all verdicts false, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cones import compress, project_tangent_fixed_rank
from .linalg import as_matrix, check_positive, orient_svd, rank_estimate, spectral_norm
from .model import ProblemSpec
from .qualification import (CASE_FULL_RANK, CASE_RANK_DEFICIENT, QualificationReport,
                            bq_certificates)
from .report import JsonReport


@dataclass
class StationarityReport(JsonReport):
    feasible: bool
    feasibility_residual: float
    s: int
    y: np.ndarray | None = None
    grad_lagrangian: np.ndarray | None = None
    f_residual: float | None = None
    is_F: bool = False
    is_M: bool = False
    alpha_tested: float | None = None
    is_alpha: bool | None = None
    beta: float | None = None
    classification: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def lagrangian(prob: ProblemSpec, X, y) -> float:
    """f(X) + sum_i y_i (<A^i, X> - b_i)."""
    X = as_matrix(X, "X")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return prob.objective.value(X) + float(y @ (prob.affine.apply(X) - prob.affine.rhs))


def lagrangian_grad(prob: ProblemSpec, X, y) -> np.ndarray:
    """grad f(X) + sum_i y_i A^i."""
    X = as_matrix(X, "X")
    return prob.objective.grad(X) + prob.affine.adjoint(y)


class PointAnalysis:
    """The quantities every check at one point X reads, each computed once.

    The oriented SVD, the objective gradient and feasibility are taken on
    construction; the compressed constraint stack, recovered multipliers and
    the qualification report on first use. Every check that takes a point
    also accepts an analysis of it, which is how one ``analyze`` run factors
    its point once.
    """

    def __init__(self, prob: ProblemSpec, X):
        self.prob = prob
        self.X = as_matrix(X, "X")
        self.svd = orient_svd(self.X, prob.rank_tol)
        self.s = self.svd.rank
        self.grad = prob.objective.grad(self.X)
        # stationarity residuals are compared against tol * scale
        self.scale = max(1.0, float(np.linalg.norm(self.grad)))
        self.feasibility_residual = prob.affine.residual(self.X)
        rhs_scale = max(1.0, float(np.linalg.norm(prob.affine.rhs)))
        self.feasible = (self.feasibility_residual <= prob.tol * rhs_scale
                         and self.s <= prob.r)
        self._multipliers = {}

    @classmethod
    def of(cls, prob: ProblemSpec, X) -> "PointAnalysis":
        """X itself when it is an analysis of prob, else a new analysis of X."""
        if not isinstance(X, cls):
            return cls(prob, X)
        if X.prob is not prob:
            raise ValueError("the point analysis belongs to another problem")
        return X

    def multiplier(self, tangential: bool):
        """(y, residual) minimizing the tangential part of grad L, or all of it."""
        if tangential not in self._multipliers:
            self._multipliers[tangential] = _recover_multiplier(self, tangential)
        return self._multipliers[tangential]

    @cached_property
    def compressed(self) -> np.ndarray:
        """U^T A^i V of every constraint, the stack every constraint test here reads."""
        return compress(self.svd, self.prob.affine.mats)

    @cached_property
    def qualification(self) -> QualificationReport:
        prob = self.prob
        return bq_certificates(self.svd, prob.affine, prob.r, min(prob.tol, prob.rank_tol),
                               self.compressed)

    def grad_lagrangian(self, y) -> np.ndarray:
        return self.grad + self.prob.affine.adjoint(y)

    def tangential_norm(self, Z) -> float:
        return float(np.linalg.norm(project_tangent_fixed_rank(self.svd, Z)))

    def frechet_residual(self, gradL) -> float:
        """Norm of the part of grad L that F-stationarity needs to vanish.

        That part is the tangential one when s == r and the whole gradient
        when s < r, where the Frechet normal cone collapses to {O}.
        """
        if self.s == self.prob.r:
            return self.tangential_norm(gradL)
        return float(np.linalg.norm(gradL))


def _recover_multiplier(pa: PointAnalysis, tangential: bool):
    """Minimum-norm minimizer of the (projected) Lagrangian-gradient norm."""
    if not tangential:
        return pa.prob.affine.fit_multiplier(-pa.grad, pa.prob.rank_tol)
    return pa.prob.affine.fit_multiplier(-pa.grad, pa.prob.rank_tol, pa.svd, pa.compressed)


def check_F_stationary(prob: ProblemSpec, X) -> StationarityReport:
    """F-stationarity with least-squares multiplier recovery.

    s == r: minimize the tangential norm of grad f + adjoint(y) over y.
    s <  r: minimize the full norm (the Frechet cone collapses to {O}).
    """
    pa = PointAnalysis.of(prob, X)
    rep = StationarityReport(feasible=pa.feasible,
                             feasibility_residual=pa.feasibility_residual, s=pa.s)
    if not rep.feasible:
        return rep
    y, resid = pa.multiplier(tangential=pa.s == prob.r)
    rep.y = y
    rep.f_residual = resid
    rep.grad_lagrangian = pa.grad_lagrangian(y)
    rep.is_F = resid <= prob.tol * pa.scale
    return rep


def check_alpha_stationary(prob: ProblemSpec, X, y, alpha: float,
                           method: str = "characterization") -> bool:
    """Fixed point of the rank-r projected gradient step with step alpha.

    ``method="characterization"`` uses the normality-plus-spectral-bound
    form; ``method="projection"`` recomputes the projection distance, which
    stays correct when the truncation is not unique (tie-aware: X passes if
    it attains the optimal distance).
    """
    check_positive(alpha, "alpha")
    pa = PointAnalysis.of(prob, X)
    if not pa.feasible:
        return False
    gradL = pa.grad_lagrangian(y)
    if prob.r == 0:
        return True  # the only rank-0 matrix is X = O, a fixed point of any step
    if method == "projection":
        Z = pa.X - alpha * gradL
        sv = np.linalg.svd(Z, compute_uv=False)
        best = float(np.sqrt(np.sum(sv[prob.r:] ** 2)))
        dist = alpha * float(np.linalg.norm(gradL))
        return abs(dist - best) <= prob.tol * max(1.0, float(np.linalg.norm(Z)))
    if method != "characterization":
        raise ValueError(f"unknown method {method!r}")
    if pa.frechet_residual(gradL) > prob.tol * pa.scale:
        return False
    return pa.s < prob.r or (
        spectral_norm(gradL) <= float(pa.svd.sigma[prob.r - 1]) / alpha + prob.tol)


def beta_bound(prob: ProblemSpec, X, y) -> float:
    """sigma_r(X) / ||grad_X L||_2; infinity when the gradient vanishes."""
    pa = PointAnalysis.of(prob, X)
    gradL = pa.grad_lagrangian(y)
    if float(np.linalg.norm(gradL)) <= prob.tol * pa.scale or prob.r == 0:
        return math.inf
    return float(pa.svd.sigma[prob.r - 1]) / spectral_norm(gradL)


def check_M_stationary(prob: ProblemSpec, X, y_hint=None):
    """M-stationarity at the supplied (or minimum-norm) multiplier.

    Returns (verdict, y). Only the tested multiplier certifies or refutes;
    the admissible family is affine and is not searched exhaustively.
    """
    pa = PointAnalysis.of(prob, X)
    if not pa.feasible:
        return False, None
    if y_hint is None:
        y, _ = pa.multiplier(tangential=True)
    else:
        y = np.atleast_1d(np.asarray(y_hint, dtype=float))
    gradL = pa.grad_lagrangian(y)
    if pa.tangential_norm(gradL) > prob.tol * pa.scale:
        return False, y
    if float(np.linalg.norm(gradL)) <= prob.tol * pa.scale:
        return True, y  # numerically zero gradient belongs to every normal cone
    ok = rank_estimate(gradL, prob.rank_tol) <= min(prob.m, prob.n) - prob.r
    return ok, y


def classify_first_order(prob: ProblemSpec, X, alpha: float | None = None) -> StationarityReport:
    """Aggregate first-order report with theorem-backed conclusions.

    ``is_alpha`` is tested at the supplied step, else at 1/l_f when the
    objective declares a strong-convexity modulus l_f. Uniqueness (Thm 4.2 ii)
    needs alpha-stationarity at a step >= 1/l_f, which implies it at 1/l_f,
    so it is always probed at 1/l_f whatever step the caller tests.
    """
    pa = PointAnalysis.of(prob, X)
    rep = check_F_stationary(prob, pa)
    if not rep.feasible:
        return rep
    # at s == r the retry would recover the same tangential multiplier as F
    rep.is_M = (check_M_stationary(prob, pa, y_hint=rep.y)[0]
                or (rep.s < prob.r and check_M_stationary(prob, pa)[0]))
    rep.beta = beta_bound(prob, pa, rep.y)

    lf = prob.objective.strong_convexity_modulus
    a_unique = 1.0 / lf if lf else None
    unique_ok = bool(lf) and check_alpha_stationary(prob, pa, rep.y, a_unique)
    a = a_unique if alpha is None else alpha
    if a is not None:
        rep.alpha_tested = float(a)
        rep.is_alpha = (unique_ok if a == a_unique
                        else check_alpha_stationary(prob, pa, rep.y, a))

    convex = prob.objective.convex
    cls = rep.classification
    if rep.is_F and convex:
        if rep.s < prob.r:
            cls.append("global minimizer (Thm 4.1 ii)")
        else:
            cls.append("global minimizer restricted on M_X(Γ) (Thm 4.1 ii)")
    if unique_ok:
        cls.append("unique global minimizer (Thm 4.2 ii)")
    if rep.is_M and convex and not rep.is_F:
        cls.append("global minimizer restricted on M_X(Γ) (Cor 4.1 ii)")

    qual = pa.qualification
    if qual.intersection_rule_case == CASE_FULL_RANK:
        k = 1
    elif qual.intersection_rule_case == CASE_RANK_DEFICIENT:
        k = 2
    else:
        k = None
    if k is not None:
        state = "satisfied" if rep.is_F else "violated"
        cls.append(f"necessary conditions {state} under Assumption {k} (Thm 4.1 i)")
        if not rep.is_F:
            rep.notes.append(
                "qualification is certified and F-stationarity fails, so the "
                "point cannot be a local minimizer"
            )
    else:
        rep.notes.append(
            "necessity not certified: neither qualification applies at this point"
        )
    return rep
