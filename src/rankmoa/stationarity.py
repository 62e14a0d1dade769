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
``PointAnalysis`` of it, and the F, alpha, beta, M, second-order and
solver-stopping tests at one y apply their cone rules to one record,
``PointAnalysis.at(y)``: grad_X L, its norm and Frechet residual and, on
first use, its tangential residual and singular values. M applies the rule
of ``cones.in_normal_mordukhovich_Mr`` to it; alpha, uniqueness and the
solver's stopping test read its ``excess`` over the alpha bound.
Infeasible inputs produce reports with all verdicts false, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cones import _frechet_residual, _in_mordukhovich
from .linalg import _scale, as_matrix, check_positive, orient_svd
from .model import ProblemSpec
from .qualification import (CASE_ASSUMPTION, PointConstraints, QualificationReport,
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


class LagrangianGrad:
    """grad_X L(X; y) = grad f(X) + A*(y) at one point and multiplier, and its norms.

    ``frechet`` is the norm of the part F needs to vanish: the tangential part
    at s == r, all of it at s < r. ``tangential``, outside the rank-s normal
    space (M needs it to vanish), and ``sigma``, its singular values, are
    taken on first use; ``excess`` reads sigma_1 against the alpha bound.
    """

    def __init__(self, pa: "PointAnalysis", y: np.ndarray):
        self.y = y
        self.matrix = pa.grad + pa.prob.affine.adjoint(y)
        self.norm = float(np.linalg.norm(self.matrix))
        self._svd = pa.svd
        self._r = pa.prob.r
        self.frechet = self.tangential if pa.s == pa.prob.r else self.norm

    @cached_property
    def tangential(self) -> float:
        return _frechet_residual(self._svd, self._svd.rank, self.matrix)

    @cached_property
    def sigma(self) -> np.ndarray:
        return np.linalg.svd(self.matrix, compute_uv=False)

    def excess(self, alpha: float) -> float:
        """sigma_1(grad_X L) - sigma_r(X) / alpha, the spectral bound of the alpha
        characterization; -inf at s < r and at r == 0, where no step alpha bounds it."""
        if self._svd.rank < self._r or self._r == 0:
            return -math.inf
        return float(self.sigma[0]) - float(self._svd.sigma[self._r - 1]) / alpha


class PointAnalysis:
    """The quantities every check at one point X reads, each computed once.

    The oriented SVD, the objective gradient and feasibility are taken on
    construction; the constraints at the point, recovered multipliers, the
    qualification report and each multiplier's ``LagrangianGrad`` on first
    use. A gradient whose norm is not finite raises ValueError, since residuals
    are compared against it. Every check that takes a point also accepts an
    analysis of it, which is how one ``analyze`` run factors its point once.
    """

    def __init__(self, prob: ProblemSpec, X):
        self.prob = prob
        self.X = as_matrix(X, "X")
        self.svd = orient_svd(self.X, prob.rank_tol)
        self.s = self.svd.rank
        self.grad = prob.objective.grad(self.X)
        with np.errstate(over="ignore"):
            grad_norm = float(np.linalg.norm(self.grad))
        # an infinite scale would pass every residual test, inf <= tol * inf among them
        if not math.isfinite(grad_norm):
            raise ValueError(f"the objective gradient's norm is {grad_norm} at this point, "
                             "so no residual test can be made")
        # stationarity residuals are compared against tol * scale
        self.scale = _scale(grad_norm)
        self.threshold = prob.tol * self.scale
        self.feasibility_residual = prob.affine.residual(self.X)
        self.feasible = (self.feasibility_residual <= prob.tol * prob.affine._rhs_scale
                         and self.s <= prob.r)
        self._multipliers = {}
        self._records = {}

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

    def at(self, y) -> LagrangianGrad:
        """The record of grad_X L(X; y), built on the first request for these bytes of y."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        key = (y.shape, y.tobytes())
        if key not in self._records:
            self._records[key] = LagrangianGrad(self, y)
        return self._records[key]

    @cached_property
    def constraints(self) -> PointConstraints:
        """U^T A^i V and its tangent SVD, which every constraint test here reads."""
        return PointConstraints(self.svd, self.prob.affine)

    @cached_property
    def qualification(self) -> QualificationReport:
        prob = self.prob
        return bq_certificates(self.svd, prob.affine, prob.r, min(prob.tol, prob.rank_tol),
                               self.constraints)


def _recover_multiplier(pa: PointAnalysis, tangential: bool):
    """Minimum-norm minimizer of the (projected) Lagrangian-gradient norm."""
    return pa.constraints.fit(-pa.grad, tangential, pa.prob.rank_tol)


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
    rep.grad_lagrangian = pa.at(y).matrix
    rep.is_F = resid <= pa.threshold
    return rep


def check_alpha_stationary(prob: ProblemSpec, X, y, alpha: float,
                           method: str = "characterization") -> bool:
    """Fixed point of the rank-r projected gradient step with step alpha.

    ``method="characterization"`` uses the normality-plus-spectral-bound
    form; ``method="projection"`` recomputes the projection distance, which
    stays correct when the truncation is not unique (tie-aware: X passes if
    it attains the optimal distance).
    """
    if method not in ("characterization", "projection"):
        raise ValueError(f"unknown method {method!r}")
    check_positive(alpha, "alpha")
    pa = PointAnalysis.of(prob, X)
    if not pa.feasible:
        return False
    grad_l = pa.at(y)
    if method == "projection":
        Z = pa.X - alpha * grad_l.matrix
        sv = np.linalg.svd(Z, compute_uv=False)
        best = float(np.sqrt(np.sum(sv[prob.r:] ** 2)))
        dist = alpha * grad_l.norm
        return abs(dist - best) <= prob.tol * _scale(float(np.linalg.norm(Z)))
    return grad_l.frechet <= pa.threshold and grad_l.excess(alpha) <= prob.tol


def beta_bound(prob: ProblemSpec, X, y) -> float:
    """sigma_r(X) / ||grad_X L||_2; infinity when the gradient vanishes."""
    pa = PointAnalysis.of(prob, X)
    grad_l = pa.at(y)
    if grad_l.norm <= pa.threshold or prob.r == 0:
        return math.inf
    return float(pa.svd.sigma[prob.r - 1]) / float(grad_l.sigma[0])


def check_M_stationary(prob: ProblemSpec, X, y_hint=None):
    """M-stationarity at the supplied (or minimum-norm) multiplier.

    Returns (verdict, y). Only the tested multiplier certifies or refutes;
    the admissible family is affine and is not searched exhaustively.
    """
    pa = PointAnalysis.of(prob, X)
    if not pa.feasible:
        return False, None
    grad_l = pa.at(pa.multiplier(tangential=True)[0] if y_hint is None else y_hint)
    return _in_mordukhovich(pa.svd, prob.r, grad_l.tangential, grad_l.norm,
                            lambda: grad_l.sigma, pa.threshold), grad_l.y


def classify_first_order(prob: ProblemSpec, X, alpha: float | None = None) -> StationarityReport:
    """Aggregate first-order report with theorem-backed conclusions.

    ``is_alpha`` is tested at the supplied step, else at 1/l_f when the
    objective declares a strong-convexity modulus l_f. Uniqueness (Thm 4.2 ii)
    is decided apart from it: X must be alpha-stationary at a step above 1/l_f,
    as at 1/l_f strong convexity bounds f(Z) - f(X) below only by 0, which
    admits ties. So the excess at 1/l_f must be below -tol * scale.
    """
    pa = PointAnalysis.of(prob, X)
    rep = check_F_stationary(prob, pa)
    if not rep.feasible:
        return rep
    rep.is_M = (check_M_stationary(prob, pa, y_hint=rep.y)[0]
                or check_M_stationary(prob, pa)[0])
    rep.beta = beta_bound(prob, pa, rep.y)

    lf = prob.objective.strong_convexity_modulus
    a = 1.0 / lf if alpha is None and lf else alpha
    if a is not None:
        rep.alpha_tested = float(a)
        rep.is_alpha = check_alpha_stationary(prob, pa, rep.y, a)

    convex = prob.objective.convex
    cls = rep.classification
    if rep.is_F and convex:
        if rep.s < prob.r:
            cls.append("global minimizer (Thm 4.1 ii)")
        else:
            cls.append("global minimizer restricted on M_X(Γ) (Thm 4.1 ii)")
    grad_l = pa.at(rep.y)
    if lf and grad_l.frechet <= pa.threshold and grad_l.excess(1.0 / lf) < -pa.threshold:
        cls.append("unique global minimizer (Thm 4.2 ii)")
    if rep.is_M and convex and not rep.is_F:
        cls.append("global minimizer restricted on M_X(Γ) (Cor 4.1 ii)")

    k = CASE_ASSUMPTION.get(pa.qualification.intersection_rule_case)
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
