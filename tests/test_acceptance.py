"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from rankmoa import (AffineMap, ConeQuery, FrobeniusDistance, ProblemSpec,
                     RankBound, SolverConfig, beta_bound, bq_certificates,
                     build_hankel, build_lrr, check_F_stationary,
                     check_M_stationary, check_alpha_stationary,
                     check_second_order, classify_first_order,
                     frechet_normal_decomposition, in_normal_frechet_Mr,
                     in_tangent_bouligand_Mr, orient_svd, project_low_rank,
                     save_problem, solve)
from rankmoa.cli import main
from rankmoa.cones import project_normal_fixed_rank, project_tangent_fixed_rank
from rankmoa.oracle import (diag_embedding_equivalence, fd_gradient, fd_quad,
                            rank1_hankel_min, saddle_3x3)
from rankmoa.qualification import build_R, build_T

from conftest import certified_instance, random_rank_matrix


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_hankel_analysis(hankel_case, tmp_path, capsys):
    with criterion(1, "Hankel 3x3 analysis"):
        spec, points = hankel_case
        path = tmp_path / "hankel33.prob"
        save_problem(spec, path, named_points=points)
        code = main(["analyze", str(path), "--point", "Xbar", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0

        st = doc["stationarity"]
        assert st["is_F"] is True
        assert st["f_residual"] <= 1e-8
        assert np.allclose(st["y"], np.zeros(4), atol=1e-8)
        sv = doc["svd"]["singular_values"]
        assert abs(sv[0] - 112.5) <= 1e-9 and abs(sv[1] - 0.5) <= 1e-9
        q = doc["qualification"]
        assert q["assumption1"] is True and q["t_rank"] == 4
        so = doc["second_order"]
        assert so["case"] == "full_rank" and so["min_eig"] > 0
        assert so["sufficient_ok"] is True

        f_xbar = spec.objective.value(points["Xbar"])
        assert abs(f_xbar - 0.5e-12) <= 1e-16
        # the best rank-1 Hankel value: on the coordinate-line family it sits
        # in the 0.5 * 7.5^2 * 2 region; the full geometric family dips lower
        # but still stays far above f(Xbar)
        v_lines, _ = rank1_hankel_min(spec.objective.target, family="lines")
        assert v_lines >= 0.5 * 7.5**2 * 2 - 1e-9
        v_full, _ = rank1_hankel_min(spec.objective.target, family="full")
        assert f_xbar < v_full

        # the rank-1 line point: the fourth compressed constraint vanishes
        svd_t = orient_svd(points["Xtilde"], spec.rank_tol)
        t4 = build_T(svd_t, spec.affine)[3]
        assert np.linalg.norm(t4) <= 1e-10
        rep_q = bq_certificates(svd_t, spec.affine, 1)
        assert rep_q.assumption1 is False
        rank1 = build_hankel(spec.objective.target, 1)
        rep_f = check_F_stationary(rank1, points["Xtilde"])
        assert rep_f.feasible and not rep_f.is_F


def test_criterion_1_second_order_form(hankel_case):
    with criterion("1b", "Xbar sufficient, the 3x3 saddle's necessary condition fails"):
        spec, points = hankel_case
        rep = check_second_order(spec, points["Xbar"], np.zeros(4))
        assert rep.sufficient_ok and rep.min_eig > 0
        prob, X, y = saddle_3x3()
        rep = check_second_order(prob, X, y)
        assert not rep.necessary_ok and rep.min_eig < 0


def test_criterion_2_diagonal_example(diagonal_case):
    with criterion(2, "pinned-diagonal example"):
        spec, points = diagonal_case
        xbar = points["Xbar"]
        rep = check_F_stationary(spec, xbar)
        assert rep.feasible
        assert not rep.is_F
        # the (1,1) entry y1 and the (2,2) entry 1-y1 of the Lagrangian
        # gradient cannot both vanish; the least-squares optimum is y1 = 1/2
        # with residual exactly sqrt(1/2) = 0.7071..., bounded well away
        # from the acceptance tolerance
        assert rep.f_residual >= 0.7
        assert abs(rep.f_residual - np.sqrt(0.5)) <= 1e-9
        svd = orient_svd(xbar, spec.rank_tol)
        r1 = build_R(svd, spec.affine)[0]
        assert np.linalg.norm(r1) <= 1e-10
        with pytest.warns(RuntimeWarning):
            from rankmoa import assumption2_holds
            ok, _ = assumption2_holds(svd, spec.affine)
        assert not ok


def test_criterion_3_trace_instance(trace_case):
    with criterion(3, "trace-constrained 4x4 instance"):
        spec, points = trace_case
        for label in ("X1", "X2", "X3"):
            ok, _ = check_M_stationary(spec, points[label], y_hint=[-1.0])
            assert ok, f"{label} should be M-stationary at y=-1"
            rep = check_F_stationary(spec, points[label])
            assert not rep.is_F, f"{label} must not be F-stationary"
        rep4 = check_F_stationary(spec, points["X4"])
        assert rep4.is_F
        assert abs(rep4.y[0] - (-2.0 / 3.0)) <= 1e-8
        beta = beta_bound(spec, points["X4"], rep4.y)
        assert abs(beta - 2.0) <= 1e-8
        for a in (0.5, 1.0, 1.9):
            assert check_alpha_stationary(spec, points["X4"], rep4.y, a)
        for a in (2.1, 3.0):
            assert not check_alpha_stationary(spec, points["X4"], rep4.y, a)
        assert spec.objective.strong_convexity_modulus == 1.0
        full = classify_first_order(spec, points["X4"], alpha=1.0)
        assert "unique global minimizer (Thm 4.2 ii)" in full.classification
        f4 = spec.objective.value(points["X4"])
        assert f4 < min(spec.objective.value(points[k]) for k in ("X1", "X2", "X3"))


def test_criterion_4_lrr_instances():
    with criterion(4, "row-representation instances N in {3, 5}"):
        for n in (3, 5):
            spec = build_lrr([np.eye(n) for _ in range(n)], 2)
            wbar = np.full((n, n), 1.0 / n)
            rep = check_F_stationary(spec, wbar)
            assert rep.is_F
            assert np.allclose(rep.y, -np.ones(n) / n, atol=1e-9)
            assert np.linalg.norm(rep.grad_lagrangian) <= 1e-10
            svd = orient_svd(wbar, spec.rank_tol)
            q = bq_certificates(svd, spec.affine, spec.r)
            assert q.assumption2 is True
            so = check_second_order(spec, wbar, rep.y, samples=200)
            assert so.case == "rank_deficient"
            assert so.sufficient_ok  # tier-1 certificate on ker A
            full = classify_first_order(spec, wbar)
            assert "global minimizer (Thm 4.1 ii)" in full.classification


def test_criterion_5_property_suites(rng):
    with criterion(5, "randomized property suites"):
        # Eckart-Young on 200 instances, 1000 rank-r samples each
        for _ in range(200):
            m, n = rng.integers(2, 7, size=2)
            r = int(rng.integers(1, min(m, n)))
            Z = rng.standard_normal((m, n))
            P, _ = project_low_rank(Z, r)
            best = np.linalg.norm(Z - P)
            left = rng.standard_normal((1000, m, r))
            right = rng.standard_normal((1000, r, n))
            dists = np.linalg.norm(Z - left @ right, axis=(1, 2))
            assert best <= dists.min() + 1e-9

        # cone polarity on 100 instances (one run at the full 500 samples)
        for trial in range(100):
            m, n = rng.integers(2, 6, size=2)
            r = int(rng.integers(1, min(m, n)))
            s = int(rng.integers(0, r + 1))
            svd = orient_svd(random_rank_matrix(rng, m, n, s))
            q = ConeQuery(svd, r)
            if s == r:
                d = rng.standard_normal((m - s, n - s))
                w = svd.u_perp @ d @ svd.v_perp.T
            else:
                w = np.zeros((m, n))
            assert in_normal_frechet_Mr(q, w)
            n_samples = 500 if trial == 0 else 25
            for _ in range(n_samples):
                h = project_tangent_fixed_rank(svd, rng.standard_normal((m, n)))
                h += project_low_rank(project_normal_fixed_rank(
                    svd, rng.standard_normal((m, n))), r - s)[0]
                assert in_tangent_bouligand_Mr(q, h)
                assert float(np.tensordot(w, h)) <= 1e-8 * max(
                    1.0, np.linalg.norm(w) * np.linalg.norm(h))

        # implication chain alpha => F => M on 200 certified points
        for trial in range(200):
            m, n = int(rng.integers(3, 6)), int(rng.integers(3, 6))
            r = int(rng.integers(1, min(m, n)))
            s = r if trial % 2 else int(rng.integers(0, r))
            X = random_rank_matrix(rng, m, n, s)
            svd = orient_svd(X)
            l = int(rng.integers(0, 3))
            mats = [rng.standard_normal((m, n)) for _ in range(l)]
            amap = AffineMap(mats, [float(np.tensordot(a, X)) for a in mats],
                             shape=(m, n))
            y0 = rng.standard_normal(l)
            normal = np.zeros((m, n))
            if s == r:
                d = rng.standard_normal((m - s, n - s))
                normal = svd.u_perp @ d @ svd.v_perp.T
            target = X + normal + amap.adjoint(y0)
            prob = ProblemSpec(FrobeniusDistance(target), amap, RankBound(r))
            rep = check_F_stationary(prob, X)
            beta = beta_bound(prob, X, rep.y)
            alpha = min(1.0, 0.9 * beta)
            assert check_alpha_stationary(prob, X, rep.y, alpha)
            assert rep.is_F
            full = classify_first_order(prob, X)
            assert full.is_F and full.is_M

        # finite-difference agreement on 100 instances
        from rankmoa import LinearTrace, RowQuadratic
        for trial in range(100):
            m, n = rng.integers(2, 5, size=2)
            kind = trial % 3
            if kind == 0:
                obj = FrobeniusDistance(rng.standard_normal((m, n)))
            elif kind == 1:
                obj = LinearTrace(rng.standard_normal((m, n)))
            else:
                obj = RowQuadratic([rng.standard_normal((n, n))
                                    for _ in range(n)])
            X = rng.standard_normal(obj.shape)
            Xi = rng.standard_normal(obj.shape)
            g = obj.grad(X)
            assert np.linalg.norm(fd_gradient(obj, X) - g) <= 1e-5 * max(
                1.0, np.linalg.norm(g))
            qv = obj.hess_quad(X, Xi)
            assert abs(fd_quad(obj, X, Xi) - qv) <= 1e-5 * max(1.0, abs(qv))

        # sparse-vector diagonal embedding equivalence on 100 instances
        for _ in range(100):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            s = int(rng.integers(0, r + 1))
            x = np.zeros(n)
            idx = rng.choice(n, size=s, replace=False)
            x[idx] = rng.standard_normal(s) + 0.5 * np.sign(
                rng.standard_normal(s))
            a_vecs = [rng.standard_normal(n)
                      for _ in range(int(rng.integers(0, n)))]
            assert diag_embedding_equivalence(a_vecs, x, r)


def test_criterion_6_intersection_rule_consistency(rng):
    with criterion(6, "intersection-rule membership and decomposition"):
        for _ in range(50):
            svd, amap, r = certified_instance(rng)
            m, n, s = svd.m, svd.n, svd.rank
            # a sampled member of N_L + N^F must pass
            y = rng.standard_normal(amap.l)
            w = amap.adjoint(y)
            if s == r:
                d = rng.standard_normal((m - s, n - s))
                w = w + svd.u_perp @ d @ svd.v_perp.T
            ok, y_fit, resid = frechet_normal_decomposition(svd, amap, r, w)
            assert ok and resid <= 1e-8 * max(1.0, np.linalg.norm(w))
            # anything passing admits an explicit certified split
            probe = rng.standard_normal((m, n))
            ok_p, y_p, resid_p = frechet_normal_decomposition(svd, amap, r, probe)
            if ok_p:
                delta = probe - amap.adjoint(y_p)
                q = ConeQuery(svd, r)
                assert in_normal_frechet_Mr(q, delta)
                assert resid_p <= 1e-8 * max(1.0, np.linalg.norm(probe))


def test_criterion_7_solver_reproduction(hankel_case, trace_case, tmp_path,
                                         capsys):
    with criterion(7, "solver reproduces the two reference points"):
        spec, points = hankel_case
        x0, _ = project_low_rank(spec.objective.target, 2, spec.rank_tol)
        result = solve(spec, x0, SolverConfig(alpha=0.5))
        assert result.converged and result.iterations < 10**4
        assert np.linalg.norm(result.x - points["Xbar"]) <= 1e-6

        tspec, tpoints = trace_case
        result = solve(tspec, tpoints["H"], SolverConfig(alpha=0.5))
        assert result.converged and result.iterations < 10**4
        assert np.linalg.norm(result.x - tpoints["X4"]) <= 1e-6

        # same reproduction through the command-line front end
        path = tmp_path / "tr.prob"
        save_problem(tspec, path, named_points=tpoints)
        out = tmp_path / "out"
        code = main(["solve", str(path), "--x0", "H", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        x = np.loadtxt(out / "x_star.txt")
        assert np.linalg.norm(x - tpoints["X4"]) <= 1e-6
