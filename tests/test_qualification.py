import threading

import numpy as np
import pytest

from rankmoa import (AffineMap, QualificationError, assumption1_holds,
                     assumption2_holds, bq_certificates, build_R, build_T,
                     frechet_normal_decomposition, frechet_normal_of_feasible_set,
                     orient_svd, qualification)
from rankmoa.cones import compress, project_tangent_fixed_rank, tangent_coordinates
from rankmoa.oracle import diag_embedding_equivalence
from rankmoa.qualification import (CASE_FULL_RANK, CASE_NOT_CERTIFIED,
                                   CASE_RANK_DEFICIENT)

from conftest import certified_instance, random_rank_matrix


def _hand_T(u, v, s, a):
    """Direct block assembly from explicit factors, independent of build_T."""
    ug, vg, up, vp = u[:, :s], v[:, :s], u[:, s:], v[:, s:]
    m, n = a.shape
    t = np.zeros((m, n))
    t[:s, :s] = ug.T @ a @ vg
    t[:s, s:] = ug.T @ a @ vp
    t[s:, :s] = up.T @ a @ vg
    return t


def test_build_T_matches_hand_values_at_hankel_target(hankel_case):
    # the printed compressed matrices use the signed symmetric eigenbasis;
    # Gram matrices agree with ours because sign flips are orthogonal
    spec, points = hankel_case
    a = np.sqrt(112.5 / 113.0)
    b = np.sqrt(0.5 / 113.0)
    u_hand = np.array([[-a, b, 0.0], [-b, -a, 0.0], [0.0, 0.0, 1.0]])
    svd = orient_svd(points["Xbar"])
    ours = build_T(svd, spec.affine)
    t1_hand = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    t2_hand = np.array([[b * b, a * b, a], [a * b, a * a, -b], [0.0, 0.0, 0.0]])
    t3_hand = np.array([[-b * b, -a * b, 0.0], [-a * b, -a * a, 0.0], [-a, b, 0.0]])
    # the fourth constraint matrix is antisymmetric, and with identical left
    # and right factors its compression must be antisymmetric too
    t4_hand = np.array([[0.0, 0.0, b], [0.0, 0.0, a], [-b, -a, 0.0]])
    hand = [t1_hand, t2_hand, t3_hand, t4_hand]
    for i, ai in enumerate(spec.affine.mats):
        assert np.allclose(_hand_T(u_hand, u_hand, 2, ai), hand[i], atol=1e-12)
        assert np.linalg.norm(ours[i]) <= np.linalg.norm(ai) + 1e-12
    gram_ours = np.array([[np.tensordot(p, q) for q in ours] for p in ours])
    gram_hand = np.array([[np.tensordot(p, q) for q in hand] for p in hand])
    assert np.allclose(gram_ours, gram_hand, atol=1e-10)


def test_build_T_vanishes_at_rank_one_line(hankel_case):
    spec, points = hankel_case
    svd = orient_svd(points["Xtilde"])
    ts = build_T(svd, spec.affine)
    assert np.linalg.norm(ts[3]) <= 1e-10  # the fourth compressed matrix is O
    ok, t_rank = assumption1_holds(svd, spec.affine)
    assert not ok and t_rank == 3


def test_build_T_zero_constraint():
    svd = orient_svd(np.diag([2.0, 1.0, 0.0]))
    amap = AffineMap([np.zeros((3, 3))], [0.0])
    assert np.allclose(build_T(svd, amap)[0], np.zeros((3, 3)))
    assert np.allclose(build_R(svd, amap)[0], np.zeros((3, 2)))


def test_build_R_diagonal_example(diagonal_case):
    # with the descending-order factors the first constraint compresses to O
    spec, points = diagonal_case
    svd = orient_svd(points["Xbar"])
    r1 = build_R(svd, spec.affine)[0]
    assert np.linalg.norm(r1) <= 1e-10
    with pytest.warns(RuntimeWarning):
        ok, r_rank = assumption2_holds(svd, spec.affine)
    # eight compressed matrices squeezed into a 3-dimensional space
    assert not ok and r_rank == 3


def test_build_R_lrr_independent(lrr_case):
    spec = lrr_case(4)
    wbar = np.full((4, 4), 0.25)
    svd = orient_svd(wbar)
    rs = build_R(svd, spec.affine)
    for i, r in enumerate(rs):
        assert r.shape == (4, 1)
        # E^i V_g = sqrt(N) e_i, hence R^i = sqrt(N) U^T e_i (row i of U)
        assert np.allclose(r.ravel(), 2.0 * svd.u[i, :], atol=1e-9)
    ok, r_rank = assumption2_holds(svd, spec.affine)
    assert ok and r_rank == 4


def test_assumptions_hold_at_hankel_target(hankel_case):
    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    ok, t_rank = assumption1_holds(svd, spec.affine)
    assert ok and t_rank == 4


def test_assumptions_vacuous_without_constraints():
    svd = orient_svd(np.diag([1.0, 0.0]))
    amap = AffineMap([], [], shape=(2, 2))
    assert assumption1_holds(svd, amap) == (True, 0)
    assert assumption2_holds(svd, amap) == (True, 0)


def test_assumption_cardinality_warnings(rng):
    svd = orient_svd(np.diag([1.0, 0.0]))
    mats = [rng.standard_normal((2, 2)) for _ in range(4)]
    amap = AffineMap(mats, np.zeros(4))
    with pytest.warns(RuntimeWarning):
        assumption1_holds(svd, amap)  # l=4 > mn - (m-s)(n-s) = 3
    with pytest.warns(RuntimeWarning):
        assumption2_holds(svd, amap)  # l=4 > m*s = 2


def test_concurrent_bq_certificates_keep_their_own_notes(rng, monkeypatch):
    # thread "many" (l = 4 > both row widths) is inside bq_certificates while
    # thread "one" (l = 1) enters it, and finishes first; each keeps its notes.
    # The gate sits between the two qualifications, outside the cached_property
    # PointConstraints.tangent, whose lock spans instances on Python 3.11
    svd = orient_svd(np.diag([1.0, 0.0]))
    many = AffineMap([rng.standard_normal((2, 2)) for _ in range(4)], np.zeros(4))
    one = AffineMap([rng.standard_normal((2, 2))], np.zeros(1))
    many_inside, one_inside, many_done = (threading.Event() for _ in range(3))
    slice_R = qualification._slice_R
    gated, waited = set(), []

    def gate(svd_, C):
        name = threading.current_thread().name
        if name not in gated:
            gated.add(name)
            if name == "many":
                many_inside.set()
                waited.append(one_inside.wait(10))
            else:
                one_inside.set()
                waited.append(many_done.wait(10))
        return slice_R(svd_, C)

    monkeypatch.setattr(qualification, "_slice_R", gate)
    reports = {}

    def run_many():
        try:
            reports["many"] = bq_certificates(svd, many, 1)
        finally:
            many_done.set()

    def run_one():
        many_inside.wait(10)
        reports["one"] = bq_certificates(svd, one, 1)

    threads = [threading.Thread(target=run_many, name="many"),
               threading.Thread(target=run_one, name="one")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
        assert not t.is_alive()
    assert waited == [True, True]  # neither thread ran on after a timeout
    assert reports["one"].warnings == ()
    notes = reports["many"].warnings
    assert len(notes) == 2
    assert notes[0].startswith("4 constraints exceed the dimension 3 ")
    assert notes[1].startswith("4 constraints exceed the dimension 2 ")


def test_T_R_norm_compression(rng):
    for _ in range(10):
        m, n = rng.integers(2, 6, size=2)
        s = int(rng.integers(0, min(m, n) + 1))
        svd = orient_svd(random_rank_matrix(rng, m, n, s))
        amap = AffineMap([rng.standard_normal((m, n)) for _ in range(3)],
                         np.zeros(3))
        for a, t, r in zip(amap.mats, build_T(svd, amap), build_R(svd, amap)):
            assert np.linalg.norm(t) <= np.linalg.norm(a) + 1e-12
            assert np.linalg.norm(r) <= np.linalg.norm(a) + 1e-12


def test_assumption1_invariant_under_sign_flips(rng):
    from rankmoa.linalg import ThinSVD
    for _ in range(10):
        m, n = 4, 3
        s = 2
        svd = orient_svd(random_rank_matrix(rng, m, n, s))
        amap = AffineMap([rng.standard_normal((m, n)) for _ in range(3)],
                         np.zeros(3))
        base = assumption1_holds(svd, amap)
        signs = rng.choice([-1.0, 1.0], size=n)
        u = svd.u.copy()
        v = svd.v.copy()
        for j in range(n):
            u[:, j] *= signs[j]
            v[:, j] *= signs[j]
        flipped = ThinSVD(u=u, v=v, sigma=svd.sigma, gamma=svd.gamma,
                          rank_tol=svd.rank_tol)
        assert assumption1_holds(flipped, amap) == base


def test_bq_cases(hankel_case, lrr_case, diagonal_case):
    spec, points = hankel_case
    rep = bq_certificates(orient_svd(points["Xbar"]), spec.affine, spec.r)
    assert rep.intersection_rule_case == CASE_FULL_RANK
    assert rep.assumption1 and rep.bq_subspace and rep.bq_mordukhovich

    lrr = lrr_case(4)
    wbar = np.full((4, 4), 0.25)
    rep = bq_certificates(orient_svd(wbar), lrr.affine, lrr.r)
    assert rep.intersection_rule_case == CASE_RANK_DEFICIENT
    assert rep.assumption2

    dspec, dpoints = diagonal_case
    rep = bq_certificates(orient_svd(dpoints["Xbar"]), dspec.affine, dspec.r)
    assert rep.intersection_rule_case == CASE_NOT_CERTIFIED
    assert not rep.assumption2


def test_rank_fragile_warning():
    svd = orient_svd(np.diag([1.0, 5e-9, 0.0]))  # second value hugs the cutoff
    amap = AffineMap([], [], shape=(3, 3))
    rep = bq_certificates(svd, amap, 2)
    assert any("rank-fragile" in w for w in rep.warnings)


def test_dependent_constraints_noted():
    a = np.eye(3)
    amap = AffineMap([a, 2 * a], [1.0, 2.0])
    svd = orient_svd(np.diag([1.0, 1.0, 0.0]))
    rep = bq_certificates(svd, amap, 2)
    assert any("dependent" in w for w in rep.warnings)


def test_frechet_normal_of_feasible_set_hankel(hankel_case):
    spec, points = hankel_case
    svd = orient_svd(points["Xbar"])
    w = np.zeros((3, 3))
    w[2, 2] = 1e-6  # -grad f(Xbar)
    ok, y, resid = frechet_normal_decomposition(svd, spec.affine, spec.r, w)
    assert ok and resid <= 1e-12
    assert np.allclose(y, np.zeros(4), atol=1e-9)
    assert frechet_normal_of_feasible_set(svd, spec.affine, spec.r,
                                          np.zeros((3, 3)))


def test_frechet_normal_of_feasible_set_lrr(lrr_case):
    spec = lrr_case(5)
    wbar = np.full((5, 5), 0.2)
    svd = orient_svd(wbar)
    w = -wbar  # -grad f(Wbar)
    ok, y, resid = frechet_normal_decomposition(svd, spec.affine, spec.r, w)
    assert ok and resid <= 1e-10
    assert np.allclose(y, -np.ones(5) / 5.0, atol=1e-9)


def test_frechet_normal_raises_when_uncertified(diagonal_case):
    spec, points = diagonal_case
    svd = orient_svd(points["Xbar"])
    with pytest.raises(QualificationError):
        frechet_normal_of_feasible_set(svd, spec.affine, spec.r, np.eye(3))


def test_frechet_split_certifies_at_the_points_rank_tol():
    # the tangent coordinates' sigma_2 / sigma_1 is about 1.5e-9: independent at
    # the problem's rank_tol of 1e-10, dependent at the default 1e-8. The split
    # must rank them at the cutoff the point's qualification report used.
    from rankmoa import FrobeniusDistance, ProblemSpec, RankBound
    from rankmoa.stationarity import PointAnalysis
    A0 = np.zeros((4, 4))
    A0[0, 1] = 1.0
    A1 = A0.copy()
    A1[0, 2] = 3e-9
    amap = AffineMap([A0, A1], np.zeros(2))
    prob = ProblemSpec(FrobeniusDistance(np.zeros((4, 4))), amap, RankBound(2),
                       rank_tol=1e-10)
    pa = PointAnalysis(prob, np.diag([2.0, 1.0, 0.0, 0.0]))
    assert pa.qualification.intersection_rule_case == CASE_FULL_RANK
    assert pa.qualification.t_rank == 2
    member, y, resid = frechet_normal_decomposition(pa.svd, amap, prob.r,
                                                    amap.adjoint([1.0, -2.0]))
    assert member and resid <= 1e-12
    assert np.allclose(y, [1.0, -2.0], rtol=1e-6)


def test_diag_embedding_equivalence_against_vector_condition(rng):
    assert diag_embedding_equivalence([], np.array([1.0, 0.0, 0.0]), 2)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        s = int(rng.integers(0, r + 1))
        l = int(rng.integers(0, n))
        x = np.zeros(n)
        idx = rng.choice(n, size=s, replace=False)
        x[idx] = rng.standard_normal(s) + 0.5 * np.sign(rng.standard_normal(s))
        a_vecs = [rng.standard_normal(n) for _ in range(l)]
        assert diag_embedding_equivalence(a_vecs, x, r)


def test_diag_embedding_off_support_failure():
    # constraint supported away from the active pattern kills both verdicts
    x = np.array([1.0, 0.0, 0.0])
    a = [np.array([0.0, 0.0, 1.0])]
    assert diag_embedding_equivalence(a, x, 1)


@pytest.mark.parametrize("m,n,r", [(6, 4, 2), (4, 6, 2), (5, 5, 3)])
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("l", [1, 3])
def test_build_T_and_R_are_slices_of_compress(rng, m, n, r, full, l):
    s = r if full else 0
    svd = orient_svd(random_rank_matrix(rng, m, n, s))
    amap = AffineMap(rng.standard_normal((l, m, n)), np.zeros(l))
    T = build_T(svd, amap)
    want = compress(svd, amap.mats)
    want[:, s:, s:] = 0.0
    assert np.array_equal(T, want)
    # the tangent coordinates are the entries outside the zeroed block, row-major
    mask = np.ones((m, n), dtype=bool)
    mask[s:, s:] = False
    assert np.array_equal(tangent_coordinates(svd, amap.mats), T[:, mask])
    for a, t, rr in zip(amap.mats, T, build_R(svd, amap)):
        assert np.allclose(t, _hand_T(svd.u, svd.v, s, a), atol=1e-12)
        hand_r = (svd.u.T @ a @ svd.v[:, :s] if m >= n
                  else svd.v.T @ a.T @ svd.u[:, :s])
        assert np.allclose(rr, hand_r, atol=1e-12)
    with pytest.raises(ValueError):
        build_T(svd, AffineMap(np.zeros((l, m + 1, n)), np.zeros(l)))


def _reference_split(svd, amap, r, w):
    """The split as a least-squares solve over the full tangent projections."""
    cols, t = amap.mats, w
    if svd.rank == r:
        cols, t = project_tangent_fixed_rank(svd, cols), project_tangent_fixed_rank(svd, w)
    C = cols.reshape(amap.l, -1).T
    y = np.linalg.lstsq(C, t.ravel(), rcond=svd.rank_tol)[0]
    resid = float(np.linalg.norm(C @ y - t.ravel()))
    return resid <= 1e-8 * max(1.0, float(np.linalg.norm(w))), y


def test_frechet_decomposition_runs_only_the_needed_qualification(rng, monkeypatch):
    import rankmoa.qualification
    cases = []
    for _ in range(50):  # criterion 6's instances, drawn before the spies go in
        svd, amap, r = certified_instance(rng)
        w = amap.adjoint(rng.standard_normal(amap.l))
        if svd.rank == r:
            w = w + svd.u_perp @ rng.standard_normal((svd.m - r, svd.n - r)) @ svd.v_perp.T
        cases += [(svd, amap, r, w), (svd, amap, r, rng.standard_normal((svd.m, svd.n)))]

    def forbidden(*args, **kwargs):
        raise AssertionError("the split must not run every qualification")

    monkeypatch.setattr(rankmoa.qualification, "bq_certificates", forbidden)
    monkeypatch.setattr(AffineMap, "stack_rank", forbidden)
    members = 0
    for svd, amap, r, w in cases:
        ok, y, _ = frechet_normal_decomposition(svd, amap, r, w)
        ok_ref, y_ref = _reference_split(svd, amap, r, w)
        assert ok == ok_ref
        assert np.allclose(y, y_ref, rtol=1e-9, atol=1e-10)
        members += ok
    assert len(cases) // 2 <= members < len(cases)
    svd = orient_svd(np.diag([3.0, 2.0, 1.0]))
    with pytest.raises(QualificationError, match="above the bound"):
        frechet_normal_decomposition(svd, AffineMap([], [], shape=(3, 3)), 2, np.eye(3))
