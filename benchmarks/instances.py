"""Seeded instance families with planted truth.

Everything here uses numpy only: the program under test never generates its
own inputs, it only reads the problem files written by ``write_family``. The
file format is the one documented in ``rankmoa.problems``.

Instance sizes and ranks are fixed lists; the seed only draws the values, so
two seeds give the same mix of sizes and the timings stay comparable.

Planted points:

* generic (``certify``): H = X + noise with X feasible of rank r, so X is
  feasible, of rank r and not stationary;
* F-stationary with s = r (``second-order-full``):
  H = X + W + A*(y0) with W = P_U_perp G P_V_perp, so the tangential part of
  grad f + A*(y0) vanishes;
* F-stationary with s < r (``second-order-deficient``): H = X + A*(y0) with
  rank(X) = s, so grad f + A*(y0) = 0;
* ``solve``: H = G + G^T on Hankel instances and a random target otherwise,
  started from x0 = P_r(H).

Hankel points are Vandermonde sums sum_k c_k v(z_k) v(z_k)^T with
v(z) = (1, z, ..., z^(N-1)), so they satisfy the anti-diagonal constraints
by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RANK_TOL = 1e-8
TOL = 1e-8

CERTIFY_HANKEL_N = (6, 8, 10, 12, 16)
CERTIFY_HANKEL_R = (2, 4)
CERTIFY_RANDOM = ((8, 8, 2, 3), (12, 10, 3, 4), (16, 16, 4, 5))  # m, n, r, l
FULL_RANDOM = ((8, 8, 2, 0), (8, 8, 3, 3), (12, 12, 3, 0), (12, 12, 4, 4),
               (16, 16, 2, 0), (16, 16, 4, 3))
FULL_HANKEL = ((6, 2), (8, 3), (10, 4))  # N, r: reduced basis dimension d = 2r
DEFICIENT = (  # kind, m, n, s, r, l (l is (N-1)^2 for Hankel)
    ("random", 5, 5, 1, 3, 0),
    ("random", 8, 8, 2, 3, 0),
    ("random", 4, 4, 1, 3, 2),
    ("hankel", 5, 5, 1, 3, None),
    ("hankel", 7, 7, 2, 4, None),
)
SOLVE_HANKEL_N = (4, 6, 8, 10)
SOLVE_HANKEL_R = (1, 2, 3)
SOLVE_RANDOM = ((6, 6, 2, 0), (8, 6, 2, 0), (10, 10, 3, 0),
                (6, 6, 2, 2), (8, 6, 2, 3), (10, 10, 3, 4))  # m, n, r, l
# independent draws of every size class; a deficient request costs 0.4-1.2 s
DRAWS = {"certify": 3, "second-order-full": 4, "second-order-deficient": 2, "solve": 6}


@dataclass
class Case:
    """One generated problem: its document, the point to test, planted truth."""

    name: str
    doc: dict
    point: str
    truth: dict = field(default_factory=dict)
    path: Path | None = None

    @property
    def constrained(self) -> bool:
        return bool(self.doc["l"])


def _orth(rng, m, k):
    q, _ = np.linalg.qr(rng.standard_normal((m, k)))
    return q


def _factors(rng, m, n, k):
    """Orthonormal U (m x k), V (n x k) and singular values in [1, 2]."""
    return _orth(rng, m, k), _orth(rng, n, k), 1.0 + rng.random(k)


def _nodes(rng, k):
    """k distinct nodes in [-0.95, 0.95] at least 0.3 apart."""
    while True:
        z = np.sort(rng.uniform(-0.95, 0.95, size=k))
        if k < 2 or np.min(np.diff(z)) >= 0.3:
            return z


def _vandermonde_sum(rng, N, k):
    """Rank-k N x N Hankel matrix sum_j c_j v(z_j) v(z_j)^T."""
    z = _nodes(rng, k)
    c = (1.0 + rng.random(k)) * rng.choice((-1.0, 1.0), size=k)
    V = z[None, :] ** np.arange(N)[:, None]
    return (V * c) @ V.T


def hankel_mats(N):
    """Anti-diagonal constraints X[k, j] = X[k-1, j+1], in the package's order."""
    mats = []
    for k in range(1, N):
        for j in range(N - 1):
            a = np.zeros((N, N))
            a[k, j] = 1.0
            a[k - 1, j + 1] = -1.0
            mats.append(a)
    return mats


def _adjoint(mats, y, shape):
    out = np.zeros(shape)
    for a, yi in zip(mats, y):
        out += yi * a
    return out


def _normal_part(X, r, G):
    """P_U_perp G P_V_perp for the rank-r factors of X."""
    u, _, vh = np.linalg.svd(X)
    up, vp = u[:, r:], vh.T[:, r:]
    return up @ (up.T @ G @ vp) @ vp.T


def _low_rank(Z, r):
    u, s, vh = np.linalg.svd(Z)
    return (u[:, :r] * s[:r]) @ vh[:r, :]


def _doc(target, mats, rhs, r, points):
    m, n = target.shape
    return {
        "m": m, "n": n, "l": len(mats), "r": r,
        "rank_tol": RANK_TOL, "tol": TOL,
        "objective": {"kind": "frobenius_distance", "target": target.tolist()},
        "constraints": [{"matrix": a.tolist(), "rhs": float(b)}
                        for a, b in zip(mats, rhs)],
        "named_points": [{"label": k, "matrix": v.tolist()}
                         for k, v in points.items()],
    }


def _random_constraints(rng, X, l):
    mats = [rng.standard_normal(X.shape) for _ in range(l)]
    return mats, [float(np.tensordot(a, X)) for a in mats]


def _analyze_case(name, target, mats, rhs, r, X, s, is_F):
    return Case(name, _doc(target, mats, rhs, r, {"X": X}), "X",
                {"feasible": True, "s": s, "is_F": is_F})


def certify_family(rng):
    cases = []
    for N in CERTIFY_HANKEL_N:
        for r in CERTIFY_HANKEL_R:
            X = _vandermonde_sum(rng, N, r)
            H = X + 0.1 * rng.standard_normal((N, N))
            mats = hankel_mats(N)
            cases.append(_analyze_case(f"hankel{N}_r{r}", H, mats,
                                       [0.0] * len(mats), r, X, r, False))
    for m, n, r, l in CERTIFY_RANDOM:
        u, v, sig = _factors(rng, m, n, r)
        X = (u * sig) @ v.T
        mats, rhs = _random_constraints(rng, X, l)
        H = X + 0.1 * rng.standard_normal((m, n))
        cases.append(_analyze_case(f"random{m}x{n}_r{r}_l{l}", H, mats, rhs,
                                   r, X, r, False))
    return cases


def full_family(rng):
    cases = []
    for m, n, r, l in FULL_RANDOM:
        u, v, sig = _factors(rng, m, n, r)
        X = (u * sig) @ v.T
        mats, rhs = _random_constraints(rng, X, l)
        W = _normal_part(X, r, 0.3 * rng.standard_normal((m, n)))
        H = X + W + _adjoint(mats, rng.standard_normal(l), (m, n))
        cases.append(_analyze_case(f"random{m}x{n}_r{r}_l{l}", H, mats, rhs,
                                   r, X, r, True))
    for N, r in FULL_HANKEL:
        X = _vandermonde_sum(rng, N, r)
        mats = hankel_mats(N)
        W = _normal_part(X, r, 0.3 * rng.standard_normal((N, N)))
        H = X + W + _adjoint(mats, rng.standard_normal(len(mats)), (N, N))
        cases.append(_analyze_case(f"hankel{N}_r{r}", H, mats,
                                   [0.0] * len(mats), r, X, r, True))
    return cases


def deficient_family(rng):
    cases = []
    for kind, m, n, s, r, l in DEFICIENT:
        if kind == "hankel":
            X = _vandermonde_sum(rng, m, s)
            mats = hankel_mats(m)
            rhs = [0.0] * len(mats)
        else:
            u, v, sig = _factors(rng, m, n, s)
            X = (u * sig) @ v.T
            mats, rhs = _random_constraints(rng, X, l)
        H = X + _adjoint(mats, rng.standard_normal(len(mats)), (m, n))
        cases.append(_analyze_case(f"{kind}{m}x{n}_s{s}_r{r}_l{len(mats)}", H,
                                   mats, rhs, r, X, s, True))
    return cases


def _solve_case(name, H, mats, rhs, r):
    x0 = _low_rank(H, r)
    return Case(name, _doc(H, mats, rhs, r, {"x0": x0}), "x0",
                {"f0": 0.5 * float(np.sum((x0 - H) ** 2))})


def solve_family(rng):
    cases = []
    for N in SOLVE_HANKEL_N:
        for r in SOLVE_HANKEL_R:
            G = rng.standard_normal((N, N))
            mats = hankel_mats(N)
            cases.append(_solve_case(f"hankel{N}_r{r}", G + G.T, mats,
                                     [0.0] * len(mats), r))
    for m, n, r, l in SOLVE_RANDOM:
        H = rng.standard_normal((m, n))
        X = _low_rank(rng.standard_normal((m, n)), r)
        mats, rhs = _random_constraints(rng, X, l)
        cases.append(_solve_case(f"random{m}x{n}_r{r}_l{l}", H, mats, rhs, r))
    return cases


def reference_hankel8():
    """The 8 x 8 reference instance: H = G + G^T with G from seed 0, r = 2."""
    G = np.random.default_rng(0).standard_normal((8, 8))
    mats = hankel_mats(8)
    return _solve_case("reference_hankel8_r2", G + G.T, mats, [0.0] * len(mats), 2)


FAMILIES = {
    "certify": certify_family,
    "second-order-full": full_family,
    "second-order-deficient": deficient_family,
    "solve": solve_family,
}


def make_family(workload: str, seed: int) -> list:
    """The workload's cases; the same seed always gives the same cases."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(DRAWS[workload]):
        for case in FAMILIES[workload](rng):
            case.name = f"{case.name}_{k}"
            cases.append(case)
    return cases


def write_family(cases, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for case in cases:
        case.path = directory / f"{case.name}.prob"
        with open(case.path, "w", encoding="utf-8") as fh:
            json.dump(case.doc, fh)
