"""Builders for the bundled application instances and problem-file round trips.

The problem file is a UTF-8 JSON document:

    {
      "m": 3, "n": 3, "l": 4, "r": 2,
      "rank_tol": 1e-08, "tol": 1e-08,
      "objective": {"kind": "frobenius_distance", "target": [[...], ...]},
      "constraints": [{"matrix": [[...], ...], "rhs": 0.0}, ...],
      "named_points": [{"label": "Xbar", "matrix": [[...], ...]}, ...]
    }

Matrices are row-major nested arrays of decimal literals. Every number in
the document is a JSON number within double range: a finite value of
magnitude below about 1.8e308. A larger integer literal, or a float literal
that decodes to an infinity, is a format error naming its field. Named
points let an instance carry its interesting candidates along; each label
appears once.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .affine import AffineMap
from .errors import ProblemFormatError
from .linalg import DEFAULT_RANK_TOL, DEFAULT_TOL, RankBound, as_matrix
from .model import (FrobeniusDistance, LinearTrace, ProblemSpec, RowQuadratic,
                    objective_from_doc, objective_to_doc)


@dataclass(frozen=True)
class HankelInstance:
    """Nearest rank-bounded Hankel matrix to a target; l = (m-1)(n-1)."""

    h_target: np.ndarray
    r: int

    def __post_init__(self):
        object.__setattr__(self, "h_target", as_matrix(self.h_target, "h_target"))
        m, n = self.h_target.shape
        if m < 2 or n < 2:
            raise ValueError("Hankel structure needs at least a 2 x 2 matrix")
        RankBound(self.r).check_shape(m, n)

    def build(self, rank_tol: float = DEFAULT_RANK_TOL,
              tol: float = DEFAULT_TOL) -> ProblemSpec:
        return ProblemSpec(
            objective=FrobeniusDistance(self.h_target),
            affine=hankel_constraints(*self.h_target.shape),
            rank_bound=RankBound(self.r),
            rank_tol=rank_tol, tol=tol,
        )


@dataclass(frozen=True)
class LRRInstance:
    """Row-quadratic objective with unit row sums; one constraint per row.

    ``b_mats`` is validated by building the ``RowQuadratic`` objective and
    kept as its read-only (N, N, N) array.
    """

    b_mats: np.ndarray
    r: int

    def __post_init__(self):
        objective = RowQuadratic(self.b_mats)
        object.__setattr__(self, "b_mats", objective.mats)
        RankBound(self.r).check_shape(*objective.shape)

    def build(self, rank_tol: float = DEFAULT_RANK_TOL,
              tol: float = DEFAULT_TOL) -> ProblemSpec:
        n = len(self.b_mats)
        mats = np.zeros((n, n, n))
        mats[np.arange(n), np.arange(n), :] = 1.0  # A^i is the indicator of row i
        return ProblemSpec(
            objective=RowQuadratic(self.b_mats),
            affine=AffineMap(mats, np.ones(n)),
            rank_bound=RankBound(self.r),
            rank_tol=rank_tol, tol=tol,
        )


def hankel_constraints(m: int, n: int) -> AffineMap:
    """Anti-diagonal equalities X[k, j] = X[k-1, j+1], (m-1)(n-1) of them.

    Index order is row-major over k = 2..m then j = 1..n-1 (one-based), so
    every referenced unit vector exists.
    """
    idx = np.arange((m - 1) * (n - 1))
    k, j = np.divmod(idx, n - 1)
    mats = np.zeros((idx.size, m, n))
    mats[idx, k + 1, j] = 1.0
    mats[idx, k, j + 1] = -1.0
    return AffineMap(mats, np.zeros(idx.size), shape=(m, n))


def build_hankel(h_target, r: int, rank_tol: float = DEFAULT_RANK_TOL,
                 tol: float = DEFAULT_TOL) -> ProblemSpec:
    """Problem: minimize 0.5 ||X - H||_F^2 over Hankel matrices of rank <= r."""
    return HankelInstance(h_target, r).build(rank_tol, tol)


def build_lrr(b_mats, r: int, rank_tol: float = DEFAULT_RANK_TOL,
              tol: float = DEFAULT_TOL) -> ProblemSpec:
    """Problem: minimize 0.5 sum_i w_i B^i w_i^T with unit row sums, rank <= r."""
    return LRRInstance(b_mats, r).build(rank_tol, tol)


def build_hankel_example():
    """The 3 x 3 rank-2 Hankel approximation instance with its named points.

    Xbar is the rank-2 Hankel matrix nearest the target; Xtilde is the best
    point on the coordinate line {t * e1 e1^T} of the rank-1 variant.
    """
    H = np.array([[112.0, 7.5, 0.0],
                  [7.5, 0.0, 0.0],
                  [0.0, 0.0, 1e-6]])
    xbar = H.copy()
    xbar[2, 2] = 0.0
    xtilde = np.zeros((3, 3))
    xtilde[0, 0] = 112.0
    return build_hankel(H, 2), {"Xbar": xbar, "Xtilde": xtilde}


def build_diagonal_example():
    """3 x 3 instance: minimize X22 over a pinned diagonal pattern, rank <= 2.

    Constraints force X11 = X22, X33 = 1 and all off-diagonal entries to
    zero; the unique feasible global minimizer e3 e3^T has rank 1 < 2.
    """
    e = np.eye(3)
    mats = [np.outer(e[0], e[0]) - np.outer(e[1], e[1]),
            np.outer(e[2], e[2])]
    rhs = [0.0, 1.0]
    for i in range(3):
        for j in range(3):
            if i != j:
                mats.append(np.outer(e[i], e[j]))
                rhs.append(0.0)
    spec = ProblemSpec(
        objective=LinearTrace(np.outer(e[1], e[1])),
        affine=AffineMap(mats, rhs),
        rank_bound=RankBound(2),
    )
    return spec, {"Xbar": np.outer(e[2], e[2])}


def build_trace_example():
    """4 x 4 instance: nearest matrix to H with trace 2 and rank <= 3.

    H has column 3 equal to -e3 and is zero elsewhere. The named candidates
    X1..X3 are coordinate projections of trace 2; X4 = (2/3)(e1e1^T + e2e2^T
    + e4e4^T) is the distinguished one.
    """
    e = np.eye(4)
    H = np.zeros((4, 4))
    H[2, 2] = -1.0
    spec = ProblemSpec(
        objective=FrobeniusDistance(H),
        affine=AffineMap([np.eye(4)], [2.0]),
        rank_bound=RankBound(3),
    )
    points = {
        "H": H,
        "X1": np.diag([1.0, 1.0, 0.0, 0.0]),
        "X2": np.diag([0.0, 1.0, 0.0, 1.0]),
        "X3": np.diag([1.0, 0.0, 0.0, 1.0]),
        "X4": (2.0 / 3.0) * np.diag([1.0, 1.0, 0.0, 1.0]),
    }
    return spec, points


# Size from which one flat np.fromiter beats np.asarray on nested lists. On a
# 2-vCPU x86_64 machine (numpy 2.4.6) the flat pass took 70 against 89 us on a
# 5 x 16 x 16 stack but 16 against 13 us on 3 x 8 x 8: below a few hundred
# entries its structure check and fixed cost outweigh the per-entry saving.
FLAT_MIN_ENTRIES = 512
_MAX_ENTRIES = np.iinfo(np.intp).max // 8  # numpy caps an array's bytes at intp's max


def _float_array(doc, shape, where):
    """doc as a finite float array of the given shape; raises ProblemFormatError.

    Nested lists of at least ``FLAT_MIN_ENTRIES`` entries that match ``shape``
    level by level, as a JSON decode yields them, are converted in one flat
    pass; anything else, and any entry that pass rejects, goes through
    ``np.asarray``. Both give the same bits, so the array and every error
    message are np.asarray's.
    """
    arr = None
    if math.prod(shape) >= FLAT_MIN_ENTRIES:
        try:
            arr = _flat_float_array(doc, shape)
        except (TypeError, ValueError, OverflowError):
            pass
    if arr is None:
        try:
            arr = np.asarray(doc, dtype=float)
        except OverflowError as exc:  # an integer literal beyond double range
            raise ProblemFormatError(f"{where}: number beyond double range") from exc
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"{where}: not numeric") from exc
        if arr.shape != shape:
            raise ProblemFormatError(f"{where}: shape {arr.shape} differs from {shape}")
    if not np.isfinite(arr).all():
        raise ProblemFormatError(f"{where}: non-finite entries")
    return arr


def _flat_float_array(doc, shape):
    """doc's entries, row-major, as a float array of ``shape``, or None.

    None unless every level of doc is a list of the length ``shape``
    declares; the test is ``type(x) is list``, since chain over a dict would
    walk its keys.
    """
    level = [doc]
    for depth, size in enumerate(shape):
        if any(type(x) is not list or len(x) != size for x in level):
            return None
        if depth < len(shape) - 1:
            level = list(chain.from_iterable(level))
    entries = chain.from_iterable(level)
    return np.fromiter(entries, dtype=float, count=math.prod(shape)).reshape(shape)


def save_problem(prob: ProblemSpec, path, named_points=None) -> None:
    """Write the problem document; round-trips through load_problem."""
    doc = {
        "m": prob.m,
        "n": prob.n,
        "l": prob.l,
        "r": prob.r,
        "rank_tol": prob.rank_tol,
        "tol": prob.tol,
        "objective": objective_to_doc(prob.objective),
        "constraints": [
            {"matrix": a.tolist(), "rhs": float(b)}
            for a, b in zip(prob.affine.mats, prob.affine.rhs)
        ],
        "named_points": [
            {"label": str(k), "matrix": as_matrix(v, k).tolist()}
            for k, v in (named_points or {}).items()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class LoadedProblem:
    spec: ProblemSpec
    named_points: dict


def load_problem(path) -> LoadedProblem:
    """Parse and validate a problem document; raises ProblemFormatError.

    The cyclic garbage collector is paused while the document is decoded and
    converted: the thousands of lists a dense file decodes into form no cycles,
    so its passes would free nothing and only push them into older
    generations. The caller's collector state is restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_problem(path)
    finally:
        if enabled:
            gc.enable()


def _load_problem(path) -> LoadedProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: top level must be an object")

    def need(key, types):
        if key not in doc:
            raise ProblemFormatError(f"{path}: missing field {key!r}")
        # bool is an int subclass, but true/false is no count or tolerance
        if not isinstance(doc[key], types) or isinstance(doc[key], bool):
            raise ProblemFormatError(f"{path}: field {key!r} has the wrong type")
        return doc[key]

    m = need("m", int)
    n = need("n", int)
    if m < 1 or n < 1:
        raise ProblemFormatError(f"{path}: m and n must be positive")
    if m * n > _MAX_ENTRIES:  # numpy could not even describe an m x n float array
        big = [key for key in ("m", "n") if doc[key] > _MAX_ENTRIES]
        fields = f"field {big[0]!r}" if len(big) == 1 else "fields 'm' and 'n'"
        raise ProblemFormatError(f"{path}: {fields}: an m x n array would be too large")
    l = need("l", int)
    r = need("r", int)
    if not 0 <= r < min(m, n):
        raise ProblemFormatError(
            f"{path}: rank bound r={r} must satisfy 0 <= r < min(m, n)={min(m, n)}"
        )

    def number(key):
        try:
            return float(need(key, (int, float)))
        except OverflowError as exc:  # an integer literal beyond double range
            raise ProblemFormatError(f"{path}: field {key!r}: number beyond double range") from exc

    rank_tol = number("rank_tol")
    tol = number("tol")
    constraints = need("constraints", list)
    if len(constraints) != l:
        raise ProblemFormatError(
            f"{path}: l={l} but {len(constraints)} constraints listed"
        )
    bad = [i for i, c in enumerate(constraints)
           if not isinstance(c, dict) or "matrix" not in c or "rhs" not in c]
    if bad:
        raise ProblemFormatError(f"{path}: constraints[{bad[0]}] needs 'matrix' and 'rhs'")
    try:
        mats = _float_array([c["matrix"] for c in constraints], (l, m, n), f"{path}: constraints")
    except ProblemFormatError:  # convert entry by entry to name the first bad one
        mats = np.array([_float_array(c["matrix"], (m, n), f"{path}: constraints[{i}]")
                         for i, c in enumerate(constraints)]).reshape(l, m, n)
    rhs = _float_array([c["rhs"] for c in constraints], (l,), f"{path}: constraint 'rhs'")
    objective_doc = need("objective", dict)
    try:
        objective = objective_from_doc(objective_doc)
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: objective: {exc}") from exc
    if objective.shape != (m, n):
        raise ProblemFormatError(
            f"{path}: objective shape {objective.shape} differs from ({m}, {n})"
        )
    named = doc.get("named_points", [])
    if not isinstance(named, list):
        raise ProblemFormatError(f"{path}: field 'named_points' has the wrong type")
    points = {}
    for i, p in enumerate(named):
        if not isinstance(p, dict) or "label" not in p or "matrix" not in p:
            raise ProblemFormatError(
                f"{path}: named_points[{i}] needs 'label' and 'matrix'"
            )
        label = str(p["label"])
        if label in points:
            raise ProblemFormatError(f"{path}: named_points[{i}] repeats the label {label!r}")
        points[label] = _float_array(p["matrix"], (m, n), f"{path}: named_points[{i}]")
    try:
        spec = ProblemSpec(
            objective=objective,
            affine=AffineMap(mats, rhs, shape=(m, n)),
            rank_bound=RankBound(r),
            rank_tol=rank_tol, tol=tol,
        )
    except ValueError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
    return LoadedProblem(spec=spec, named_points=points)
