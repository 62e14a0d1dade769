import gc
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoa import (HankelInstance, LRRInstance, ProblemFormatError,
                     build_hankel, build_lrr, load_problem, save_problem)
from rankmoa.model import CustomObjective, register_objective
from rankmoa import problems
from rankmoa.problems import _float_array, hankel_constraints


def _hankel_matrix(x, m, n):
    return np.array([[x[i + j] for j in range(n)] for i in range(m)])


def test_build_hankel_small_display(hankel_case):
    spec, _ = hankel_case
    assert spec.l == 4
    e = np.eye(3)
    displays = [
        np.outer(e[1], e[0]) - np.outer(e[0], e[1]),
        np.outer(e[1], e[1]) - np.outer(e[0], e[2]),
        np.outer(e[2], e[0]) - np.outer(e[1], e[1]),
        np.outer(e[2], e[1]) - np.outer(e[1], e[2]),
    ]
    for got, want in zip(spec.affine.mats, displays):
        assert np.allclose(got, want)


def test_build_hankel_two_by_two():
    spec = build_hankel(np.zeros((2, 2)), 1)
    assert spec.l == 1
    X = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert spec.affine.residual(X) == 0.0
    assert spec.affine.residual(np.eye(2)) == 0.0
    assert spec.affine.residual(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0


def test_hankel_matrices_are_feasible(rng):
    for m, n in [(3, 3), (4, 5), (5, 2)]:
        amap = hankel_constraints(m, n)
        # one constraint per (k, j) in row-major order, as a per-matrix loop builds them
        want = np.zeros((amap.l, m, n))
        for i, (k, j) in enumerate((k, j) for k in range(1, m) for j in range(n - 1)):
            want[i, k, j], want[i, k - 1, j + 1] = 1.0, -1.0
        assert np.array_equal(amap.mats, want)
        for _ in range(5):
            x = rng.standard_normal(m + n - 1)
            assert amap.residual(_hankel_matrix(x, m, n)) <= 1e-12
        # the structure has exactly m + n - 1 degrees of freedom
        assert len(amap.kernel_basis()) == m + n - 1


def test_hankel_instance_validation():
    with pytest.raises(ValueError):
        HankelInstance(np.zeros((1, 3)), 0)
    with pytest.raises(ValueError):
        HankelInstance(np.zeros((3, 3)), 3)


def test_build_lrr_structure(lrr_case):
    spec = lrr_case(3)
    assert spec.l == 3
    for i, e in enumerate(spec.affine.mats):
        want = np.zeros((3, 3))
        want[i, :] = 1.0
        assert np.array_equal(e, want)
    assert np.array_equal(spec.affine.rhs, np.ones(3))
    # identity row matrices: gradient is W itself
    W = np.arange(9.0).reshape(3, 3)
    assert np.allclose(spec.objective.grad(W), W)
    assert spec.objective.convex
    assert spec.objective.strong_convexity_modulus == 1.0


def test_lrr_feasible_samples_have_unit_row_sums(rng, lrr_case):
    from rankmoa import project_affine
    spec = lrr_case(4)
    for _ in range(10):
        W = project_affine(spec.affine, rng.standard_normal((4, 4)))
        assert np.allclose(W.sum(axis=1), np.ones(4), atol=1e-10)


def test_build_lrr_random_psd_convex(rng):
    mats = []
    for _ in range(3):
        g = rng.standard_normal((3, 3))
        mats.append(g @ g.T + 0.1 * np.eye(3))
    spec = build_lrr(mats, 2)
    assert spec.objective.convex
    assert spec.objective.strong_convexity_modulus > 0
    indef = [np.diag([1.0, -1.0, 1.0])] * 3
    spec2 = build_lrr(indef, 2)
    assert not spec2.objective.convex


def test_build_lrr_scalar_degenerate():
    # N=1: the single constraint forces W = 1, while the rank bound must sit
    # below min(m, n) = 1, so the only admissible bound is 0 and the forced
    # point is rank-infeasible
    spec = build_lrr([np.eye(1)], 0)
    w = np.ones((1, 1))
    assert spec.affine.residual(w) == 0.0
    from rankmoa import check_F_stationary
    rep = check_F_stationary(spec, w)
    assert not rep.feasible


def test_lrr_instance_validation():
    with pytest.raises(ValueError):
        LRRInstance((np.eye(2), np.eye(3)), 1)
    with pytest.raises(ValueError):
        LRRInstance((np.eye(3),), 1)  # three matrices expected for N=3


def test_diagonal_example_named_point(diagonal_case):
    spec, points = diagonal_case
    assert spec.l == 8
    assert spec.affine.residual(points["Xbar"]) == 0.0
    assert spec.objective.value(points["Xbar"]) == 0.0


def test_trace_example_points(trace_case):
    spec, points = trace_case
    for label in ("X1", "X2", "X3", "X4"):
        assert spec.affine.residual(points[label]) <= 1e-12
        assert np.isclose(np.trace(points[label]), 2.0)
    assert spec.objective.strong_convexity_modulus == 1.0
    assert np.isclose(spec.objective.value(points["X4"]), 7.0 / 6.0)
    assert spec.affine.residual(points["H"]) > 1.0  # H itself is infeasible


def test_problem_roundtrip(tmp_path, hankel_case, lrr_case):
    for spec, points in ((hankel_case[0], hankel_case[1]),
                         (lrr_case(3), {"Wbar": np.full((3, 3), 1 / 3)})):
        path = tmp_path / "prob.json"
        save_problem(spec, path, named_points=points)
        loaded = load_problem(path)
        got = loaded.spec
        assert got.m == spec.m and got.n == spec.n and got.l == spec.l
        assert got.r == spec.r
        assert got.rank_tol == spec.rank_tol and got.tol == spec.tol
        assert got.objective.kind == spec.objective.kind
        for a, b in zip(got.affine.mats, spec.affine.mats):
            assert np.array_equal(a, b)
        assert np.array_equal(got.affine.rhs, spec.affine.rhs)
        assert set(loaded.named_points) == set(points)
        for k in points:
            assert np.array_equal(loaded.named_points[k], points[k])


def test_load_rejects_bad_rank(tmp_path, hankel_case):
    spec, _ = hankel_case
    path = tmp_path / "bad.json"
    save_problem(spec, path)
    doc = json.loads(path.read_text())
    doc["r"] = 3  # rank bound must stay below min(m, n)
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match="rank bound"):
        load_problem(path)


@pytest.mark.parametrize("field", ["m", "n", "l", "r", "rank_tol", "tol"])
@pytest.mark.parametrize("value", [True, False])
def test_load_rejects_boolean_header_numbers(tmp_path, hankel_case, field, value):
    # bool is an int subclass: without the check "r": false would load as r = 0
    spec, _ = hankel_case
    path = tmp_path / "bad.json"
    save_problem(spec, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match=f"field '{field}' has the wrong type"):
        load_problem(path)


def test_load_rejects_mismatched_matrix(tmp_path, hankel_case):
    spec, _ = hankel_case
    path = tmp_path / "bad.json"
    save_problem(spec, path)
    doc = json.loads(path.read_text())
    doc["constraints"][0]["matrix"] = [[1.0, 0.0], [0.0, 1.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match="constraints\\[0\\]"):
        load_problem(path)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "garbled.json"
    path.write_text("{ not json")
    with pytest.raises(ProblemFormatError, match="line"):
        load_problem(path)
    with pytest.raises(ProblemFormatError):
        load_problem(tmp_path / "missing.json")


def test_load_counts_constraints(tmp_path, hankel_case):
    spec, _ = hankel_case
    path = tmp_path / "bad.json"
    save_problem(spec, path)
    doc = json.loads(path.read_text())
    doc["l"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match="constraints listed"):
        load_problem(path)


@pytest.mark.parametrize("m, n, fields", [(10 ** 400, 4, "field 'm'"),
                                           (4, 10 ** 400, "field 'n'"),
                                           (2 ** 40, 2 ** 40, "fields 'm' and 'n'")])
def test_load_names_dimensions_too_large_for_an_array(tmp_path, trace_case, m, n, fields):
    # l = 0: no constraint list holds m x n entries, so only the header declares the size
    path = tmp_path / "huge.json"
    save_problem(trace_case[0], path)
    doc = json.loads(path.read_text())
    doc.update(l=0, constraints=[], m=m, n=n)
    path.write_text(json.dumps(doc))
    message = f"^{re.escape(str(path))}: {fields}: an m x n array would be too large$"
    with pytest.raises(ProblemFormatError, match=message):
        load_problem(path)


def test_custom_objective_roundtrip(tmp_path):
    def factory(scale=1.0):
        return CustomObjective(
            "quartic-well", (2, 2),
            value_fn=lambda X: scale * float(np.sum(X**4)) / 4.0,
            grad_fn=lambda X: scale * X**3,
            hess_apply_fn=lambda X, Xi: scale * 3.0 * X**2 * Xi,
        )

    register_objective("quartic-well", factory)
    from rankmoa import AffineMap, ProblemSpec, RankBound
    from rankmoa.model import make_custom
    spec = ProblemSpec(make_custom("quartic-well", scale=2.0),
                       AffineMap([], [], shape=(2, 2)), RankBound(1))
    path = tmp_path / "custom.json"
    save_problem(spec, path)
    loaded = load_problem(path).spec
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert loaded.objective.value(X) == spec.objective.value(X)


def _strict_factory(scale=1.0):
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    return CustomObjective("strict-well", (4, 4), value_fn=lambda X: scale * float(np.sum(X**2)),
                           grad_fn=lambda X: 2.0 * scale * X,
                           hess_apply_fn=lambda X, Xi: 2.0 * scale * Xi)


@pytest.mark.parametrize("objective, message", [
    pytest.param({"kind": "registered_custom", "id": "strict-well", "params": 5},
                 "objective: field 'params' has the wrong type", id="params-not-an-object"),
    pytest.param({"kind": "registered_custom", "id": "strict-well", "params": {"bogus": 1}},
                 "objective: field 'params': objective 'strict-well' rejects them",
                 id="params-unknown-keyword"),
    pytest.param({"kind": "registered_custom", "id": "strict-well", "params": {"scale": -1}},
                 "objective: field 'params': .*scale must be positive",
                 id="params-factory-value-error"),
    pytest.param({"kind": "registered_custom", "id": "unheard-of"},
                 "objective: field 'id': no objective registered", id="id-unregistered"),
    pytest.param({"kind": "registered_custom"}, "objective: missing field 'id'",
                 id="id-missing"),
    pytest.param({"kind": "frobenius_distance"}, "objective: missing field 'target'",
                 id="target-missing"),
    pytest.param({"kind": "frobenius_distance", "target": {"a": 1}},
                 "objective: field 'target': ", id="target-not-an-array"),
    pytest.param({"kind": ["frobenius_distance"]}, "objective: unknown objective kind",
                 id="kind-not-a-string"),
    pytest.param(5, "field 'objective' has the wrong type", id="objective-not-an-object"),
])
def test_load_names_the_objective_field_at_fault(tmp_path, trace_case, objective, message):
    register_objective("strict-well", _strict_factory)
    path = tmp_path / "bad.json"
    save_problem(trace_case[0], path)
    doc = json.loads(path.read_text())
    doc["objective"] = objective
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match=message) as info:
        load_problem(path)
    assert str(info.value).count(str(path)) == 1  # the path is named once


def _asarray_float_array(doc, shape, where):
    """_float_array by np.asarray alone, the conversion the flat pass must reproduce."""
    try:
        arr = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: not numeric") from exc
    if arr.shape != shape:
        raise ProblemFormatError(f"{where}: shape {arr.shape} differs from {shape}")
    if not np.all(np.isfinite(arr)):
        raise ProblemFormatError(f"{where}: non-finite entries")
    return arr


def _float_array_flat(doc, shape, where):
    """_float_array with the flat pass tried at every size."""
    with mock.patch.object(problems, "FLAT_MIN_ENTRIES", 0):
        return _float_array(doc, shape, where)


# ints up to 2**1000 include many above 2**53, which round on conversion
_ENTRIES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-2 ** 1000, 2 ** 1000),
                     st.sampled_from([-0.0, 5e-324, 2.0 ** -1030, 2 ** 53 + 1]))
# what a malformed document can hold in place of an entry, a row or a matrix
_DEFECTS = [
    lambda old: None,
    lambda old: math.nan,
    lambda old: math.inf,
    lambda old: -math.inf,
    lambda old: "abc",
    lambda old: [old],  # one level too deep
    lambda old: {"0": old},
    # a dict as long as the list it replaces, whose keys are numeric strings
    lambda old: {repr(float(i)): 0.0 for i in range(len(old))} if isinstance(old, list) else old,
    lambda old: old + [0.0] if isinstance(old, list) else old,  # ragged
    lambda old: old[:-1] if isinstance(old, list) else old,
]


def _nest(flat, shape):
    if len(shape) == 1:
        return list(flat)
    step = len(flat) // shape[0]
    return [_nest(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


def _outcome(convert, doc, shape):
    try:
        return "array", convert(doc, shape, "doc").tobytes()
    except ProblemFormatError as exc:
        return "error", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_array_is_asarray_bit_for_bit(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    size = math.prod(shape)
    doc = _nest(data.draw(st.lists(_ENTRIES, min_size=size, max_size=size)), shape)
    got = _float_array_flat(doc, shape, "doc")
    assert got.shape == shape
    assert got.tobytes() == np.asarray(doc, dtype=float).tobytes()
    # corrupt one entry, row or matrix: same array or the same message
    path = [data.draw(st.integers(0, n - 1)) for n in shape]
    path = path[:data.draw(st.integers(1, len(shape)))]
    node = doc
    for i in path[:-1]:
        node = node[i]
    node[path[-1]] = data.draw(st.sampled_from(_DEFECTS))(node[path[-1]])
    assert _outcome(_float_array_flat, doc, shape) == _outcome(_asarray_float_array, doc,
                                                                shape)


def test_float_array_defects_at_every_level_match_asarray():
    shape = (2, 2, 2)
    for defect in _DEFECTS:
        for depth in range(1, len(shape) + 1):
            doc = _nest([float(i) for i in range(8)], shape)
            node = doc
            for _ in range(depth - 1):
                node = node[0]
            node[0] = defect(node[0])  # the first item: the flat pass reads on past it
            assert _outcome(_float_array_flat, doc, shape) == _outcome(
                _asarray_float_array, doc, shape), (defect, depth)


def test_float_array_names_integers_beyond_double_range():
    for convert in (_float_array, _float_array_flat):
        with pytest.raises(ProblemFormatError, match="^doc: number beyond double range$"):
            convert([[1.0, 10 ** 400]], (1, 2), "doc")


def _put(*keys, value=10 ** 400):  # json.dumps writes every digit of the integer
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_put("constraints", 0, "matrix", 0, 0), r"constraints\[0\]", id="matrix"),
    pytest.param(_put("constraints", 0, "rhs"), "constraint 'rhs'", id="rhs"),
    pytest.param(_put("objective", "target", 0, 0), "objective: field 'target'", id="target"),
    pytest.param(_put("named_points", 2, "matrix", 0, 0), r"named_points\[2\]",
                 id="named-point"),
    pytest.param(_put("rank_tol"), "field 'rank_tol'", id="rank-tol"),
    pytest.param(_put("tol"), "field 'tol'", id="tol"),
])
def test_load_names_the_integer_beyond_double_range(tmp_path, trace_case, edit, message):
    path = tmp_path / "big.json"
    save_problem(trace_case[0], path, named_points=trace_case[1])
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError, match=f"{message}: number beyond double range$"):
        load_problem(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_problem_pauses_and_restores_the_collector(tmp_path, enabled):
    spec = build_hankel(np.zeros((16, 16)), 4)  # a dense file: 3600 rows decode to lists
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_problem(spec, good)
    doc = json.loads(good.read_text())
    doc["constraints"][7]["rhs"] = "abc"
    bad.write_text(json.dumps(doc))
    passes = []

    def callback(phase, info):
        passes.append(info["generation"])

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        gc.callbacks.append(callback)
        try:
            loaded = load_problem(good)
        finally:
            gc.callbacks.remove(callback)
        # 225 x 16 x 16 entries take the flat pass: the same bits as the builder's
        assert loaded.spec.affine.mats.tobytes() == spec.affine.mats.tobytes()
        assert gc.isenabled() is enabled
        # the error path only restores the state: the traceback keeps the
        # decoded document alive past the load
        with pytest.raises(ProblemFormatError, match="constraint 'rhs': not numeric"):
            load_problem(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert passes == []  # no collector pass ran inside the load
