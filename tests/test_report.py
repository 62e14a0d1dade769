import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoa.report import _dumps, _savetxt, jsonable


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


_keys = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f", "é", " ", "\U0001f600", "\ud800", ""])
_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=6)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-300]))
_float_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)
_docs = st.recursive(
    _scalars | _float_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_dumps_matches_the_stdlib_indented_sorted_dump(doc):
    assert _dumps(doc) == _reference(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [
    lambda v: v,
    lambda v: [1.0, v],                       # the all-float fast path
    lambda v: [1e308, 1e308, v],              # a sum that overflows first
    lambda v: {"a": [1, v]},
    lambda v: {"a": {"b": v}},
])
def test_dumps_rejects_non_finite_floats_like_the_stdlib(bad, where):
    doc = where(bad)
    with pytest.raises(ValueError):
        _reference(doc)
    with pytest.raises(ValueError):
        _dumps(doc)


@pytest.mark.parametrize("doc", [np.arange(3), {"a": np.int64(1)}, [np.bool_(True)],
                                 {1: "x"}, {"a": {"b"}}, object()])
def test_dumps_rejects_other_types(doc):
    with pytest.raises(TypeError):
        _dumps(doc)


def test_dumps_keeps_tuples_and_float_subclasses_like_the_stdlib():
    doc = {"t": (1, 2.5, "x"), "f": [np.float64(0.1), 2.0], "e": ((), {})}
    assert _dumps(doc) == _reference(doc)


def _jsonable_elementwise(x):
    """jsonable with every array taken entry by entry, as it was before its fast path."""
    if isinstance(x, np.ndarray):
        return jsonable(x.tolist())
    return jsonable(x)


@pytest.mark.parametrize("x", [
    np.array([[1.5, -0.0], [2.0, 3.0]]), np.array([1, 2], dtype=np.uint8),
    np.array([True, False]), np.zeros((0, 3)), np.array(2.5), np.array(7),
    np.array([1.0, np.inf, -np.inf]), np.array([np.nan, 1.0]),
    np.array([1.5, 2.5], dtype=np.float32), np.array([1.5], dtype=np.longdouble),
    np.array([1 + 2j]),
])
def test_jsonable_array_fast_path_matches_the_elementwise_pass(x):
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python one
    assert repr(jsonable(x)) == repr(_jsonable_elementwise(x))


_EXTREMES = [-0.0, 1e300, -1e300, 1e-300, -1e-300, 0.1, 5e-324]


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (1, 7), (4, 4)])
def test_solve_writers_match_json_dump_and_savetxt_bytes(tmp_path, shape):
    rng = np.random.default_rng(3)
    X = rng.standard_normal(shape)
    X.flat[: len(_EXTREMES)] = _EXTREMES[: X.size]
    _savetxt(tmp_path / "ours.txt", X)
    np.savetxt(tmp_path / "numpy.txt", X)
    assert (tmp_path / "ours.txt").read_bytes() == (tmp_path / "numpy.txt").read_bytes()

    doc = {"x": jsonable(X), "f": float(X[0, -1]), "flags": [True, None], "note": "é\n"}
    (tmp_path / "ours.json").write_text(_dumps(doc) + "\n", encoding="utf-8")
    with open(tmp_path / "stdlib.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    assert (tmp_path / "ours.json").read_bytes() == (tmp_path / "stdlib.json").read_bytes()
