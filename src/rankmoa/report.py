"""JSON-ready form of the report records and of the documents built from them.

``_dumps`` writes a JSON-ready document as ``json.dumps(doc, indent=2,
sort_keys=True, allow_nan=False)`` does, byte for byte. The stdlib sends any
indented dump to its pure-Python encoder; ``_dumps`` builds the same text
from joins, writing a list of floats with one ``map(float.__repr__, ...)``.
``_savetxt`` writes a matrix as ``np.savetxt`` does with its defaults.
"""

from __future__ import annotations

import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _str

import numpy as np


def jsonable(x):
    """x with arrays as nested lists, numpy scalars as Python ones, +-inf as "inf"/"-inf"."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        # nothing in these for the element-wise pass to change; the tolist of a
        # long double keeps numpy scalars, which that pass converts
        if x.dtype.kind in "biu" or (x.dtype.kind == "f" and x.itemsize <= 8
                                     and not np.isinf(x).any()):
            return x.tolist()
        return jsonable(x.tolist())
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


def _encode(o, nl: str) -> str:
    """o as indented JSON whose enclosing line break and indent is ``nl``."""
    if isinstance(o, str):
        return _str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        # a non-str key makes _str raise TypeError
        body = sep.join([_str(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())])
        return "{" + inner + body + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        # a finite sum proves every entry finite; sums that overflow take the slow path
        if set(map(type, o)) == {float} and math.isfinite(sum(o)):
            body = sep.join(map(float.__repr__, o))
        else:
            body = sep.join([_encode(v, inner) for v in o])
        return "[" + inner + body + nl + "]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` of a JSON-ready doc.

    NaN and +-inf raise ValueError; a type JSON cannot hold, or a non-str
    dict key, raises TypeError.
    """
    return _encode(doc, "\n")


def _savetxt(path, X) -> None:
    """``np.savetxt(path, X)`` of a 2-d float array, written in one call."""
    m, n = X.shape
    row = " ".join(["%.18e"] * n) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((row * m) % tuple(X.ravel().tolist()))


class JsonReport:
    """Base of the report dataclasses: ``to_dict`` is their JSON-ready ``asdict``.

    Fields are read as they are, not deep-copied first, and converted once:
    the result is what ``jsonable(asdict(self))`` gives for reports whose
    fields hold no other dataclass.
    """

    def to_dict(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}
