"""JSON-ready form of the report records and of the documents built from them."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np


def jsonable(x):
    """x with arrays as nested lists, numpy scalars as Python ones, +-inf as "inf"/"-inf"."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
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


class JsonReport:
    """Base of the report dataclasses: ``to_dict`` is their JSON-ready ``asdict``."""

    def to_dict(self) -> dict:
        return jsonable(asdict(self))
