"""Tracer that wraps rankmoa's functions from outside the package.

The program has no tracing of its own yet, so the traced run replaces every
module-level alias of each wrapped function across ``rankmoa.*`` with a
timing wrapper. Modules import by name (``from .linalg import orient_svd``),
so patching the defining module alone would miss the callers' copies.

Spans are kept in memory as columns (id, parent, request, name, start, end,
self time); a span's self time is its duration minus the time covered by its
direct children. Per-name call counts and self times are accumulated as the
spans close. ``numpy.linalg``/``scipy.linalg`` kernels are counted only while
a ``rankmoa`` span is open, so the benchmark's own numpy calls do not count.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# validation helper called by every function; it is not a layer
SKIP = {"rankmoa.linalg.as_matrix"}
RENAME = {"rankmoa.stationarity._recover_multiplier": "stationarity.recover_multiplier"}
METHOD_LAYERS = {  # class name -> layer name used for its public methods
    "AffineMap": "affine",
    "Objective": "model",
    "FrobeniusDistance": "model",
    "RowQuadratic": "model",
    "LinearTrace": "model",
    "CustomObjective": "model",
}
KERNELS = (("numpy.linalg", "svd"), ("numpy.linalg", "lstsq"),
           ("numpy.linalg", "eigvalsh"), ("scipy.linalg", "null_space"))


def _rankmoa_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rankmoa" or name.startswith("rankmoa."))]


class Tracer:
    """Install with ``install()``; ``uninstall()`` restores every alias."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {k: array("q") for k in ("id", "parent", "request", "name")}
        self.cols.update({k: array("d") for k in ("start", "end", "self")})
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.request = -1
        self._stack: list = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, kernel: bool = False):
        nid = self._name_id(name)
        stack = self._stack
        cols = self.cols
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kernel and not stack:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += own
                cols["id"].append(sid)
                cols["parent"].append(parent)
                cols["request"].append(self.request)
                cols["name"].append(nid)
                cols["start"].append(start)
                cols["end"].append(end)
                cols["self"].append(own)

        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = _rankmoa_modules()
        wrappers = {}  # original function -> wrapper
        for mod in modules:
            short = mod.__name__.split(".", 1)[-1]
            for attr, val in vars(mod).items():
                if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                    continue
                qual = f"{mod.__name__}.{attr}"
                if qual in SKIP or (attr.startswith("_") and qual not in RENAME):
                    continue
                wrappers[val] = self._wrap(RENAME.get(qual, f"{short}.{attr}"), val)
            for attr, cls in vars(mod).items():
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and cls.__name__ in METHOD_LAYERS):
                    layer = METHOD_LAYERS[cls.__name__]
                    for meth, fn in list(vars(cls).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(cls, meth, self._wrap(f"{layer}.{meth}", fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for modname, attr in KERNELS:
            owner = sys.modules[modname]
            self._patch(owner, attr,
                        self._wrap(f"kernel.{attr}", getattr(owner, attr), kernel=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def spans(self) -> dict:
        """The recorded spans as numpy columns plus the name table."""
        out = {k: np.frombuffer(v, dtype=np.int64 if v.typecode == "q" else np.float64)
               for k, v in self.cols.items()}
        out["names"] = np.array(self.names)
        return out

    def save(self, path) -> None:
        np.savez(path, **self.spans())
