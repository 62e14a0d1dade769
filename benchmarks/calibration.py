"""A fixed yardstick of the machine's speed, interleaved with the requests.

The shared virtual machines this benchmark runs on switch between a fast
and a slow state (1.5-1.7x) from one tenth of a second to the next and for
minutes at a time, which moves every latency together. The kernel below
does the same kind of work as the program (dense SVD and least squares
through numpy on matrices of the program's sizes, JSON, Python loops over
small products) but is the benchmark's own code, so no change to the
program moves it. ``run.run_passes`` times it next to every request and
reports each request at the speed where the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import json
import time

import numpy as np

# About the kernel's fastest time on the 2-vCPU virtual machine it was tuned
# on. It is a fixed unit: scaled metrics are comparable because it never changes.
NOMINAL_S = 0.008

_rng = np.random.default_rng(20220217)
_A = _rng.standard_normal((16, 16))
_B = _rng.standard_normal((256, 64))
_Y = _rng.standard_normal(256)
_M = _rng.standard_normal((64, 64))
_DOC = json.dumps({"matrix": _A.tolist(), "rows": [[1.5] * 64] * 16})


def kernel_seconds(at_least: float = 0.0) -> float:
    """Mean wall time of one run of the fixed kernel.

    The kernel runs once, and again until its runs take ``at_least`` seconds
    together, so a long request is set against a sample of comparable weight.
    """
    runs, total = 0, 0.0
    while not runs or total < at_least:
        total += _kernel_once()
        runs += 1
    return total / runs


def _kernel_once() -> float:
    start = time.perf_counter()
    acc = 0.0
    for _ in range(6):
        _, s, _ = np.linalg.svd(_A)
        coef, *_ = np.linalg.lstsq(_B, _Y, rcond=None)
        acc += float(s[0]) + float(coef[0]) + float(np.tensordot(_M @ _M, _M))
        acc += len(json.loads(_DOC)["rows"])
        acc += sum(float(np.tensordot(_A, _A * k)) for k in range(20))
    return time.perf_counter() - start
