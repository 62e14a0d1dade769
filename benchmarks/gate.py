"""Parts of the once-per-run correctness gate: the fixture rule and the oracles.

``run.Bench.gate`` sends the fixture request and the quadratic-penalty
reference solve through the CLI and uses these two helpers.
"""

from __future__ import annotations

import time

REL, ABS = 1e-6, 1e-9  # the fixture rule of tests/test_cli.py


def matches_fixture(got, golden) -> bool:
    """``path`` is ignored; floats compare at rel 1e-6, abs 1e-9; all else exactly."""
    if type(got) is not type(golden):
        return False
    if isinstance(got, dict):
        return sorted(got) == sorted(golden) and all(
            k == "path" or matches_fixture(got[k], golden[k]) for k in got)
    if isinstance(got, list):
        return len(got) == len(golden) and all(
            matches_fixture(a, b) for a, b in zip(got, golden))
    if isinstance(got, float):
        return abs(got - golden) <= max(REL * abs(golden), ABS)
    return got == golden


def run_oracles():
    """Each suite's verdict and wall time in seconds."""
    from rankmoa.oracle import SUITES, run_suite
    out = {}
    for suite in SUITES:
        start = time.perf_counter()
        ok, _ = run_suite(suite)
        out[suite] = (bool(ok), time.perf_counter() - start)
    return out
