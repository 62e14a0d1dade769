"""Verdicts known to be wrong, pinned as strict expected failures.

Each case reproduces an open ROADMAP item. When a change mends one, its case
starts to pass, the strict mark turns that into a failure, and the mark is
removed with the mend.
"""

import numpy as np
import pytest

from rankmoa import (SolverConfig, build_hankel, check_second_order, classify_first_order,
                     project_low_rank, solve)
from rankmoa.oracle import saddle_3x3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 10")
def test_solve_does_not_call_the_3x3_saddle_converged():
    # from the saddle itself, solve stops after one iteration at f = 5 and
    # reports convergence, yet hess L has curvature -0.5 on the feasible directions
    prob, X, _ = saddle_3x3()
    res = solve(prob, X, SolverConfig(alpha=0.5, max_iters=50))
    assert not res.converged or check_second_order(prob, res.x, res.report.y).necessary_ok


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7")
def test_first_order_verdict_is_scale_invariant():
    # the 30-iteration point of the reference 8x8 Hankel instance is not
    # F-stationary at scales c = 1 down to 1e-6; scaled by 1e-8, its residual
    # falls below the absolute floor of the tolerance, and it is certified
    G = np.random.default_rng(0).standard_normal((8, 8))
    H = G + G.T
    x30 = solve(build_hankel(H, 2), project_low_rank(H, 2)[0],
                SolverConfig(alpha=0.5, max_iters=30)).x

    def is_F(c):
        return classify_first_order(build_hankel(c * H, 2), c * x30).is_F
    assert is_F(1e-8) == is_F(1.0)
