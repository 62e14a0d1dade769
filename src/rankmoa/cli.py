"""Command-line front end.

Exit codes are the only success signal: 0 analysis/solve succeeded, 2 a file
failed to parse or resolve or a numeric setting is invalid, 3 strict mode hit
an uncertified qualification, 4 the solver diverged. Stdout text is
informational; --json emits a schema-stable document (fixed keys, matrices as
row-major nested arrays, infinities as "inf", never NaN).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DivergenceError, ProblemFormatError
from .linalg import check_positive
from .problems import _float_array, load_problem
from .qualification import CASE_NOT_CERTIFIED
from .report import _dumps, _savetxt, jsonable
from .second_order import check_second_order
from .solver import MODE_EXACT, SolverConfig, solve, write_iterate_log
from .stationarity import PointAnalysis, classify_first_order

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRICT = 3
EXIT_DIVERGED = 4
SEED_HELP = "random seed (default 0)"


def _load_point(label: str, named: dict, shape):
    if label in named:
        return named[label], label  # load_problem checked its shape and entries
    path = Path(label)
    if not path.exists():
        raise ProblemFormatError(
            f"point {label!r} is neither a named point "
            f"({', '.join(sorted(named)) or 'none defined'}) nor a readable file"
        )
    name = path.name
    try:
        if path.suffix.lower() == ".json":
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = np.loadtxt(path, ndmin=2)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"point {name} is not a numeric matrix: {exc}") from exc
    return _float_array(data, shape, f"point {name}"), name


def _fmt_vec(v, limit=8):
    vals = [f"{x:.6g}" for x in np.atleast_1d(v)]
    if len(vals) > limit:
        vals = vals[:limit] + ["..."]
    return "[" + ", ".join(vals) + "]"


def cmd_analyze(args) -> int:
    try:
        loaded = load_problem(args.problem)
        prob = loaded.spec
        if args.tol is not None:
            prob = replace(prob, tol=args.tol)
        if args.alpha is not None:
            check_positive(args.alpha, "--alpha")
        if args.samples < 0:
            raise ValueError(f"--samples must be nonnegative, got {args.samples}")
        X, label = _load_point(args.point, loaded.named_points,
                               (prob.m, prob.n))
        pa = PointAnalysis(prob, X)
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    rep = classify_first_order(prob, pa, alpha=args.alpha)
    qual = pa.qualification
    second = None
    if rep.is_F:
        second = check_second_order(prob, pa, rep.y, samples=args.samples)

    doc = {
        "problem": {
            "path": str(args.problem), "m": prob.m, "n": prob.n, "l": prob.l,
            "r": prob.r, "rank_tol": prob.rank_tol, "tol": prob.tol,
            "objective_kind": prob.objective.kind,
        },
        "point": {"label": label, "matrix": X.tolist()},
        "svd": {
            "singular_values": pa.svd.sigma.tolist(),
            "numerical_rank": pa.svd.rank,
        },
        "qualification": qual.to_dict(),
        "stationarity": rep.to_dict(),
        "second_order": None if second is None else second.to_dict(),
    }
    if args.json:
        # every entry is JSON-ready already: the reports convert themselves
        print(_dumps(doc))
    else:
        _print_analysis(doc, rep, qual, second)
    if args.strict and qual.intersection_rule_case == CASE_NOT_CERTIFIED:
        print("strict: qualification not certified at this point", file=sys.stderr)
        return EXIT_STRICT
    return EXIT_OK


def _print_analysis(doc, rep, qual, second):
    p = doc["problem"]
    print(f"problem: {p['path']}  (m={p['m']}, n={p['n']}, l={p['l']}, "
          f"r={p['r']}, objective={p['objective_kind']})")
    print(f"point:   {doc['point']['label']}")
    print(f"feasibility: {'OK' if rep.feasible else 'INFEASIBLE'}  "
          f"(residual {rep.feasibility_residual:.3e}, rank {rep.s})")
    print(f"singular values: {_fmt_vec(doc['svd']['singular_values'])}")
    print(f"qualification: Assumption 1 {'holds' if qual.assumption1 else 'fails'} "
          f"(t_rank={qual.t_rank}); Assumption 2 "
          f"{'holds' if qual.assumption2 else 'fails'} (r_rank={qual.r_rank})")
    print(f"intersection rule: {qual.intersection_rule_case}")
    for w in qual.warnings:
        print(f"  warning: {w}")
    if not rep.feasible:
        print("stationarity: skipped (infeasible point)")
        return
    print("stationarity:")
    print(f"  F-stationary: {'yes' if rep.is_F else 'no'}  "
          f"(residual {rep.f_residual:.3e}, y={_fmt_vec(rep.y)})")
    print(f"  M-stationary: {'yes' if rep.is_M else 'no'}  (certified at tested y)")
    if rep.is_alpha is not None:
        print(f"  alpha-stationary at alpha={rep.alpha_tested:g}: "
              f"{'yes' if rep.is_alpha else 'no'}")
    beta = "inf" if rep.beta is not None and math.isinf(rep.beta) else f"{rep.beta:.6g}"
    print(f"  beta: {beta}")
    if rep.is_M and not rep.is_F:
        print("  summary: M-stationary, not F-stationary")
    elif rep.is_F:
        print("  summary: F-stationary")
    else:
        print("  summary: not stationary at the tested multipliers")
    if rep.classification:
        print("classification:")
        for c in rep.classification:
            print(f"  - {c}")
    for nline in rep.notes:
        print(f"  note: {nline}")
    if second is None:
        print("second-order: skipped (point is not F-stationary)")
        return
    # an empty basis leaves the form's range at the inverted [inf, -inf]
    span = (f"eig range [{second.min_eig:.6g}, {second.max_eig:.6g}]" if second.basis_dim
            else "the form has no directions")
    print(f"second-order: case {second.case}, basis dim {second.basis_dim}, {span}")
    print(f"  necessary: {'ok' if second.necessary_ok else 'VIOLATED'}; "
          f"sufficient: {'ok' if second.sufficient_ok else 'not certified'}")
    if second.case == "rank_deficient":
        print(f"  cone subspaces searched {second.cone_samples_tested}, "
              f"violations {second.cone_violations}")
    for nline in second.notes:
        print(f"  note: {nline}")


def cmd_solve(args) -> int:
    if args.mode is not None or args.rho is not None:
        print(f"warning: --mode and --rho are ignored; solve always runs {MODE_EXACT}",
              file=sys.stderr)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        loaded = load_problem(args.problem)
        prob = loaded.spec
        if args.x0 == "rand":
            X0 = np.random.default_rng(args.seed).standard_normal((prob.m, prob.n))
        else:
            X0, _ = _load_point(args.x0, loaded.named_points, (prob.m, prob.n))
        cfg = SolverConfig(alpha=args.alpha, max_iters=args.iters,
                           stop_tol=args.stop_tol)
        out = Path(args.out) if args.out else \
            Path(args.problem).parent / (Path(args.problem).stem + "_solve")
        # made before solving, so an unusable --out costs no solve
        if out.exists() and not out.is_dir():
            raise ValueError(f"--out {out} exists and is not a directory")
        out.mkdir(parents=True, exist_ok=True)
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        result = solve(prob, X0, cfg)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    _savetxt(out / "x_star.txt", result.x)
    write_iterate_log(out / "iterates.csv", result.log)
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "f": prob.objective.value(result.x),
        "feasibility_residual": prob.affine.residual(result.x),
        "alpha": cfg.alpha,
        "affine_mode": MODE_EXACT,
        "affine_handling_note": (
            "gradient step followed by alternating affine/rank projections is a "
            "heuristic extension for nonempty constraints"
        ),
    }
    # the report converts itself; only the summary's own entries need jsonable
    doc = dict(jsonable(summary), report=result.report.to_dict())
    (out / "report.json").write_text(_dumps(doc) + "\n", encoding="utf-8")
    print(f"solved: {'converged' if result.converged else 'max iterations'} "
          f"after {result.iterations} iterations; outputs in {out}/")
    print(f"  f = {summary['f']:.9g}, feasibility {summary['feasibility_residual']:.3e}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import run_suite
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        ok, lines = run_suite(args.suite, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmoa",
        description="Stationarity certification for low-rank matrix "
                    "optimization over affine manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a candidate point")
    pa.add_argument("problem", help="problem file (JSON document)")
    pa.add_argument("--point", required=True,
                    help="named point label or path to a matrix file")
    pa.add_argument("--alpha", type=float, default=None,
                    help="projected-gradient step to test for alpha-stationarity")
    pa.add_argument("--tol", type=float, default=None,
                    help="override the membership tolerance")
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.add_argument("--strict", action="store_true",
                    help="exit 3 when the qualification is not certified")
    pa.add_argument("--samples", type=int, default=2000,
                    help="most cone subspaces the rank-deficient second-order search examines, "
                         "where hess f has curvature below -tol on ker A")

    ps = sub.add_parser("solve", help="search for an alpha-stationary point")
    ps.add_argument("problem")
    ps.add_argument("--x0", default="rand",
                    help="'rand', a named point label, or a matrix file")
    ps.add_argument("--alpha", type=float, default=0.5)
    ps.add_argument("--iters", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    ps.add_argument("--stop-tol", type=float, default=1e-10)
    # the deleted quadratic_penalty mode's options, accepted and ignored for one release
    ps.add_argument("--mode", help=argparse.SUPPRESS)
    ps.add_argument("--rho", help=argparse.SUPPRESS)
    ps.add_argument("--out", default=None, help="output directory")

    po = sub.add_parser("oracle", help="run an independent verification suite")
    po.add_argument("suite", help="fd | projection | hankel-rank1 | diag-embed | curvature")
    po.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process; it holds no state between parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a wrapper installed over a cmd_* function is the one run
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
