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
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DivergenceError, ProblemFormatError
from .linalg import check_positive
from .problems import load_problem
from .qualification import CASE_NOT_CERTIFIED
from .report import jsonable
from .second_order import check_second_order
from .solver import MODE_EXACT, MODE_PENALTY, SolverConfig, solve, write_iterate_log
from .stationarity import PointAnalysis, classify_first_order

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRICT = 3
EXIT_DIVERGED = 4
SEED_HELP = "random seed (default: RANKMOA_SEED, else 0)"


def _seed(args) -> int:
    """--seed, else RANKMOA_SEED read now (0 when unset or not an integer); never negative."""
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("RANKMOA_SEED", "0"))
        except ValueError:
            seed = 0
    if seed < 0:
        raise ValueError(f"--seed (or RANKMOA_SEED) must be nonnegative, got {seed}")
    return seed


def _load_point(label: str, named: dict, shape):
    if label in named:
        X, name = named[label], label
    else:
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
                    X = np.asarray(json.load(fh), dtype=float)
            else:
                X = np.loadtxt(path, ndmin=2)
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"point {name} is not a numeric matrix: {exc}") from exc
    if X.shape != shape:
        raise ProblemFormatError(
            f"point {name} has shape {X.shape}, problem expects {shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ProblemFormatError(f"point {name} has non-finite entries")
    return X, name


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
        seed = _seed(args)
        X, label = _load_point(args.point, loaded.named_points,
                               (prob.m, prob.n))
    except (ProblemFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    pa = PointAnalysis(prob, X)
    rep = classify_first_order(prob, pa, alpha=args.alpha)
    qual = pa.qualification
    second = None
    if rep.is_F:
        second = check_second_order(prob, pa, rep.y, samples=args.samples, seed=seed)

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
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
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
    print(f"second-order: case {second.case}, basis dim {second.basis_dim}, "
          f"eig range [{second.min_eig:.6g}, {second.max_eig:.6g}]")
    print(f"  necessary: {'ok' if second.necessary_ok else 'VIOLATED'}; "
          f"sufficient: {'ok' if second.sufficient_ok else 'not certified'}")
    if second.case == "rank_deficient":
        print(f"  cone samples tested {second.cone_samples_tested}, "
              f"violations {second.cone_violations}")
    for nline in second.notes:
        print(f"  note: {nline}")


def cmd_solve(args) -> int:
    try:
        seed = _seed(args)
        loaded = load_problem(args.problem)
        prob = loaded.spec
        if args.x0 == "rand":
            X0 = np.random.default_rng(seed).standard_normal((prob.m, prob.n))
        else:
            X0, _ = _load_point(args.x0, loaded.named_points, (prob.m, prob.n))
        cfg = SolverConfig(alpha=args.alpha, max_iters=args.iters,
                           stop_tol=args.stop_tol, affine_mode=args.mode,
                           rho=args.rho)
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

    np.savetxt(out / "x_star.txt", result.x)
    write_iterate_log(out / "iterates.csv", result.log)
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "f": prob.objective.value(result.x),
        "feasibility_residual": prob.affine.residual(result.x),
        "alpha": cfg.alpha,
        "affine_mode": cfg.affine_mode,
        "affine_handling_note": (
            "gradient step followed by alternating affine/rank projections is a "
            "heuristic extension for nonempty constraints"
        ),
    }
    # the report converts itself; only the summary's own entries need jsonable
    doc = dict(jsonable(summary), report=result.report.to_dict())
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"solved: {'converged' if result.converged else 'max iterations'} "
          f"after {result.iterations} iterations; outputs in {out}/")
    print(f"  f = {summary['f']:.9g}, feasibility {summary['feasibility_residual']:.3e}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import run_suite
    try:
        ok, lines = run_suite(args.suite, seed=_seed(args))
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
                    help="cone samples for the rank-deficient second-order check")
    pa.add_argument("--seed", type=int, default=None, help=SEED_HELP)

    ps = sub.add_parser("solve", help="search for an alpha-stationary point")
    ps.add_argument("problem")
    ps.add_argument("--x0", default="rand",
                    help="'rand', a named point label, or a matrix file")
    ps.add_argument("--alpha", type=float, default=0.5)
    ps.add_argument("--iters", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=None, help=SEED_HELP)
    ps.add_argument("--stop-tol", type=float, default=1e-10)
    ps.add_argument("--mode", choices=[MODE_EXACT, MODE_PENALTY],
                    default=MODE_EXACT)
    ps.add_argument("--rho", type=float, default=10.0,
                    help="penalty weight in quadratic_penalty mode")
    ps.add_argument("--out", default=None, help="output directory")

    po = sub.add_parser("oracle", help="run an independent verification suite")
    po.add_argument("suite", help="fd | projection | hankel-rank1 | diag-embed")
    po.add_argument("--seed", type=int, default=None, help=SEED_HELP)
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
