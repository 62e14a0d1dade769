"""rankmoa benchmark: one closed-loop client driving ``rankmoa.cli.main``.

Run from the repository root:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 16 --trace 0

The client sends each request when the previous one returns (a closed loop
with one client) and captures the program's stdout in memory inside the
timed interval. Every output is checked against the planted truth of its
generated instance. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
repeats the same requests under ``tracer.Tracer`` and prints the per-layer
metrics. The last line of stdout is the result object; the line before it
records the environment. See README.md for the workloads and metrics.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "analyze_hankel_xbar.json"
WORK = ROOT / ".bench_work"

WORKLOADS = ("certify", "second-order-full", "second-order-deficient", "solve")
SOLVE_ITERS = 3          # the fixed --iters budget of every `solve` request
CLI_SAMPLES = 2000       # the CLI's default --samples, which analyze requests use
SETUP_REPEATS = 5        # setup_s is the median of this many set-ups
# passes of the companion requests after the timed loop, see README.md
COMPANION_PASSES = {"analyze": 12, "solve": 20}
# analyze_tail_ms percentile per workload: the highest that leaves at least ten
# requests beyond it in a run of BENCHMARK.json's run_seconds; a run goes on
# past --seconds until it has that many (``tail_requests``), see README.md
TAIL_PERCENTILE = {"certify": 95.0, "second-order-full": 93.0,
                   "second-order-deficient": 50.0, "solve": 93.0}
PENALTY_ITERS = 200
# after each request the calibration kernel runs for at least this share of it
KERNEL_SHARE = 0.1
EXIT_DIVERGED = 4

END_TO_END = {
    "setup_s": "s", "analyze_per_s": "requests/s", "analyze_p50_ms": "ms",
    "analyze_tail_ms": "ms", "solve_mean_s": "s", "solve_certified_frac": "ratio",
    "ok_frac": "ratio", "peak_rss_mb": "MB",
}
TRACED_CALLS = (
    "problems.load_problem", "linalg.orient_svd", "linalg.spectral_norm",
    "linalg.rank_estimate", "affine.stack_rank", "qualification.bq_certificates",
    "stationarity.classify_first_order", "stationarity.check_M_stationary",
    "stationarity.recover_multiplier", "model.hess_apply", "model.grad",
    "second_order.check_second_order", "linalg.project_low_rank",
    "cones.project_normal_fixed_rank", "cones.in_tangent_bouligand_Mr",
    "affine.kernel_basis", "cones.project_tangent_fixed_rank",
    "solver.project_affine", "solver.stationarity_residual", "model.value",
    "affine.apply", "affine.adjoint",
    "kernel.svd", "kernel.lstsq", "kernel.eigvalsh", "kernel.null_space",
)
TRACED_SELF = (
    "problems.load_problem", "linalg.orient_svd", "affine.stack_rank",
    "qualification.bq_certificates", "qualification.build_T",
    "qualification.build_R", "stationarity.classify_first_order",
    "stationarity.recover_multiplier", "model.hess_apply",
    "second_order.check_second_order", "second_order.tangent_intersection_basis",
    "linalg.project_low_rank", "cones.in_tangent_bouligand_Mr",
    "affine.kernel_basis", "cones.project_tangent_fixed_rank",
    "solver.project_affine", "solver.stationarity_residual",
    "kernel.svd", "kernel.lstsq", "kernel.eigvalsh", "kernel.null_space",
)
ORACLE_SUITES = ("fd", "projection", "hankel-rank1", "diag-embed")


def per_layer_units() -> dict:
    units = {"cli.self_s": "s/request"}
    units.update({f"{n}.calls": "calls/request" for n in TRACED_CALLS})
    units.update({f"{n}.s": "s/request" for n in TRACED_SELF})
    units.update({
        "stationarity.y_norm_max": "norm",
        "second_order.basis_dim_mean": "dim",
        "second_order.cone_samples_tested": "samples/request",
        "second_order.cone_sample_yield": "ratio",
        "second_order.cone_sample_yield_constrained": "ratio",
        "solver.iterations": "iters/solve",
        "solver.converged_frac": "ratio",
        "solver.inner_rounds_per_iter": "rounds/iter",
        "solver.f_ratio_median": "ratio",
        "solver.penalty_diverges": "exit_code",
        "trace.overhead_frac": "ratio",
    })
    units.update({f"oracle.{s}.s": "s" for s in ORACLE_SUITES})
    return units


class Mismatch(Exception):
    """The program answered, but not what the planted truth says."""


@dataclass
class Request:
    name: str
    argv: list
    check: object  # (exit code, stdout) -> dict of facts, or raises Mismatch
    constrained: bool = False
    probe: bool = False  # a known-defect probe: exit 4 is its reported outcome


@dataclass
class Result:
    latency: float
    code: object  # exit code, or None when the call raised
    facts: dict | None
    scaled: float | None = None  # latency at the calibration kernel's nominal speed


def _y_norm(y) -> float:
    return math.sqrt(sum(v * v for v in y)) if y else 0.0


def check_analyze(truth):
    def check(code, out):
        if code != 0:
            raise Mismatch(f"exit {code}")
        doc = json.loads(out)
        st, so = doc["stationarity"], doc["second_order"]
        for key in ("feasible", "s", "is_F"):
            if st[key] != truth[key]:
                raise Mismatch(f"{key} = {st[key]!r}, planted {truth[key]!r}")
        if (so is not None) != st["is_F"]:
            raise Mismatch("second_order must be present exactly when is_F")
        return {"y_norm": _y_norm(st["y"]), "second_order": so}
    return check


def check_solve(outdir: Path, f0: float | None = None):
    def check(code, out):
        if code != 0:
            raise Mismatch(f"exit {code}")
        with open(outdir / "report.json", encoding="utf-8") as fh:
            rep = json.load(fh)
        st = rep["report"]
        if rep["converged"] and not st["is_F"]:
            raise Mismatch("converged but not F-stationary")
        return {"certified": bool(st["feasible"] and st["is_F"]),
                "converged": bool(rep["converged"]),
                "iterations": int(rep["iterations"]),
                "f_ratio": rep["f"] / f0 if f0 else None,
                "y_norm": _y_norm(st["y"])}
    return check


def check_fixture(golden):
    from gate import matches_fixture

    def check(code, out):
        if code != 0:
            raise Mismatch(f"exit {code}")
        if not matches_fixture(json.loads(out), golden):
            raise Mismatch("analyze --json differs from tests/data fixture")
        return {}
    return check


class Client:
    """One closed-loop client; tallies operations, failures and wrong outputs."""

    def __init__(self, cli):
        self.cli = cli  # the module, so a traced run's wrapper of cli.main is called
        self.attempted = 0
        self.failed = 0
        self.errors: list = []  # wrong outputs and crashes; exit 4 is not one
        self.tracer = None

    def send(self, req: Request) -> Result:
        if self.tracer is not None:
            self.tracer.request += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(req.argv)
        except (Exception, SystemExit):  # a crash is one failed operation
            latency = time.perf_counter() - start
            self.record(req.name, traceback.format_exc(limit=2).strip().splitlines()[-1])
            return Result(latency, None, None)
        latency = time.perf_counter() - start
        if code == EXIT_DIVERGED:
            self.record(req.name, failed=not req.probe)
            return Result(latency, code, None)
        try:
            facts = req.check(code, out.getvalue())
        except (Mismatch, ValueError, KeyError, TypeError, OSError) as exc:
            self.record(req.name, f"{type(exc).__name__}: {exc}")
            return Result(latency, code, None)
        self.record(req.name)
        return Result(latency, code, facts)

    def record(self, name, error=None, failed=False):
        """Count one operation; ``error`` marks a wrong output or a crash."""
        failed = failed or error is not None
        self.attempted += 1
        self.failed += failed
        if error is not None:
            self.errors.append(f"{name}: {error}")


def run_passes(client, requests, rng, seconds=None, passes=None, calibrate=False,
               min_requests=0):
    """Send ``requests`` in whole passes, each in a fresh seeded order.

    With ``passes``, run exactly that many; otherwise stop at the pass
    boundary nearest to ``seconds``, after at least one pass and
    ``min_requests`` requests, so a run measures ``seconds`` on average.
    With ``calibrate``, the calibration kernel is timed before the first
    request and after every request, and each request's ``scaled`` latency
    uses the mean of its two neighbouring kernel times. Returns
    [(request index, Result)].
    """
    from calibration import NOMINAL_S, kernel_seconds
    results = []
    start = last = time.perf_counter()
    before = kernel_seconds() if calibrate else None
    done = 0
    while True:
        now = time.perf_counter()
        if passes is not None and done == passes:
            break
        # stop unless half of another pass as long as the last one still fits
        if (passes is None and done and len(results) >= min_requests
                and (now - start) + 0.5 * (now - last) >= seconds):
            break
        last = now
        order = list(range(len(requests)))
        rng.shuffle(order)
        for i in order:
            res = client.send(requests[i])
            if calibrate:
                after = kernel_seconds(KERNEL_SHARE * res.latency)
                res.scaled = res.latency * NOMINAL_S / (0.5 * (before + after))
                before = after
            results.append((i, res))
        done += 1
    return results


def tail_requests(percentile: float) -> int:
    """How many requests a run needs for ten of them to lie at or beyond ``percentile``."""
    return math.ceil(10.0 / (1.0 - percentile / 100.0))


def tail_value(values, percentile: float) -> float:
    """The smallest value with at least ``100 - percentile`` % of values at or above it."""
    ordered = sorted(values)
    k = min(len(ordered) - 1, math.floor(len(ordered) * percentile / 100.0))
    return ordered[k]


def latency_metrics(lat, percentile: float) -> tuple[dict, dict]:
    """Rate, median and tail of the scaled analyze latencies (seconds)."""
    n = len(lat)
    metrics = {
        "analyze_per_s": n / sum(lat),
        "analyze_p50_ms": 1000.0 * statistics.median(lat),
        "analyze_tail_ms": 1000.0 * tail_value(lat, percentile),
    }
    beyond = sum(v > tail_value(lat, percentile) for v in lat)
    return metrics, {"analyze_requests": n, "analyze_tail_percentile": percentile,
                     "analyze_tail_beyond": beyond}


def solve_metrics(results) -> dict:
    """Mean scaled wall time per solve call and the certified share of calls."""
    return {
        "solve_mean_s": statistics.fmean(r.scaled for r in results),
        "solve_certified_frac": statistics.fmean(
            bool(r.facts and r.facts["certified"]) for r in results),
    }


class Bench:
    """Set-up, requests and metrics of one workload at one seed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work

    def setup(self) -> float:
        """Import rankmoa, write the problem files, send one warm-up request."""
        start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import rankmoa.cli
        from rankmoa import build_hankel_example, build_trace_example, save_problem

        import instances
        import numpy as np

        cases = instances.make_family(self.workload, self.seed)
        instances.write_family(cases, self.work / "problems")
        self.requests = [self._request(c) for c in cases]

        hankel33 = self.work / "hankel33.prob"
        spec, points = build_hankel_example()
        save_problem(spec, hankel33, named_points=points)
        tr = self.work / "tr.prob"
        spec, points = build_trace_example()
        save_problem(spec, tr, named_points=points)
        reference = instances.reference_hankel8()
        instances.write_family([reference], self.work / "problems")

        golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
        self.fixture_request = Request(
            "fixture", ["analyze", str(hankel33), "--point", "Xbar", "--alpha", "1",
                        "--json"], check_fixture(golden))
        if self.workload == "solve":
            certify = instances.certify_family(np.random.default_rng(self.seed))
            instances.write_family(certify, self.work / "companion")
            self.companion = [self._analyze_request(c) for c in certify]
        else:
            ref_out, tr_out = self.work / "out" / "reference", self.work / "out" / "tr"
            self.companion = [
                Request("reference-solve",
                        ["solve", str(reference.path), "--x0", "x0", "--iters",
                         str(SOLVE_ITERS), "--out", str(ref_out)],
                        check_solve(ref_out, reference.truth["f0"])),
                Request("trace-example-solve",
                        ["solve", str(tr), "--x0", "H", "--out", str(tr_out)],
                        check_solve(tr_out)),
            ]
        ref_out = self.work / "out" / "penalty"
        self.penalty_request = Request(
            "penalty-reference",
            ["solve", str(reference.path), "--x0", "x0", "--mode", "quadratic_penalty",
             "--rho", "10", "--iters", str(PENALTY_ITERS), "--out", str(ref_out)],
            check_solve(ref_out, reference.truth["f0"]), probe=True)
        Client(rankmoa.cli).send(self.requests[0])  # warm-up, not an operation
        self.client = Client(rankmoa.cli)
        return time.perf_counter() - start

    def _request(self, case) -> Request:
        if self.workload == "solve":
            out = self.work / "out" / case.name
            argv = ["solve", str(case.path), "--x0", case.point,
                    "--iters", str(SOLVE_ITERS), "--out", str(out)]
            return Request(case.name, argv, check_solve(out, case.truth["f0"]),
                           case.constrained)
        return self._analyze_request(case)

    def _analyze_request(self, case) -> Request:
        argv = ["analyze", str(case.path), "--point", case.point, "--json"]
        return Request(case.name, argv, check_analyze(case.truth), case.constrained)

    def gate(self) -> dict:
        """Fixture, oracle suites and the penalty reference; returns timings."""
        from gate import run_oracles
        self.client.send(self.fixture_request)
        oracle = {}
        for suite, (ok, seconds) in run_oracles().items():
            self.client.record(f"oracle {suite}", None if ok else "suite failed")
            oracle[suite] = seconds
        penalty = self.client.send(self.penalty_request)
        return {"oracle": oracle,
                "penalty_exit": -1 if penalty.code is None else penalty.code}

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        solving = self.workload == "solve"
        start = time.perf_counter()
        timed = [r for _, r in run_passes(
            self.client, self.requests, random.Random(self.seed), seconds=seconds,
            calibrate=True,
            min_requests=0 if solving else tail_requests(TAIL_PERCENTILE[self.workload]))]
        loop_s = time.perf_counter() - start
        extra = [r for _, r in run_passes(
            self.client, self.companion, random.Random(0),
            passes=COMPANION_PASSES["analyze" if solving else "solve"], calibrate=True)]
        solves, analyses = (timed, extra) if solving else (extra, timed)
        metrics = solve_metrics(solves)
        lat, info = latency_metrics([r.scaled for r in analyses],
                                    TAIL_PERCENTILE[self.workload])
        metrics.update(lat)
        info.update({"requests": len(timed), "loop_s": loop_s,
                     "passes": len(timed) // len(self.requests),
                     "unscaled": unscaled(solves, analyses, TAIL_PERCENTILE[self.workload]),
                     "kernel_scale_median": statistics.median(
                         r.scaled / r.latency for r in timed)})
        info.update(self.gate())
        metrics["ok_frac"] = 1.0 - self.client.failed / self.client.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics, info

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        """Alternate untraced and traced whole passes until ``seconds`` have passed."""
        gate = self.gate()
        from tracer import Tracer
        tracer = Tracer()
        plain, traced = [], []
        start = time.perf_counter()
        passes = 0
        while not passes or time.perf_counter() - start < seconds:
            order = f"{self.seed}-{passes}"
            plain += run_passes(self.client, self.requests, random.Random(order), passes=1)
            self.client.tracer = tracer
            tracer.install()
            try:
                traced += run_passes(self.client, self.requests, random.Random(order),
                                     passes=1)
            finally:
                tracer.uninstall()
                self.client.tracer = None
            passes += 1
        WORK.mkdir(exist_ok=True)
        stem = WORK / f"trace-{self.workload}-{self.seed}"
        tracer.save(f"{stem}.npz")
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"requests": [self.requests[i].name for i, _ in traced],
                       "calls": tracer.calls, "self_s": tracer.self_s}, fh, indent=1)
        metrics = layer_metrics(tracer, self.requests, traced)
        metrics["trace.overhead_frac"] = (sum(r.latency for _, r in traced)
                                          / sum(r.latency for _, r in plain) - 1.0)
        metrics["solver.penalty_diverges"] = gate["penalty_exit"]
        for suite in ORACLE_SUITES:
            metrics[f"oracle.{suite}.s"] = gate["oracle"][suite]
        return metrics, {"passes": passes, "requests": len(traced),
                         "spans": len(tracer.cols["id"]),
                         "trace_file": str(stem.relative_to(ROOT)) + ".npz"}


def layer_metrics(tracer, requests, traced) -> dict:
    n = len(traced)
    m = {"cli.self_s": sum(v for k, v in tracer.self_s.items()
                           if k.startswith("cli.")) / n}
    m.update({f"{name}.calls": tracer.calls[name] / n for name in TRACED_CALLS})
    m.update({f"{name}.s": tracer.self_s[name] / n for name in TRACED_SELF})
    facts = [(requests[i], r.facts) for i, r in traced if r.facts]
    m["stationarity.y_norm_max"] = max((f["y_norm"] for _, f in facts), default=0.0)
    orders = [(req, f["second_order"]) for req, f in facts if f.get("second_order")]
    full = [so["basis_dim"] for _, so in orders if so["case"] == "full_rank"]
    m["second_order.basis_dim_mean"] = statistics.fmean(full) if full else 0.0
    deficient = [(req, so) for req, so in orders if so["case"] == "rank_deficient"]
    tested = [so["cone_samples_tested"] for _, so in deficient]
    m["second_order.cone_samples_tested"] = statistics.fmean(tested) if tested else 0.0
    m["second_order.cone_sample_yield"] = (
        sum(tested) / (CLI_SAMPLES * len(tested)) if tested else 0.0)
    constrained = [so["cone_samples_tested"] for req, so in deficient if req.constrained]
    m["second_order.cone_sample_yield_constrained"] = (
        sum(constrained) / (CLI_SAMPLES * len(constrained)) if constrained else 0.0)
    solves = [f for _, f in facts if "iterations" in f]
    iters = sum(f["iterations"] for f in solves)
    m["solver.iterations"] = iters / len(solves) if solves else 0.0
    m["solver.converged_frac"] = (
        sum(f["converged"] for f in solves) / len(solves) if solves else 0.0)
    m["solver.inner_rounds_per_iter"] = (
        tracer.calls["solver.project_affine"] / iters if iters else 0.0)
    m["solver.f_ratio_median"] = (
        statistics.median(f["f_ratio"] for f in solves) if solves else 0.0)
    return m


def unscaled(solves, analyses, percentile) -> dict:
    """The timing metrics from the measured wall times, for comparison."""
    lat, _ = latency_metrics([r.latency for r in analyses], percentile)
    lat["solve_mean_s"] = statistics.fmean(r.latency for r in solves)
    return lat


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas,
        "nproc": os.cpu_count(), "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"], "solve_iters": SOLVE_ITERS,
    }


def scaled_setup(seconds: float) -> dict:
    """A set-up time as measured and at the calibration kernel's nominal speed.

    A set-up is long enough for the machine to change speed during it, so
    the scale is the mean of 20 kernel runs right after it.
    """
    from calibration import NOMINAL_S, kernel_seconds
    kernel = statistics.fmean(kernel_seconds() for _ in range(20))
    return {"setup_s": seconds * NOMINAL_S / kernel, "raw_setup_s": seconds}


def setup_probes(args, own: dict) -> dict:
    """Median set-up times over this process and fresh probe processes."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(t[k] for t in times) for k in own}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankmoa" / "cli.py").is_file() or not FIXTURE.is_file():
        print(f"error: {ROOT} is not a rankmoa checkout (src/rankmoa or the "
              "tests/data fixture is missing)", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, work)
        setup = scaled_setup(bench.setup())
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            metrics, info = bench.per_layer(args.seconds)
            units = per_layer_units()
        else:
            metrics, info = bench.end_to_end(args.seconds)
            setup = setup_probes(args, setup)
            metrics["setup_s"] = setup["setup_s"]
            info["unscaled"]["setup_s"] = setup["raw_setup_s"]
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    client = bench.client
    info.update(environment(args))
    info["errors"] = client.errors[:5]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not client.errors, "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
