"""Self-checks of the benchmark: ``python3 -m pytest benchmarks`` from the root.

They run the benchmark itself, so they take about two minutes.
"""

import json
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from gate import matches_fixture  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@cache
def result(workload, trace, seed=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(res, keys):
    return {k: res["metrics"][k]["value"] for k in keys}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result(workload, 1)
    keys = [k for k in first["metrics"] if k.endswith(".calls")]
    keys += ["second_order.cone_sample_yield", "stationarity.y_norm_max"]
    again = result.__wrapped__(workload, 1)  # a second, uncached run
    assert values(first, keys) == values(again, keys)
    assert first["correct"] and again["correct"]


@pytest.mark.parametrize("workload", ["certify", "second-order-full"])
def test_analyze_factors_and_certifies_at_known_rates(workload):
    m = values(result(workload, 1), ["linalg.orient_svd.calls",
                                     "qualification.bq_certificates.calls"])
    assert m == {"linalg.orient_svd.calls": 7.0,
                 "qualification.bq_certificates.calls": 2.0}


def test_constrained_rank_deficient_samples_never_survive():
    m = values(result("second-order-deficient", 1),
               ["second_order.cone_sample_yield_constrained",
                "second_order.cone_sample_yield"])
    assert m["second_order.cone_sample_yield_constrained"] == 0.0
    assert m["second_order.cone_sample_yield"] > 0.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        got = result("certify", trace)["metrics"]
        assert {k: v["unit"] for k, v in got.items()} == declared


def test_no_operation_fails_and_the_penalty_probe_reports_its_exit():
    res = result("certify", 0)
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["ok_frac"]["value"] == 1.0
    assert result("certify", 1)["metrics"]["solver.penalty_diverges"]["value"] in (0, 4)


def test_every_traced_name_is_wrapped():
    sys.path.insert(0, str(run.SRC))
    import rankmoa.cli  # noqa: F401
    import rankmoa.oracle  # noqa: F401
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(run.TRACED_CALLS) | set(run.TRACED_SELF) <= set(tracer.names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "certify", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fixture_rule():
    golden = {"path": "a.prob", "x": 1.0, "k": [True, "inf"]}
    assert matches_fixture({"path": "b.prob", "x": 1.0 + 1e-7, "k": [True, "inf"]}, golden)
    assert not matches_fixture({"path": "a.prob", "x": 1.01, "k": [True, "inf"]}, golden)
    assert not matches_fixture({"path": "a.prob", "x": 1, "k": [True, "inf"]}, golden)


def test_solve_tail_leaves_ten_companion_requests_beyond_it():
    import numpy as np
    from instances import certify_family
    n = run.COMPANION_PASSES["analyze"] * len(certify_family(np.random.default_rng(0)))
    assert n >= run.tail_requests(run.TAIL_PERCENTILE["solve"])
    lat = [float(v) for v in range(n)]
    tail = run.tail_value(lat, run.TAIL_PERCENTILE["solve"])
    assert sum(v > tail for v in lat) == 10


@pytest.mark.parametrize("percentile", [50.0, 93.0, 95.0])
def test_a_run_of_tail_requests_has_ten_at_or_beyond_the_tail(percentile):
    n = run.tail_requests(percentile)
    lat = [float(v) for v in range(n)]
    tail = run.tail_value(lat, percentile)
    assert sum(v >= tail for v in lat) >= 10
