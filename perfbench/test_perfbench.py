"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts the checkout's src on the path)
from spans import PER_LAYER, Tracer, pass_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import rdn  # noqa: E402
import rdn.cli  # noqa: E402

# Self times of a single-threaded traced pass must add up to its wall time
# within this share; the gap is the pass loop outside cli.main.
SELF_TIME_TOLERANCE = 0.01


def _bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_traced_runs_of_one_seed_count_the_same():
    args = ("--workload", "table1-n100", "--seed", "7", "--seconds", "1", "--trace", "1")
    (rc_a, a), (rc_b, b) = _bench(*args), _bench(*args)
    assert rc_a == rc_b == 0 and a["correct"] and b["correct"]
    exact = [m.name for m in PER_LAYER if m.name.endswith(".calls")]
    exact += ["solver.factorizations_per_iter", "solver.trials", "solver.trials_overflowed", "manifold.exp_map.overflows"]
    assert {k: a["metrics"][k]["value"] for k in exact} == {k: b["metrics"][k]["value"] for k in exact}
    assert a["metrics"]["linalg.symmetrize.calls"]["value"] > 0


def test_self_times_sum_to_the_traced_pass(monkeypatch, tmp_path):
    monkeypatch.setenv("RDN_THREADS", "1")
    calls = WORKLOADS["table1-n100"].invocations(7, str(tmp_path))
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        for inv in calls:
            assert rdn.cli.main([*inv.argv, "--quiet"]) == 0
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    scalars, _ = pass_metrics(tracer.take(), tracer.names, tracer.error_types, nit_total=1, accepted_trials=0, workers=1)
    assert abs(scalars["self_sum_s"] - wall) <= SELF_TIME_TOLERANCE * wall
    layers = {name.split(".")[0] for name in tracer.names}
    assert layers == {"linalg", "manifold", "objectives", "solver", "bench", "cli", "numpy"}


def test_wrappers_are_bound_in_every_consuming_module():
    originals = (rdn.solver.exp_map, rdn.bench.solve, rdn.objectives.lyapunov_solve, rdn.manifold.sym_eigen, rdn.cli.emit_csv)
    tracer = Tracer()
    tracer.install()
    try:
        assert rdn.solver.exp_map is rdn.manifold.exp_map is not originals[0]
        assert rdn.bench.solve is rdn.solver.solve is not originals[1]
        assert rdn.objectives.lyapunov_solve is rdn.linalg.lyapunov_solve is not originals[2]
        assert rdn.manifold.sym_eigen is not originals[3]
        assert rdn.cli.emit_csv is rdn.bench.emit_csv is not originals[4]
    finally:
        tracer.uninstall()
    assert (rdn.solver.exp_map, rdn.bench.solve, rdn.objectives.lyapunov_solve, rdn.manifold.sym_eigen, rdn.cli.emit_csv) == originals


def test_checks_reject_wrong_counters_and_statuses():
    spec = rdn.ExperimentSpec(rdn.Family.F1, 0.1, 4, rdn.Method.DAMPED, seed=1, init_eig_range=(9.0, 10.0))
    result = rdn.run_experiment(spec)
    narrow = WORKLOADS["table1-n100"]
    assert worker.check_run(narrow, result) == []
    assert worker.check_run(narrow, dataclasses.replace(result, ge=result.ge - 1))
    assert worker.check_run(narrow, dataclasses.replace(result, he=result.he + 1))
    assert worker.check_run(narrow, dataclasses.replace(result, status="max_iters"))
    assert worker.check_run(narrow, dataclasses.replace(result, final_dist_to_star=float("nan")))
    # Wide starts let trials overflow unevaluated, but GE stays within 2 NIT.
    wide = WORKLOADS["wide-start-threaded"]
    assert worker.check_run(wide, dataclasses.replace(result, ge=result.ge - 1)) == []
    assert worker.check_run(wide, dataclasses.replace(result, ge=2 * result.nit - 1))


def test_benchmark_json_lists_the_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m.name for m in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [m.unit for m in PER_LAYER]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-n100", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
