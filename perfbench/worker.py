"""Runs one workload's passes in a process pinned to its thread counts.

``run.py`` starts this script with the workload's environment.  It imports
``rdn`` from the checkout's ``src``, warms up, and then repeats passes of the
workload until the time budget is spent.  A pass calls ``rdn.cli.main`` once
per invocation, as a user would, with the summary print captured.  Every
run of every pass is checked, outside the timed region, against the solver's
documented invariants and against the CSV the command wrote.

With ``--trace 1`` untraced and traced passes alternate, so the two share
the machine's state; the traced ones give the per-layer metrics and their
ratio to the untraced ones gives the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402

# Untraced passes a --trace 0 run makes at least, whatever its time budget.
MIN_PASSES = 3


def ready_stamp() -> float:
    """CLOCK_MONOTONIC is system-wide on Linux, so run.py can subtract its own
    reading taken before it started this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def set_up(warmup_dim: int) -> float:
    """Import the package and warm up BLAS; return the moment it is ready."""
    import rdn
    import rdn.cli

    expected = os.path.join(ROOT, "src", "rdn", "__init__.py")
    if os.path.realpath(rdn.__file__) != os.path.realpath(expected):
        raise SystemExit(f"imported rdn from {rdn.__file__}, expected {expected}")
    objective = rdn.Objective(rdn.Family.F1, a=1.0, b=2.0)
    rdn.solve(rdn.GradientField(objective), rdn.random_spd(2, 1.0, 10.0, seed=0))
    rdn.sym_eigen(rdn.random_spd(warmup_dim, 9.0, 10.0, seed=0).matrix)
    return ready_stamp()


class ResultTap:
    """Stands in for ``rdn.cli.run_grid`` and keeps what it returns, so the
    checks can read each run's per-iteration backtracks.  It looks
    ``rdn.bench.run_grid`` up at call time, so a traced wrapper installed
    there is used."""

    def __init__(self):
        self.results = None

    def __call__(self, specs, *args, **kwargs):
        import rdn.bench

        self.results = rdn.bench.run_grid(specs, *args, **kwargs)
        return self.results


def check_run(workload, r) -> list[str]:
    """Invariants of one run's result; empty when it passes."""
    from rdn.solver import Status

    s = r.spec
    where = f"{s.family.value} ratio={s.ratio!r} n={s.dim} {s.method.value} seed={s.seed}"
    issues = []
    statuses = {st.value for st in Status}
    if r.status not in statuses:
        issues.append(f"{where}: unknown status {r.status!r}")
    allowed = {"converged"}
    if s.method.value == "full" and workload.wide_start:
        allowed.add("step_overflow")
    if r.status not in allowed:
        issues.append(f"{where}: status {r.status}, expected one of {sorted(allowed)}")
    if r.status == "converged" and not (r.final_grad_norm <= s.grad_tol and math.isfinite(r.final_dist_to_star)):
        issues.append(f"{where}: converged with grad {r.final_grad_norm!r}, dist {r.final_dist_to_star!r}")
    if r.he != r.nit or len(r.trace.records) != r.nit:
        issues.append(f"{where}: he={r.he}, records={len(r.trace.records)}, nit={r.nit}")
    backtracks = sum(rec.backtracks for rec in r.trace.records)
    if s.method.value == "full":
        low = high = r.nit
    else:
        high = 2 * r.nit + backtracks
        low = 2 * r.nit if workload.wide_start else high
    if not low <= r.ge <= high:
        issues.append(f"{where}: ge={r.ge}, expected {low if low == high else f'{low}..{high}'}")
    return issues


def unevaluated_trials(r) -> int:
    """Line-search trials of a damped run rejected without a merit
    evaluation: 2 NIT + backtracks - GE."""
    if r.spec.method.value == "full":
        return 0
    return 2 * r.nit + sum(rec.backtracks for rec in r.trace.records) - r.ge


def cell(r) -> list:
    s = r.spec
    return [s.family.value, s.ratio, s.dim, s.method.value, s.seed, r.status, r.nit, r.he, r.ge]


def check_call(workload, inv, outcome, printed: str, results, csv_path: str) -> tuple[list, list[str], int]:
    """Cells, issues and failed-run count of one ``cli.main`` call."""
    if isinstance(outcome, BaseException):
        return [], [f"{' '.join(inv.argv)}: raised {outcome!r}"], inv.runs
    if results is None or len(results) != inv.runs:
        got = None if results is None else len(results)
        return [], [f"{' '.join(inv.argv)}: {got} results, expected {inv.runs}"], inv.runs
    cells = [cell(r) + [unevaluated_trials(r)] for r in results]
    issues = []
    failed = set()
    for i, r in enumerate(results):
        run_issues = check_run(workload, r)
        if run_issues:
            issues += run_issues
            failed.add(i)
    with open(csv_path, newline="", encoding="ascii") as handle:
        rows = list(csv.reader(handle))[1:]
    for i, c in enumerate(cells):
        row = rows[i] if i < len(rows) else None
        parsed = None if row is None else [row[0], float(row[1]), int(row[2]), row[3], int(row[4]), row[6], int(row[7]), int(row[8]), int(row[9])]
        if parsed != c[:9]:
            issues.append(f"CSV row {i} of {' '.join(inv.argv)} is {row}, expected {c}")
            failed.add(i)
    all_converged = all(r.status == "converged" for r in results)
    lines = printed.count("\n")
    if outcome != (0 if all_converged else 1) or lines != inv.runs or len(rows) != inv.runs:
        issues.append(f"{' '.join(inv.argv)}: exit code {outcome}, {lines} summary lines, {len(rows)} CSV rows")
        failed = set(range(inv.runs))
    return cells, issues, len(failed)


def run_pass(workload, calls, tap: ResultTap, out_dir: str, tracer=None) -> dict:
    """One timed pass over the workload's invocations, then its checks."""
    import rdn.cli

    outcomes, call_wall, call_cpu = [], [], []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for inv in calls:
            tap.results = None
            printed = io.StringIO()
            c = time.process_time()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(printed):
                    outcome = rdn.cli.main(list(inv.argv))
            except Exception as exc:  # a run that raises is a failed run
                traceback.print_exc()
                outcome = exc
            call_wall.append(time.perf_counter() - t)
            call_cpu.append(time.process_time() - c)
            outcomes.append((outcome, printed.getvalue(), tap.results))
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    record = {
        "traced": tracer is not None, "wall_s": wall, "call_wall_s": call_wall, "call_cpu_s": call_cpu,
        "runs": 0, "failed": 0, "issues": [], "cells": [],
    }
    for i, (inv, (outcome, printed, results)) in enumerate(zip(calls, outcomes)):
        cells, issues, failed = check_call(workload, inv, outcome, printed, results, f"{out_dir}/call{i}.csv")
        record["runs"] += inv.runs
        record["failed"] += failed
        record["issues"] += issues
        record["cells"] += cells
    record["nit_total"] = sum(c[6] for c in record["cells"])
    record["ge_total"] = sum(c[8] for c in record["cells"])
    record["damped_nit"] = sum(c[6] for c in record["cells"] if c[3] == "damped")
    record["unevaluated_trials"] = sum(c[9] for c in record["cells"])
    return record


def cpu_ticks() -> tuple[int, int] | None:
    """Steal and total ticks of the machine's CPUs so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks[:8])


def machine(seed: int, trace: int, ticks: tuple | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "RDN_THREADS": os.environ.get("RDN_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "trace": bool(trace),
        # Share of the machine's CPU time that the hypervisor gave to other
        # guests while the passes ran.
        "steal_frac": None if ticks is None else ticks[0] / max(1, ticks[1]),
    }


def measure(workload, seed: int, seconds: float, trace: int, out_root: str) -> dict:
    import rdn.cli

    tap = ResultTap()
    rdn.cli.run_grid = tap
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    passes, spans = [], []
    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
        calls = workload.invocations(seed, out_dir)
        # The first call in a process runs slower (the heap grows to its
        # working size), so make it once untimed; every pass repeats it.
        run_pass(workload, calls[:1], tap, out_dir)
        start = time.perf_counter()
        traced = False
        while True:
            record = run_pass(workload, calls, tap, out_dir, tracer if traced else None)
            if traced:
                spans.append(tracer.take())
            passes.append(record)
            untraced = sum(not p["traced"] for p in passes)
            done = (untraced >= 1 and len(spans) >= 1) if trace else untraced >= MIN_PASSES
            if done and time.perf_counter() - start + record["wall_s"] > seconds:
                break
            traced = bool(trace) and not traced
    return {"passes": passes, "spans": spans, "tracer": tracer}


def per_call_median(passes: list[dict], key: str) -> float:
    """Time of one pass, as the sum over its calls of each call's median
    across ``passes``; a burst of load from outside that slows one pass
    then moves the figure less than a median of whole passes would."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def summarize(workload, result: dict, trace: int, out_root: str) -> dict:
    """Failures, cells, per-pass records and the run's metrics."""
    passes = result["passes"]
    first = passes[0]
    issues = [i for p in passes for i in p["issues"]]
    for p in passes[1:]:
        if p["cells"] != first["cells"]:
            issues.append(f"a {'traced' if p['traced'] else 'untraced'} pass gave other cells than the first pass")
    untraced = [p for p in passes if not p["traced"]]
    wall = per_call_median(untraced, "call_wall_s")
    out = {
        "attempted": sum(p["runs"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "issues": issues,
        "cells": first["cells"],
    }
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": per_call_median(untraced, "call_cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
            "nit_total": {"value": first["nit_total"], "unit": "count"},
            "ge_total": {"value": first["ge_total"], "unit": "count"},
        }
    else:
        out["metrics"], layer_issues = layer_metrics(workload, result, wall, out_root)
        out["issues"] += layer_issues
    out["passes"] = [{k: v for k, v in p.items() if k not in ("cells", "issues")} for p in passes]
    return out


def layer_metrics(workload, result: dict, untraced_wall: float, out_root: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and the issues found in
    matching their spans to the runs' counters; writes the spans out."""
    import numpy as np
    from spans import PER_LAYER, combine, pass_metrics

    tracer = result["tracer"]
    traced = [p for p in result["passes"] if p["traced"]]
    per_pass, samples, issues = [], [], []
    workers = int(os.environ.get("RDN_THREADS", "1"))
    for p, s in zip(traced, result["spans"]):
        scalars, pooled = pass_metrics(
            s, tracer.names, tracer.error_types,
            nit_total=p["nit_total"], accepted_trials=p["damped_nit"], workers=workers,
        )
        if scalars["solver.trials_overflowed"] != p["unevaluated_trials"]:
            issues.append(
                f"a traced pass saw {scalars['solver.trials_overflowed']:g} trials raise in the line search, "
                f"but GE leaves {p['unevaluated_trials']} trials unevaluated"
            )
        p["self_sum_s"] = scalars["self_sum_s"]
        p["cli.main.s"] = scalars["cli.main.s"]
        per_pass.append(scalars)
        samples.append(pooled)
    layers = combine(per_pass, samples)
    layers["trace_overhead_frac"] = per_call_median(traced, "call_wall_s") / untraced_wall - 1.0
    # Write the spans out once timing is over: every traced pass, tagged.
    arrays = {k: np.concatenate([getattr(s, k) for s in result["spans"]]) for k in ("ids", "parents", "names", "starts", "ends", "errors")}
    arrays["pass_index"] = np.concatenate([np.full(len(s.ids), i) for i, s in enumerate(result["spans"])])
    np.savez_compressed(
        os.path.join(out_root, f"{workload.name}.spans.npz"),
        span_names=np.array(tracer.names), error_types=np.array(tracer.error_types), **arrays,
    )
    return {m.name: {"value": layers[m.name], "unit": m.unit} for m in PER_LAYER}, issues


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit once ready; for timing set-up")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    ready_at = set_up(workload.warmup_dim)
    out = {"ready_at": ready_at}
    if not args.setup_only:
        before = cpu_ticks()
        result = measure(workload, args.seed, args.seconds, args.trace, OUT_ROOT)
        after = cpu_ticks()
        ticks = None if before is None or after is None else (after[0] - before[0], after[1] - before[1])
        out.update(summarize(workload, result, args.trace, OUT_ROOT))
        out["machine"] = machine(args.seed, args.trace, ticks)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
