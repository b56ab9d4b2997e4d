"""Seeded benchmark of the ``rdn-bench`` command, end to end and per layer.

    python3 perfbench/run.py --workload table1-n100 --seed 42 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run.  A few summary lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every check passed.  Details
(machine block, per-pass records, failures) go to ``.bench_out/``.

``--write-reference`` re-records ``reference.json``: status, NIT, HE and GE
of every cell of every workload at the default seed, which later runs at
that seed must reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKER = os.path.join(HERE, "worker.py")

# Whole-run limit: the measured passes, the set-up samples and the checks.
TIME_LIMIT_S = 170.0
# Fresh processes timed from start to ready-to-solve; the last one goes on
# to run the passes.
SETUP_SAMPLES = 5


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(workload, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py once; return its set-up time and its JSON output."""
    env = dict(os.environ, **workload.env)
    cmd = [sys.executable, WORKER, "--workload", workload.name, *extra]
    started = _now()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"worker for {workload.name} ran past the time limit") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload.name} exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    return out["ready_at"] - started, out


def _reference_issues(workload_name: str, cells: list) -> list[str]:
    with open(REFERENCE, encoding="utf-8") as handle:
        expected = json.load(handle)[workload_name]
    if len(cells) != len(expected):
        return [f"{len(cells)} cells, reference has {len(expected)}"]
    return [f"cell {got[:5]}: got {got[5:9]}, reference {want[5:]}" for got, want in zip(cells, expected) if got[:9] != want]


def write_reference() -> int:
    deadline = _now() + TIME_LIMIT_S
    cells = {}
    for name, workload in WORKLOADS.items():
        _, out = _worker(workload, ["--seed", str(DEFAULT_SEED), "--seconds", "0"], deadline)
        if out["failed"]:
            print("\n".join(out["issues"]), file=sys.stderr)
            return 1
        cells[name] = [c[:9] for c in out["cells"]]
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(c)}" for c in rows) + "\n  ]"
            for name, rows in cells.items()
        ) + "\n}\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the rdn-bench command.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="time budget of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="re-record reference.json and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rdn", "__init__.py")):
        print(f"no rdn package under {ROOT}/src: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    workload = WORKLOADS[args.workload]
    deadline = _now() + TIME_LIMIT_S
    extra = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup = [_worker(workload, ["--seed", str(args.seed), "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        main_setup, out = _worker(workload, extra, deadline)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 1
    setup.append(main_setup)

    issues = list(out["issues"])
    failed = out["failed"]
    if args.seed == DEFAULT_SEED:
        mismatches = _reference_issues(workload.name, out["cells"])
        issues += mismatches
        failed = min(out["attempted"], failed + len(mismatches) * len(out["passes"]))
    metrics = out["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    correct = not issues and failed == 0
    fail_frac = failed / out["attempted"]

    details = {
        "workload": workload.name, "machine": out["machine"], "correct": correct,
        "attempted": out["attempted"], "failed": failed, "fail_frac": fail_frac,
        "setup_samples_s": setup, "metrics": metrics, "passes": out["passes"], "issues": issues,
    }
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"{workload.name}.trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)

    untraced = [p for p in out["passes"] if not p["traced"]]
    print(f"workload {workload.name}: {len(untraced)} untraced and {len(out['passes']) - len(untraced)} traced passes")
    print("machine " + json.dumps(out["machine"]))
    for issue in issues[:20]:
        print("FAILED " + issue)
    print(f"  {'fail_frac':34s} {fail_frac:<14.6g} ratio  ({failed} of {out['attempted']} runs)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
