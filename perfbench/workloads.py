"""The benchmark's workloads: which ``rdn-bench`` invocations make one pass.

Every workload drives ``rdn.cli.main``, the command users run.  Thread counts
are pinned per workload so that grid workers times BLAS threads equals the
two CPUs the baseline was measured on; they are set in the environment of
the worker process, before numpy loads OpenBLAS.

The parent process (``run.py``) only reads names and environments from here;
building the invocations needs ``rdn`` and happens in the worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 42

# Grids per pass of wide-start-threaded.  Its iteration count depends on
# the start far more than the other workloads' does (one grid's NIT ranges
# over 200-700 across seeds), so a pass sums 32 grids to keep NIT, GE and
# wall time within their bounds from one seed to the next.
WIDE_GRIDS = 32
# Rows of the unfiltered table1 grid: grid k of a wide pass uses the seeds
# [s + ROWS * k, s + ROWS * (k + 1)) where s = ROWS * WIDE_GRIDS * seed, so
# distinct benchmark seeds never share a start.
TABLE1_ROWS = 36


@dataclass(frozen=True)
class Invocation:
    """One call of ``rdn.cli.main`` and the number of solver runs it makes."""

    argv: tuple[str, ...]
    runs: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    env: dict[str, str]
    # Dimension of the BLAS warm-up that ends set-up: the largest matrix the
    # workload factorizes, so first-touch costs are paid before timing.
    warmup_dim: int
    # Starts spread over 1,10: full-step runs may end in step_overflow (the
    # paper's divergence mode), and line-search trials may overflow.  The
    # solver rejects such a trial without a merit evaluation, so a damped
    # run's GE falls short of 2 NIT + backtracks by the number of them.
    wide_start: bool
    plan: Callable[[int], list[Invocation]]

    def invocations(self, seed: int, out_dir: str) -> list[Invocation]:
        """The pass for ``seed``, each call writing its CSV into ``out_dir``."""
        calls = []
        for i, inv in enumerate(self.plan(seed)):
            argv = inv.argv + ("--out", f"{out_dir}/call{i}.csv")
            calls.append(Invocation(argv=argv, runs=inv.runs))
        return calls


def _table1(seed: int, init_range: str) -> Invocation:
    from rdn.bench import table1_grid

    low, high = (float(x) for x in init_range.split(","))
    runs = len(table1_grid(seed, max_dim=100, init_eig_range=(low, high)))
    argv = ("--table1", "--max-dim", "100", "--init-range", init_range, "--seed", str(seed))
    return Invocation(argv=argv, runs=runs)


def _plan_table1(seed: int) -> list[Invocation]:
    return [_table1(seed, "9,10")]


# The two cheapest damped n = 1000 cells, one per family (about 4 s each on
# two OpenBLAS threads); all six take about 35 s, too long for one run.
DAMPED_CELLS = (("f1", 1.0), ("f2", 0.01))


def _plan_damped(seed: int) -> list[Invocation]:
    from rdn.bench import table1_grid
    from rdn.solver import Method

    calls = []
    for spec in table1_grid(seed, init_eig_range=(9.0, 10.0)):
        if spec.dim == 1000 and spec.method is Method.DAMPED and (spec.family.value, spec.ratio) in DAMPED_CELLS:
            argv = (
                "--family", spec.family.value, "--ratio", repr(spec.ratio), "--dim", "1000",
                "--method", "damped", "--seed", str(spec.seed), "--init-range", "9,10",
            )
            calls.append(Invocation(argv=argv, runs=1))
    return calls


def _plan_wide(seed: int) -> list[Invocation]:
    base = TABLE1_ROWS * WIDE_GRIDS * seed
    return [_table1(base + TABLE1_ROWS * k, "1,10") for k in range(WIDE_GRIDS)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1-n100",
            why="the paper's table1 grid to n = 100, start range 9,10, single-threaded: per-iteration overhead",
            env={"RDN_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
            warmup_dim=100,
            wide_start=False,
            plan=_plan_table1,
        ),
        Workload(
            name="damped-n1000",
            why="damped n = 1000 cells of both families on two BLAS threads: bound by the O(n^3) factorizations",
            env={"RDN_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"},
            warmup_dim=1000,
            wide_start=False,
            plan=_plan_damped,
        ),
        Workload(
            name="wide-start-threaded",
            why="start range 1,10 on a two-worker pool: step_overflow exits, more backtracking, pool fan-out",
            env={"RDN_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"},
            warmup_dim=100,
            wide_start=True,
            plan=_plan_wide,
        ),
    )
}
