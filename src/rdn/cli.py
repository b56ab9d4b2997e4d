"""Benchmark command line.

Single run:

    rdn-bench --family f1 --ratio 0.1 --dim 100 --method damped --seed 7 \
              --out results.csv --trace trace.csv

Full grid (both families, ratios 0.1/1.0/1.5 and 0.001/0.002/0.01, dims
1/100/1000, both methods):

    rdn-bench --table1 --max-dim 100 --seed 42 --out table1.csv

A grid runs its cells one after another in the calling thread.  Exit code is
0 iff every requested run converged; invalid arguments (and an output path
that is empty, is a directory or ends in a separator, lies in a missing
directory or names the same file as the other output) exit with 2 and a
usage message before any run, as does an output that cannot be written after
the runs (a full disk).
The CSV keeps its wall-clock column at 0.0 unless --wall-times is given, so
identical invocations produce byte-identical files; measured times are always
printed in the per-run summary.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import ExperimentSpec, emit_csv, emit_trace, run_grid, table1_grid
from .objectives import Family
from .solver import Method, SolverConfig, Status


def _parse_range(text: str) -> tuple[float, float]:
    try:
        low, high = (float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LOW,HIGH (e.g. 1,10), got {text!r}"
        ) from None
    return low, high


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdn-bench",
        description="Seeded damped/full Newton benchmarks on the SPD cone.",
    )
    parser.add_argument("--family", choices=[f.value for f in Family], help="objective family")
    parser.add_argument("--ratio", type=float, help="coefficient ratio b/a")
    parser.add_argument("--dim", type=int, help="matrix dimension n")
    parser.add_argument("--method", choices=[m.value for m in Method], help="solver variant")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    parser.add_argument("--sigma", type=float, default=SolverConfig.sigma, help="line-search slope factor")
    parser.add_argument("--tol", type=float, default=SolverConfig.grad_tol, help="gradient-norm stop tolerance")
    parser.add_argument("--max-iters", type=int, default=SolverConfig.max_iters, help="iteration cap")
    low, high = ExperimentSpec.init_eig_range
    parser.add_argument(
        "--init-range",
        type=_parse_range,
        default=ExperimentSpec.init_eig_range,
        metavar="LOW,HIGH",
        help=f"spectrum range of the random start (default {low:g},{high:g})",
    )
    parser.add_argument("--out", metavar="FILE", help="write results CSV here")
    parser.add_argument("--trace", metavar="FILE", help="write the per-iteration trace CSV here (single run only)")
    parser.add_argument(
        "--table1",
        action="store_true",
        help="run the built-in 18-cell benchmark grid with both methods",
    )
    parser.add_argument("--max-dim", type=int, help="drop grid cells above this dimension (--table1 only)")
    parser.add_argument(
        "--wall-times",
        action="store_true",
        help="write measured seconds into the CSV (breaks byte determinism)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the per-run summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.table1 and args.trace:
        parser.error("--trace requires a single run, not --table1")
    if not args.table1:
        if args.max_dim is not None:
            parser.error("--max-dim trims the --table1 grid, not a single run")
        missing = [
            name
            for name, value in (
                ("--family", args.family),
                ("--ratio", args.ratio),
                ("--dim", args.dim),
                ("--method", args.method),
            )
            if value is None
        ]
        if missing:
            parser.error(f"{' '.join(missing)} required (or use --table1)")
    settings = dict(
        sigma=args.sigma, grad_tol=args.tol, max_iters=args.max_iters, init_eig_range=args.init_range
    )
    # Specs validate their values; a bad one is a usage error, not a failed run.
    try:
        if args.table1:
            specs = table1_grid(args.seed, max_dim=args.max_dim, **settings)
        else:
            family, method = Family(args.family), Method(args.method)
            specs = [ExperimentSpec(family, args.ratio, args.dim, method, args.seed, **settings)]
    except ValueError as err:
        parser.error(str(err))
    # Fail before the runs, not after them, when an output cannot be written.
    for flag, path in (("--out", args.out), ("--trace", args.trace)):
        if path is None:
            continue
        if not path:
            parser.error(f"{flag}: the path is empty")
        # abspath drops a trailing separator, so check for it first.
        if path.endswith(os.sep) or (os.altsep and path.endswith(os.altsep)) or os.path.isdir(path):
            parser.error(f"{flag}: cannot write {path}: it names a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            parser.error(f"{flag}: cannot write {path}: no such directory")
    if args.out and args.trace and os.path.realpath(args.out) == os.path.realpath(args.trace):
        parser.error(f"--out and --trace name the same file: {args.trace}")

    results = run_grid(specs)

    if not args.quiet:
        for r in results:
            s = r.spec
            print(
                f"{s.family.value} ratio={s.ratio:g} n={s.dim} {s.method.value:6s} "
                f"seed={s.seed}: {r.status:18s} nit={r.nit:4d} he={r.he:4d} ge={r.ge:5d} "
                f"time={r.time_s:.3f}s grad={r.final_grad_norm:.3e} dist={r.final_dist_to_star:.3e}"
            )

    # Exit 1 means a run did not converge, so a failed write exits 2.
    try:
        if args.out:
            emit_csv(results, args.out, wall_times=args.wall_times)
        if args.trace:
            emit_trace(results[0].trace, args.trace)
    except OSError as err:
        parser.error(str(err))

    return 0 if all(r.status == Status.CONVERGED.value for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
