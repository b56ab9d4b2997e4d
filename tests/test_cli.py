import argparse
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import rdn
from rdn.bench import RESULT_HEADER, TRACE_HEADER, ExperimentSpec
from rdn.cli import build_parser, main
from rdn.objectives import Family
from rdn.solver import Method, SolverConfig


def test_single_run_converges(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(
        [
            "--family", "f1", "--ratio", "0.1", "--dim", "10", "--method", "damped",
            "--seed", "7", "--init-range", "9,10", "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == RESULT_HEADER
    assert "converged" in capsys.readouterr().out


def test_single_run_trace(tmp_path):
    trace = tmp_path / "t.csv"
    code = main(
        [
            "--family", "f2", "--ratio", "0.01", "--dim", "5", "--method", "full",
            "--seed", "3", "--init-range", "9,10", "--trace", str(trace), "--quiet",
        ]
    )
    assert code == 0
    assert trace.read_text().splitlines()[0] == TRACE_HEADER


def test_nonconverged_run_exits_nonzero(tmp_path):
    code = main(
        [
            "--family", "f2", "--ratio", "0.001", "--dim", "1", "--method", "full",
            "--seed", "0", "--init-range", "1,1.01", "--max-iters", "50", "--quiet",
        ]
    )
    assert code == 1


def test_missing_arguments_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--family", "f1"])
    assert exc.value.code == 2
    assert "--ratio" in capsys.readouterr().err


def test_trace_with_table1_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--table1", "--trace", "t.csv"])
    assert "single run" in capsys.readouterr().err


def test_bad_init_range(capsys):
    with pytest.raises(SystemExit):
        main(["--family", "f1", "--ratio", "1", "--dim", "2", "--method", "full",
              "--init-range", "banana"])
    assert "LOW,HIGH" in capsys.readouterr().err


def test_table1_capped_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["--table1", "--max-dim", "1", "--seed", "5", "--out", str(out), "--quiet"])
    lines = out.read_text().splitlines()
    assert lines[0] == RESULT_HEADER
    assert len(lines) == 13  # 6 cells at dim 1, both methods
    assert code in (0, 1)


def test_table1_deterministic_in_process(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["--table1", "--max-dim", "10", "--seed", "9", "--out", str(a), "--quiet"])
    main(["--table1", "--max-dim", "10", "--seed", "9", "--out", str(b), "--quiet"])
    assert a.read_bytes() == b.read_bytes()


SINGLE_RUN = ["--family", "f1", "--ratio", "1", "--dim", "2", "--method", "damped", "--quiet"]


def _replace(argv, flag, value):
    if flag in argv:
        argv = list(argv)
        argv[argv.index(flag) + 1] = value
        return argv
    return [*argv, flag, value]


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--ratio", "-1", "ratio"),
        ("--ratio", "nan", "ratio"),
        ("--ratio", "inf", "ratio"),
        ("--dim", "0", "dim"),
        ("--sigma", "0.7", "sigma"),
        ("--max-iters", "0", "max_iters"),
        ("--init-range", "10,1", "init range"),
        ("--init-range", "1,inf", "init range"),
        ("--tol", "inf", "grad_tol"),
    ],
)
def test_invalid_value_is_a_usage_error(flag, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(_replace(SINGLE_RUN, flag, value))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


def test_invalid_value_in_grid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--table1", "--max-dim", "1", "--sigma", "0.7", "--quiet"])
    assert exc.value.code == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        ([*SINGLE_RUN, "--seed", "-1"], "seed"),
        (["--table1", "--max-dim", "0", "--quiet"], "max_dim"),
        ([*SINGLE_RUN, "--out", "{missing}/r.csv"], "--out"),
        ([*SINGLE_RUN, "--trace", "{missing}/t.csv"], "--trace"),
        ([*SINGLE_RUN, "--out", "{here}"], "directory"),
        ([*SINGLE_RUN, "--max-dim", "5"], "--max-dim"),
        (_replace(SINGLE_RUN, "--dim", str(10**20)), "physical memory"),
        ([*SINGLE_RUN, "--out", ""], "--out: the path is empty"),
        ([*SINGLE_RUN, "--trace", ""], "--trace: the path is empty"),
        ([*SINGLE_RUN, "--out", "{missing}" + os.sep], "names a directory"),
        ([*SINGLE_RUN, "--trace", "{here}/t.csv" + os.sep], "names a directory"),
        (["--table1", "--max-dim", "1", "--family", "f2", "--quiet"], "drop --family"),
        (["--table1", "--max-dim", "1", "--ratio", "3", "--quiet"], "drop --ratio"),
        (["--table1", "--max-dim", "1", "--dim", "7", "--quiet"], "drop --dim"),
        (["--table1", "--max-dim", "1", "--method", "full", "--quiet"], "drop --method"),
    ],
    ids=[
        "seed",
        "max-dim",
        "out",
        "trace",
        "out-is-a-directory",
        "max-dim-without-table1",
        "dim-beyond-memory",
        "out-empty",
        "trace-empty",
        "out-ends-in-a-separator",
        "trace-ends-in-a-separator",
        "family-with-table1",
        "ratio-with-table1",
        "dim-with-table1",
        "method-with-table1",
    ],
)
def test_bad_input_fails_before_any_run(argv, message, tmp_path, monkeypatch, capsys):
    def no_runs(*args, **kwargs):
        raise AssertionError("ran the grid")

    monkeypatch.setattr("rdn.cli.run_grid", no_runs)
    with pytest.raises(SystemExit) as exc:
        main([a.format(missing=tmp_path / "missing", here=tmp_path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


@pytest.mark.parametrize("trace_name", ["a.csv", "link.csv"])
def test_out_and_trace_naming_one_file_is_a_usage_error(trace_name, tmp_path, monkeypatch, capsys):
    # The trace would overwrite the results; link.csv is a symlink to a.csv.
    def no_runs(*args, **kwargs):
        raise AssertionError("ran the grid")

    monkeypatch.setattr("rdn.cli.run_grid", no_runs)
    (tmp_path / "link.csv").symlink_to(tmp_path / "a.csv")
    with pytest.raises(SystemExit) as exc:
        main([*SINGLE_RUN, "--out", str(tmp_path / "a.csv"), "--trace", str(tmp_path / trace_name)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "same file" in err
    assert not (tmp_path / "a.csv").exists()


def test_dim_is_bounded_by_physical_memory(monkeypatch, capsys):
    # A run forms no n x n array, but the start's basis and matrix, which a
    # caller may read, are n x n, so the bound is an n x n float64 matrix;
    # here memory holds exactly the 50 x 50 one.  Nothing is run.
    monkeypatch.setattr("rdn.bench._physical_memory", lambda: 8 * 50 * 50)
    monkeypatch.setattr("rdn.cli.run_grid", lambda *args, **kwargs: pytest.fail("ran the grid"))
    assert ExperimentSpec(Family.F1, 1.0, 50, Method.DAMPED, 0).dim == 50
    with pytest.raises(SystemExit) as exc:
        main(_replace(SINGLE_RUN, "--dim", "51"))
    assert exc.value.code == 2
    assert "physical memory" in capsys.readouterr().err


def _row_of_a_failed_run(tmp_path, *argv):
    """The CSV row, as {column: value}, of the run of ``argv``, which exits 1."""
    out = tmp_path / "r.csv"
    assert main([*argv, "--out", str(out)]) == 1
    header, row = out.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_overflowing_merit_gradient_is_a_status_row(tmp_path, capsys):
    # The field a lambda - b lambda^2 drops its lambda^2 term once that is
    # subnormal, and the run ends in a failure status (a float-range gap of
    # tests/test_exact_reference.py), reported in the CSV and on stdout.
    fields = _row_of_a_failed_run(tmp_path, "--family", "f2", "--ratio", "1e200", "--dim", "3", "--method", "damped")
    captured = capsys.readouterr()
    assert fields["status"] in captured.out and captured.err == ""


def test_distance_from_a_subnormal_minimizer_is_finite(tmp_path):
    # lambda / c overflows for c = 1e-320; distance reads log lambda - log c.
    fields = _row_of_a_failed_run(tmp_path, "--family", "f1", "--ratio", "1e-320", "--dim", "3", "--method", "damped", "--quiet")
    assert float(fields["final_dist"]) == pytest.approx(1278.2162370378155, rel=1e-14)


def test_f2_below_a_ratio_of_one_over_the_float_maximum_overflows_at_once(tmp_path):
    # a/b overflows to inf, so neither the first Newton direction nor the
    # minimizer can be formed; at ratio 5.6e-309 a/b is finite.
    fields = _row_of_a_failed_run(tmp_path, "--family", "f2", "--ratio", "5.5e-309", "--dim", "2", "--method", "damped", "--quiet")
    assert math.isnan(float(fields["final_dist"]))


def _fail_to_write(path, lines):
    raise OSError(f"cannot write {path}: [Errno 28] No space left on device")


@pytest.mark.parametrize("flag", ["--out", "--trace"])
@pytest.mark.parametrize("how", ["dev-full", "patched"])
def test_output_that_cannot_be_written_after_the_runs_is_exit_2(flag, how, tmp_path, monkeypatch, capsys):
    path = "/dev/full"
    if how == "patched":
        monkeypatch.setattr("rdn.bench._write_lines", _fail_to_write)
        path = str(tmp_path / "r.csv")
    elif not os.path.exists(path):
        pytest.skip("no /dev/full on this platform")
    with pytest.raises(SystemExit) as exc:
        main(["--family", "f1", "--ratio", "0.1", "--dim", "3", "--method", "damped", flag, path, "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"rdn-bench: error: cannot write {path}" in err and "Traceback" not in err


def test_parser_defaults_are_the_dataclasses_defaults():
    args = build_parser().parse_args([])
    config = SolverConfig()
    assert (args.sigma, args.tol, args.max_iters) == (config.sigma, config.grad_tol, config.max_iters)
    assert args.init_range == ExperimentSpec(Family.F1, 1.0, 1, Method.DAMPED, 0).init_eig_range


@pytest.fixture
def parsers_built(monkeypatch):
    """The ArgumentParsers constructed while the test runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_calls_share_one_parser_and_leave_it_unchanged(tmp_path, parsers_built):
    # The parser is built at import; a usage error or a grid with its own
    # --seed must not change what the next call parses.
    default_run = [*SINGLE_RUN, "--out"]
    first, third = tmp_path / "first.csv", tmp_path / "third.csv"
    assert main([*default_run, str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main([*SINGLE_RUN, "--sigma", "0.7"])
    assert exc.value.code == 2
    assert main(["--table1", "--max-dim", "1", "--seed", "5", "--out", str(tmp_path / "grid.csv"), "--quiet"]) in (0, 1)
    assert main([*default_run, str(third)]) == 0
    assert parsers_built == []
    assert third.read_bytes() == first.read_bytes()


def test_concurrent_calls_write_the_csvs_of_sequential_ones(tmp_path, parsers_built):
    def argv(i, name):
        return ["--table1", "--max-dim", "100", "--seed", str(i), "--out", str(tmp_path / name), "--quiet"]

    seeds = range(4)
    for i in seeds:
        main(argv(i, f"seq{i}.csv"))
    start, errors = threading.Barrier(len(seeds)), []

    def call(i):
        try:
            start.wait(timeout=60)
            main(argv(i, f"par{i}.csv"))
        except BaseException as err:  # SystemExit too: report it, do not lose it
            errors.append(err)

    threads = [threading.Thread(target=call, args=(i,)) for i in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert parsers_built == []
    for i in seeds:
        assert (tmp_path / f"par{i}.csv").read_bytes() == (tmp_path / f"seq{i}.csv").read_bytes()


def test_help_lists_every_flag_of_the_readme():
    # argparse fills the %-placeholders of help strings only when it formats
    # help, so building the parser at import does not check them.
    root = Path(rdn.__file__).resolve().parents[2]
    flags_line = re.search(r"^Flags: `(.*?)`", (root / "README.md").read_text(), re.M | re.S).group(1)
    readme_flags = set(re.findall(r"--[a-z0-9-]+", flags_line))
    src = str(Path(rdn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "rdn.cli", "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: rdn-bench")
    assert set(re.findall(r"--[a-z0-9-]+", proc.stdout)) == readme_flags | {"--help"}


def test_paper_grid_is_byte_identical_across_blas_threads(tmp_path):
    # The wide-start grid reaches n = 1000, where a dense factorization
    # rounds differently on one and on two OpenBLAS threads.  Its CSV must
    # not depend on that: no run there takes a dense step.
    src = str(Path(rdn.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}.csv"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        )
        argv = ["--table1", "--seed", "42", "--init-range", "1,10", "--out", str(out), "--quiet"]
        proc = subprocess.run(
            [sys.executable, "-m", "rdn.cli", *argv], env=env, capture_output=True, text=True, timeout=600
        )
        assert proc.returncode in (0, 1), proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
