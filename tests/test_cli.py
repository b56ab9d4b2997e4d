import pytest

from rdn.bench import RESULT_HEADER, TRACE_HEADER
from rdn.cli import main
from rdn.solver import Status


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


def test_non_integer_thread_count_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("RDN_THREADS", "x")
    with pytest.raises(SystemExit) as exc:
        main(SINGLE_RUN)
    assert exc.value.code == 2
    assert "RDN_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_count_below_one_is_a_usage_error(monkeypatch, capsys, threads):
    monkeypatch.setenv("RDN_THREADS", threads)
    with pytest.raises(SystemExit) as exc:
        main(SINGLE_RUN)
    assert exc.value.code == 2
    assert "RDN_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        ([*SINGLE_RUN, "--seed", "-1"], "seed"),
        (["--table1", "--max-dim", "0", "--quiet"], "max_dim"),
        ([*SINGLE_RUN, "--out", "{missing}/r.csv"], "--out"),
        ([*SINGLE_RUN, "--trace", "{missing}/t.csv"], "--trace"),
        ([*SINGLE_RUN, "--out", "{here}"], "directory"),
        ([*SINGLE_RUN, "--max-dim", "5"], "--max-dim"),
    ],
    ids=["seed", "max-dim", "out", "trace", "out-is-a-directory", "max-dim-without-table1"],
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


def test_overflowing_merit_gradient_is_a_status_row(tmp_path, capsys):
    # b^2 overflows in the merit gradient once the run falls back to it.
    out = tmp_path / "r.csv"
    code = main(["--family", "f2", "--ratio", "1e200", "--dim", "3", "--method", "damped", "--out", str(out)])
    assert code == 1
    header, row = out.read_text().splitlines()
    status = row.split(",")[header.split(",").index("status")]
    assert status in (Status.LINE_SEARCH_FAILED.value, Status.STEP_OVERFLOW.value)
    captured = capsys.readouterr()
    assert status in captured.out and captured.err == ""
