import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ntangle
from ntangle import bench, cli, measures, qsv, state, suites
from ntangle.bench import CSV_HEADER
from ntangle.cli import main
from ntangle.errors import DomainError
from ntangle.state import named_state, write_qsv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_of(out):
    for line in out.splitlines():
        if line.startswith("value "):
            return float(line.split()[1])
    raise AssertionError(f"no value line in output:\n{out}")


def test_compute_expr_tau(capsys):
    code, out, _ = run_cli(capsys, "compute", "--expr", "ghz:3@1,2,3 x bell@4,5",
                           "--measure", "tau")
    assert code == 0
    assert abs(value_of(out) - 1.0) < 1e-9
    assert "measure tau_odd" in out


def test_compute_expr_r_tangle(capsys):
    code, out, _ = run_cli(capsys, "compute", "--expr", "bell@1,2 x ghz:3@3,4,5",
                           "--measure", "r")
    assert code == 0
    assert abs(value_of(out) - 0.6) < 1e-9
    assert "residuals" in out
    code, out, _ = run_cli(capsys, "compute", "--expr", "bell@1,2 x ghz:3@3,4,5",
                           "--measure", "r", "--format", "json")
    assert code == 0
    residuals = json.loads(out)["residuals"]
    assert len(residuals) == 5 and np.allclose(residuals, [0, 0, 1, 1, 1], atol=1e-9)


def test_compute_wong_up_to_the_fixed_cap(capsys):
    code, out, _ = run_cli(capsys, "compute", "--expr", "ghz:6@1,2,3,4,5,6", "--measure", "wong")
    assert code == 0
    assert abs(value_of(out) - 1.0) < 1e-9
    code, out, err = run_cli(capsys, "compute", "--expr", "ghz:12@" + ",".join(map(str, range(1, 13))),
                             "--measure", "wong")
    assert code == 3 and out == ""
    assert "cap of 10" in err
    with pytest.raises(SystemExit) as exc:  # the cap is not an option
        main(["compute", "--expr", "ghz:4@1,2,3,4", "--measure", "wong", "--oracle-cap", "6"])
    assert exc.value.code == 2


def test_compute_file_concurrence(capsys, tmp_path):
    path = tmp_path / "bell.qsv"
    write_qsv(named_state("bell", 2), path)
    code, out, _ = run_cli(capsys, "compute", "--file", str(path),
                           "--measure", "concurrence")
    assert code == 0
    assert abs(value_of(out) - 1.0) < 1e-9


def test_compute_json_format(capsys):
    code, out, _ = run_cli(capsys, "compute", "--expr", "bell@1,2",
                           "--measure", "concurrence", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert abs(payload["value"] - 1.0) < 1e-9


def test_compute_no_normalize(capsys, tmp_path):
    psi = named_state("bell", 2)
    doubled = type(psi)(2, 2.0 * psi.amps)
    path = tmp_path / "big.qsv"
    write_qsv(doubled, path)
    code, out, _ = run_cli(capsys, "compute", "--file", str(path),
                           "--measure", "concurrence", "--no-normalize")
    assert code == 0
    assert abs(value_of(out) - 4.0) < 1e-9  # degree-2 homogeneous raw value


def test_compute_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--expr", "ghz:3@1,2", "--measure", "tau")
    assert code == 2
    assert "column" in err


def test_compute_qsv_error_names_line(capsys, tmp_path):
    path = tmp_path / "bad.qsv"
    path.write_text("qsv 1\nn 1\n0 0\nx 0\n")
    code, _, err = run_cli(capsys, "compute", "--file", str(path), "--measure", "tau")
    assert code == 2
    assert "line 4" in err


def test_compute_non_finite_qsv_exit_2(capsys, tmp_path):
    path = tmp_path / "nan.qsv"
    path.write_text("qsv 1\nn 2\n1 0\n0 0\n0 nan\n1 0\n")
    code, out, err = run_cli(capsys, "compute", "--file", str(path), "--measure", "tau")
    assert code == 2
    assert "line 5, column 3" in err
    assert out == ""


def test_compute_non_ascii_qsv_exit_2(capsys, tmp_path):
    path = tmp_path / "accent.qsv"
    path.write_bytes(b"qsv 1\nn 1\n0 \xc3\xa9\n1 0\n")
    code, out, err = run_cli(capsys, "compute", "--file", str(path), "--measure", "concurrence")
    assert code == 2
    assert "non-ASCII byte 0xc3 (line 3, column 3)" in err
    assert out == ""


def test_compute_qsv_over_capacity_exit_3(capsys, tmp_path):
    path = tmp_path / "huge.qsv"
    path.write_text("qsv 1\nn 27\n0 0\n")
    code, _, err = run_cli(capsys, "compute", "--file", str(path), "--measure", "tau")
    assert (code, err) == (3, "error: qsv file of 27 qubits exceeds the capacity of 26 qubits\n")


def test_compute_out_of_memory_exit_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(state.StateVector, "_scaled_amps", exhausted)  # where a factor may be copied, scaled
    code, _, err = run_cli(capsys, "compute", "--expr", "bell@1,2", "--measure", "concurrence")
    assert code == 3
    assert err.startswith("error: ") and "capacity" in err


def test_compute_reports_the_state_label(capsys, tmp_path):
    path = tmp_path / "bell.qsv"
    write_qsv(named_state("bell", 2), path)
    expr = "bell@1,2 x ghz:3@3,4,5"
    for source, label in ((("--file", str(path)), f"file:{path}"), (("--expr", expr), expr)):
        _, out, _ = run_cli(capsys, "compute", *source)
        assert out.splitlines()[-1] == f"state {label}"
        _, out, _ = run_cli(capsys, "compute", *source, "--format", "json")
        assert json.loads(out)["state"] == label


def test_compute_bad_integer_in_factor_exit_2(capsys):
    code, out, err = run_cli(capsys, "compute", "--expr", "ghz:three@1,2,3")
    assert code == 2 and out == ""
    assert "bad integer in factor 'ghz:three@1,2,3'" in err


@pytest.mark.parametrize("expr", ("basis:2:9@1,2", "ghz:1@1"))
def test_compute_invalid_factor_exit_2(capsys, expr):
    code, out, err = run_cli(capsys, "compute", "--expr", expr)
    assert code == 2 and out == ""
    assert f"invalid factor '{expr}': " in err and "bad integer" not in err


def test_compute_bad_qsv_factor_names_the_factor_and_the_file(capsys, tmp_path):
    path = tmp_path / "bad.qsv"
    path.write_text("qsv 1\nn 1\n0 0\nx 0\n")
    expr = f"bell@2,3 x file:{path}@1"
    code, out, err = run_cli(capsys, "compute", "--expr", expr)
    assert code == 2 and out == ""
    # the qsv position reads as one in the file; the trailing one is the factor's in the expression
    assert err == (f"error: invalid factor 'file:{path}@1': {path}:4:1: bad real part 'x'"
                   f" (line 1, column 12)\n")


def test_compute_factor_over_capacity_exit_3(capsys):
    labels = ",".join(str(j) for j in range(1, 31))
    code, out, err = run_cli(capsys, "compute", "--expr", f"ghz:30@{labels}")
    assert (code, out, err) == (3, "", "error: named state of 30 qubits exceeds the capacity of 26 "
                                       "qubits\n")


def test_compute_parity_error_exit_3(capsys):
    code, _, err = run_cli(capsys, "compute", "--expr", "bell@1,2", "--measure", "tau-odd")
    assert code == 3
    assert "odd" in err


def test_compute_residual_measure(capsys):
    code, out, _ = run_cli(capsys, "compute", "--expr", "bell@1,2 x ghz:3@3,4,5",
                           "--measure", "residual:5")
    assert code == 0
    assert abs(value_of(out) - 1.0) < 1e-9


def test_compute_unknown_measure(capsys):
    for measure in ("purity", "residual:x"):
        code, out, err = run_cli(capsys, "compute", "--expr", "bell@1,2", "--measure", measure)
        assert code == 2 and out == ""
        assert repr(measure) in err


def test_compute_measure_help_lists_every_measure(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit):
        main(["compute", "--help"])
    assert ("tau | tau-even | tau-odd | r | concurrence | three-tangle | wong | residual:<i>"
            in capsys.readouterr().out)


def test_bench_measure_help_gives_the_sizes_of_every_label(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    out = capsys.readouterr().out
    assert "{quadratic,odd,r,quartic,residual,read,write,batch,both}" in out
    assert ("quadratic (even n), odd (odd n), r (odd n), quartic (even n), residual (odd n), read "
            "(every n), write (every n), batch (every n), quartic up to n=10 and batch up to n=22; "
            "both times quadratic and quartic") in out


def test_readme_cli_examples_parse_and_print_their_values(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ntangle ")]
    assert len(lines) == 18
    parser, checked = cli._build_parser(), []
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)  # a line argparse refuses exits 2 here
        if "--expr" in argv and "# -> " in line:
            code, out, _ = run_cli(capsys, *argv)
            checked.append((code, out.splitlines()[0]))
    assert checked == [(0, "value 1"), (0, "value 0.6")]


def _two(kind):
    return f"{kind} needs at least 2 qubits, got n=1"


def _parity(kind, parity, n):
    return f"{kind} is defined for {parity} n only, got n={n}"


def _only(kind, size, n):
    return f"{kind} is defined for n={size} only, got n={n}"


_WONG_CAP = ("wong_tangle at n=12 exceeds the cap of 10: the dense contraction holds several"
             " (2**n, 2**n) complex arrays of 256 MiB each")
# the error line of each --measure name at n = 1, 2, 3, 4, 12, or None where it computes
_FRONT_DOOR = {
    "tau": (_two("tau"), None, None, None, None),
    "tau-even": (_two("tau_even"), None, _parity("tau_even", "even", 3), None, None),
    "tau-odd": (_two("tau_odd"), _parity("tau_odd", "odd", 2), None, _parity("tau_odd", "odd", 4),
                _parity("tau_odd", "odd", 12)),
    "r": (_two("r_tangle"), _parity("r_tangle", "odd", 2), None, _parity("r_tangle", "odd", 4),
          _parity("r_tangle", "odd", 12)),
    "concurrence": tuple(None if n == 2 else _only("concurrence", 2, n) for n in (1, 2, 3, 4, 12)),
    "three-tangle": tuple(None if n == 3 else _only("three_tangle", 3, n) for n in (1, 2, 3, 4, 12)),
    "wong": (_two("wong_tangle"), None, _parity("wong_tangle", "even", 3), None, _WONG_CAP),
    "residual:1": (_two("tau_residual"), _parity("tau_residual", "odd", 2), None,
                   _parity("tau_residual", "odd", 4), _parity("tau_residual", "odd", 12)),
    "residual:4": (_two("tau_residual"), _parity("tau_residual", "odd", 2),
                   "qubit label 4 out of range 1..3", _parity("tau_residual", "odd", 4),
                   _parity("tau_residual", "odd", 12)),
}


@pytest.mark.parametrize("name", _FRONT_DOOR)
@pytest.mark.parametrize("index, n", enumerate((1, 2, 3, 4, 12)))
def test_compute_refuses_each_size_a_measure_is_not_defined_for(capsys, name, index, n):
    labels = ",".join(map(str, range(1, n + 1)))
    code, out, err = run_cli(capsys, "compute", "--expr", f"basis:{n}:0@{labels}",
                             "--measure", name)
    error = _FRONT_DOOR[name][index]
    if error is None:
        assert (code, err) == (0, "")
        assert out.startswith("value 0\nmeasure ")
    else:
        assert (code, out, err) == (3, "", f"error: {error}\n")


def test_compute_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "compute", "--file", str(tmp_path / "absent.qsv"))
    assert code == 2 and out == ""
    assert "absent.qsv" in err


def test_verify_golden_examples(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "golden-examples")
    assert code == 0
    assert "result PASS" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "everything")
    assert code == 2
    assert "unknown suite" in err


def test_verify_failure_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-form",
                           "--trials", "10", "--n-max", "4", "--tol", "1e-30")
    assert code == 1
    assert "FAIL" in out


def test_verify_with_no_checks_exits_1(capsys):
    # below every size a suite covers it checks nothing, and certifies nothing
    code, out, _ = run_cli(capsys, "verify", "--suite", "permutation", "--n-max", "2")
    assert code == 1
    assert "result FAIL (0/0 checks)" in out


def test_verify_json_deterministic(capsys):
    args = ("verify", "--suite", "oracle-n3", "--trials", "50", "--seed", "7",
            "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical report for identical command + seed
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["seed"] == 7


def test_verify_seed_recorded_in_report(capsys):
    _, out, _ = run_cli(capsys, "verify", "--suite", "oracle-n3", "--trials", "50",
                        "--seed", "31", "--format", "json")
    assert json.loads(out)["seed"] == 31


def test_bench_csv_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-min", "4", "--n-max", "8",
                           "--repetitions", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [4, 6, 8]
    for r in rows:
        n = int(r[0])
        assert r[1] == "quadratic"
        assert int(r[4]) == 2 ** (n - 1)
        median, low, q1, q3 = (int(r[k]) for k in (2, 3, 5, 6))
        assert q3 >= median >= q1 >= low >= 0


def test_bench_json_carries_the_env_and_every_row(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    code, out, _ = run_cli(capsys, "bench", "--n-min", "3", "--n-max", "5", "--measure", "residual",
                           "--repetitions", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    env = payload["env"]
    assert env["numpy"] == np.__version__
    assert (env["workers"], env["cpu_count"]) == (state._WORKERS, os.cpu_count())
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    assert env["cpu_model"] == bench.cpu_model()
    assert env["cpu_model"] is None or (isinstance(env["cpu_model"], str) and env["cpu_model"])
    rows = payload["rows"]
    assert [(r["n"], r["measure"]) for r in rows] == [(n, f"residual:{i}") for n in (3, 5)
                                                       for i in range(1, n + 1)]
    for r in rows:
        assert set(r) == {"n", "measure", "median_ns", "min_ns", "op_count", "q1_ns", "q3_ns"}
        assert r["op_count"] == 2 ** r["n"]
        assert r["q3_ns"] >= r["median_ns"] >= r["q1_ns"] >= r["min_ns"] >= 0


def test_time_call_warms_up_once_then_keeps_the_median_min_and_quartiles(monkeypatch):
    # each call moves a clock on by its duration; the first call is not timed
    durations, now = iter([1000, 5, 1, 4, 2, 3, 8, 7, 6]), [0]
    monkeypatch.setattr(bench.time, "perf_counter_ns", lambda: now[0])

    def call():
        now[0] += next(durations)

    assert bench._time_call(call, 8) == (5, 1, 3, 7)  # of 1..8: median, min, first and third quartiles
    assert next(durations, None) is None  # nine calls: the warm-up and eight timed


def test_cpu_model_reads_cpuinfo_then_platform_then_none(monkeypatch, tmp_path):
    cpuinfo, no_model = tmp_path / "cpuinfo", tmp_path / "no_model"
    cpuinfo.write_text("processor\t: 0\nmodel name\t: Some CPU @ 2.00GHz\n\nmodel name\t: other\n")
    no_model.write_text("processor\t: 0\nHardware\t: some board\n")
    real_open = open

    def reading(path):
        return lambda name, *args, **kwargs: real_open(path, *args, **kwargs)

    def missing(*args, **kwargs):
        raise FileNotFoundError("no /proc")

    monkeypatch.setattr(bench.platform, "processor", lambda: "x86_64")
    monkeypatch.setattr(bench, "open", reading(cpuinfo), raising=False)
    assert bench.cpu_model() == "Some CPU @ 2.00GHz"
    monkeypatch.setattr(bench, "open", reading(no_model), raising=False)
    assert bench.cpu_model() == "x86_64"
    monkeypatch.setattr(bench, "open", missing, raising=False)
    assert bench.cpu_model() == "x86_64"
    monkeypatch.setattr(bench.platform, "processor", lambda: "")
    assert bench.cpu_model() is None


def _bench_rows(capsys, *args):
    code, out, err = run_cli(capsys, "bench", *args, "--repetitions", "1", "--format", "csv")
    return code, [line.split(",") for line in out.strip().splitlines()[1:]], err


def test_bench_r_times_the_odd_sizes(capsys):
    code, rows, _ = _bench_rows(capsys, "--n-min", "3", "--n-max", "8", "--measure", "r")
    assert code == 0
    assert [(int(r[0]), r[1]) for r in rows] == [(3, "r"), (5, "r"), (7, "r")]
    # one pass over j < 2**(n-1): the cross products, one per split 2..n, one for qubit 1's self forms
    assert [int(r[4]) for r in rows] == [(n + 1) * 2 ** (n - 1) for n in (3, 5, 7)]
    code, rows, _ = _bench_rows(capsys, "--n-min", "3", "--n-max", "8")
    assert code == 0
    assert [(int(r[0]), r[1]) for r in rows] == [(4, "quadratic"), (6, "quadratic"),
                                                 (8, "quadratic")]


def test_bench_single_parity_ranges(capsys):
    code, rows, _ = _bench_rows(capsys, "--n-min", "9", "--n-max", "9", "--measure", "r")
    assert code == 0
    assert [(int(r[0]), int(r[4])) for r in rows] == [(9, 10 * 2 ** 8)]
    code, rows, _ = _bench_rows(capsys, "--n-min", "6", "--n-max", "6")
    assert code == 0
    assert [(int(r[0]), r[1]) for r in rows] == [(6, "quadratic")]
    code, rows, err = _bench_rows(capsys, "--n-min", "6", "--n-max", "6", "--measure", "r")
    assert code == 3 and not rows
    assert "odd size" in err
    code, rows, err = _bench_rows(capsys, "--n-min", "5", "--n-max", "5")
    assert code == 3 and not rows
    assert "even size" in err


def test_bench_odd_and_residual_rows(capsys):
    code, rows, _ = _bench_rows(capsys, "--n-min", "4", "--n-max", "7", "--measure", "odd")
    assert code == 0
    # the cross form's 2**(n-1) products and two half-length self forms of 2**(n-2)
    assert [(int(r[0]), r[1], int(r[4])) for r in rows] == [(5, "odd", 32), (7, "odd", 128)]
    code, rows, _ = _bench_rows(capsys, "--n-min", "5", "--n-max", "7", "--measure", "residual")
    assert code == 0
    # every split 1..n, each at 2**n products
    assert [(int(r[0]), r[1], int(r[4])) for r in rows] == [
        (n, f"residual:{i}", 2 ** n) for n in (5, 7) for i in range(1, n + 1)]
    code, rows, err = _bench_rows(capsys, "--n-min", "6", "--n-max", "6", "--measure", "odd")
    assert code == 3 and not rows
    assert "odd size" in err


def test_bench_batch_times_the_suite_kernels_on_a_seeded_batch(capsys, monkeypatch):
    monkeypatch.setattr(bench, "BATCH_BITS", 10)  # 2**(10-n) states of n qubits
    shapes, tau_any = [], bench._tau_any

    def spy(amps, n):
        shapes.append(amps.shape)
        return tau_any(amps, n)

    monkeypatch.setattr(bench, "_tau_any", spy)
    code, rows, _ = _bench_rows(capsys, "--n-min", "3", "--n-max", "4", "--measure", "batch")
    assert code == 0
    # each state counts its single-state products: tau_odd 2**n, R (n+1) 2**(n-1), tau_even 2**(n-1)
    assert [(int(r[0]), r[1], int(r[4])) for r in rows] == [
        (3, "batch:tau", 2**7 * 8), (3, "batch:r", 2**7 * 16), (4, "batch:tau", 2**6 * 8)]
    assert shapes == [(2**7, 8)] * 2 + [(2**6, 16)] * 2  # each row's untimed call, then its timed one
    code, rows, err = _bench_rows(capsys, "--n-min", "10", "--n-max", "11", "--measure", "batch")
    assert code == 2 and not rows
    assert "batch" in err


def test_bench_read_times_read_qsv_of_a_written_state(capsys, monkeypatch):
    read, writes = [], []
    time_call, write_qsv_ = bench._time_call, qsv.write_qsv

    def timed(call, repetitions):
        before = len(writes)
        read.append(call())
        assert len(writes) == before  # the file was written before the timing
        return time_call(call, repetitions)

    monkeypatch.setattr(bench, "_time_call", timed)
    monkeypatch.setattr(qsv, "write_qsv", lambda *args: (writes.append(args), write_qsv_(*args)))
    code, rows, _ = _bench_rows(capsys, "--n-min", "3", "--n-max", "5", "--measure", "read")
    assert code == 0
    assert [(int(r[0]), r[1], int(r[4])) for r in rows] == [
        (3, "read", 8), (4, "read", 16), (5, "read", 32)]
    assert [psi.amps.tolist() for psi in read] == [
        state.random_state(n, cli.DEFAULT_SEED + n).amps.tolist() for n in (3, 4, 5)]
    assert not any(os.path.exists(path) for _, path in writes)  # the temporary files are gone


def test_bench_write_times_write_qsv_of_the_seeded_state(capsys, monkeypatch):
    written, write_qsv_ = [], qsv.write_qsv

    def spy(psi, path):
        write_qsv_(psi, path)
        written.append((path, qsv.read_qsv(path)))

    monkeypatch.setattr(qsv, "write_qsv", spy)
    code, rows, _ = _bench_rows(capsys, "--n-min", "3", "--n-max", "5", "--measure", "write")
    assert code == 0
    assert [(int(r[0]), r[1], int(r[4])) for r in rows] == [
        (3, "write", 8), (4, "write", 16), (5, "write", 32)]
    assert [back.amps.tolist() for _, back in written] == [  # the untimed write, then the timed one
        state.random_state(n, cli.DEFAULT_SEED + n).amps.tolist() for n in (3, 4, 5) for _ in "12"]
    assert not any(os.path.exists(path) for path, _ in written)  # the temporary files are gone


def test_bench_text_names_the_worker_count(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-min", "3", "--n-max", "3",
                           "--measure", "residual", "--repetitions", "1")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[1] for line in lines[1:4]] == ["residual:1", "residual:2", "residual:3"]
    assert lines[-1] == (f"workers: {state._WORKERS} (one per CPU in the affinity mask: kernels,"
                         f" qsv reader and writer)")


def test_bench_quartic_op_count(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-min", "4", "--n-max", "4",
                           "--measure", "both", "--repetitions", "2", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    counts = {r[1]: int(r[4]) for r in rows}
    assert counts["quadratic"] == 2 ** 3
    assert counts["quartic"] == 2 ** 8 + 2


def test_bench_quartic_beyond_cap(capsys):
    code, _, err = run_cli(capsys, "bench", "--n-min", "4", "--n-max", "12",
                           "--measure", "quartic")
    assert (code, err) == (3, f"error: {_WONG_CAP}\n")


def test_bench_range_over_capacity(capsys):
    code, _, err = run_cli(capsys, "bench", "--n-min", "4", "--n-max", "40")
    assert (code, err) == (3, "error: bench size n=27 exceeds the capacity of 26 qubits\n")


def test_bench_empty_range_exit_2(capsys):
    code, out, err = run_cli(capsys, "bench", "--n-min", "5", "--n-max", "4", "--measure", "read")
    assert code == 2 and not out
    assert "at least one size" in err


@pytest.mark.parametrize("ns, kinds", (([5, 1], ("odd",)), ([5, 27], ("odd",)),
                                       ([4, 12], ("quartic",)), ([], ("read",)),
                                       ([4], ("cubic",))))
def test_run_bench_checks_every_size_before_timing(monkeypatch, ns, kinds):
    def refuse(fn, repetitions):
        raise AssertionError("a kernel was timed before every size was checked")

    monkeypatch.setattr(bench, "_time_call", refuse)
    with pytest.raises(DomainError):
        bench.run_bench(ns, kinds)


def test_op_count_of_every_bench_label():
    for n in range(2, 27):
        counts = {"quadratic": 2 ** (n - 1), "quartic": 2 ** (2 * n) + 2, "r": (n + 1) * 2 ** (n - 1),
                  "odd": 2 ** n, "residual:1": 2 ** n, f"residual:{n - 1}": 2 ** n, "read": 2 ** n,
                  "write": 2 ** n}
        if n <= bench.BATCH_BITS:
            counts["batch:tau"] = 2 ** (n - 1 + n % 2) * 2 ** (22 - n)
            counts["batch:r"] = (n + 1) * 2 ** (n - 1) * 2 ** (22 - n)
        assert {label: bench.op_count(label, n) for label in counts} == counts, n


def test_op_count_of_an_unknown_measure():
    # only the labels run_bench writes have a count
    for label in ("cubic", "batchfoo", "batch", "batch:odd", "quadratic:9", "read:1", "residual",
                  "residual:", "residual:x", "residual:-1"):
        with pytest.raises(DomainError, match=f"unknown bench measure '{label}'"):
            bench.op_count(label, 4)


def test_compute_deterministic_output(capsys):
    args = ("compute", "--expr", "ghz:4@1,2,3,4", "--measure", "tau")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bench_text_reports_op_count_ratio(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n-min", "4", "--n-max", "4",
                           "--measure", "both", "--repetitions", "2")
    assert code == 0
    assert "quartic/quadratic = 32" in out  # (2**8 + 2) // 2**3


def test_verify_batch_over_capacity_exit_3(capsys, monkeypatch):
    # closed-form draws 1000 states a size: 4000 amplitudes at n=2, 8000 at n=3
    monkeypatch.setattr(state, "DEFAULT_MAX_QUBITS", 12)
    code, out, err = run_cli(capsys, "verify", "--suite", "closed-form", "--n-max", "3")
    assert (code, out, err) == (3, "", "error: a draw of 1000 random states of 3 qubits exceeds the "
                                       "capacity of 12 qubits\n")


def test_verify_trials_past_capacity_exit_3_before_any_draw(capsys, monkeypatch):
    def spy(*args):
        raise AssertionError("a state was drawn")

    monkeypatch.setattr(suites, "random_state_batch", spy)
    code, out, err = run_cli(capsys, "verify", "--suite", "closed-form", "--n-max", "13",
                             "--trials", "100000")
    assert (code, out, err) == (3, "", "error: a draw of 100000 random states of 13 qubits exceeds the "
                                       "capacity of 26 qubits\n")


def test_verify_rejects_bad_trials(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "range", "--trials", "0")
    assert code == 2
    assert "trials must be at least 1, got 0" in err
    for tol in ("-1", "0", "nan"):
        code, out, err = run_cli(capsys, "verify", "--suite", "range", "--tol", tol)
        assert code == 2 and out == ""
        assert "tol must be positive" in err


def test_verify_bitops_past_capacity_exits_3(capsys, monkeypatch):
    def spy(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(suites, "_violations", spy)
    monkeypatch.setattr(suites, "_complement_counts", spy)
    code, out, err = run_cli(capsys, "verify", "--suite", "bitops", "--n-max", "27")
    assert code == 3 and out == ""
    assert "capacity of 26 qubits" in err


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_verify_past_capacity_exits_3_before_any_work(capsys, monkeypatch, name):
    def spy(*args):
        raise AssertionError("a state was drawn or a grid was built")

    if "n_max" in suites.SUITES[name].fixed:  # the request's n_max is ignored, so never refused
        code, out, _ = run_cli(capsys, "verify", "--suite", name, "--n-max", "27", "--format", "json")
        assert (code, json.loads(out)["n_max"]) == (0, suites.SUITES[name].n_max)
        return
    for work in ("random_state_batch", "_violations", "_complement_counts"):
        monkeypatch.setattr(suites, work, spy)
    got = run_cli(capsys, "verify", "--suite", name, "--n-max", "27")
    assert got == (3, "", f"error: {name} up to n=27 exceeds the capacity of 26 qubits\n")


@pytest.mark.parametrize("repetitions", ["0", "-3"])
def test_bench_refuses_repetitions_below_one_before_any_draw(capsys, monkeypatch, repetitions):
    def spy(*args):
        raise AssertionError("a state was drawn or a kernel timed")

    monkeypatch.setattr(state, "random_state", spy)
    monkeypatch.setattr(bench, "_time_call", spy)
    got = run_cli(capsys, "bench", "--n-min", "4", "--n-max", "4", "--repetitions", repetitions)
    assert got == (2, "", f"error: bench repetitions must be at least 1, got {repetitions}\n")


@pytest.mark.parametrize("scale, raw_code", [("1e200", 3), ("1e-200", 0), ("1e308", 3)])
def test_compute_bell_at_the_edges_of_the_float_range(capsys, tmp_path, scale, raw_code):
    path = tmp_path / "bell.qsv"
    path.write_text(f"qsv 1\nn 2\n{scale} 0\n0 0\n0 0\n{scale} 0\n")
    code, out, _ = run_cli(capsys, "compute", "--file", str(path))
    assert code == 0
    assert "value 1\n" in out and "norm 1\n" in out
    # the raw value: 2e400 overflows, 2e-400 is 0 in floats
    code, out, err = run_cli(capsys, "compute", "--file", str(path), "--no-normalize")
    assert code == raw_code
    if raw_code:
        assert out == ""
        assert "tau_even of these raw amplitudes overflows the float range" in err


@pytest.mark.parametrize("scale", ["1e100", "1e-100", "1e200", "1e-200", "1e308"])
def test_compute_quartic_measures_at_the_edges_of_the_float_range(capsys, tmp_path, scale):
    # a GHZ state whose squares' squares leave the float range: each factor is scaled by a
    # power of two before the kernel, so the degree-4 measures print 1 as well
    path = tmp_path / "ghz.qsv"
    path.write_text(f"qsv 1\nn 3\n{scale} 0\n" + "0 0\n" * 6 + f"{scale} 0\n")
    for source in (("--file", str(path)), ("--expr", f"file:{path}@3,1,2 x bell@4,5")):
        for measure in ("tau", "r", "residual:2", "three-tangle"):
            if source[0] == "--expr" and measure == "three-tangle":
                continue
            code, out, err = run_cli(capsys, "compute", *source, "--measure", measure)
            assert (code, err) == (0, ""), (source, measure)
            value = 0.6 if source[0] == "--expr" and measure == "r" else 1
            assert out.startswith(f"value {value}\n") and "norm 1\n" in out, (source, measure, out)


def test_compute_normalized_reports_norm_1_exactly(capsys, tmp_path):
    # the value is taken by homogeneity, and the report's norm is that of the normalized state
    rng = np.random.default_rng(2911)
    for n in (2, 3, 6, 7):
        path = tmp_path / f"r{n}.qsv"
        write_qsv(state.StateVector(n, 10.0 ** rng.uniform(-3, 3) * state.random_state(n, n).amps), path)
        for source in (("--file", str(path)), ("--expr", f"file:{path}@{_labels(1, n)} x w:3@{_labels(n + 1, n + 3)}")):
            for raw in ((), ("--no-normalize",)):
                code, out, err = run_cli(capsys, "compute", *source, *raw, "--format", "json")
                assert (code, err) == (0, "")
                norm = json.loads(out)["norm"]
                assert (norm == 1.0) != bool(raw), (n, source, raw, norm)


def test_compute_expr_of_500_bell_pairs_passes_the_capacity(capsys):
    text = " x ".join(f"bell@{k + 1},{k}" for k in range(1, 1001, 2))
    code, out, err = run_cli(capsys, "compute", "--expr", text)
    assert (code, err) == (0, "")
    assert out.startswith("value 1\nmeasure tau_even\nn 1000\nnorm 1\n")


def test_compute_resolves_the_measure_before_it_reads_or_normalizes(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("read or normalized a state for a measure that refuses it")

    path = tmp_path / "bell.qsv"
    write_qsv(named_state("bell", 2), path)
    monkeypatch.setattr(state.StateVector, "_scaled_amps", refuse)
    code, out, err = run_cli(capsys, "compute", "--file", str(path), "--measure", "tau-odd")
    assert (code, out, err) == (3, "", "error: tau_odd is defined for odd n only, got n=2\n")
    monkeypatch.setattr(cli, "read_qsv", refuse)
    for measure, error in (("foo", "unknown measure 'foo'"),
                           ("residual:x", "bad residual qubit in measure 'residual:x'")):
        code, out, err = run_cli(capsys, "compute", "--file", str(path), "--measure", measure)
        assert (code, out, err) == (2, "", f"error: {error} (line 1, column 1)\n")


# a GHZ state at 1e100, or a seeded dense state at 1e200, whose products overflow inside R's chunks
_OVERFLOWS = [(3, "r", False), (3, "tau", False), (3, "residual:2", False), (3, "three-tangle", False),
              (4, "wong", False), (5, "r", True)]


@pytest.mark.parametrize("n, measure, dense", _OVERFLOWS,
                         ids=[f"{n}-{measure}" + "-dense" * dense for n, measure, dense in _OVERFLOWS])
@pytest.mark.parametrize("source", ["file", "expr"])
def test_compute_raw_overflow_prints_only_the_error_line(tmp_path, n, measure, dense, source):
    path = tmp_path / "state.qsv"
    if dense:
        amps = 1e200 * state.random_state(n, 2811).amps
    else:
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = amps[-1] = 1e100
    write_qsv(state.StateVector(n, amps), path)
    if source == "expr":  # the same factor beside a Bell pair, taken factor by factor
        n, measure = n + 2, {"three-tangle": "tau-odd"}.get(measure, measure)
        argv = ("--expr", f"file:{path}@{','.join(map(str, range(1, n - 1)))} x bell@{n - 1},{n}")
    else:
        argv = ("--file", str(path))
    proc = _run_module("compute", *argv, "--measure", measure, "--no-normalize")
    assert (proc.returncode, proc.stdout) == (3, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "overflows" in lines[0], lines


def _run_module(*args, **kwargs):
    return _run_child(["-m", "ntangle", *args], **kwargs)


def _run_module_code(code, *args, **kwargs):
    return _run_child(["-c", code, *args], **kwargs)


def _run_child(argv, **kwargs):
    # the child must import the same package as this process, installed or not
    src = str(Path(ntangle.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv],
                          **{"capture_output": True, "text": True, "env": env} | kwargs)


def test_a_closed_reader_exits_141_with_no_error_line():
    # `| head -c 0`: the pipe has no reader before the child writes, so every write
    # and the interpreter's exit flush would meet a closed pipe
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_module("compute", "--expr", "ghz:3@1,2,3 x bell@4,5", capture_output=False,
                           stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_READER, "") == (141, "")


def test_module_entry_point():
    proc = _run_module("compute", "--expr", "bell@1,2", "--measure", "concurrence")
    assert proc.returncode == 0
    assert "value 1" in proc.stdout


# the `ntangle` script as pip writes it, and python -m ntangle: both leave through cli.run
_SCRIPT = "import sys\nfrom ntangle.cli import run\nsys.exit(run())\n"
_ENTRIES = {"script": lambda *args, **kwargs: _run_module_code(_SCRIPT, *args, **kwargs),
            "module": _run_module}
_R_OF_1023 = " x ".join(["ghz:3@1,2,3"] + [f"bell@{k},{k + 1}" for k in range(4, 1024, 2)])


@pytest.mark.parametrize("entry", _ENTRIES)
def test_entry_points_deliver_whole_outputs_and_every_exit_code(capsys, entry):
    run = _ENTRIES[entry]
    # whole outputs through a pipe: the largest verify report, R's 1023 residuals, bench rows
    outputs = []
    for argv in (["verify", "--suite", "monotone", "--format", "json"],
                 ["compute", "--expr", _R_OF_1023, "--measure", "r", "--format", "json"],
                 ["compute", "--expr", _R_OF_1023, "--measure", "r"]):
        proc = run(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv[:2]
        assert (0, proc.stdout, "") == run_cli(capsys, *argv), argv[:2]
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["passed"] and len(json.loads(outputs[1])["residuals"]) == 1023
    proc = run("bench", "--n-min", "2", "--n-max", "10", "--measure", "both", "--format", "csv",
               "--repetitions", "1")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    want = [(n, m) for n in range(2, 11, 2) for m in ("quadratic", "quartic")]
    assert lines[0] == CSV_HEADER and [(int(r.split(",")[0]), r.split(",")[1]) for r in lines[1:]] == want
    # every exit code, with its stderr
    for argv, code, err in ((["verify", "--suite", "permutation", "--tol", "1e-300"], 1, ""),
                            (["compute", "--expr", "bell@1,2", "--measure", "foo"], 2,
                             "error: unknown measure 'foo' (line 1, column 1)\n"),
                            (["compute", "--expr", "bell@1,2", "--measure", "r"], 3,
                             "error: r_tangle is defined for odd n only, got n=2\n")):
        proc = run(*argv)
        assert (proc.returncode, proc.stderr) == (code, err), argv
    read, write = os.pipe()
    os.close(read)  # a reader that closed before the child writes, as `| head -c 0`
    try:
        proc = run("verify", "--suite", "monotone", capture_output=False, stdout=write,
                   stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_run_skips_the_interpreter_teardown_but_not_an_uncaught_error():
    # an atexit hook registered before run never runs; a traceback still reaches stderr, and
    # argparse's SystemExit keeps its code
    hook = "import atexit\natexit.register(print, 'teardown')\n"
    proc = _run_module_code(hook + _SCRIPT, "compute", "--expr", "bell@1,2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("value 1\n") and "teardown" not in proc.stdout
    proc = _run_module_code(hook + "from ntangle import cli\ncli.main = lambda: 1 / 0\n" + _SCRIPT)
    assert proc.returncode == 1 and proc.stdout == "teardown\n"
    assert proc.stderr.startswith("Traceback") and proc.stderr.endswith("ZeroDivisionError: division by zero\n")
    proc = _run_module_code(_SCRIPT, "compute")
    assert proc.returncode == 2 and proc.stderr.endswith(
        "ntangle compute: error: one of the arguments --file --expr is required\n")


def test_no_module_registers_an_atexit_hook():
    src = Path(ntangle.__file__).resolve().parent
    assert [path.name for path in sorted(src.glob("*.py")) if "atexit" in path.read_text()] == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_compute_file_on_one_cpu_gives_the_same_values(tmp_path):
    n = 15  # a block the reader splits over two CPUs, or over one
    assert 1 << n >= 2 * qsv._QSV_RANGE_MIN
    path = tmp_path / "state.qsv"
    write_qsv(state.random_state(n, 15), path)
    cpu = min(os.sched_getaffinity(0))
    # the norm and the kernels make no BLAS call, so no BLAS thread count needs pinning
    runs = [_run_module("compute", "--file", str(path), "--format", "json", **kwargs)
            for kwargs in ({}, {"preexec_fn": lambda: os.sched_setaffinity(0, {cpu})})]
    assert [proc.returncode for proc in runs] == [0, 0], [proc.stderr for proc in runs]
    full, one = (json.loads(proc.stdout) for proc in runs)
    assert full["value"] == one["value"] and full["norm"] == one["norm"]


def test_compute_expr_of_file_factors_matches_the_product_state(capsys, tmp_path):
    # seeded raw factors on shuffled labels, one-qubit and several odd factors among them;
    # each value within 1e-14 of norm**degree, the most the measure can take at that norm
    rng = np.random.default_rng(2609)
    for sizes in ((3, 1, 2), (1, 1, 3), (3, 5), (2, 4, 1), (5, 2, 2), (4, 6), (7, 2, 1, 3)):
        labels = (rng.permutation(sum(sizes)) + 1).tolist()
        tokens = []
        for k, size in enumerate(sizes):
            own, labels = labels[:size], labels[size:]
            path = tmp_path / f"factor{k}.qsv"
            write_qsv(state.StateVector(size, 10.0 ** rng.uniform(-1, 1)
                                        * state.random_state(size, int(rng.integers(2**31))).amps), path)
            tokens.append(f"file:{path}@{','.join(map(str, own))}")
        text, n, i = " x ".join(tokens), sum(sizes), int(rng.integers(1, sum(sizes) + 1))
        requests = ([("tau", "tau", ()), ("tau-odd", "tau_odd", ()), ("r", "r_tangle", ()),
                     (f"residual:{i}", "tau_residual", (i,))] if n % 2
                    else [("tau", "tau", ()), ("tau-even", "tau_even", ())])
        psi = state.build_product(state.parse_product_expression(text))
        for name, function, extra in requests:
            for raw in ((), ("--no-normalize",)):
                code, out, err = run_cli(capsys, "compute", "--expr", text, "--measure", name, *raw,
                                         "--format", "json")
                assert (code, err) == (0, ""), (sizes, name)
                got = json.loads(out)
                want = getattr(measures, function)(psi if raw else psi.normalized(), *extra)
                scale = want.norm ** measures.MEASURES[want.kind].degree if raw else 1.0
                assert (got["measure"], got["n"]) == (want.kind, want.n)
                assert abs(got["value"] - want.value) <= 1e-14 * scale, (sizes, name, raw)
                assert abs(got["norm"] - want.norm) <= 1e-14 * want.norm
                for a, b in zip(got.get("residuals", ()), want.residuals or (), strict=True):
                    assert abs(a - b) <= 1e-14 * scale, (sizes, name, raw)


def test_compute_expr_never_builds_the_product_for_a_factored_measure(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built the product state")

    for name in ("build_product", "tensor", "permute"):
        monkeypatch.setattr(state, name, refuse)
    # every --measure name, on relabeled products and on products of one-qubit factors
    for text, values in (("bell@3,1 x ghz:4@2,4,6,5", {"tau": "1", "tau-even": "1", "wong": "1"}),
                         ("ghz:3@5,1,3 x bell@2,4", {"tau": "1", "tau-odd": "1", "r": "0.6", "residual:3": "1"}),
                         ("bell@2,1", {"concurrence": "1"}), ("ghz:3@3,1,2", {"three-tangle": "1"}),
                         ("ghz:3@2,6,4 x w:3@1,5,3 x basis:1:1@7", {"tau": "0", "r": "0"}),
                         ("basis:1:0@2 x basis:1:1@1", {"concurrence": "0", "wong": "0"})):
        for name, value in values.items():
            code, out, err = run_cli(capsys, "compute", "--expr", text, "--measure", name)
            assert (code, err) == (0, "") and out.startswith(f"value {value}\n"), (text, name)
    with pytest.raises(AssertionError, match="built the product state"):  # the patch holds
        state.build_product(state.parse_product_expression("bell@1,2"))


def test_no_measure_runs_an_outside_formula(capsys, monkeypatch):
    # the quartic and the three-tangle formulas are oracles only: every --measure name and
    # every public measure function runs with both made to raise
    def refuse(*args, **kwargs):
        raise AssertionError("ran an oracle")

    oracles = {measures._wong_tangle, measures._three_tangle}
    assert not oracles & {row.kernel for row in measures.MEASURES.values()}
    monkeypatch.setattr(measures, "_wong_tangle", refuse)
    monkeypatch.setattr(measures, "_three_tangle", refuse)
    sizes = {"even n": 4, "odd n": 5, "n=2": 2, "n=3": 3}
    for kind, row in {"tau": measures.MEASURES["tau_odd"], **measures.MEASURES}.items():
        n = sizes[row.sizes]
        args = (2,) if kind == "tau_residual" else ()
        assert getattr(measures, kind)(named_state("ghz", n), *args).value == pytest.approx(1.0)
        name = {"tau": "tau", "tau_residual": "residual:2"}.get(kind, row.cli)
        code, out, err = run_cli(capsys, "compute", "--expr", f"ghz:{n}@{_labels(1, n)}", "--measure", name)
        assert (code, err) == (0, "") and abs(value_of(out) - 1.0) <= 1e-14, (name, out)
    with pytest.raises(AssertionError, match="ran an oracle"):  # the patch holds
        measures._wong_tangle(named_state("ghz", 4).amps, 4)


def test_compute_file_and_a_one_factor_expr_agree(capsys, tmp_path):
    # a file is the one factor of its product on 1..n: every request prints the same bytes
    # but for the state label, refusals among them (a size, a residual label past n)
    rng = np.random.default_rng(2710)
    path = tmp_path / "x.qsv"
    for n in range(2, 6):
        scale = 10.0 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.uniform())
        write_qsv(state.StateVector(n, scale * state.random_state(n, int(rng.integers(2**31))).amps),
                  path)
        sources = (("--file", str(path), f"file:{path}"),
                   ("--expr", f"file:{path}@{_labels(1, n)}", f"file:{path}@{_labels(1, n)}"))
        names = ["tau", *(row.cli for row in measures.MEASURES.values() if row.cli != "residual:<i>"),
                 "residual:1", f"residual:{n}", f"residual:{n + 1}"]
        for name in names:
            for options in ((), ("--no-normalize",), ("--format", "json"),
                            ("--no-normalize", "--format", "json")):
                runs = []
                for flag, source, label in sources:
                    code, out, err = run_cli(capsys, "compute", flag, source, "--measure", name, *options)
                    runs.append((code, out.replace(label, "<state>"), err))
                assert runs[0] == runs[1], (n, name, options)


def test_compute_product_of_underflowing_factors_takes_the_normalized_factors(capsys, tmp_path):
    # amplitudes of 1e-200 multiply to 1e-400, 0 in floats: the product of the raw factors is
    # the zero vector, and the product of the normalized factors a normalized state
    (tmp_path / "tiny.qsv").write_text("qsv 1\nn 2\n1e-200 0\n0 0\n0 0\n1e-200 0\n")
    (tmp_path / "tiny1.qsv").write_text("qsv 1\nn 1\n1e-200 0\n1e-200 0\n")
    pairs = f"file:{tmp_path}/tiny.qsv@1,2 x file:{tmp_path}/tiny.qsv@3,4"
    code, out, err = run_cli(capsys, "compute", "--expr", pairs, "--measure", "wong")
    assert (code, err) == (0, "") and abs(value_of(out) - 1.0) <= 1e-14, out
    code, out, err = run_cli(capsys, "compute", "--expr", pairs, "--measure", "wong", "--no-normalize")
    assert (code, err) == (0, "") and out.startswith("value 0\nmeasure wong_tangle\nn 4\nnorm 0\n")
    singles = f"file:{tmp_path}/tiny1.qsv@1 x file:{tmp_path}/tiny1.qsv@2"
    for raw in ((), ("--no-normalize",)):
        code, out, err = run_cli(capsys, "compute", "--expr", singles, "--measure", "concurrence", *raw)
        assert (code, err) == (0, "") and out.startswith("value 0\n"), raw


# The child's own peak: VmHWM belongs to the memory of the program exec started, where
# RUSAGE_SELF's ru_maxrss keeps the high-water mark of the process that forked it (232 MB
# for a child of the whole pytest run, against 33 MB of VmHWM).
_PEAK = ("import sys\n"
         "from ntangle.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "with open('/proc/self/status') as fh:\n"
         "    print(*next(line.split() for line in fh if line.startswith('VmHWM:')))\n"
         "sys.exit(code)\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("text, measure, value", [
    (" x ".join(f"bell@{2 * k + 1},{2 * k + 2}" for k in range(13)), "tau", "1"),
    (" x ".join(["ghz:3@1,2,3"] + [f"bell@{2 * k + 4},{2 * k + 5}" for k in range(11)]), "r", "0.12"),
])
def test_compute_expr_at_capacity_peaks_far_below_the_product_state(text, measure, value):
    # the product state alone would be 1 GiB (n=26) or 512 MiB (n=25); importing takes ~32 MB
    proc = _run_module_code(_PEAK, "compute", "--expr", text, "--measure", measure)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"value {value}"
    assert lines[2] == f"n {26 if measure == 'tau' else 25}"
    assert lines[-1].startswith("VmHWM: ") and lines[-1].endswith(" kB")
    assert int(lines[-1].split()[1]) < 60 << 10


def _labels(first, last):
    return ",".join(map(str, range(first, last + 1)))


REFUSALS = {  # argv (a {tmp} directory, split as a shell splits it), exit code, stderr
    "compute-unknown-name": ("compute --expr bell@1,2 --measure foo", 2,
                             "error: unknown measure 'foo' (line 1, column 1)\n"),
    "compute-residual-x": ("compute --expr bell@1,2 --measure residual:x", 2,
                           "error: bad residual qubit in measure 'residual:x' (line 1, column 1)\n"),
    "compute-bad-expression": ("compute --expr foo@1", 2,
                               "error: unknown factor kind 'foo' (line 1, column 1)\n"),
    "compute-missing-file": ("compute --file {tmp}/absent.qsv", 2,
                             "error: [Errno 2] No such file or directory: '{tmp}/absent.qsv'\n"),
    "compute-header-past-capacity": ("compute --file {tmp}/huge.qsv", 3,
                                     "error: qsv file of 27 qubits exceeds the capacity of 26 qubits\n"),
    "compute-size-refused": ("compute --expr bell@1,2 --measure r", 3,
                             "error: r_tangle is defined for odd n only, got n=2\n"),
    "compute-product-past-cap": ("compute --expr '" + " x ".join(f"bell@{k},{k + 1}" for k in range(1, 1024, 2))
                                 + " x basis:1:0@1025'", 3,
                                 "error: product of 1025 qubits exceeds the cap of 1024 qubits of a product"
                                 " measure\n"),
    "compute-zero-factor": ("compute --expr 'file:{tmp}/zero.qsv@1,2 x ghz:3@3,4,5' --measure r", 3,
                            "error: cannot normalize the zero vector\n"),
    "compute-residual-past-n": ("compute --expr 'bell@1,2 x ghz:3@3,4,5' --measure residual:6", 3,
                                "error: qubit label 6 out of range 1..5\n"),
    "compute-file-size-refused": ("compute --file {tmp}/bell2.qsv --measure r", 3,
                                  "error: r_tangle is defined for odd n only, got n=2\n"),
    "compute-file-zero": ("compute --file {tmp}/zero.qsv", 3, "error: cannot normalize the zero vector\n"),
    "compute-file-residual-past-n": ("compute --file {tmp}/ghz5.qsv --measure residual:6", 3,
                                     "error: qubit label 6 out of range 1..5\n"),
    "compute-file-three-tangle-n5": ("compute --file {tmp}/ghz5.qsv --measure three-tangle", 3,
                                     "error: three_tangle is defined for n=3 only, got n=5\n"),
    "compute-file-wong-past-cap": ("compute --file {tmp}/ghz12.qsv --measure wong", 3, f"error: {_WONG_CAP}\n"),
    "compute-file-truncated": ("compute --file {tmp}/truncated.qsv", 2,
                               "error: expected 4 amplitude lines for n=2, found 3 (line 6, column 1)\n"),
    "compute-file-header-only": ("compute --file {tmp}/header.qsv", 2,
                                 "error: expected 4 amplitude lines for n=2, found 0 (line 3, column 1)\n"),
    "compute-file-non-finite": ("compute --file {tmp}/overflow.qsv", 2,
                                "error: non-finite real part '1e400' (line 4, column 1)\n"),
    "verify-unknown-suite": ("verify --suite nope", 2,
                             "error: unknown suite 'nope'; available: bitops, closed-form,"
                             " covariance-even, covariance-odd, golden-examples, monotone,"
                             " oracle-n3, permutation, product, range\n"),
    "verify-trials-0": ("verify --suite range --trials 0", 2,
                        "error: trials must be at least 1, got 0\n"),
    "verify-tol-0": ("verify --suite range --tol 0", 2, "error: tol must be positive, got 0.0\n"),
    "verify-tol-nan": ("verify --suite range --tol nan", 2, "error: tol must be positive, got nan\n"),
    "verify-bitops-past-capacity": ("verify --suite bitops --n-max 27", 3,
                                    "error: bitops up to n=27 exceeds the capacity of 26 qubits\n"),
    "bench-empty-range": ("bench --n-min 5 --n-max 4", 2, "error: bench needs at least one size\n"),
    "bench-n-min-1": ("bench --n-min 1 --n-max 4", 2, "error: bench sizes must be >= 2, got n=1\n"),
    "bench-n-max-40": ("bench --n-min 4 --n-max 40", 3,
                       "error: bench size n=27 exceeds the capacity of 26 qubits\n"),
    "bench-quartic-past-cap": ("bench --n-min 4 --n-max 12 --measure quartic", 3, f"error: {_WONG_CAP}\n"),
    "bench-batch-past-22": ("bench --n-min 22 --n-max 23 --measure batch", 2,
                            "error: batch bench at n=23 exceeds the batch of 2**22 amplitudes\n"),
    "bench-r-even-only": ("bench --n-min 4 --n-max 4 --measure r", 3,
                          "error: bench measure 'r' needs an odd size in the range\n"),
}


@pytest.mark.parametrize("argv, code, err", REFUSALS.values(), ids=REFUSALS.keys())
def test_every_refusal_keeps_its_exit_code_and_message(capsys, tmp_path, argv, code, err):
    (tmp_path / "huge.qsv").write_text("qsv 1\nn 27\n")
    (tmp_path / "zero.qsv").write_text("qsv 1\nn 2\n" + "0 0\n" * 4)
    (tmp_path / "truncated.qsv").write_text("qsv 1\nn 2\n0 1\n1 0\n0.5")
    (tmp_path / "header.qsv").write_text("qsv 1\nn 2\n")
    (tmp_path / "overflow.qsv").write_text("qsv 1\nn 1\n0 1\n1e400 0\n")
    for kind, n in (("bell", 2), ("ghz", 5), ("ghz", 12)):
        write_qsv(named_state(kind, n), tmp_path / f"{kind}{n}.qsv")
    got = run_cli(capsys, *shlex.split(argv.format(tmp=tmp_path)))
    assert got == (code, "", err.format(tmp=tmp_path))
