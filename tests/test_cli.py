import json
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from cyclotrace.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cyclotrace.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_trace_exact(capsys):
    assert main(["trace", "--k", "2", "--D", "12", "--method", "exact"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "24"
    assert "hypothesis_ok=true" in out[1]


def test_trace_hypothesis_exit_2():
    proc = run_cli("trace", "--k", "2", "--D", "5", "--method", "geodesic")
    assert proc.returncode == 2


def test_trace_geodesic_same_under_optimize():
    # python -O strips assert statements; the integration-window checks
    # of the geodesic method are real checks, so the run is unchanged
    args = ["-m", "cyclotrace.cli", "trace", "--k", "4", "--D", "12", "--method", "geodesic",
            "--tol", "1e-6"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *args], capture_output=True, text=True)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0
    seconds = re.compile(r"seconds=\S+")
    assert seconds.sub("", optimized.stdout) == seconds.sub("", plain.stdout)


def test_geodesic_trace_loads_no_fft_or_polynomial_module():
    # numpy.fft and numpy.polynomial take milliseconds to import, which a
    # cold trace would pay on first use
    code = ("import sys\n"
            "from cyclotrace.cli import main\n"
            "status = main(['trace', '--k', '2', '--D', '12', '--method', 'geodesic', '--tol', '1e-6'])\n"
            "print(status, sorted(m for m in sys.modules if m.startswith(('numpy.fft', 'numpy.polynomial'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_readme_geodesic_example():
    proc = run_cli("trace", "--k", "2", "--D", "76", "--method", "geodesic", "--tol", "1e-8")
    assert proc.returncode == 0, proc.stderr
    value, line = proc.stdout.splitlines()
    estimate = float(re.search(r"error_estimate=(\S+)", line).group(1))
    assert abs(float(value) - 232) <= estimate


def test_trace_square_exit_3():
    proc = run_cli("trace", "--k", "2", "--D", "9", "--method", "exact")
    assert proc.returncode == 3
    proc = run_cli("trace", "--k", "2", "--D", "14", "--method", "exact")
    assert proc.returncode == 3  # 14 ≡ 2 (mod 4)


def test_table_exact_at_k6_names_the_exact_scope():
    # k = 6 is even, but the exact method covers only k = 2 and 4
    proc = run_cli("table", "--k", "6", "--Dmax", "20")
    assert proc.returncode == 3
    assert "k in {2, 4} and d = -4" in proc.stderr


@pytest.mark.parametrize("args, code", [
    (["trace", "--k", "2"], 3),
    (["trace", "--k", "x", "--D", "12"], 3),
    (["selftest", "--k", "2"], 3),
    (["bogus"], 3),
    (["--help"], 0),
    (["trace", "--help"], 0),
])
def test_usage_errors_exit_3(args, code, capsys):
    # argparse's own code 2 would read as a violated hypothesis
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert "usage: cyclotrace" in (err if code else out)


@pytest.mark.parametrize("args", [
    "trace --k 400 --D 12 --method latticesum",
    "trace --k 40 --D 1000000000000001 --method latticesum",
    "trace --k 2000 --D 12 --method latticesum",
    "trace --k 300 --D 12 --d -163 --method geodesic",
    "verify --k 5000 --D 12",
])
def test_float_overflowing_k_or_D_exits_3(args, capsys):
    # a prefactor past the float range is invalid input, not a mismatch
    # (exit 1, which an OverflowError's traceback gave)
    assert main(args.split()) == 3
    assert "overflows a float" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    "trace --k 400 --D 5 --method latticesum",
    "trace --k 300 --D 5 --method geodesic",
    "trace --k 40 --D 1000000000000001 --method latticesum",
    "trace --k 300 --D 1000000000000001 --d -163 --method geodesic",
])
def test_invalid_input_exits_3_before_the_hypothesis_check(args):
    # D = 5 violates the hypothesis (exit 2), and D = 10^15 + 1 takes
    # seconds to minutes to check: invalid input is reported first, at any
    # D.  The subprocess's timeout fails a regression instead of hanging
    code = ("import time\nfrom cyclotrace.cli import main\nstart = time.perf_counter()\n"
            f"status = main({args.split()!r})\nprint(status, time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    status, seconds = proc.stdout.split()
    assert status == "3" and float(seconds) < 1, proc.stderr
    assert "invalid input" in proc.stderr


@pytest.mark.parametrize("args, k", [("trace --k 120 --D 12 --method geodesic", 120),
                                     ("trace --k 60 --D 12 --d -163 --method geodesic", 60)])
def test_overflowing_evaluator_fit_exits_3_without_warnings(args, k, capsys):
    # the fit of f_(k,A) overflows at a large k: the evaluator rejects it,
    # naming k, and numpy warns of nothing on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args.split()) == 3
    err = capsys.readouterr().err
    assert not caught and "RuntimeWarning" not in err
    assert f"k = {k}" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_invalid_tol_exit_3(tol):
    # the lattice sum would double its cutoff to the ceiling (exit 4)
    t0 = time.perf_counter()
    assert main(["trace", "--k", "2", "--D", "12", "--method", "latticesum", "--tol", tol]) == 3
    assert time.perf_counter() - t0 < 1.0


def test_trace_numeric(capsys):
    assert main(["trace", "--k", "2", "--D", "12", "--method", "latticesum",
                 "--tol", "1e-3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert abs(float(out[0]) - 24) < 2e-3


def test_verify_even_k(capsys):
    assert main(["verify", "--k", "2", "--D", "12", "--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "exact" in out and "geodesic" in out and "latticesum" in out
    assert "MISMATCH" not in out


def test_verify_k2_lattice_sum_at_tol_1e6():
    # the last increment alone stopped 5.3e-3 from the trace 4448 here
    assert main(["verify", "--k", "2", "--D", "721", "--tol", "1e-6"]) == 0


def test_verify_odd_k_two_way(capsys):
    assert main(["verify", "--k", "3", "--D", "12", "--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "exact" not in out
    assert "geodesic" in out and "latticesum" in out


def test_verify_mismatch_exit_1(capsys):
    # an absurd tolerance cannot be met by the numeric methods
    assert main(["verify", "--k", "2", "--D", "12", "--tol", "1e-15"]) == 1


def test_table_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table", "--k", "2", "--Dmax", "40", "--method", "exact",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,D,d,method,value,error_estimate,hypothesis_ok,seconds"
    rows = {int(ln.split(",")[1]): ln.split(",") for ln in lines[1:]}
    # sum-of-two-squares discriminants are flagged, not computed
    for D in (5, 8, 13, 17, 20, 29, 37, 40):
        assert rows[D][6] == "false" and rows[D][4] == ""
    for D, val in ((12, "24"), (21, "32"), (24, "56"), (28, "72"), (33, "112")):
        assert rows[D][4] == val and rows[D][6] == "true"
    # squares and D ≡ 2, 3 (mod 4) never appear
    assert 9 not in rows and 16 not in rows and 36 not in rows and 14 not in rows


@pytest.mark.parametrize("k", [2, 4])
def test_table_exact_matches_golden(tmp_path, k):
    # columns 1-7 (all but seconds) of `table --k k --Dmax 150 --method exact`,
    # byte for byte: the hypothesis_ok=false rows and the value format included
    out = tmp_path / "t.csv"
    assert main(["table", "--k", str(k), "--Dmax", "150", "--method", "exact",
                 "--out", str(out)]) == 0
    got = "".join(ln.rsplit(",", 1)[0] + "\n" for ln in out.read_text().splitlines())
    golden = Path(__file__).parent / "golden" / f"table_k{k}_Dmax150_exact.csv"
    assert got == golden.read_text()


def test_table_json_round_trip(tmp_path):
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    assert main(["table", "--k", "2", "--Dmax", "24", "--method", "exact",
                 "--out", str(csv_path)]) == 0
    assert main(["table", "--k", "2", "--Dmax", "24", "--method", "exact",
                 "--json", "--out", str(json_path)]) == 0
    header = csv_path.read_text().splitlines()[0].split(",")
    csv_rows = [dict(zip(header, ln.split(","))) for ln in csv_path.read_text().splitlines()[1:]]
    json_rows = json.loads(json_path.read_text())
    assert len(csv_rows) == len(json_rows)
    for a, b in zip(csv_rows, json_rows):
        for key in header:
            if key == "seconds":
                continue  # timing varies run to run
            assert a[key] == b[key], key


def test_table_deterministic_values(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["table", "--k", "2", "--Dmax", "33", "--method", "exact", "--threads", "2"]
    assert main([*args, "--out", str(p1)]) == 0
    assert main([*args, "--out", str(p2)]) == 0

    def strip_seconds(path):
        return [ln.rsplit(",", 1)[0] for ln in path.read_text().splitlines()]

    assert strip_seconds(p1) == strip_seconds(p2)


def test_table_geodesic_threads_agree():
    # the geodesic jobs of one (k, d) share an evaluator across threads;
    # each run is a fresh process, so the threads grow it from cold
    def values(threads):
        proc = run_cli("table", "--k", "2", "--Dmax", "40", "--method", "geodesic",
                       "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        return [ln.rsplit(",", 1)[0] for ln in proc.stdout.splitlines()]

    assert values("4") == values("1")


def test_table_builds_each_series_once(tmp_path, monkeypatch):
    from cyclotrace import special_forms

    calls = {"hurwitz_gen": 0, "theta_N_minus": 0}
    for name in calls:
        def counted(prec, _name=name, _fn=getattr(special_forms, name)):
            calls[_name] += 1
            return _fn(prec)

        monkeypatch.setattr(special_forms, name, counted)
    out = tmp_path / "t.csv"
    assert main(["table", "--k", "4", "--Dmax", "150", "--method", "exact",
                 "--out", str(out)]) == 0
    assert calls == {"hurwitz_gen": 1, "theta_N_minus": 1}
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert sum(row[6] == "true" for row in rows) > 20


def test_table_keeps_rows_past_no_convergence(tmp_path, monkeypatch, capsys):
    import cyclotrace.cli as cli
    from cyclotrace.errors import NoConvergence

    args = ["table", "--k", "4", "--Dmax", "33", "--method", "all"]

    def read(path, as_json):
        if as_json:
            return json.loads(path.read_text())
        header, *lines = path.read_text().splitlines()
        return [dict(zip(header.split(","), ln.split(","))) for ln in lines]

    def key(row):
        return (row["D"], row["method"])

    def strip(rows):
        return {key(row): {k: v for k, v in row.items() if k != "seconds"} for row in rows}

    for as_json in (False, True):
        flags = ["--json"] if as_json else []
        good = tmp_path / f"good{as_json}"
        assert main([*args, *flags, "--out", str(good)]) == 0
        lattice_sum = cli.lhs_latticesum

        def stalls_at_21(k, D, d, tol):
            if D == 21:
                raise NoConvergence("lattice-sum cutoff above ceiling")
            return lattice_sum(k, D, d, tol=tol)

        monkeypatch.setattr(cli, "lhs_latticesum", stalls_at_21)
        bad = tmp_path / f"bad{as_json}"
        assert main([*args, *flags, "--out", str(bad)]) == 4
        monkeypatch.setattr(cli, "lhs_latticesum", lattice_sum)
        assert "no convergence at D=21" in capsys.readouterr().err
        expected, got = strip(read(good, as_json)), strip(read(bad, as_json))
        assert expected.keys() == got.keys() and len(got) == 3 * 12
        stalled = got.pop(("21", "latticesum"))
        assert (stalled["value"], stalled["error_estimate"], stalled["hypothesis_ok"]) == ("", "", "true")
        assert expected.pop(("21", "latticesum"))["value"] != ""
        assert got == expected


def test_table_unwritable_exit_3(tmp_path):
    assert main(["table", "--k", "2", "--Dmax", "21", "--method", "exact",
                 "--out", "/nonexistent-dir/x.csv"]) == 3


def test_float_format():
    # %.12e formatting of float fields
    proc = run_cli("table", "--k", "2", "--Dmax", "12", "--method", "exact")
    line = [l for l in proc.stdout.splitlines() if l.startswith("2,12")][0]
    fields = line.split(",")
    assert fields[5] == "0.000000000000e+00"
    assert "e" in fields[7]


def test_selftest_runs():
    proc = run_cli("selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "passed, 0 failed" in proc.stdout


@pytest.mark.parametrize("args", [
    ["--k", "4", "--D", "21", "--method", "exact"],
    ["--k", "2", "--D", "12", "--method", "latticesum", "--tol", "1e-3"],
    ["--k", "4", "--D", "21", "--d", "-3", "--method", "latticesum", "--tol", "1e-5"],
])
def test_trace_same_under_optimize(args):
    # the exact path's pi-power check and the general-d lattice solve are
    # real checks too, so python -O leaves these runs unchanged
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "cyclotrace.cli", "trace", *args],
                       capture_output=True, text=True)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0
    seconds = re.compile(r"seconds=\S+")
    assert seconds.sub("", optimized.stdout) == seconds.sub("", plain.stdout)
