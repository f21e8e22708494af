"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload path once, a traced round, and feeds the checks
outputs with a perturbed value or a wrong hypothesis flag, which must
count as failed operations.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(autouse=True)
def _own_output_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


TINY = {
    "exact-table": lambda: run.ExactTable(dmax=40),
    "geodesic-cold": lambda: run.GeodesicCold([(2, 12, -4, 1e-3), (3, 12, -20, 1e-4), (4, 12, -7, 1e-4)]),
    "certify-mix": lambda: run.CertifyMix(dmax=24),
}


def test_reference_values():
    assert reference.exact_trace(2, 12) == 24
    assert reference.exact_trace(4, 12) == 72
    assert [reference.hurwitz(n) for n in (0, 3, 4, 7, 8, 12)] == [
        Fraction(-1, 12), Fraction(1, 3), Fraction(1, 2), 1, 1, Fraction(4, 3)]
    sums = {b * b + 4 * a * a for a in range(1, 6) for b in range(11)}
    assert reference.geodesic_hits_cm(100, -4) == {D for D in sums if D <= 100}


def test_every_workload_runs_and_checks():
    for name, make in TINY.items():
        result = run.measure(make(), seed=3, seconds=0, trace=False)
        assert result["correct"], name
        assert result["attempted"] > 0
        assert set(result["metrics"]) == {"wall_s", "trace_p50_s", "setup_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in result["metrics"].values()), name
        # the under-covered k = 2 lattice sums at D = 12 and 24
        assert result["failed"] == (2 if name == "certify-mix" else 0), name


def test_traced_counts_repeat():
    first = run.measure(TINY["exact-table"](), seed=1, seconds=0, trace=True)
    again = run.measure(TINY["exact-table"](), seed=2, seconds=0, trace=True)
    assert first["correct"] and again["correct"]
    layers = run.per_layer()
    assert list(first["metrics"]) == [name for name, _ in layers]
    counts = [name for name, unit in layers if unit == "count"]
    assert [first["metrics"][n] for n in counts] == [again["metrics"][n] for n in counts]
    assert first["metrics"]["cli.table.rows"]["value"] > 0


def test_every_listed_layer_is_measured():
    listed = {name for name, _ in run.per_layer()}
    assert listed <= tracer.LAYER_METRICS | run.RUN_METRICS


def test_unmeasured_layer_breaks_the_traced_run(monkeypatch):
    layers = run.per_layer() + [("special_forms.renamed_layer.s", "s")]
    monkeypatch.setattr(run, "per_layer", lambda: layers)
    result = run.measure(TINY["exact-table"](), seed=1, seconds=0, trace=True)
    assert not result["correct"]
    assert result["metrics"]["special_forms.renamed_layer.s"]["value"] is None


def _table_csv(path, workload, k, perturb):
    lines = ["k,D,d,method,value,error_estimate,hypothesis_ok,seconds"]
    for (kk, D), exact in workload.expected.items():
        if kk != k:
            continue
        flag, value = ("false", "") if exact is None else ("true", str(exact))
        if D in perturb:
            flag, value = perturb[D]
        lines.append(f"{k},{D},-4,exact,{value},0,{flag},1e-3")
    path.write_text("\n".join(lines) + "\n")


def test_wrong_value_or_flag_is_a_failed_operation(tmp_path):
    w = run.ExactTable(dmax=40)
    w.prepare(None)
    out = tmp_path / "t.csv"
    job = {"k": 2, "out": str(out)}
    _table_csv(out, w, 2, {})
    assert not any(op.problems for op in w.check(job, {"exit": 0}))
    exact12 = w.expected[(2, 12)]
    _table_csv(out, w, 2, {12: ("true", str(exact12 + 1)), 13: ("true", "5"), 21: ("false", "")})
    failed = {op.name for op in w.check(job, {"exit": 0}) if op.problems}
    assert failed == {"k=2 D=12", "k=2 D=13", "k=2 D=21"}


def _verify_record(geo_shift, ls_shift, ls_est, D=12, exit=0):
    exact = reference.exact_trace(2, D)
    rec = {"hypothesis_ok": True, "tol": 1e-3, "seconds": 0.1, "cutoff": {}}
    return {
        "case": {"k": 2, "D": D, "d": -4, "methods": ["exact", "geodesic", "latticesum"]},
        "methods": {
            "exact": {**rec, "value": str(exact), "error_estimate": 0.0},
            "geodesic": {**rec, "value": float(exact) + geo_shift, "error_estimate": 1e-6},
            "latticesum": {**rec, "value": float(exact) + ls_shift, "error_estimate": ls_est},
        },
        "exit": exit,
        "seconds": 0.3,
    }


def test_numeric_checks():
    w = run.CertifyMix(dmax=24)
    ok = w._check_case(_verify_record(1e-8, 1e-5, 2e-5))
    assert not ok.problems
    perturbed = w._check_case(_verify_record(1e-3, 1e-5, 2e-5))
    assert perturbed.problems and not perturbed.known
    mismatch = w._check_case(_verify_record(1e-8, 1e-5, 2e-5, exit=1))
    assert mismatch.problems == ["verify returned 1"] and not mismatch.known
    under = w._check_case(_verify_record(1e-8, 3e-5, 2e-5))
    assert under.problems == [run.UNDER_COVERED] and under.known
    # only the four named cases are known; any other under-covered sum fails the run
    other = w._check_case(_verify_record(1e-8, 3e-5, 2e-5, D=21))
    assert other.problems == [run.UNDER_COVERED] and not other.known
