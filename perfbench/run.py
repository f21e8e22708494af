"""cyclotrace benchmark: one command, three workloads, four end-to-end metrics.

    python3 perfbench/run.py --workload exact-table --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Every operation runs in a worker process
(worker.py) and is checked here, outside the timed region, against
reference.py and the properties in README.md.  A run repeats whole
rounds of the same operations until `--seconds` have passed; the seed
fixes the order of the operations in each round.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones
(wall_s, trace_p50_s, setup_s, peak_rss_mb); with --trace 1 they are the
per-layer self times and counts that BENCHMARK.json lists, from wrappers
around the calls into each module (tracer.py).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 150

UNDER_COVERED = "latticesum: |value - exact| > error_estimate"

# k = 2, d = -4 lattice sums whose error estimate falls below the true
# error at verify tol 1e-4 (README.md, Checks)
KNOWN_UNDER_COVERED = {12, 24, 44, 48}

# per-layer metrics this file computes; the rest come from tracer.py
RUN_METRICS = {"cli.table.rows", "analytic.tol_missed", "trace.overhead_s"}


def per_layer() -> list[tuple[str, str]]:
    """(name, unit) of each per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


@dataclass
class Op:
    """One checked operation; it failed when problems is non-empty."""

    name: str
    seconds: float | None
    problems: list[str] = field(default_factory=list)
    known: bool = False  # failed only by the known under-covered lattice-sum estimate
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# property checks shared by the numeric workloads


def numeric_problems(label: str, rec: dict, k: int, exact: Fraction | None, detail: dict) -> list[str]:
    if "error" in rec:
        return [f"{label}: raised {rec['error']}"]
    problems = []
    if not rec["hypothesis_ok"]:
        problems.append(f"{label}: hypothesis_ok is false")
    value, est = Fraction(rec["value"]), Fraction(rec["error_estimate"])
    truth = Fraction(0) if k % 2 else exact
    if truth is not None:
        err = abs(value - truth)
        detail[label] = {"true_error": float(err), "error_estimate": float(est),
                         "ratio": float(est / err) if err else None}
        if err > est:
            problems.append(f"{label}: |value - {'exact' if exact is not None else '0'}| > error_estimate")
    return problems


def agreement_problems(values: dict, tol: float) -> list[str]:
    """verify's bound: |a - b| <= tol (1 + max(|a|, |b|)) for every pair of methods."""
    problems = []
    names = list(values)
    for i, m1 in enumerate(names):
        for m2 in names[i + 1:]:
            a, b = float(values[m1]), float(values[m2])
            if abs(a - b) > tol * (1.0 + max(abs(a), abs(b))):
                problems.append(f"|{m1} - {m2}| above verify's bound")
    return problems


def tol_missed(records) -> int:
    return sum(1 for rec in records if "error" not in rec and rec["error_estimate"] > rec["tol"])


# ----------------------------------------------------------------------
# workloads


class ExactTable:
    """`cyclotrace table --method exact` for k = 2 and 4, one process per table.

    One thread: two threads contending for the interpreter lock made the
    table depend on both vCPUs of a noisy host (README.md, Noise).
    """

    name = "exact-table"

    def __init__(self, dmax: int = 150):
        self.dmax = dmax

    def prepare(self, spawn) -> None:
        hits = reference.geodesic_hits_cm(self.dmax, -4)
        self.expected = {
            (k, D): None if D in hits else reference.exact_trace(k, D)
            for k in (2, 4) for D in reference.admissible(5, self.dmax)
        }

    def round_jobs(self, rng: random.Random) -> list[dict]:
        ks = [2, 4]
        rng.shuffle(ks)
        return [{"kind": "table", "k": k, "dmax": self.dmax, "out": str(OUT / f"table-k{k}.csv")} for k in ks]

    def check(self, job: dict, result: dict | None) -> list[Op]:
        k = job["k"]
        want = {D: v for (kk, D), v in self.expected.items() if kk == k}
        if result is None or result["exit"] != 0:
            why = "worker failed" if result is None else f"table exited {result['exit']}"
            return [Op(f"k={k} D={D}", None, [why]) for D in want]
        with open(job["out"], newline="") as fh:
            rows = {int(row["D"]): row for row in csv.DictReader(fh)}
        ops = []
        for D, exact in want.items():
            row = rows.pop(D, None)
            op = Op(f"k={k} D={D}", None)
            ops.append(op)
            if row is None:
                op.problems.append("row missing")
                continue
            if (row["k"], row["d"], row["method"]) != (str(k), "-4", "exact"):
                op.problems.append("wrong k, d or method column")
            if exact is None:
                if row["hypothesis_ok"] != "false" or row["value"]:
                    op.problems.append("hypothesis_ok should be false")
                continue
            op.seconds = float(row["seconds"])
            if row["hypothesis_ok"] != "true":
                op.problems.append("hypothesis_ok should be true")
            elif Fraction(row["value"]) != exact:
                op.problems.append(f"value {row['value']} != {exact}")
        ops += [Op(f"k={k} D={D}", None, ["unexpected row"]) for D in rows]
        return ops


# (k, D, d, tol): layer cutoffs reach 2^15 or 2^16, see README.md; an odd
# number of cases keeps the median operation on one case
GEODESIC_CASES = [
    (2, 12, -4, 1e-6),
    (3, 12, -7, 1e-7),
    (3, 12, -20, 1e-6),
    (4, 12, -4, 1e-10),
    (4, 12, -7, 1e-9),
]


class GeodesicCold:
    """One `cyclotrace trace --method geodesic` per fresh process."""

    name = "geodesic-cold"

    def __init__(self, cases=GEODESIC_CASES):
        self.cases = list(cases)

    def prepare(self, spawn) -> None:
        # d != -4 has no exact value; the lattice sum is the second method
        self.lattice = {}
        for k, D, d, tol in self.cases:
            if d != -4 and k % 2 == 0:
                res = spawn({"kind": "trace", "method": "latticesum", "k": k, "D": D, "d": d, "tol": 1e-6})
                self.lattice[(k, D, d)] = res["ops"][0] if res else {"error": "worker failed"}

    def round_jobs(self, rng: random.Random) -> list[dict]:
        cases = list(self.cases)
        rng.shuffle(cases)
        return [{"kind": "trace", "method": "geodesic", "k": k, "D": D, "d": d, "tol": tol}
                for k, D, d, tol in cases]

    def check(self, job: dict, result: dict | None) -> list[Op]:
        k, D, d = job["k"], job["D"], job["d"]
        op = Op(f"k={k} D={D} d={d} tol={job['tol']:g}", None)
        if result is None:
            op.problems.append("worker failed")
            return [op]
        rec = result["ops"][0]
        op.seconds = rec["seconds"]
        op.detail["records"] = [rec]
        exact = reference.exact_trace(k, D) if d == -4 and k % 2 == 0 else None
        op.problems += numeric_problems("geodesic", rec, k, exact, op.detail)
        if (k, D, d) in self.lattice and "error" not in rec:
            ls = self.lattice[(k, D, d)]
            if "error" in ls:
                op.problems.append(f"reference lattice sum raised {ls['error']}")
            elif abs(rec["value"] - ls["value"]) > rec["error_estimate"] + ls["error_estimate"]:
                op.problems.append("|geodesic - latticesum| > sum of estimates")
        return [op]


class CertifyMix:
    """verify's certification of many cases in one warm process per round."""

    name = "certify-mix"

    # (k, d, methods in verify's order)
    GROUPS = [
        (2, -4, ("exact", "geodesic", "latticesum")),
        (4, -4, ("exact", "geodesic", "latticesum")),
        (3, -4, ("geodesic", "latticesum")),
        (4, -7, ("geodesic", "latticesum")),
    ]

    def __init__(self, dmax: int = 48, tol: float = 1e-4):
        self.dmax = dmax
        self.tol = tol

    def prepare(self, spawn) -> None:
        self.cases = []
        for k, d, methods in self.GROUPS:
            hits = reference.geodesic_hits_cm(self.dmax, d)
            self.cases += [{"k": k, "D": D, "d": d, "methods": list(methods)}
                           for D in reference.admissible(5, self.dmax) if D not in hits]

    def round_jobs(self, rng: random.Random) -> list[dict]:
        cases = list(self.cases)
        rng.shuffle(cases)
        return [{"kind": "verify", "cases": cases, "tol": self.tol}]

    def check(self, job: dict, result: dict | None) -> list[Op]:
        if result is None:
            return [Op(f"k={c['k']} D={c['D']} d={c['d']}", None, ["worker failed"]) for c in job["cases"]]
        return [self._check_case(rec) for rec in result["ops"]]

    def _check_case(self, rec: dict) -> Op:
        case, methods = rec["case"], rec["methods"]
        k, D, d = case["k"], case["D"], case["d"]
        op = Op(f"k={k} D={D} d={d}", rec["seconds"])
        op.detail["records"] = list(methods.values())
        if list(methods) != case["methods"] or any("error" in m for m in methods.values()):
            op.problems += [f"{m}: raised {r['error']}" for m, r in methods.items() if "error" in r]
            if list(methods) != case["methods"]:
                op.problems.append(f"verify ran {list(methods)}, not {case['methods']}")
            return op
        if rec["exit"] != 0:
            op.problems.append(f"verify returned {rec['exit']}")
        exact = reference.exact_trace(k, D) if d == -4 and k % 2 == 0 else None
        if "exact" in methods:
            if not methods["exact"]["hypothesis_ok"] or Fraction(methods["exact"]["value"]) != exact:
                op.problems.append(f"exact: value {methods['exact']['value']} != {exact}")
        for m in ("geodesic", "latticesum"):
            op.problems += numeric_problems(m, methods[m], k, exact, op.detail)
        if d != -4 and k % 2 == 0:
            geo, ls = methods["geodesic"], methods["latticesum"]
            if abs(geo["value"] - ls["value"]) > geo["error_estimate"] + ls["error_estimate"]:
                op.problems.append("|geodesic - latticesum| > sum of estimates")
        op.problems += agreement_problems({m: Fraction(r["value"]) for m, r in methods.items()}, self.tol)
        op.known = k == 2 and d == -4 and D in KNOWN_UNDER_COVERED and op.problems == [UNDER_COVERED]
        return op


WORKLOADS = {"exact-table": ExactTable, "geodesic-cold": GeodesicCold, "certify-mix": CertifyMix}


# ----------------------------------------------------------------------
# running


def spawn(job: dict) -> dict | None:
    """Run one worker process; None when it failed.  Adds setup_s to the result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job), capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {job['kind']}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


@dataclass
class Round:
    wall: float = 0.0
    ops: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    missing: set = field(default_factory=set)


def run_round(workload, rng: random.Random, trace: bool) -> Round:
    rnd = Round()
    for i, job in enumerate(workload.round_jobs(rng)):
        job["trace"] = trace
        job["spans_out"] = str(OUT / f"spans-{workload.name}-{i}.json")
        result = spawn(job)
        ops = workload.check(job, result)
        rnd.ops += ops
        if result is None:
            continue
        rnd.wall += result["timed_s"]
        rnd.setups.append(result["setup_s"])
        rnd.rss.append(result["rss_mb"])
        if trace:
            for name, value in result["counts"].items():
                merge = max if name.endswith(".max") else (lambda a, b: a + b)
                rnd.counts[name] = merge(rnd.counts.get(name, 0), value)
            with open(job["spans_out"]) as fh:
                for name, s in tracing.self_times(json.load(fh)).items():
                    rnd.self_s[name] = rnd.self_s.get(name, 0.0) + s
            rnd.missing.update(result["missing"])
            records = [r for op in ops for r in op.detail.get("records", [])]
            for name, value in (("cli.table.rows", len(ops) if job["kind"] == "table" else 0),
                                ("analytic.tol_missed", tol_missed(records))):
                rnd.counts[name] = rnd.counts.get(name, 0) + value
    return rnd


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workload.prepare(spawn)
    rng = random.Random(seed)
    rounds, untraced = [], []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        if trace:
            # untraced and traced rounds alternate; their difference is the tracing overhead
            untraced.append(run_round(workload, rng, False))
        rounds.append(run_round(workload, rng, trace))
    ops = [op for rnd in untraced + rounds for op in rnd.ops]
    failed = [op for op in ops if op.problems]
    broken = []  # faults of the traced run itself
    if trace:
        first = rounds[0]
        if any(rnd.counts != first.counts for rnd in rounds[1:]):
            broken.append("per-layer counts differ between rounds")
        layers = per_layer()
        unknown = {name for name, _ in layers} - tracing.LAYER_METRICS - RUN_METRICS
        absent = set().union(*(rnd.missing for rnd in rounds)) | unknown
        if absent:
            broken.append(f"per-layer metrics not measured: {sorted(absent)}")
        values = {}
        for name, unit in layers:
            if name in absent:
                values[name] = None
            elif name == "trace.overhead_s":
                values[name] = (statistics.median(rnd.wall for rnd in rounds)
                                - statistics.median(rnd.wall for rnd in untraced))
            elif unit == "s":
                values[name] = statistics.median(rnd.self_s.get(name[:-2], 0.0) for rnd in rounds)
            else:
                values[name] = first.counts.get(name, 0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers}
    else:
        times = [op.seconds for op in ops if op.seconds is not None]
        setups = [s for rnd in rounds for s in rnd.setups]
        rss = [m for rnd in rounds for m in rnd.rss]
        metrics = {
            "wall_s": {"value": statistics.median(rnd.wall for rnd in rounds), "unit": "s"},
            "trace_p50_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": max(rss) if rss else 0.0, "unit": "MB"},
        }
    with open(OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"rounds": len(rounds), "round_wall_s": [rnd.wall for rnd in rounds],
                   "ops": [vars(op) for op in rounds[0].ops], "metrics": metrics}, fh, indent=1, default=str)
    for op in failed:
        print(f"failed{' (known)' if op.known else ''}: {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    for why in broken:
        print(f"traced run: {why}", file=sys.stderr)
    return {
        "correct": all(op.known for op in failed) and not broken,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cyclotrace" / "__init__.py").is_file():
        print(f"no cyclotrace source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
