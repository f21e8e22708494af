"""CI's checks beyond the unit tests, one named gate each: error bars cover true errors,
reports name their stop rules, exact values and sieve counts equal independent references,
and the command line exits as documented.

Run one, asserts stripped, as ``PYTHONPATH=src python -O tests/gates.py NAME``.  It prints
its summary and exits nonzero on a failure, or on a missing or unknown NAME, for which it
lists the names.  Every failure is an explicit ``sys.exit``, since ``-O`` strips asserts.
pytest does not collect this file.
"""

import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import zip_longest
from pathlib import Path
from unittest import mock

from cyclotrace import cli
from cyclotrace.analytic import CLASS_NUMBER_ONE, _DirichletSieve, lhs_geodesic, lhs_latticesum
from cyclotrace.arith import is_square
from cyclotrace.bqf import PairingSolver, definite_class_reps, hypothesis_check
from cyclotrace.special_forms import ExactSeries, closed_formula, rhs_trace

ROOT = Path(__file__).resolve().parents[1]


def discriminants(Dmax):
    """The non-square discriminants 5 <= D <= Dmax."""
    return [D for D in range(5, Dmax + 1) if D % 4 in (0, 1) and not is_square(D)]


def admissible(Dmax, d):
    """The discriminants 5 <= D <= Dmax whose geodesics avoid d's CM points."""
    return [D for D in discriminants(Dmax) if hypothesis_check(D, d)]


def conclude(start, counted, failed, note=""):
    """Print one summary line; exit nonzero, listing the cases of each kind of failure, if any."""
    print(f"{counted}: {', '.join(f'{len(cases)} {kind}' for kind, cases in failed.items())}, "
          f"{time.perf_counter() - start:.1f} s{note}")
    if any(failed.values()):
        sys.exit("\n".join(f"{kind}: {cases[:20]}" for kind, cases in failed.items()))


def cyclotrace(*args, cwd=None):
    """Run the command line in a fresh python -O, as a user does, and return its exit code."""
    print("cyclotrace", *args, flush=True)
    return subprocess.run([sys.executable, "-O", "-m", "cyclotrace.cli", *args], cwd=cwd, stdin=subprocess.DEVNULL,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).returncode


def exit_codes(noun, runs):
    """Exit nonzero unless each (arguments, exit code) run, in a temporary directory, exits so."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as cwd:
        wrong = [(args, got, want) for args, want in runs if (got := cyclotrace(*args.split(), cwd=cwd)) != want]
    conclude(start, f"{len(runs)} {noun}", {"wrong exit codes (arguments, got, expected)": wrong})


def readme_commands():
    """Exit nonzero unless every cyclotrace line of README's "Command line" section exits 0."""
    section = (ROOT / "README.md").read_text().partition("\n## Command line\n")[2].partition("\n## ")[0]
    runs = [(line.split("#")[0].removeprefix("cyclotrace ").strip(), 0)
            for line in section.splitlines() if line.startswith("cyclotrace ")]
    if not runs:
        sys.exit("no cyclotrace command found in README.md")
    exit_codes("README commands", runs)


def cover(label, cases, method, reference, skip=None):
    """Exit nonzero unless method's error bar covers its distance from reference in every case.

    Each case is a tuple of the fields named by label.  reference(*case) is an
    exact value, or a report whose error_estimate is its bar; method(*case, ref)
    returns a report.  A case where skip(*case, ref, bar) holds is not checked.
    A case is under-covered when |value - ref| > error_estimate + bar.
    """
    start = time.perf_counter()
    under, raised, skipped, worst, against = [], [], 0, (0.0, ()), "exact"
    for case in cases:
        ref, bar = reference(*case), 0
        if hasattr(ref, "error_estimate"):
            against, ref, bar = "reference", ref.value, ref.error_estimate
        if skip is not None and skip(*case, ref, bar):
            skipped += 1
            continue
        try:
            rep = method(*case, ref)
        except Exception as e:
            raised.append((*case, type(e).__name__))
            continue
        error = abs(rep.value - ref)
        worst = max(worst, (error / rep.error_estimate if rep.error_estimate else float("inf"), case))
        if error > rep.error_estimate + bar:
            under.append(case)
    counted = f"{len(cases)} cases" if skip is None else f"{len(cases)} checks, {skipped} skipped"
    conclude(start, counted, {"under-covered": under, "raised": raised},
             f"; largest |value - {against}| / error_estimate {worst[0]:.3f} at ({label}) = {worst[1]}")


def stop_rules():
    """Exit nonzero unless every numeric report names its stop rule, and a tol stop met tol.

    The reports are the benchmark's: those verify --tol 1e-4 computes over
    every admissible D <= 48 of certify-mix's (k, d) groups, and the
    geodesic-cold traces.
    """
    start = time.perf_counter()
    reports = {"certify-mix": [], "geodesic-cold": []}
    compute = cli.compute_trace
    def recording(*args):
        reports["certify-mix"].append(compute(*args))
        return reports["certify-mix"][-1]
    cases = [(k, D, d) for k, d in ((2, -4), (4, -4), (3, -4), (4, -7)) for D in admissible(48, d)]
    with mock.patch.object(cli, "compute_trace", recording), contextlib.redirect_stdout(io.StringIO()):
        for k, D, d in cases:
            cli.cmd_verify(cli.RunConfig(k=k, D=D, d=d, tol=1e-4))
    reports["geodesic-cold"] = [lhs_geodesic(k, D, d, tol=tol) for k, D, d, tol in
                                ((2, 12, -4, 1e-6), (3, 12, -7, 1e-7), (3, 12, -20, 1e-6),
                                 (4, 12, -4, 1e-10), (4, 12, -7, 1e-9))]
    bad = []
    for name, reps in reports.items():
        numeric = [r for r in reps if r.method != "exact"]
        bad += [(name, r.method, r.k, r.D, r.d, r.cutoff) for r in numeric
                if r.cutoff.get("stop_rule") not in ("tol", "rest", "noise_floor")
                or (r.cutoff["stop_rule"] == "tol" and not r.cutoff["met_tol"])]
        print(f"{name}: {len(numeric)} numeric reports, stops {dict(Counter(r.cutoff.get('stop_rule') for r in numeric))}")
    conclude(start, f"{len(cases)} verify cases", {"reports with no stop rule, or a tol stop that missed tol": bad})


def sieve_counts():
    """Exit nonzero unless the sieve counts PairingSolver's forms for the nine d of class number
    one, every non-square D <= 200 and every t <= 512, and the other parity of t holds no form."""
    start, counts, miscounted, stray = time.perf_counter(), 0, [], []
    for d in CLASS_NUMBER_ONE:
        forms = PairingSolver(definite_class_reps(d)[0]).forms
        for D in discriminants(200):
            # t = 2j - e for j <= 256 covers every t <= 512 of the parity e = -dD mod 2 that holds forms
            t = [2 * j - (-d * D % 2) for j in range(1, 257)]
            counts += len(t)
            miscounted += [(d, D, u) for u, n in zip(t, _DirichletSieve(d, D).counts(0, 256).tolist())
                           if n != len(forms(D, u))]
            stray += [(d, D, u + 1) for u in t if forms(D, u + 1)]
    conclude(start, f"{counts} counts", {"mismatches": miscounted, "forms at the other parity": stray})


def exact_series():
    """Exit nonzero unless rhs_trace through one shared series equals closed_formula up to D = 2000."""
    start, series = time.perf_counter(), ExactSeries(2000)
    cases = [(k, D) for k in (2, 4) for D in admissible(2000, -4)]
    conclude(start, f"{len(cases)} rhs_trace values", {"differ from closed_formula": [
        (k, D) for k, D in cases if rhs_trace(k, D, series=series) != closed_formula(k, D)]})


def exact_tables():
    """Exit nonzero unless table --method exact, for k in {2, 4}, has a row for every non-square
    D <= 1000 whose value equals closed_formula, or is empty where the hypothesis fails."""
    start, bad, values = time.perf_counter(), [], 0
    with tempfile.TemporaryDirectory() as out:
        for k in (2, 4):
            path = os.path.join(out, f"k{k}.csv")
            if cyclotrace("table", "--k", str(k), "--Dmax", "1000", "--method", "exact", "--out", path):
                sys.exit(f"table --k {k} --Dmax 1000 --method exact exits nonzero")
            with open(path, newline="") as fh:
                rows = [(int(row["D"]), row["k"], row["d"], row["method"], row["hypothesis_ok"],
                         row["value"] and Fraction(row["value"])) for row in csv.DictReader(fh)]
            want = [(D, str(k), "-4", "exact", "true", closed_formula(k, D)) if hypothesis_check(D, -4)
                    else (D, str(k), "-4", "exact", "false", "") for D in discriminants(1000)]
            bad += [(k, row, wanted) for row, wanted in zip_longest(rows, want) if row != wanted]
            values += sum(row == wanted and row[4] == "true" for row, wanted in zip(rows, want))
    conclude(start, f"{values} table values equal closed_formula", {"rows differ (k, row, expected)": bad})


CLI_RUNS = [
    ("verify --k 6 --D 5 --d -23 --tol 1e-6", 0),  # pinned evaluator, class filter and general-d lattice sum
    ("verify --k 4 --D 12 --d -7 --tol 1e-4", 0),  # general-d lattice sum through the sieve
    ("verify --k 4 --D 12 --d -20 --tol 1e-4", 0),  # general-d lattice sum through the pairing solver
    ("verify --k 2 --D 12 --d -7 --tol 1e-6", 0),  # general-d lattice sum's 1/T tail
    ("verify --k 2 --D 21 --d -3 --tol 1e-6", 0),  # the d = -3 lattice sum's 1/T tail
    ("verify --k 2 --D 13 --d -8 --tol 1e-6", 0),  # the sieved d = -8 lattice sum's 1/T tail
    ("verify --k 4 --D 805 --d -7 --tol 1e-6", 0),  # four classes in lockstep, one evaluator call per doubling
    ("trace --k 4 --D 41 --d -20 --method geodesic", 2),  # a violated hypothesis from the non-principal class [2, 2, 3]
]

_geodesic_reference = lru_cache(maxsize=None)(lambda k, D, d: lhs_geodesic(k, D, d, tol=1e-10))

GATES = {
    "cli-runs": partial(exit_codes, "runs", CLI_RUNS),
    "readme-commands": readme_commands,
    "sieve-counts": sieve_counts,
    "exact-series": exact_series,
    "exact-tables": exact_tables,
    # relative 1e-7 at d = -4, and absolute 1e-7 at odd k, whose exact trace is 0
    "geodesic": partial(
        cover, "k, D, d",
        cases=[(k, D, -4) for k in (2, 4) for D in admissible(1000, -4)]
        + [(3, D, d) for d in (-3, -7, -20) for D in admissible(300, d)],
        method=lambda k, D, d, exact: lhs_geodesic(k, D, d, tol=1e-7 * (1 + abs(exact))),
        reference=lambda k, D, d: closed_formula(k, D) if k % 2 == 0 else 0),
    # relative 1e-3, 2.5e-5 and 2.5e-6, what verify --tol 1e-4 and --tol 1e-6 ask
    # of the sum, and at k = 4 relative 1e-13, where the sum's own rounding shows
    "latticesum-d4": partial(
        cover, "k, D, rel",
        cases=[(k, D, rel) for rel in (1e-3, 2.5e-5, 2.5e-6) for k in (2, 4) for D in admissible(400, -4)]
        + [(4, D, 1e-13) for D in admissible(400, -4)],
        method=lambda k, D, rel, exact: lhs_latticesum(k, D, -4, tol=rel * (1 + abs(exact))),
        reference=lambda k, D, rel: closed_formula(k, D)),
    # k = 2 stays out: at tol 2.5e-5 relative, (2, 65, -8) under-covers by 1.027x
    # (ROADMAP item 5, a smoothed cutoff for the lattice sum at k = 2)
    "latticesum-general-d": partial(
        cover, "k, D, d, rel",
        cases=[(k, D, d, rel) for d in (-3, -7, -8) for k in (4, 6) for D in admissible(100, d)
               for rel in (1e-3, 2.5e-5)],
        method=lambda k, D, d, rel, ref: lhs_latticesum(k, D, d, tol=rel * (1 + abs(ref))),
        reference=lambda k, D, d, rel: _geodesic_reference(k, D, d),
        # a reference whose own error bar is not far below tol shows nothing
        skip=lambda k, D, d, rel, ref, bar: bar >= 1e-3 * (rel * (1 + abs(ref)))),
    "stop-rules": stop_rules,
}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in GATES:
        sys.exit(f"usage: tests/gates.py NAME, where NAME is one of: {', '.join(GATES)}")
    GATES[sys.argv[1]]()
