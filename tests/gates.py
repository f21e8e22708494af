"""Coverage gates: a numeric method's error bar covers its true error.

Run one gate, asserts stripped, as ``PYTHONPATH=src python -O tests/gates.py NAME``.
It prints its summary and exits nonzero on a failure, or on a missing or unknown
NAME, for which it lists the names.  Every failure is an explicit ``sys.exit``,
since ``-O`` strips asserts.  pytest does not collect this file.
"""

import contextlib
import io
import sys
import time
from collections import Counter
from functools import lru_cache, partial
from unittest import mock

from cyclotrace import cli
from cyclotrace.analytic import lhs_geodesic, lhs_latticesum
from cyclotrace.arith import is_square
from cyclotrace.bqf import hypothesis_check
from cyclotrace.special_forms import closed_formula


def admissible(Dmax, d):
    """The non-square discriminants 5 <= D <= Dmax whose geodesics avoid d's CM points."""
    return [D for D in range(5, Dmax + 1)
            if D % 4 in (0, 1) and not is_square(D) and hypothesis_check(D, d)]


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
    print(f"{counted}: {len(under)} under-covered, {len(raised)} raised, "
          f"{time.perf_counter() - start:.1f} s; largest |value - {against}| / error_estimate "
          f"{worst[0]:.3f} at ({label}) = {worst[1]}")
    if under or raised:
        sys.exit(f"under-covered: {under}\nraised: {raised}")


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
    print(f"{len(cases)} verify cases, {len(bad)} bad reports, {time.perf_counter() - start:.1f} s")
    if bad:
        sys.exit(f"no stop rule, or a tol stop that missed tol: {bad[:20]}")


_geodesic_reference = lru_cache(maxsize=None)(lambda k, D, d: lhs_geodesic(k, D, d, tol=1e-10))

GATES = {
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
