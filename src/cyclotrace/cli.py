"""Command-line surface: trace, verify, table, selftest.

Exit codes are the machine contract: 0 ok, 1 mismatch, 2 hypothesis
violated, 3 invalid input, 4 no convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .arith import check_discriminant, is_square
from .errors import (
    CyclotraceError,
    HypothesisViolated,
    NoConvergence,
    SquareDiscriminant,
    UnsupportedK,
)
from .special_forms import EXACT_K, ExactSeries, rhs_trace
from .analytic import TraceReport, check_tol, lhs_geodesic, lhs_latticesum, trace_report

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_HYPOTHESIS = 2
EXIT_INPUT = 3
EXIT_NO_CONVERGENCE = 4

CSV_HEADER = "k,D,d,method,value,error_estimate,hypothesis_ok,seconds"

# the (k, d) the exact method covers, as its error messages name them
_EXACT_SCOPE = "k in {%s} and d = -4" % ", ".join(map(str, EXACT_K))


@dataclass
class RunConfig:
    k: int
    d: int = -4
    D: int | None = None
    Dmax: int | None = None
    methods: tuple[str, ...] = ("exact",)
    tol: float = 1e-6
    out: str | None = None
    as_json: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        check_discriminant(self.d, positive=False)
        if self.D is not None:
            check_discriminant(self.D)
        check_tol(self.tol)


def _exact_applies(k: int, d: int) -> bool:
    return k in EXACT_K and d == -4


def _applicable(methods: tuple[str, ...], k: int, d: int) -> list[str]:
    return [m for m in methods if m != "exact" or _exact_applies(k, d)]


def compute_trace(method: str, k: int, D: int, d: int, tol: float,
                  series: ExactSeries | None = None) -> TraceReport:
    """One trace by one method; series, if given, is shared by exact traces."""
    if method == "exact":
        if not _exact_applies(k, d):
            raise ValueError(f"exact method requires {_EXACT_SCOPE}")
        t0 = time.perf_counter()
        return trace_report("exact", k, D, d, t0, rhs_trace(k, D, series))
    if method == "geodesic":
        return lhs_geodesic(k, D, d, tol=tol)
    if method == "latticesum":
        return lhs_latticesum(k, D, d, tol=tol)
    raise ValueError(f"unknown method {method}")


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return "%.12e" % float(v)


def _row_fields(r: TraceReport) -> dict:
    return {
        "k": str(r.k),
        "D": str(r.D),
        "d": str(r.d),
        "method": r.method,
        "value": _fmt_value(r.value) if r.value is not None else "",
        "error_estimate": "%.12e" % r.error_estimate if r.value is not None else "",
        "hypothesis_ok": "true" if r.hypothesis_ok else "false",
        "seconds": "%.12e" % r.seconds,
    }


def cmd_trace(cfg: RunConfig) -> int:
    report = compute_trace(cfg.methods[0], cfg.k, cfg.D, cfg.d, cfg.tol)
    print(_fmt_value(report.value))
    print(
        f"method={report.method} error_estimate={report.error_estimate:.3e} "
        f"hypothesis_ok={'true' if report.hypothesis_ok else 'false'} "
        f"seconds={report.seconds:.3f}"
    )
    return EXIT_OK


# the numeric methods cannot usefully be driven below these relative
# computation targets; the comparison bound still follows the requested
# tolerance, so an unreachable request reports a mismatch rather than
# grinding forever
_COMPUTE_FLOOR = {"geodesic": 2e-7, "latticesum": 5e-6}


def cmd_verify(cfg: RunConfig) -> int:
    methods = _applicable(("exact", "geodesic", "latticesum"), cfg.k, cfg.d)
    reports = []
    scale = 1.0
    for m in methods:
        tol_m = max(cfg.tol, _COMPUTE_FLOOR.get(m, 0.0)) * scale / 2
        r = compute_trace(m, cfg.k, cfg.D, cfg.d, tol_m)
        reports.append(r)
        scale = max(scale, 1.0 + abs(float(r.value)))
    print(f"k={cfg.k} D={cfg.D} d={cfg.d}")
    for r in reports:
        print(f"  {r.method:<10} {_fmt_value(r.value):>24}  (err {r.error_estimate:.2e}, {r.seconds:.2f}s)")
    ok = True
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            a, b = float(reports[i].value), float(reports[j].value)
            delta = abs(a - b)
            bound = cfg.tol * (1.0 + max(abs(a), abs(b)))
            state = "ok" if delta <= bound else "MISMATCH"
            print(
                f"  |{reports[i].method} - {reports[j].method}| = {delta:.3e} "
                f"(tolerance {bound:.3e}) {state}"
            )
            ok = ok and delta <= bound
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_table(cfg: RunConfig) -> int:
    if cfg.Dmax is None:
        raise ValueError("table needs --Dmax")
    methods = _applicable(cfg.methods, cfg.k, cfg.d)
    if not methods:
        raise ValueError(f"no applicable method (exact needs {_EXACT_SCOPE})")

    Ds = [D for D in range(5, cfg.Dmax + 1) if D % 4 in (0, 1) and not is_square(D)]
    # every exact row reads one prefix of the series for the largest D
    series = ExactSeries(Ds[-1]) if Ds and "exact" in methods else None
    stalled = []

    def run(D, m):
        t0 = time.perf_counter()
        hypothesis_ok = True
        try:
            return compute_trace(m, cfg.k, D, cfg.d, cfg.tol, series)
        except HypothesisViolated:
            hypothesis_ok = False
        except NoConvergence as e:
            # the row stays in the table with no value; the others are kept
            print(f"no convergence at D={D} ({m}): {e}", file=sys.stderr)
            stalled.append(D)
        return trace_report(m, cfg.k, D, cfg.d, t0, hypothesis_ok=hypothesis_ok)

    reports = [run(D, m) for D in Ds for m in methods]
    rows = [_row_fields(r) for r in reports]
    if cfg.as_json:
        payload = json.dumps(rows, indent=2)
    else:
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(",".join(row[col] for col in CSV_HEADER.split(",")))
        payload = "\n".join(lines) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(payload)
        except OSError as e:
            print(f"cannot write {cfg.out}: {e}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(payload)
    return EXIT_NO_CONVERGENCE if stalled else EXIT_OK


def cmd_selftest() -> int:
    from . import selftest

    passed, failed = selftest.run()
    print(f"selftest: {passed} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input: it exits 3, not argparse's 2, which
    is the code for a violated hypothesis.  Subparsers take this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="cyclotrace",
        description=(
            "Traces of geodesic cycle integrals of meromorphic modular forms, "
            "computed exactly and by two independent numerical methods."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_D=True):
        sp.add_argument("--k", type=int, required=True, help="weight parameter, k >= 2")
        if need_D:
            sp.add_argument("--D", type=int, required=True,
                            help="positive non-square discriminant")
        sp.add_argument("--d", type=int, default=-4,
                        help="negative discriminant of the CM class (default -4)")
        sp.add_argument("--tol", type=float, default=1e-6, help="tolerance")
        sp.add_argument("--threads", type=int, default=None,
                        help="ignored; accepted so that older command lines still run")

    sp = sub.add_parser("trace", help="compute one trace by one method")
    common(sp)
    sp.add_argument("--method", default="exact",
                    choices=("exact", "geodesic", "latticesum"))

    sp = sub.add_parser("verify", help="run all applicable methods and compare")
    common(sp)

    sp = sub.add_parser("table", help="batch traces over a discriminant range")
    common(sp, need_D=False)
    sp.add_argument("--Dmax", type=int, required=True)
    sp.add_argument("--method", default="exact",
                    choices=("exact", "geodesic", "latticesum", "all"))
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    sub.add_parser("selftest", help="run the built-in invariant suite")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "trace":
            cfg = RunConfig(k=args.k, d=args.d, D=args.D, methods=(args.method,),
                            tol=args.tol)
            return cmd_trace(cfg)
        if args.command == "verify":
            cfg = RunConfig(k=args.k, d=args.d, D=args.D, tol=args.tol)
            return cmd_verify(cfg)
        if args.command == "table":
            methods = ("exact", "geodesic", "latticesum") if args.method == "all" else (args.method,)
            cfg = RunConfig(k=args.k, d=args.d, Dmax=args.Dmax, methods=methods,
                            tol=args.tol, out=args.out, as_json=args.json)
            return cmd_table(cfg)
        if args.command == "selftest":
            return cmd_selftest()
        return EXIT_INPUT
    except HypothesisViolated as e:
        print(f"hypothesis violated: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NoConvergence as e:
        print(f"no convergence: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, SquareDiscriminant, UnsupportedK) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except CyclotraceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
