"""One benchmark process: import cyclotrace, run a job, print one JSON result.

The job arrives as JSON on stdin, after the import, so the time from
the parent's spawn to READY is the interpreter's set-up alone.  Job
kinds:

- table:  `cyclotrace table --method exact` through `cli.main`;
- trace:  one `cli.compute_trace` call, as `cyclotrace trace` makes it;
- verify: `cli.cmd_verify` for a list of cases in this one warm process;
          the reports it computes are recorded by a wrapper around
          `cli.compute_trace`, and its printed output is discarded.

With "trace": true the calls are wrapped by tracer.py and the spans are
written to job["spans_out"] at the end.
"""

import time

import cyclotrace
import cyclotrace.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def _value(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def _report(r, tol, seconds):
    return {
        "value": _value(r.value),
        "error_estimate": float(r.error_estimate),
        "hypothesis_ok": bool(r.hypothesis_ok),
        "cutoff": r.cutoff,
        "tol": tol,
        "seconds": seconds,
    }


def _compute(method, k, D, d, tol):
    t0 = time.perf_counter()
    try:
        r = cli.compute_trace(method, k, D, d, tol)
    except Exception as e:  # an operation that raises is a failed operation
        return {"error": f"{type(e).__name__}: {e}", "tol": tol, "seconds": time.perf_counter() - t0}
    return _report(r, tol, time.perf_counter() - t0)


def run_table(job):
    argv = ["table", "--k", str(job["k"]), "--Dmax", str(job["dmax"]), "--method", "exact",
            "--threads", "1", "--out", job["out"]]
    t0 = time.perf_counter()
    code = cli.main(argv)
    return {"exit": code, "timed_s": time.perf_counter() - t0}


def run_trace(job):
    rec = _compute(job["method"], job["k"], job["D"], job["d"], job["tol"])
    return {"ops": [rec], "timed_s": rec["seconds"]}


def run_verify(job):
    """Each case through the program's own verify; its calls are recorded."""
    methods = {}
    compute = cli.compute_trace

    def recording(method, k, D, d, tol):
        t0 = time.perf_counter()
        try:
            r = compute(method, k, D, d, tol)
        except Exception as e:
            methods[method] = {"error": f"{type(e).__name__}: {e}", "tol": tol,
                               "seconds": time.perf_counter() - t0}
            raise
        methods[method] = _report(r, tol, time.perf_counter() - t0)
        return r

    cli.compute_trace = recording
    ops = []
    t0 = time.perf_counter()
    for case in job["cases"]:
        methods = {}
        cfg = cli.RunConfig(k=case["k"], D=case["D"], d=case["d"], tol=job["tol"])
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.cmd_verify(cfg)
        except Exception as e:  # a case whose verify raises is a failed operation
            code = f"{type(e).__name__}: {e}"
        ops.append({"case": case, "methods": methods, "exit": code, "seconds": time.perf_counter() - t1})
    cli.compute_trace = compute
    return {"ops": ops, "timed_s": time.perf_counter() - t0}


def main():
    job = json.loads(sys.stdin.read())
    tracer = None
    missing = []
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    out = {"table": run_table, "trace": run_trace, "verify": run_verify}[job["kind"]](job)
    out["ready"] = READY
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        info = getattr(cyclotrace.special_forms.hurwitz, "cache_info", None)
        if info is None:
            missing += tracing.CACHE_COUNTS
        else:
            tracer.add("special_forms.hurwitz.hits", info().hits)
            tracer.add("special_forms.hurwitz.misses", info().misses)
        with open(job["spans_out"], "w") as fh:
            json.dump(tracer.spans, fh)
        out["counts"] = tracer.counts
        out["missing"] = missing
    sys.stdout.write(json.dumps(out, default=str) + "\n")


if __name__ == "__main__":
    main()
