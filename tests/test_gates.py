"""The gate harness, tests/gates.py, and the CI steps that run it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gates

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CI_STEP = "PYTHONPATH=src python -O tests/gates.py "
CASES = "[(2, 12, -4), (4, 21, -4), (2, 24, -4)]"


def run_optimized(*args):
    # CI runs the gates under python -O, which strips asserts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(ROOT / "src")]))
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True,
                           env=env, cwd=ROOT, timeout=120)


def run_cover(method):
    # three d = -4 geodesic cases against the geodesic gate's exact reference
    code = ("import types, gates\n"
            "gate = gates.GATES['geodesic'].keywords\n"
            f"gates.cover('k, D, d', {CASES}, {method}, gate['reference'])\n")
    return run_optimized("-c", code)


def test_covered_cases_exit_0_with_one_summary_line():
    proc = run_cover("gate['method']")
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"3 cases: 0 under-covered, 0 raised, \d+\.\d s; largest \|value - exact\| / "
                        r"error_estimate \d\.\d{3} at \(k, D, d\) = \(\d, \d\d, -4\)\n", proc.stdout)


def test_an_error_bar_ten_times_too_small_fails_and_names_its_cases():
    proc = run_cover("lambda k, D, d, exact: types.SimpleNamespace(value=exact + 1e-6, error_estimate=1e-7)")
    assert proc.returncode == 1
    assert proc.stdout.startswith("3 cases: 3 under-covered, 0 raised")
    assert f"under-covered: {CASES}\nraised: []" in proc.stderr


def test_a_method_that_raises_fails_and_names_the_raise():
    proc = run_cover("lambda *case: 1 / 0")
    assert proc.returncode == 1
    assert "under-covered: []\nraised: [(2, 12, -4, 'ZeroDivisionError'), (4, 21, -4, 'ZeroDivisionError')" \
        in proc.stderr


def test_one_mismatch_fails_the_shared_summary_and_names_its_case():
    proc = run_optimized("-c", "import gates, time\n"
                         "gates.conclude(time.perf_counter(), '3 counts', {'mismatches': [(-7, 12, 4)], 'strays': []})")
    assert proc.returncode == 1
    assert re.fullmatch(r"3 counts: 1 mismatches, 0 strays, \d+\.\d s\n", proc.stdout)
    assert proc.stderr == "mismatches: [(-7, 12, 4)]\nstrays: []\n"


def test_a_command_line_run_with_the_wrong_exit_code_fails_and_names_its_arguments():
    # the exact trace exits 0, and a violated hypothesis exits 2, not the 1 asked of it
    runs = [("trace --k 2 --D 12 --method exact", 0), ("trace --k 4 --D 41 --d -20 --method geodesic", 1)]
    proc = run_optimized("-c", f"import gates\ngates.GATES['cli-runs'].func('runs', {runs})")
    assert proc.returncode == 1
    assert "2 runs: 1 wrong exit codes (arguments, got, expected)" in proc.stdout
    assert proc.stderr.endswith("wrong exit codes (arguments, got, expected): "
                                "[('trace --k 4 --D 41 --d -20 --method geodesic', 2, 1)]\n")


@pytest.mark.parametrize("args", [[], ["geodesics"], ["geodesic", "stop-rules"]])
def test_a_missing_or_unknown_gate_name_fails_and_lists_the_names(args):
    proc = run_optimized("tests/gates.py", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().endswith(", ".join(gates.GATES))


def test_the_harness_has_no_assert_statements():
    # python -O strips them, so every failure must be an explicit sys.exit
    tree = ast.parse((TESTS / "gates.py").read_text())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_every_gate_runs_in_exactly_one_ci_step():
    # the workflow is setup, tier-1, one step per gate in the order of GATES, and the
    # benchmark smoke test: a check anywhere else (a heredoc, a shell loop, a bare
    # cyclotrace.cli run) cannot run locally, and a gate with no step is dropped silently
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.split(r"^      - ", workflow.split("\n    steps:\n")[1], flags=re.M)
    assert steps[:5] == [
        "",
        "uses: actions/checkout@v4\n",
        'uses: actions/setup-python@v5\n        with:\n          python-version: "3.11"\n',
        "name: Install numpy, scipy, mpmath and pytest\n"
        "        run: python -m pip install numpy scipy mpmath pytest\n",
        "name: Tier-1 tests\n"
        "        run: PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors\n"]
    assert steps[5:-1] == [f"run: {CI_STEP}{name}\n" for name in gates.GATES]
    assert steps[-1] == "name: Benchmark smoke test\n        run: python3 -m pytest perfbench/test_smoke.py\n"
