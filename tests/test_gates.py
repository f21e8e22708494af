"""The coverage-gate harness, tests/gates.py, and the CI steps that run it."""

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
    # a gate missing from the workflow, or a step naming no gate, would drop
    # its check silently
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"^ *(?:- )?run: (.*tests/gates\.py.*)$", workflow, re.M)
    assert len(runs) == workflow.count("tests/gates.py")
    assert all(run.startswith(CI_STEP) for run in runs), runs
    assert sorted(run[len(CI_STEP):] for run in runs) == sorted(gates.GATES)
