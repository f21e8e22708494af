"""Cross-module contracts: discriminant validation and real invariant checks."""

import ast
import importlib
from pathlib import Path

import pytest

import cyclotrace
from cyclotrace.arith import check_discriminant, dirichlet_L_value
from cyclotrace.analytic import FkAEvaluator, cycle_integral, lhs_geodesic, lhs_latticesum
from cyclotrace.bqf import (
    BQF,
    definite_class_reps,
    hypothesis_check,
    indefinite_class_reps,
    on_geodesic_forms,
    pell_fundamental,
    stabilizer_order,
)
from cyclotrace.cli import RunConfig
from cyclotrace.errors import SquareDiscriminant
from cyclotrace.special_forms import build_fD, closed_formula, fD_const_term, rhs_trace

SRC = Path(cyclotrace.__file__).parent

# every public entry point that takes a positive discriminant D ...
TAKES_D = {
    "check_discriminant": check_discriminant,
    "lhs_geodesic": lambda D: lhs_geodesic(2, D),
    "lhs_latticesum": lambda D: lhs_latticesum(2, D),
    "indefinite_class_reps": indefinite_class_reps,
    "pell_fundamental": pell_fundamental,
    "on_geodesic_forms": lambda D: on_geodesic_forms(D, -4),
    "hypothesis_check": lambda D: hypothesis_check(D, -4),
    "fD_const_term": lambda D: fD_const_term(2, D),
    "build_fD": lambda D: build_fD(2, D),
    "rhs_trace": lambda D: rhs_trace(2, D),
    "closed_formula": lambda D: closed_formula(2, D),
    "RunConfig": lambda D: RunConfig(k=2, D=D),
}

# ... or a negative discriminant d
TAKES_d = {
    "check_discriminant": lambda d: check_discriminant(d, positive=False),
    "lhs_geodesic": lambda d: lhs_geodesic(2, 12, d),
    "lhs_latticesum": lambda d: lhs_latticesum(2, 12, d),
    "on_geodesic_forms": lambda d: on_geodesic_forms(12, d),
    "hypothesis_check": lambda d: hypothesis_check(12, d),
    "definite_class_reps": definite_class_reps,
    "stabilizer_order": stabilizer_order,
    "FkAEvaluator": lambda d: FkAEvaluator(2, d),
    "RunConfig": lambda d: RunConfig(k=2, d=d),
}

# ... or a weight parameter k >= 2
TAKES_k = {
    "lhs_geodesic": lambda k: lhs_geodesic(k, 12),
    "lhs_latticesum": lambda k: lhs_latticesum(k, 12),
    "FkAEvaluator": lambda k: FkAEvaluator(k, -4),
    "RunConfig": lambda k: RunConfig(k=k),
}

# ... or a tolerance, which must be finite and positive
TAKES_tol = {
    "lhs_geodesic": lambda tol: lhs_geodesic(2, 12, tol=tol),
    "lhs_latticesum": lambda tol: lhs_latticesum(2, 12, tol=tol),
    "cycle_integral": lambda tol: cycle_integral(BQF(1, 2, -2), 2, tol=tol),
    "RunConfig": lambda tol: RunConfig(k=2, tol=tol),
}


# a bool or a value that is not an integer is no discriminant, even where
# it equals one: 13.0, -3.0 and True == 1 got past the checks or raised
# TypeError or SquareDiscriminant
NOT_INTEGERS = [13.0, -3.0, True, "13"]


@pytest.mark.parametrize("D, error", [(7, ValueError), (0, ValueError), (-8, ValueError),
                                      (9, SquareDiscriminant)] + [(D, ValueError) for D in NOT_INTEGERS])
@pytest.mark.parametrize("name", sorted(TAKES_D))
def test_invalid_D_raises_documented_error(name, D, error):
    # only a positive square is a SquareDiscriminant; 7 is not a square
    with pytest.raises(error):
        TAKES_D[name](D)


# the L-value takes a discriminant of either sign, and D = 1, the int,
# for the trivial character: 6, 0 and 9 raised NonFundamental, 13.0
# TypeError, and True read as D = 1
@pytest.mark.parametrize("D, error", [(6, ValueError), (0, ValueError), (-5, ValueError),
                                      (9, SquareDiscriminant), (13.0, ValueError),
                                      (-3.0, ValueError), (True, ValueError),
                                      ("13", ValueError), (None, ValueError)])
def test_dirichlet_L_value_checks_its_discriminant(D, error):
    with pytest.raises(error):
        dirichlet_L_value(D, -1)


@pytest.mark.parametrize("d", [-5, 4] + NOT_INTEGERS)
@pytest.mark.parametrize("name", sorted(TAKES_d))
def test_invalid_d_raises_value_error(name, d):
    with pytest.raises(ValueError):
        TAKES_d[name](d)


@pytest.mark.parametrize("k", [1, 0])
@pytest.mark.parametrize("name", sorted(TAKES_k))
def test_invalid_k_raises_value_error(name, k):
    with pytest.raises(ValueError, match="k must be >= 2"):
        TAKES_k[name](k)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", sorted(TAKES_tol))
def test_invalid_tol_raises_value_error(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        TAKES_tol[name](tol)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_exported_name_exists(path):
    module = importlib.import_module("cyclotrace" if path.stem == "__init__" else f"cyclotrace.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, missing


def test_no_assert_statements_in_source():
    # python -O strips assert statements; invariants must be real checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


@pytest.mark.parametrize("name", ["arith", "fqm"])
def test_exact_modules_import_no_numpy(name):
    # the exact side runs in ints and Fractions; numpy stays with the
    # analytic engine and the selftest's numeric checks
    tree = ast.parse((SRC / f"{name}.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]
    assert not found, found
