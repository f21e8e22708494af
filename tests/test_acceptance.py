"""Acceptance suite: one test per criterion, one pass/fail line each.

Every tolerance is pinned here, never loosened at runtime.  The numeric
methods receive computation tolerances strictly tighter than the
acceptance bounds they must meet.
"""

import math
import time
from math import isqrt

import numpy as np
import pytest

from cyclotrace.arith import dirichlet_L_value, is_square
from cyclotrace.bqf import hypothesis_check
from cyclotrace.errors import HypothesisViolated
from cyclotrace.special_forms import (
    closed_formula,
    fD_const_term,
    hurwitz,
    hurwitz_table,
    hurwitz_table_recursive,
    rhs_trace,
)

EVEN_K_DS = (12, 21, 24, 28)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def admissible(limit):
    for D in range(5, limit + 1):
        if D % 4 in (0, 1) and not is_square(D) and hypothesis_check(D, -4):
            yield D


def test_criterion_1_exact_oracle_equality():
    t0 = time.time()
    checked = 0
    for D in admissible(100):
        for k in (2, 4):
            assert rhs_trace(k, D) == closed_formula(k, D), (k, D)
            checked += 1
    elapsed = time.time() - t0
    _report(
        "1 exact oracle equality (k=2,4; D<=100)",
        elapsed < 30,
        f"{checked} exact equalities in {elapsed:.1f}s",
    )


def _three_way(k: int, exact_expected=None):
    from cyclotrace.analytic import lhs_geodesic, lhs_latticesum

    for D in EVEN_K_DS:
        t0 = time.time()
        exact = rhs_trace(k, D)
        if exact_expected and D in exact_expected:
            assert exact == exact_expected[D]
        ex = float(exact)
        geo = lhs_geodesic(k, D, -4, tol=0.2e-6 * (1 + abs(ex)))
        lat = lhs_latticesum(k, D, -4, tol=0.4e-4 * (1 + abs(ex)))
        elapsed = time.time() - t0
        geo_ok = abs(geo.value - ex) < 1e-6 * (1 + abs(ex))
        lat_ok = abs(lat.value - ex) < 1e-4 * (1 + abs(ex))
        _report(
            f"{2 if k == 2 else 3} three-way k={k} D={D}",
            geo_ok and lat_ok and elapsed < 60,
            f"exact={exact} geo-delta={abs(geo.value - ex):.2e} "
            f"lat-delta={abs(lat.value - ex):.2e} {elapsed:.1f}s",
        )


def test_criterion_2_three_way_k2():
    _three_way(2, exact_expected={12: 24})


def test_criterion_3_three_way_k4():
    _three_way(4, exact_expected={12: 72})


def test_criterion_4_odd_k_two_way():
    from cyclotrace.analytic import lhs_geodesic, lhs_latticesum

    t0 = time.time()
    for D in (12, 21):
        geo = lhs_geodesic(3, D, -4, tol=1e-6)
        lat = lhs_latticesum(3, D, -4, tol=1e-6)
        delta = abs(geo.value - lat.value)
        bound = 1e-4 * (1 + abs(lat.value))
        _report(
            f"4 odd-k two-way k=3 D={D}",
            delta < bound,
            f"geo={geo.value:.3e} lat={lat.value:.3e}",
        )
    assert time.time() - t0 < 120


def test_criterion_5_hypothesis_detection():
    from cyclotrace.analytic import lhs_geodesic

    bad = 0
    for D in range(5, 301):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        brute = any(
            b * b + 4 * a * a == D
            for a in range(1, isqrt(D) // 2 + 2)
            for b in range(isqrt(D) + 1)
        )
        assert hypothesis_check(D, -4) == (not brute), D
        if brute:
            bad += 1
    # a violating D must raise, never return a number
    for D in (5, 8, 13):
        with pytest.raises(HypothesisViolated):
            lhs_geodesic(2, D, -4)
    _report("5 hypothesis detection (D<=300)", True, f"{bad} violating discriminants")


def test_criterion_6_hurwitz_suite():
    ok_tables = hurwitz_table(200) == hurwitz_table_recursive(200)
    ok_h0 = hurwitz(0) == -1 / 12 or str(hurwitz(0)) == "-1/12"
    ok_dual = all(
        -120 * dirichlet_L_value(D, -1) == fD_const_term(2, D)
        for D in range(5, 201)
        if D % 4 in (0, 1) and not is_square(D)
    )
    _report("6 hurwitz suite", ok_tables and ok_h0 and ok_dual)


def test_criterion_7_theta_weil_numeric():
    import cmath

    from cyclotrace.fqm import theta_series
    from cyclotrace.selftest import eval_series, milgram_defect, siegel_theta_eval, weil_matrices
    from cyclotrace.special_forms import (
        lattice_N_minus,
        lattice_P,
        module_K,
        module_L,
        module_N_minus,
        module_P,
        theta_N_minus,
    )

    tau, z = 2j, 1j
    MK = module_K()
    FK = ((-1, 1, 0), (0, 0, 2), (-1, -1, 0))
    thK = siegel_theta_eval(MK, FK, tau, z, cutoff=9)
    thP = eval_series(theta_series(module_P(), 40), tau)
    thNm = eval_series(theta_N_minus(40), tau)
    split = np.array([p * tau.imag * np.conj(q) for p in thP for q in thNm])
    split_defect = float(np.max(np.abs(thK - split)))

    trans_defect = 0.0
    for K, M in ((lattice_P(), module_P()), (lattice_N_minus(), module_N_minus())):
        th = theta_series(M, 60)
        T, S = weil_matrices(M)
        tau0 = 0.3 + 1j
        dT = np.max(np.abs(eval_series(th, tau0 + 1) - T @ eval_series(th, tau0)))
        dS = np.max(
            np.abs(
                eval_series(th, -1 / tau0)
                - cmath.sqrt(tau0) ** K.rank * (S @ eval_series(th, tau0))
            )
        )
        trans_defect = max(trans_defect, float(dT), float(dS))

    milgram = max(
        milgram_defect(M)
        for M in (module_P(), module_N_minus(), module_L(), module_K())
    )
    _report(
        "7 theta/weil numeric suite",
        split_defect < 1e-8 and trans_defect < 1e-6 and milgram < 1e-10,
        f"split={split_defect:.1e} transform={trans_defect:.1e} milgram={milgram:.1e}",
    )


def test_criterion_8_meromorphic_form_oracle():
    from cyclotrace.analytic import eisenstein_oracle, get_evaluator

    pts = np.array([complex(0.03 + 0.04 * j, 1.05 + 0.06 * j) for j in range(10)])
    ev = get_evaluator(2, -4)
    vals = ev.eval(pts)
    ratios = []
    for zz, f in zip(pts, vals):
        E4, E6, Delta = eisenstein_oracle(complex(zz))
        ratios.append((f / (E4 * Delta / E6**2)).real)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    # frozen regression value for the proportionality constant
    regression = abs(np.mean(ratios) / (3456 * math.pi) - 1)
    _report(
        "8 meromorphic-form oracle",
        spread < 1e-6 and regression < 1e-6,
        f"spread={spread:.1e} const={np.mean(ratios):.6f}",
    )
