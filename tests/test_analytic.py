import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cyclotrace.analytic import (
    FkAEvaluator,
    TraceReport,
    cycle_integral,
    eisenstein_oracle,
    eval_fkA,
    get_evaluator,
    hyp2f1,
    lhs_geodesic,
    lhs_latticesum,
    reduce_to_fundamental_domain,
)
from cyclotrace.analytic import (
    _cot_polys,
    _hyp_series,
    _hyp2f1_vec,
    _kappa_coeffs,
    _reduce_to_rep,
    _layer_T,
    _parity_counts,
    _r2_table,
    _translate_sum,
)
from cyclotrace.bqf import (
    BQF,
    SL2Z,
    PairingSolver,
    definite_class_reps,
    indefinite_class_reps,
    reduce_definite,
    sqrt_mod_roots,
)
from cyclotrace.errors import DivergentParameters, HypothesisViolated, PoleOnGeodesic
from cyclotrace.special_forms import rhs_trace


# ----------------------------------------------------------------- 2F1


def test_hyp2f1_oracles():
    assert hyp2f1(1.5, 2.0, 3.0, 0.0) == 1.0
    # 2F1(1,1;2;w) = -log(1-w)/w
    assert abs(hyp2f1(1, 1, 2, 0.5) - 2 * math.log(2)) < 1e-12
    # 2F1(1/2,1/2;3/2;z^2) = asin(z)/z
    assert abs(hyp2f1(0.5, 0.5, 1.5, 0.25) - math.pi / 3) < 1e-12


def test_hyp2f1_against_scipy():
    sp = pytest.importorskip("scipy.special")
    for k in (2, 3, 4, 5):
        for w in np.linspace(0.0, 0.999, 61):
            a = hyp2f1(k / 2, k / 2, k + 0.5, float(w))
            b = float(sp.hyp2f1(k / 2, k / 2, k + 0.5, w))
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b)), (k, w)


def test_hyp2f1_branch_continuity():
    # both branches evaluated at the same point near the switchover
    for k in (2, 3, 4):
        w = 0.5 + 1e-13
        direct = float(_hyp_series(k / 2, k / 2, k + 0.5, w))
        assert abs(direct - hyp2f1(k / 2, k / 2, k + 0.5, w)) < 1e-11 * direct


def test_hyp2f1_vectorized():
    w = np.linspace(0.0, 0.995, 200)
    v = _hyp2f1_vec(1, 1, 2.5, w)
    for i in (0, 50, 100, 150, 199):
        assert abs(v[i] - hyp2f1(1, 1, 2.5, float(w[i]))) < 1e-12 * max(1, v[i])


def test_hyp2f1_errors():
    with pytest.raises(DivergentParameters):
        hyp2f1(1, 1, 2.5, 1.0)
    with pytest.raises(DivergentParameters):
        hyp2f1(1, 1, 2.5, -0.1)
    with pytest.raises(DivergentParameters):
        hyp2f1(1, 1, -2.0, 0.3)


def test_hyp2f1_integral_c_minus_a_minus_b():
    # the transformation in 1 - w needs c - a - b non-integral; the
    # direct series still covers w <= 1/2
    assert abs(hyp2f1(1, 1, 2, 0.5) - 2 * math.log(2)) < 1e-12
    with pytest.raises(DivergentParameters):
        hyp2f1(1, 1, 2, 0.7)


# -------------------------------------------------- resummation internals


def test_translate_sum_vs_brute():
    rng = np.random.default_rng(0)
    for k in (2, 3, 4):
        polys = _cot_polys(k)
        for _ in range(3):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.6))
            c = rng.uniform(0.4, 1.0)
            w1 = np.array([z - 1j * c])
            w2 = np.array([z + 1j * c])
            closed = _translate_sum(k, w1, w2, 2j * c, polys)[0]
            brute = sum(
                ((t + w1[0]) * (t + w2[0])) ** (-k) for t in range(-20000, 20001)
            )
            assert abs(closed - brute) < 1e-10 * max(1, abs(brute))


def test_layer_coefficients_reproduce_translate_sum():
    # compared where the direct cotangent branch is itself well-conditioned
    # (small c is the layers' regime, large c the direct branch's)
    z = complex(0.13, 1.07)
    for k in (2, 3, 4):
        kappa = _kappa_coeffs(k)
        polys = _cot_polys(k)
        for c in (0.3, 0.49, 0.9):
            direct = _translate_sum(
                k, np.array([z - 1j * c]), np.array([z + 1j * c]), 2j * c, polys
            )[0]
            tot = sum(
                _layer_T(k, n, np.array([c]), kappa)[0] * np.exp(2j * np.pi * n * z)
                for n in range(1, 40)
            )
            assert abs(tot - direct) < 5e-11 * max(1, abs(direct))


def test_fundamental_domain_reduction():
    rng = random.Random(8)
    for _ in range(100):
        z = complex(rng.uniform(-8, 8), rng.uniform(0.05, 3.0))
        w, j = reduce_to_fundamental_domain(z)
        assert abs(w.real) <= 0.5 + 1e-12
        assert abs(w) >= 1 - 1e-12
        assert j != 0


# ------------------------------------------------------- the root table


def _brute_pairs(d, a_max):
    return np.array([(a, b0) for a in range(1, a_max + 1) for b0 in sqrt_mod_roots(d, a)])


# d = -260 puts the pair (65, 0) in a shell built from the table
@pytest.mark.parametrize("d", [-3, -4, -7, -12, -20, -23, -84, -260])
def test_root_table_matches_sqrt_mod_roots(d):
    a_max = 1 << 13
    brute = _brute_pairs(d, a_max)
    one_step = FkAEvaluator(2, d)
    one_step._grow_table(a_max)
    # irregular targets: shells that are not dyadic, one call per target
    shells = FkAEvaluator(2, d)
    for A in (45, 100, 257, 1000, 4097, a_max):
        shells._grow_table(A)
        assert shells._a[-1] <= A
    for ev in (one_step, shells):
        assert np.array_equal(np.column_stack([ev._a, ev._b]), brute)


@pytest.mark.parametrize("d", [-12, -20, -23, -56, -84])
def test_class_filter_matches_reduce_definite(d):
    pairs = _brute_pairs(d, 1500)
    reduced = [reduce_definite(BQF(int(a), int(b), int((b * b - d) // (4 * a))))[0] for a, b in pairs]
    reps = definite_class_reps(d)
    assert len(reps) > 1
    for rep in reps:
        mask = _reduce_to_rep(pairs[:, 0], pairs[:, 1], d, rep)
        assert mask.tolist() == [Q == rep for Q in reduced]
    # the evaluator of a non-principal class keeps exactly that class
    ev = FkAEvaluator(3, d, rep=reps[-1])
    ev._grow_table(1500)
    assert ev._in_class.tolist() == [Q == reps[-1] for Q in reduced]


def test_additive_layers_match_from_scratch():
    k, d = 2, -20
    ev = FkAEvaluator(k, d)
    top = 1 << 14
    ev.layer_delta(top)
    pairs = [
        (a, b0)
        for a in range(ev.a_direct + 1, top + 1)
        for b0 in sqrt_mod_roots(d, a)
        if reduce_definite(BQF(a, b0, (b0 * b0 - d) // (4 * a)))[0] == ev.rep
    ]
    a_all = np.array([p[0] for p in pairs], dtype=float)
    b_all = np.array([p[1] for p in pairs], dtype=float)
    prev = None
    for A in (1 << 11, 1 << 12, 1 << 13, top):
        aa, bb = a_all[a_all <= A], b_all[a_all <= A]
        g = np.zeros(ev.N_LAYERS + 1)
        for n in range(1, ev.N_LAYERS + 1):
            Tn = _layer_T(k, n, math.sqrt(-d) / (2 * aa), ev._kappa)
            g[n] = np.sum(aa ** (-k) * Tn * np.cos(np.pi * n * bb / aa))
        assert np.max(np.abs(ev._gn[A] - g)) <= 1e-12 * np.max(np.abs(g))
        if prev is not None:
            # the change A/2 -> A is the change of the from-scratch sums
            change = ev._gn[A] - ev._gn[A // 2]
            assert np.max(np.abs(change - (g - prev))) <= 1e-12 * np.max(np.abs(g))
        prev = g


def test_threads_share_an_evaluator():
    # worker threads that grow one evaluator at once build the same table
    # and layers as a single thread does
    k, d, top = 2, -20, 1 << 15
    alone = FkAEvaluator(k, d)
    alone.layer_delta(top)
    shared = FkAEvaluator(k, d)
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(shared.layer_delta, [top >> i for i in range(4)] * 4))
    assert np.array_equal(shared._a, alone._a) and np.array_equal(shared._b, alone._b)
    assert np.array_equal(shared._in_class, alone._in_class)
    assert all(np.array_equal(shared._gn[A], alone._gn[A]) for A in alone._gn)


# ------------------------------------------------------- the form itself


def test_eval_fkA_vs_brute_class_sum():
    k, d = 2, -4
    z = complex(0.23, 1.31)
    val = eval_fkA(z, k, d, tol=1e-7)
    brute = 0j
    for a in range(1, 401):
        for b0 in sqrt_mod_roots(d, a):
            for t in range(-300, 301):
                b = b0 + 2 * a * t
                c = (b * b - d) // (4 * a)
                brute += 1.0 / ((a * z * z + b * z + c) ** k)
    brute *= (-d) ** ((k + 1) / 2) / math.pi
    # the brute sum itself is only ~1/400 accurate
    assert abs(val - brute) < 5e-3


def test_eval_fkA_examples():
    z = complex(0.3, 1.1)
    f1 = eval_fkA(z, 2, -4, tol=1e-8)
    f2 = eval_fkA(z + 1, 2, -4, tol=1e-8)
    assert abs(f1 - f2) < 1e-7
    f2i = eval_fkA(2j, 2, -4, tol=1e-10)
    assert abs(f2i.imag) < 1e-12 * max(1, abs(f2i))
    fnear = eval_fkA(1j + 0.01, 2, -4, tol=1e-5)
    assert abs(fnear) > 1e3 * abs(f2i)


def test_eval_fkA_proportional_to_eisenstein_combination():
    # unique weight-4 meromorphic form with a double pole at i: E4 Delta / E6^2
    pts = np.array([complex(0.03 + 0.04 * j, 1.05 + 0.06 * j) for j in range(10)])
    ev = get_evaluator(2, -4)
    vals, _, _ = ev.eval_adaptive(pts, 2e-8)
    ratios = []
    for z, f in zip(pts, vals):
        E4, E6, Delta = eisenstein_oracle(complex(z))
        ratios.append((f / (E4 * Delta / E6**2)).real)
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    assert spread < 1e-6
    # frozen regression value of the proportionality constant
    assert abs(np.mean(ratios) / (3456 * math.pi) - 1) < 1e-8


def test_eisenstein_oracle():
    E4, E6, Delta = eisenstein_oracle(2j)
    assert abs(Delta.imag) < 1e-15 and Delta.real > 0
    E4i, E6i, Di = eisenstein_oracle(1j)
    assert abs(E6i) < 1e-8
    assert abs(E4i**3 / Di - 1728) < 1e-8


# ------------------------------------------------------- cycle integrals


def test_cycle_integral_invariance():
    Q = BQF(1, 2, -2)
    g = SL2Z(2, 1, 1, 1)
    v1, e1, _ = cycle_integral(Q, 2, -4, tol=1e-7)
    v2, e2, _ = cycle_integral(Q.apply(g), 2, -4, tol=1e-7)
    assert abs(v1 - v2) < 1e-6
    # base-point shift along the arc
    v3, _, _ = cycle_integral(Q, 2, -4, tol=1e-7, theta_start=1.2)
    assert abs(v1 - v3) < 1e-6


def test_cycle_integral_pole_detection():
    # D = 8 = 2^2 + 4: the geodesic of [1, 2, -1] passes through i's orbit
    with pytest.raises(PoleOnGeodesic):
        cycle_integral(BQF(1, 2, -1), 2, -4, tol=1e-6)


def test_imaginary_parts_cancel():
    ev = get_evaluator(2, -4)
    total = 0j
    for Q in indefinite_class_reps(12):
        v, _, _ = cycle_integral(Q, 2, -4, tol=1e-8, evaluator=ev, check_pole=False)
        total += v
    assert abs(total.imag) < 1e-8
    assert abs(total.real - 24) < 1e-6


def test_lhs_geodesic():
    rep = lhs_geodesic(2, 12, -4, tol=1e-5)
    assert isinstance(rep, TraceReport)
    assert rep.method == "geodesic" and rep.hypothesis_ok
    assert abs(rep.value - 24) < 1e-6 * 25
    with pytest.raises(HypothesisViolated):
        lhs_geodesic(2, 5, -4)


# D = 60 and 85: the class with the largest layer cutoff is not the one
# with the most panels, nor the last; D = 48 at 1e-9 hits a noise floor;
# k = 2, D = 12 at 1e-7 stops on its coefficient noise floor near 1.3e-6
@pytest.mark.parametrize("k, D, d, tol", [(4, 60, -4, 1e-6), (3, 85, -3, 1e-6), (4, 48, -4, 1e-9),
                                          (2, 12, -4, 1e-7), (2, 12, -4, 1e-5)])
def test_lhs_geodesic_keeps_every_class(k, D, d, tol):
    rep = lhs_geodesic(k, D, d, tol=tol)
    reps = indefinite_class_reps(D)
    metas = [
        cycle_integral(Q, k, d, tol=tol / len(reps), evaluator=get_evaluator(k, d),
                       check_pole=False)[2]
        for Q in reps
    ]
    assert rep.cutoff["classes"] == len(reps)
    assert rep.cutoff["panels"] == max(m["panels"] for m in metas)
    assert rep.cutoff["layer_cutoff"] == max(m["layer_cutoff"] for m in metas)
    assert rep.cutoff.get("noise_floor", False) == any(m.get("noise_floor") for m in metas)
    assert rep.cutoff["met_tol"] == (rep.error_estimate <= tol)


# ------------------------------------------------------- lattice sum


def test_r2_table_vs_brute():
    for D, lo in ((12, 0), (21, 0), (5, 0), (12, 23)):
        S = 60
        table = _r2_table(D, lo, S)
        for s in range(lo + 1, S + 1):
            n = D + s * s
            brute = sum(
                1
                for b in range(-int(math.isqrt(n)), int(math.isqrt(n)) + 1)
                for e in range(-int(math.isqrt(n)), int(math.isqrt(n)) + 1)
                if b * b + e * e == n
            )
            assert table[s - lo - 1] == brute, (D, s, n)


def test_parity_counts_vs_brute():
    for D, lo in ((12, 0), (21, 0), (24, 0), (21, 17)):
        S = 40
        N = _parity_counts(D, lo, S)
        for s in range(lo + 1, S + 1):
            n = D + s * s
            brute = sum(
                1
                for b in range(-int(math.isqrt(n)), int(math.isqrt(n)) + 1)
                for e in range(-int(math.isqrt(n)), int(math.isqrt(n)) + 1)
                if b * b + e * e == n and (e - s) % 2 == 0 and (b - D) % 2 == 0
            )
            assert N[s - lo - 1] == brute, (D, s)


def test_lhs_latticesum():
    rep = lhs_latticesum(2, 12, -4, tol=1e-3)
    assert abs(rep.value - 24) < 2e-3
    rep4 = lhs_latticesum(4, 12, -4, tol=1e-4)
    assert abs(rep4.value - 72) < 1e-4 * 73
    rep3 = lhs_latticesum(3, 12, -4)
    assert rep3.value == 0.0
    with pytest.raises(HypothesisViolated):
        lhs_latticesum(2, 8, -4)


def test_pairing_solver_counts_match_sieve():
    # at d = -4 the doubled pairing with [1, 0, 1] is t = 2s, and the
    # solver's groups t and -t together hold the 2 N(s) forms the sieve
    # counts; odd t pair to no form
    solver = PairingSolver(BQF(1, 0, 1))
    for D, lo, hi in ((12, 0, 40), (21, 0, 40), (24, 0, 40), (21, 17, 60), (60, 100, 130)):
        N = _parity_counts(D, lo, hi)
        for s in range(lo + 1, hi + 1):
            count = len(solver.forms(D, 2 * s)) + len(solver.forms(D, -2 * s))
            assert count == 2 * N[s - lo - 1], (D, s)
            assert solver.forms(D, 2 * s + 1) == solver.forms(D, -2 * s - 1) == []


def test_imprimitive_classes_in_trace():
    # D = 84 contains the imprimitive class 2*[1,1,-5]; its cycle uses the
    # generator of the primitive stabiliser, and the three methods agree
    ex = float(rhs_trace(2, 84))
    g = lhs_geodesic(2, 84, -4, tol=1e-6 * (1 + abs(ex)))
    l = lhs_latticesum(2, 84, -4, tol=0.4e-4 * (1 + abs(ex)))
    assert abs(g.value - ex) < 1e-6 * (1 + abs(ex))
    assert abs(l.value - ex) < 1e-4 * (1 + abs(ex))


def test_long_period_arc():
    # disc 129 has regulator ~10.4; the centered arclength window keeps the
    # quadrature endpoints at numerically benign heights
    ex = float(rhs_trace(4, 129))
    g = lhs_geodesic(4, 129, -4, tol=1e-6 * (1 + abs(ex)))
    assert abs(g.value - ex) < 1e-6 * (1 + abs(ex))
    # period ~22.9 at disc 209: the window endpoint must come from the
    # exact period length, not the float image of the base point
    ex = float(rhs_trace(4, 209))
    g = lhs_geodesic(4, 209, -4, tol=0.2e-6 * (1 + abs(ex)))
    assert abs(g.value - ex) < 1e-6 * (1 + abs(ex))


@pytest.mark.parametrize("d, tol", [(-3, 1e-8), (-7, 1e-6)])
def test_long_period_window_from_exact_period(d, tol):
    # disc 97 has period ~37.3: the centered base point lies within 1.6e-8
    # of theta = pi, and its float automorph image misses the window end
    # by 0.01 in u, so only the exact period gives the window.  The odd-k
    # trace is 0.
    rep = lhs_geodesic(3, 97, d, tol=tol)
    assert abs(rep.value) <= rep.error_estimate


def test_convergence_monotonicity():
    # refining a cutoff never moves the result by more than the reported
    # error estimate (heuristic doubling deltas, checked with headroom)
    loose = lhs_latticesum(2, 12, -4, tol=3e-3)
    tight = lhs_latticesum(2, 12, -4, tol=1e-4)
    assert abs(loose.value - tight.value) <= loose.error_estimate + tight.error_estimate
    g_loose = lhs_geodesic(2, 12, -4, tol=1e-4)
    g_tight = lhs_geodesic(2, 12, -4, tol=1e-7)
    assert abs(g_loose.value - g_tight.value) <= g_loose.error_estimate + g_tight.error_estimate


def test_general_d_two_methods_agree():
    # d = -3 exercises every general-d code path; no exact side exists
    # there, so the two numerical methods validate each other.  At k = 4
    # both converge fast; at k = 2 the lattice tail is slow, so the bound
    # follows its reported error.
    g4 = lhs_geodesic(4, 21, -3, tol=1e-6)
    l4 = lhs_latticesum(4, 21, -3, tol=1e-5)
    assert abs(g4.value - l4.value) < 1e-4 * (1 + abs(g4.value))
    # the trace is rational with denominator dividing the stabiliser order 3
    assert abs(g4.value - 340 / 3) < 1e-5
    g2 = lhs_geodesic(2, 21, -3, tol=1e-4)
    l2 = lhs_latticesum(2, 21, -3, tol=0.05)
    assert abs(g2.value - l2.value) < 2 * (l2.error_estimate + g2.error_estimate)
    assert abs(g2.value - 20.0) < 1e-4
