import math
import random
import time
from itertools import product
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
)
from cyclotrace import analytic
from cyclotrace.analytic import (
    CLASS_NUMBER_ONE,
    _DirichletSieve,
    _class_pairs,
    _hyp2f1_quadratic,
    _latticesum_terms,
    _least_non_residues,
    _primes_between,
    _reduce_points,
)
from cyclotrace.arith import factor
from cyclotrace.bqf import (
    BQF,
    SL2Z,
    PairingSolver,
    definite_class_reps,
    indefinite_class_reps,
    reduce_definite,
    reduced_cycle,
    sqrt_mod_roots,
    stabilizer_order,
)
from cyclotrace.errors import DivergentParameters, HypothesisViolated, NoConvergence, PoleOnGeodesic
from cyclotrace.special_forms import rhs_trace


# ----------------------------------------------------------------- 2F1


def test_hyp2f1_oracles():
    assert hyp2f1(1.5, 2.0, 4.0, 0.0) == 1.0
    for w in np.linspace(0.001, 0.999, 37).tolist():
        # 2F1(1/2, 1/2; 3/2; w) = asin(sqrt w)/sqrt w
        want = math.asin(math.sqrt(w)) / math.sqrt(w)
        assert abs(hyp2f1(0.5, 0.5, 1.5, w) - want) <= 1e-14 * want, w
        # 2F1(1, 1/2; 2; w) = 2/(1 + sqrt(1 - w))
        want = 2 / (1 + math.sqrt(1 - w))
        assert abs(hyp2f1(1, 0.5, 2, w) - want) <= 1e-14 * want, w


def test_hyp2f1_against_scipy():
    sp = pytest.importorskip("scipy.special")
    for k in range(2, 13):
        for w in np.linspace(0.0, 0.999, 61):
            a = hyp2f1(k / 2, k / 2, k + 0.5, float(w))
            b = float(sp.hyp2f1(k / 2, k / 2, k + 0.5, w))
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b)), (k, w)


def _full_series(a, b, c, w, terms):
    """The direct series summed to all of its terms, as it was before it
    learned to stop early: the oracle of the early stop."""
    t = np.ones_like(np.asarray(w, dtype=float))
    acc = t.copy()
    for j in range(terms):
        t = t * ((a + j) * (b + j)) / ((c + j) * (1.0 + j)) * w
        acc = acc + t
    return acc


def _full_quadratic(a, z, terms):
    """`_hyp2f1_quadratic(a, a, z)` as the full series of its terms."""
    return _full_series(2 * a, 2 * a, 2 * a + 0.5, z, terms)


@pytest.mark.parametrize("k", range(2, 17, 2))
def test_hyp2f1_quadratic_stops_before_its_cap(k):
    # at z just below 1/2 the terms fall slowest, and an array that also
    # holds z = 0 waits longest for its stop; ten times the cap
    # 64 + 4 (a + b) changes no bit only if the stop fired before the cap
    for z in (np.array([0.5 - 1e-9]), np.array([0.0, 0.5 - 1e-9])):
        value = _hyp2f1_quadratic(k / 2, k / 2, z)
        assert np.array_equal(value, _full_quadratic(k / 2, z, 10 * (64 + 4 * k))), (k, z)


def test_latticesum_terms_against_mpmath():
    # the lattice sum's z = D/(2s(s + p)) against (D + p^2)^(-k/2)
    # 2F1(k/2, k/2; k + 1/2; D/(D + p^2)) at the exact w
    mp = pytest.importorskip("mpmath")
    t = np.arange(1, 65)
    with mp.workdps(30):
        for k in range(2, 13, 2):
            for d in (-3, -4, -7, -163):
                for D in (5, 12, 45, 1000):
                    got = _latticesum_terms(k, D, d, t)
                    for ti, v in zip(t.tolist(), got.tolist()):
                        s2 = D + mp.mpf(ti) ** 2 / -d
                        want = s2 ** (-k / 2) * mp.hyp2f1(k / 2, k / 2, k + 0.5, D / s2)
                        assert abs(v - want) <= 1e-14 * want, (k, d, D, ti)


def _bit_identity_inputs(case):
    """(a, z) for `_hyp2f1_quadratic(a, a, z)`: the lattice sum's z at D = case
    over the d = -4 first eight windows, or one of two fixed arrays."""
    if case == "growing":
        # k = 16: the first term ratio is k^2/(k + 1/2) z ~ 7.8 at z -> 1/2, so
        # the terms grow to ~3e3 before they fall, while z = 0 keeps the
        # smallest sum at 1 and its terms at 0: the stop must read the
        # largest term, the one at max z
        return [(8.0, np.array([0.0, 0.5 - 1e-9]))]
    if case == "vectorized":
        w = np.linspace(0.0, 0.995, 200)
        return [(1.0, w / (2 * (1 + np.sqrt(1 - w))))]
    # s <= 2^15, w = D/(D + s^2) and z = (1 - sqrt(1 - w))/2
    windows = [(0, 1 << 8)] + [(1 << j, 1 << (j + 1)) for j in range(8, 15)]
    inputs = []
    for k, (lo, hi) in product(range(1, 13), windows):
        s = np.arange(lo + 1, hi + 1, dtype=float)
        w = case / (case + s * s)
        inputs.append((k / 2, w / (2 * (1 + np.sqrt(1 - w)))))
    return inputs


@pytest.mark.parametrize("case", [5, 12, 44, 97, 805, "growing", "vectorized"])
def test_hyp2f1_early_stop_is_bit_identical(case):
    for a, z in _bit_identity_inputs(case):
        full = _full_quadratic(a, z, 64 + 4 * math.ceil(2 * a))
        assert np.array_equal(_hyp2f1_quadratic(a, a, z), full), (a, z.min(), z.max())


def test_hyp2f1_errors():
    # only a, b > 0, c = a + b + 1/2 and 0 <= w < 1
    for args in [(1, 1, 2.5, 1.0), (1, 1, 2.5, -0.1), (1, 1, 2.5, math.nan), (1, 1, 2, 0.3),
                 (1, 1, -2.0, 0.3), (-0.5, 1, 1.0, 0.3), (1, 0, 1.5, 0.3), (0, 0, 0.5, 0.0)]:
        with pytest.raises(DivergentParameters):
            hyp2f1(*args)


# -------------------------------------------------- the fundamental domain


def test_fundamental_domain_reduction():
    rng = random.Random(8)
    z = np.array([complex(rng.uniform(-8, 8), rng.uniform(0.05, 3.0)) for _ in range(100)])
    w, j = _reduce_points(z)
    assert np.all(np.abs(w.real) <= 0.5 + 1e-12)
    assert np.all(np.abs(w) >= 1 - 1e-12)
    assert np.all(j != 0)


def _reduce_one(z):
    # the scalar loop the array reduction replaced, as the reference
    a, b, c, d = 1, 0, 0, 1
    w = z
    for _ in range(200):
        n = round(w.real)
        if n:
            w = w - n
            a, b = a - n * c, b - n * d
        if w.real * w.real + w.imag * w.imag < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b
        else:
            break
    return w, c * z + d


def test_reduce_points_matches_scalar_loop():
    rng = np.random.default_rng(8)
    z = rng.uniform(-8, 8, 200) + 1j * rng.uniform(0.01, 3.0, 200)
    w, j = _reduce_points(z)
    for i, zz in enumerate(z):
        # the same group element; numpy and Python divide complex numbers
        # by different rules, so z' may differ in its last bits
        w_ref, j_ref = _reduce_one(complex(zz))
        assert j[i] == j_ref and abs(w[i] - w_ref) <= 1e-12


# --------------------------------------------- the pinning's class sum


def _brute_pairs(d, a_max):
    return np.array([(a, b0) for a in range(1, a_max + 1) for b0 in sqrt_mod_roots(d, a)])


# d = -260 has the form [65, 0, 1], whose b0 = 0 is a root of an odd a
@pytest.mark.parametrize("d", [-3, -4, -7, -12, -20, -23, -84, -260])
def test_root_table_matches_sqrt_mod_roots(d):
    a_max = FkAEvaluator.PIN_CUTOFF
    a, b0 = _class_pairs(d, a_max)
    assert np.array_equal(np.column_stack([a, b0]), _brute_pairs(d, a_max))
    # every form of discriminant d with a <= a_max, once per translate
    # class: b in (-a, a] with b^2 = d mod 4a, found by a direct search
    direct = [(aa, b) for aa in range(1, a_max + 1) for b in range(-aa + 1, aa + 1)
              if (b * b - d) % (4 * aa) == 0]
    assert np.array_equal(np.column_stack([a, b0]), np.array(direct))
    # the pinning's cutoffs A/2 and A are prefixes of the one table
    half = _class_pairs(d, a_max // 2)
    assert np.array_equal(half[0], a[a <= a_max // 2]) and np.array_equal(half[1], b0[a <= a_max // 2])


@pytest.mark.parametrize("d", [-12, -20, -23, -56, -84])
def test_class_filter_matches_reduce_definite(d):
    pairs = _brute_pairs(d, 1500)
    reduced = [reduce_definite(BQF(int(a), int(b), int((b * b - d) // (4 * a))))[0] for a, b in pairs]
    reps = definite_class_reps(d)
    assert len(reps) > 1
    kept = 0
    for rep in reps:
        a, b0 = _class_pairs(d, 1500, rep)
        assert np.array_equal(np.column_stack([a, b0]), pairs[[Q == rep for Q in reduced]].reshape(-1, 2))
        kept += len(a)
    # the classes partition the table
    assert kept == len(pairs)
    # the evaluator of a non-principal class pins with exactly that class
    ev = FkAEvaluator(6, d, rep=reps[-1])
    assert ev.rep == reps[-1] and ev.filter_class
    zs = _points_and_poles(reps[-1], d)
    direct = _direct_class_sum(zs, 6, d, reps[-1])
    assert np.all(np.abs(ev.eval(np.array(zs)) - direct) <= 1e-8 * np.abs(direct))


def test_threads_share_an_evaluator():
    # worker threads that use one evaluator at once see the same values,
    # pinning changes and coefficients as a single thread does
    k, d, top = 6, -20, 1 << 10
    zs = np.array([complex(0.21, 1.13), complex(-0.37, 0.55)])
    alone = FkAEvaluator(k, d)
    expect = {A: alone.layer_delta(A) for A in (top >> i for i in range(4))}
    shared = FkAEvaluator(k, d)

    def work(A):
        return A, shared.layer_delta(A), shared.eval(zs)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, [top >> i for i in range(4)] * 4))
    for A, delta, vals in results:
        assert delta == expect[A] and np.array_equal(vals, alone.eval(zs))
    assert np.array_equal(shared._c, alone._c) and np.array_equal(shared._beta, alone._beta)
    assert shared.residual == alone.residual


# ------------------------------------------------------- the form itself


def test_eval_fkA_vs_brute_class_sum():
    k, d = 2, -4
    z = complex(0.23, 1.31)
    val = eval_fkA(z, k, d)
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


def _direct_class_sum(zs, k, d, rep, a_max=2000, t_max=50):
    """prefactor * sum Q(z,1)^(-k) over the forms of the class with
    a <= a_max, summed in floats: b = b0 + 2at, |t| <= t_max."""
    reps = definite_class_reps(d)
    pairs = [(a, b0) for a in range(1, a_max + 1) for b0 in sqrt_mod_roots(d, a)
             if len(reps) == 1 or reduce_definite(BQF(a, b0, (b0 * b0 - d) // (4 * a)))[0] == rep]
    a, b0 = np.array(pairs, dtype=float).T
    t = np.arange(-t_max, t_max + 1)
    b = b0[:, None] + 2 * a[:, None] * t
    c = (b * b - d) / (4 * a[:, None])
    a = a[:, None]
    return (-d) ** ((k + 1) / 2) / math.pi * np.array([np.sum((a * z * z + b * z + c) ** -k) for z in zs])


def _points_and_poles(rep, d):
    # a point of the fundamental domain, one below it, and two within 1e-2
    # of a pole: the root tau of rep, and its image -1/(tau + 1)
    tau = complex(-rep.b, math.sqrt(-d)) / (2 * rep.a)
    return [complex(0.21, 1.13), complex(-0.37, 0.55), tau + 0.007 * (1 + 1j), -1 / (tau + 1) + 0.005j]


@pytest.mark.parametrize("d", [-4, -23, -56, -84])
def test_eval_fkA_matches_direct_class_sum(d):
    # every class; at a <= 2000 the direct sum's own truncation error is
    # below 2e-8 relative at k = 4 and 1e-10 at k = 5
    for rep in definite_class_reps(d):
        zs = _points_and_poles(rep, d)
        for k, rel in ((4, 2e-7), (5, 2e-9)):
            direct = _direct_class_sum(zs, k, d, rep)
            vals = np.array([eval_fkA(z, k, d, rep) for z in zs])
            assert np.all(np.abs(vals - direct) <= rel * np.abs(direct)), (rep, k)


@pytest.mark.parametrize("k, d, rep", [(5, -23, BQF(2, 1, 3)), (5, -23, BQF(2, -1, 3)),
                                       (4, -56, BQF(3, 2, 5)), (4, -56, BQF(3, -2, 5))])
def test_classes_unequal_to_their_inverse(k, d, rep):
    # these classes do not contain [a, -b, c] along with [a, b, c], so the
    # sine part of e(n b0 / 2a) in the class sum is not zero; a sum that
    # kept only the cosine was off by 7.7e-5 (d = -23) and 2.4e-4 to
    # 1.5e-3 (d = -56) relative
    zs = [complex(0.13, 1.07), complex(-0.31, 0.93), complex(0.27, 0.71)]
    direct = _direct_class_sum(zs, k, d, rep)
    vals = np.array([eval_fkA(z, k, d, rep) for z in zs])
    assert np.max(np.abs(vals - direct) / np.abs(direct)) < 1e-8
    inverse = BQF(rep.a, -rep.b, rep.c)
    other = np.array([eval_fkA(z, k, d, inverse) for z in zs])
    assert np.min(np.abs(other - vals) / np.abs(vals)) > 1e-3


@pytest.mark.parametrize("k, d, rel", [(6, -4, 1e-8), (6, -23, 1e-8), (6, -56, 1e-8),
                                       (8, -4, 5e-8), (8, -23, 5e-8)])
def test_cusp_form_pinning_matches_direct_class_sum(k, d, rel):
    # dim S_12 = dim S_16 = 1: one cusp-form coefficient is pinned
    for rep in definite_class_reps(d):
        ev = get_evaluator(k, d, rep)
        assert ev.cutoff == ev.PIN_CUTOFF
        zs = _points_and_poles(rep, d)
        direct = _direct_class_sum(zs, k, d, rep)
        vals = ev.eval(np.array(zs))
        assert np.all(np.abs(vals - direct) <= rel * np.abs(direct)), rep


def test_layer_delta_only_where_cusp_forms_are_pinned():
    for k in (2, 3, 4, 5, 7):
        ev = get_evaluator(k, -23)
        assert ev.cutoff == 0 and ev.layer_delta(1 << 10) == 0.0
        assert np.all(np.isfinite(ev.eval(np.array([0.2 + 1.1j])))) and 0.0 < ev.residual < 1e-7
    ev = get_evaluator(6, -23)
    assert 0.0 < ev.layer_delta(ev.cutoff) <= ev.residual < 1e-8


def test_evaluator_rejects_overflowing_j():
    # j at tau_A = (-b + i sqrt|d|)/2a overflows a float once Im tau_A > ~113
    with pytest.raises(ValueError, match="-60003"):
        FkAEvaluator(3, -60003)
    ev = FkAEvaluator(3, -50003)
    assert np.isfinite(ev._jA) and np.all(np.isfinite(ev._c))


def test_evaluator_rejects_an_overflowing_prefactor():
    # |d|^((k+1)/2) passes the float range at k = 300, d = -163
    with pytest.raises(ValueError, match="k = 300, d = -163"):
        FkAEvaluator(300, -163)
    with pytest.raises(ValueError, match="k = 300, d = -163"):
        lhs_geodesic(300, 12, -163)


@pytest.mark.parametrize("k, D", [(400, 12), (40, 10**15 + 1), (2000, 12), (200, 33)])
def test_latticesum_rejects_an_overflowing_prefactor(k, D):
    # D^(k - 1/2) and 2^k raise OverflowError past the float range, and
    # at (200, 33) their product is inf without one
    with pytest.raises(ValueError, match=f"k = {k}, D = {D} overflows"):
        lhs_latticesum(k, D)


@pytest.mark.parametrize("trace", [
    lambda: lhs_latticesum(40, 10**15 + 1),
    lambda: lhs_geodesic(300, 10**15 + 1, -163),
    lambda: cycle_integral(BQF(1, 1, -(10**15) // 4), 300, -163),  # disc 10^15 + 1
], ids=["latticesum", "geodesic", "cycle_integral"])
def test_invalid_input_is_rejected_before_the_hypothesis_check(trace):
    # the hypothesis check (the pole guard for one cycle integral) takes
    # ~sqrt(D) steps, seconds to minutes at D = 10^15 + 1; the float range
    # is checked before it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="overflows a float"):
        trace()
    assert time.perf_counter() - start < 1


def test_evaluator_rejects_rep_of_another_discriminant():
    # [1, 0, 1] has discriminant -4: its root is no pole of a d = -23 form
    for build in (lambda: FkAEvaluator(4, -23, BQF(1, 0, 1)),
                  lambda: eval_fkA(0.1 + 1.2j, 4, -23, BQF(1, 0, 1))):
        with pytest.raises(ValueError, match=r"\[1,0,1\].*-23"):
            build()
    # a rep of the right discriminant, reduced or not, is accepted
    assert FkAEvaluator(4, -23, BQF(2, 5, 6)).rep == BQF(2, 1, 3)


def test_equivalent_reps_share_an_evaluator():
    # None and [1, 1, 6] are the principal class of d = -23, and [2, 5, 6]
    # reduces to [2, 1, 3]: two classes, two evaluators
    reps = [None, BQF(1, 1, 6), BQF(2, 1, 3), BQF(2, 5, 6)]
    evs = [get_evaluator(6, -23, rep) for rep in reps]
    assert evs[0] is evs[1] and evs[2] is evs[3] and evs[0] is not evs[2]
    for rep in reps:
        fresh = FkAEvaluator(6, -23, rep)
        for z in (complex(0.13, 1.07), complex(-0.31, 0.93)):
            assert eval_fkA(z, 6, -23, rep) == complex(fresh.eval(np.array([z]))[0])


@pytest.mark.parametrize("k, d", [(6, -23), (4, -7), (8, -163), (2, -4), (2, -3), (10, -4)])
def test_eval_fkA_does_not_depend_on_the_batch(k, d):
    # each point is evaluated by the same elementwise steps, so its value
    # alone and its entry in any batch agree bit for bit.  That holds past
    # 16,384 points too, where numpy would compute x * y with a temporary y
    # as y * x, which rounds differently (at (10, -4) in the cusp form's E4^2)
    ev = get_evaluator(k, d)
    rng = np.random.default_rng(7)
    for z in (complex(0.13, 1.07), complex(-0.4, 0.3), complex(2.7, 0.05)):
        alone = eval_fkA(z, k, d)
        for size in (2, 37):
            others = rng.uniform(-1, 1, size - 1) + 1j * rng.uniform(0.1, 2, size - 1)
            assert ev.eval(np.concatenate([[z], others]))[0] == alone
            assert ev.eval(np.concatenate([others, [z]]))[-1] == alone
    zs = rng.uniform(-3, 3, 20000) + 1j * rng.uniform(0.15, 2.5, 20000)
    batch = ev.eval(zs)
    for i in rng.choice(zs.size, 200, replace=False):
        assert ev.eval(zs[i : i + 1])[0] == batch[i]


def test_eisenstein_needs_twelve_terms_at_reduced_points():
    # |q| <= exp(-pi sqrt 3) in the fundamental domain: FkAEvaluator.eval
    # sums 12 q-terms, where the default keeps 24 for Im z >= 0.4
    rng = np.random.default_rng(5)
    zs = rng.uniform(-3, 3, 20000) + 1j * rng.uniform(0.05, 3, 20000)
    rho = complex(-0.5, math.sqrt(3) / 2)
    zr = np.concatenate([_reduce_points(zs)[0], [rho, rho + 1, 1j]])
    assert np.all(np.abs(zr.real) <= 0.5 + 1e-12) and np.all(np.abs(zr) >= 1 - 1e-12)
    for short, full in zip(analytic._eisenstein(zr, 12), analytic._eisenstein(zr, 24)):
        assert np.all(np.abs(short - full) <= 1e-20 * np.maximum(1, np.abs(full)))


def test_eval_fkA_examples():
    z = complex(0.3, 1.1)
    f1 = eval_fkA(z, 2, -4)
    f2 = eval_fkA(z + 1, 2, -4)
    assert abs(f1 - f2) < 1e-7
    f2i = eval_fkA(2j, 2, -4)
    assert abs(f2i.imag) < 1e-12 * max(1, abs(f2i))
    fnear = eval_fkA(1j + 0.01, 2, -4)
    assert abs(fnear) > 1e3 * abs(f2i)


def test_eval_fkA_proportional_to_eisenstein_combination():
    # unique weight-4 meromorphic form with a double pole at i: E4 Delta / E6^2
    pts = np.array([complex(0.03 + 0.04 * j, 1.05 + 0.06 * j) for j in range(10)])
    ev = get_evaluator(2, -4)
    vals = ev.eval(pts)
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


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for m in range(1, n):
        p0, p1 = p1, ((2 * m + 1) * x * p1 - m * p0) / (m + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


def _golub_welsch(n):
    """The n-point Gauss--Legendre rule: the nodes are the eigenvalues of
    the Jacobi matrix of the Legendre recurrence, off-diagonal
    m/sqrt(4m^2 - 1), polished by one Newton step; the weights are
    2/((1 - x^2) P_n'(x)^2).  Both are then made symmetric about 0."""
    m = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(m / np.sqrt(4 * m * m - 1), -1))  # reads the lower triangle
    p, dp = _legendre(n, x)
    x = x - p / dp
    dp = _legendre(n, x)[1]
    w = 2 / ((1 - x * x) * dp * dp)
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


def test_gauss_legendre_rule():
    x, w = analytic._GL_X, analytic._GL_W
    # the table is the Golub--Welsch rule, bit for bit
    ref_x, ref_w = _golub_welsch(48)
    assert x.tolist() == ref_x.tolist() and w.tolist() == ref_w.tolist()
    # exact on every polynomial of degree <= 95
    for j in range(0, 95, 2):
        assert abs(np.sum(w * x**j) - 2 / (j + 1)) <= 1e-15
    assert abs(np.sum(w) - 2) <= 1e-15
    assert np.all(x == -x[::-1]) and np.all(w == w[::-1])
    ref = np.polynomial.legendre.leggauss(48)[0]
    assert np.all(np.abs(x - ref) <= 2 * np.spacing(np.abs(ref)))


def test_cold_geodesic_trace_needs_no_eigensolver(monkeypatch):
    # dim S_8 = 0: neither the rule nor the evaluator solves an eigenproblem
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    for name in ("eigvalsh", "eigh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    analytic._shared_evaluator.cache_clear()
    rep = lhs_geodesic(4, 12, -7, tol=1e-9)
    assert rep.value.hex() == "0x1.adb6db6db83bep+7"


def test_cycle_integral_invariance():
    Q = BQF(1, 2, -2)
    g = SL2Z(2, 1, 1, 1)
    v1, e1, _ = cycle_integral(Q, 2, -4, tol=1e-7)
    v2, e2, _ = cycle_integral(Q.apply(g), 2, -4, tol=1e-7)
    assert abs(v1 - v2) < 1e-6
    # every form of the reduced cycle traces the same closed geodesic
    for P in reduced_cycle(Q)[0]:
        v3, _, _ = cycle_integral(P, 2, -4, tol=1e-7)
        assert abs(v1 - v3) < 1e-6


def test_cycle_integral_pole_detection():
    # D = 8 = 2^2 + 4: the geodesic of [1, 2, -1] passes through i's orbit
    with pytest.raises(PoleOnGeodesic):
        cycle_integral(BQF(1, 2, -1), 2, -4, tol=1e-6)


def test_imaginary_parts_cancel():
    total = 0j
    for Q in indefinite_class_reps(12):
        v, _, _ = cycle_integral(Q, 2, -4, tol=1e-8)
        total += v
    assert abs(total.imag) < 1e-8
    assert abs(total.real - 24) < 1e-6


def test_geodesic_tolerances_past_the_old_layer_ceiling():
    # a truncated class sum raised NoConvergence at its layer ceiling here
    ex = float(rhs_trace(2, 192))
    rep = lhs_geodesic(2, 192, -4, tol=1e-6)
    assert rep.cutoff["met_tol"] and abs(rep.value - ex) <= rep.error_estimate


def test_lhs_geodesic():
    rep = lhs_geodesic(2, 12, -4, tol=1e-5)
    assert isinstance(rep, TraceReport)
    assert rep.method == "geodesic" and rep.hypothesis_ok
    assert abs(rep.value - 24) < 1e-6 * 25
    with pytest.raises(HypothesisViolated):
        lhs_geodesic(2, 5, -4)


# D = 60 and 85: the class with the largest layer cutoff is not the one
# with the most panels, nor the last; D = 48 at 1e-9 hits a noise floor;
# k = 2, D = 12 at 1e-7 stops on tol with an estimate near 3e-12.  The
# classes run in lockstep, one evaluator call per doubling, through the one
# quadrature path that cycle_integral takes for a single class, so the
# trace is their sum bit for bit
@pytest.mark.parametrize("k, D, d, tol", [(4, 60, -4, 1e-6), (3, 85, -3, 1e-6), (4, 48, -4, 1e-9),
                                          (2, 12, -4, 1e-7), (2, 12, -4, 1e-5)]
                         + [(k, D, d, tol) for k in (2, 4) for D, d in ((12, -4), (12, -7), (40, -7))
                            for tol in (1e-5, 1e-9) if (k, D, d, tol) != (2, 12, -4, 1e-5)])
def test_lhs_geodesic_keeps_every_class(k, D, d, tol):
    rep = lhs_geodesic(k, D, d, tol=tol)
    reps = indefinite_class_reps(D)
    integrals = [cycle_integral(Q, k, d, tol=tol / len(reps)) for Q in reps]
    metas = [meta for _, _, meta in integrals]
    total = 0j
    for value, _, _ in integrals:
        total += value
    assert rep.value == total.real
    assert rep.cutoff["classes"] == len(reps)
    assert rep.cutoff["panels"] == max(m["panels"] for m in metas)
    # the trace names the loosest of its classes' stop rules
    rules = {m["stop_rule"] for m in metas}
    assert rep.cutoff["stop_rule"] == next(r for r in ("noise_floor", "rest", "tol") if r in rules)
    assert rep.cutoff["met_tol"] == (rep.error_estimate <= tol)


# float.hex of value and error_estimate, and the cutoff, of the five
# geodesic-cold traces of the benchmark and one pinned k = 6 trace: any
# change to the rule, the nodes or their batching shows here
GEODESIC_PINS = [
    ((2, 12, -4, 1e-6), "0x1.8000000000006p+4", "0x1.d6e2a7898e9e1p-39",
     {"panels": 4, "stop_rule": "tol", "classes": 2, "met_tol": True}),
    ((3, 12, -7, 1e-7), "-0x1.0000000000000p-42", "0x1.680166ca92962p-33",
     {"panels": 4, "stop_rule": "tol", "classes": 2, "met_tol": True}),
    ((3, 12, -20, 1e-6), "0x1.0000000000000p-44", "0x1.c76401ae6ca1cp-31",
     {"panels": 4, "stop_rule": "tol", "classes": 2, "met_tol": True}),
    ((4, 12, -4, 1e-10), "0x1.2000000000214p+6", "0x1.99eb7a9fbf300p-32",
     {"panels": 4, "stop_rule": "rest", "classes": 2, "met_tol": False}),
    ((4, 12, -7, 1e-9), "0x1.adb6db6db83bep+7", "0x1.34be0e106d71cp-29",
     {"panels": 8, "stop_rule": "rest", "classes": 2, "met_tol": False}),
    ((6, 5, -23, 1e-6), "0x1.3379b4b9fdee8p+2", "0x1.a6c44df9b8449p-22",
     {"panels": 4, "stop_rule": "tol", "classes": 1, "met_tol": True}),
]


@pytest.mark.parametrize("args, value, estimate, cutoff", GEODESIC_PINS, ids=lambda x: None)
def test_geodesic_reports_are_pinned_bit_for_bit(args, value, estimate, cutoff):
    rep = lhs_geodesic(*args)
    assert (rep.value.hex(), rep.error_estimate.hex(), rep.cutoff) == (value, estimate, cutoff)


def test_cycle_integral_is_pinned_bit_for_bit():
    v, e, meta = cycle_integral(BQF(1, 2, -2), 4, -7, tol=1e-9)
    assert (v.real.hex(), v.imag.hex(), e.hex()) == ("0x1.adb6db6db83b8p+6", "-0x1.1400000000000p-37",
                                                     "0x1.347e83f6b80e3p-30")
    assert meta == {"panels": 8, "stop_rule": "rest"}


def test_stop_rule_tries_tol_then_rest_then_the_noise_floor():
    assert analytic._stop_rule(0.5, 0.4, 1.0) == "tol"
    assert analytic._stop_rule(0.45, 0.6, 1.0) == "rest"
    assert analytic._stop_rule(0.55, 0.6, 1.0) == "noise_floor"
    assert analytic._stop_rule(0.7, 0.6, 1.0) is None


# each stop rule by name: (2, 12, -4) at 1e-6 fits tol beside the rest;
# (4, 12, -4) at 1e-10 fits only half of tol, as the rest takes more, and
# misses tol; (4, 48, -4) at 1e-9 and the k = 4 lattice sums at 1e-11 and
# 1e-12 absolute reach the noise floor; odd k sums to an exact zero
@pytest.mark.parametrize("method, k, D, d, tol, rule", [
    (lhs_geodesic, 2, 12, -4, 1e-6, "tol"),
    (lhs_geodesic, 4, 12, -4, 1e-10, "rest"),
    (lhs_geodesic, 4, 48, -4, 1e-9, "noise_floor"),
    (lhs_latticesum, 4, 44, -4, 1e-11, "noise_floor"),
    (lhs_latticesum, 4, 384, -4, 1e-12, "noise_floor"),
    (lhs_latticesum, 3, 12, -4, 1e-6, "tol"),
    (lhs_latticesum, 3, 21, -3, 1e-6, "tol"),
], ids=lambda x: getattr(x, "__name__", None))
def test_numeric_traces_name_their_stop_rule(method, k, D, d, tol, rule):
    rep = method(k, D, d, tol=tol)
    assert rep.cutoff["stop_rule"] == rule
    assert rep.cutoff["met_tol"] == (rep.error_estimate <= tol)
    if rule != "noise_floor":
        assert rep.cutoff["met_tol"] == (rule == "tol")


def _count_eval_calls(monkeypatch) -> list[int]:
    sizes = []
    evaluate = FkAEvaluator.eval

    def counting(self, zs):
        sizes.append(np.size(zs))
        return evaluate(self, zs)

    monkeypatch.setattr(FkAEvaluator, "eval", counting)
    return sizes


def test_geodesic_trace_evaluates_every_class_in_one_call(monkeypatch):
    # two classes of one panel per piece that stop at their first doubling:
    # the levels mult = 1 and 2 of both share the one call
    get_evaluator(2, -4)
    sizes = _count_eval_calls(monkeypatch)
    rep = lhs_geodesic(2, 12, -4, tol=1e-5)
    assert rep.cutoff["classes"] == 2 and rep.cutoff["panels"] == 4
    assert sizes == [2 * (2 + 4) * 48]


def test_cycle_integrals_split_their_calls_at_the_panel_ceiling(monkeypatch):
    # the first round of D = 12 holds 2 + 4 panels per class; under a
    # ceiling of 6 panels no call holds more nodes, and every value, estimate
    # and cutoff stays bit for bit
    forms = indefinite_class_reps(12)
    want = analytic._cycle_integrals(forms, 2, -4, 1e-5 / 2)
    sizes = _count_eval_calls(monkeypatch)
    monkeypatch.setattr(analytic, "PANEL_CEILING", 6)
    assert analytic._cycle_integrals(forms, 2, -4, 1e-5 / 2) == want
    assert sizes == [6 * 48, 6 * 48]


def test_panel_ceiling_raises_before_the_level_is_evaluated(monkeypatch):
    get_evaluator(2, -4)
    sizes = _count_eval_calls(monkeypatch)
    monkeypatch.setattr(analytic, "PANEL_CEILING", 3)
    with pytest.raises(NoConvergence, match="geodesic: 4 panels would pass the ceiling 3; last cutoff none"):
        lhs_geodesic(2, 12, -4, tol=1e-5)
    assert sizes == []


def test_panel_ceiling_names_the_last_cutoff_and_estimate(monkeypatch):
    # D = 48 at 1e-9 doubles its largest class to 24 panels; under a
    # ceiling of 16 the doubling past 8 panels raises
    monkeypatch.setattr(analytic, "PANEL_CEILING", 16)
    with pytest.raises(NoConvergence, match=r"geodesic: \d+ panels would pass the ceiling 16; "
                                            r"last cutoff \d+ panels, estimate \d\.\d{3}e-\d+$"):
        lhs_geodesic(4, 48, -4, tol=1e-9)


# ------------------------------------------------------- lattice sum


def _r2_brute(n):
    # r2(n) = #{(b, e): b^2 + e^2 = n}
    count = 0
    for b in range(-math.isqrt(n), math.isqrt(n) + 1):
        e = math.isqrt(n - b * b)
        if e * e == n - b * b:
            count += 1 if e == 0 else 2
    return count


def _r2_of_factors(n):
    # r2(n) = 4 prod (e + 1) over p ≡ 1 (4), or 0 if a p ≡ 3 (4) has odd e
    out = 4
    for p, e in factor(n):
        if p % 4 == 3 and e % 2:
            return 0
        if p % 4 == 1:
            out *= e + 1
    return out


def _d4_counts(r2, D, lo, hi):
    # at d = -4, j = t/2 and n = D + j^2, and the group t holds
    # 2 (1 + [n even]) r2(n)/4 forms
    return [(1 + ((D + j * j) % 2 == 0)) * r2(D + j * j) // 2 for j in range(lo + 1, hi + 1)]


def test_r2_table_vs_brute():
    # windows with lo > 0, D with square factors (45, 588), and D ≡ 1 (mod 8),
    # where n ≡ 2 (mod 4) can be a sum of two squares
    for D, lo, hi in ((12, 0, 60), (21, 0, 60), (5, 0, 60), (12, 23, 60), (5, 37, 160),
                      (21, 37, 160), (45, 37, 160), (76, 500, 560), (588, 37, 160), (588, 500, 560),
                      (17, 37, 160)):
        assert _DirichletSieve(-4, D).counts(lo, hi).tolist() == _d4_counts(_r2_brute, D, lo, hi), (D, lo)


def test_r2_table_with_shared_prime_roots():
    # one sieve across growing windows, as the lattice sum keeps it, against
    # a fresh sieve for each window
    for d in CLASS_NUMBER_ONE:
        sieve = _DirichletSieve(d, 21)
        for lo, hi in ((0, 64), (64, 128), (128, 512)):
            assert np.array_equal(sieve.counts(lo, hi), _DirichletSieve(d, 21).counts(lo, hi)), d


def test_least_non_residues_by_reciprocity():
    p = _primes_between(1, 1 << 14)
    p = p[p % 4 == 1]
    brute = [next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1) for q in p.tolist()]
    assert _least_non_residues(p).tolist() == brute


def _n_of_j(M, j):
    # n(j) = (M + t^2)/4 at t = 2j - (M mod 2)
    return (M + (2 * j - M % 2) ** 2) // 4


def test_prime_roots_reach_ahead_up_to_the_ceiling(monkeypatch):
    # each pass reaches 4x past the last, but never past the root bound of
    # the j ceiling (2^10 here); a table that reached ahead counts as a
    # fresh one does
    monkeypatch.setattr(analytic, "S_CEILING", 1 << 10)
    D = 21
    for d in CLASS_NUMBER_ONE:
        M = -d * D
        cap = math.isqrt(_n_of_j(M, 1 << 10)) + 1
        sieve = _DirichletSieve(d, D)
        reached_ahead = False
        for lo, hi in ((0, 256), (256, 512), (512, 1024)):
            table = sieve.counts(lo, hi)
            assert sieve.bound <= cap
            reached_ahead |= sieve.bound > math.isqrt(_n_of_j(M, hi)) + 1
            assert np.array_equal(table, _DirichletSieve(d, D).counts(lo, hi)), d
        assert reached_ahead and sieve.bound == cap, d


PRIMES_BELOW_20000 = [p for p in range(2, 20000) if factor(p) == [(p, 1)]]


@pytest.mark.parametrize("D", [3, 4, 12, 21, 75, 588, 805, 9997])
def test_prime_roots_match_direct_search(D):
    # the roots j of p | n(j) for M = |d| D at d = -4, -3 and -7, where n(j)
    # is an integer; grown in three steps, as the doublings of a lattice sum
    # grow it.  The M include primes dividing M, which have one root, and
    # both parities; 2 has no root, one or two
    for d in (-4, -3, -7):
        M = -d * D
        if M % 4 not in (0, 3):
            continue
        sieve = _DirichletSieve(d, D)
        sieve.upto(100)
        sieve.upto(5000)
        p, r = sieve.upto(19999)
        assert np.all(np.diff(p) >= 0)
        got = {}
        for q, x in zip(p.tolist(), r.tolist()):
            got.setdefault(q, []).append(x)
        want = {q: np.flatnonzero(_n_of_j(M, np.arange(q)) % q == 0).tolist() for q in PRIMES_BELOW_20000}
        assert got == {q: xs for q, xs in want.items() if xs}, M


def test_r2_table_near_the_s_ceiling():
    # D + j^2 near 2^48, where an int64 product in the sieve could overflow;
    # arith.factor works in Python ints
    D, hi = 45, 1 << 24
    assert _DirichletSieve(-4, D).counts(hi - 16, hi).tolist() == _d4_counts(_r2_of_factors, D, hi - 16, hi)


@pytest.mark.parametrize("chunk", [1, 7])
def test_r2_table_chunks_do_not_change_counts(chunk, monkeypatch):
    # chunks of 1 and 7 hits split every prime's hits across chunks, and 7
    # repeats indices within a chunk
    cases = ((-4, 12, 0, 300), (-4, 588, 200, 500), (-3, 21, 0, 300), (-8, 12, 200, 500))
    want = [_DirichletSieve(d, D).counts(lo, hi) for d, D, lo, hi in cases]
    monkeypatch.setattr(analytic, "SIEVE_CHUNK", chunk)
    got = [_DirichletSieve(d, D).counts(lo, hi) for d, D, lo, hi in cases]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_parity_counts_vs_brute():
    # at d = -4 the group t = 2j holds the (b, e) with b^2 + e^2 = D + j^2,
    # e ≡ j and b ≡ D (mod 2)
    for D, lo in ((12, 0), (21, 0), (24, 0), (21, 17)):
        S = 40
        N = _DirichletSieve(-4, D).counts(lo, S)
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
    # the exact zero of odd k names t_cutoff 0, at d = -4 as elsewhere
    assert rep3.cutoff == {"t_cutoff": 0, "stop_rule": "tol", "met_tol": True}
    assert lhs_latticesum(3, 21, -3).cutoff == {"t_cutoff": 0, "stop_rule": "tol", "met_tol": True}
    with pytest.raises(HypothesisViolated):
        lhs_latticesum(2, 8, -4)


def test_latticesum_k2_error_bar_covers_the_closed_formula():
    # verify --tol 1e-4 asks 5e-5 (1 + |trace|) of the sum; the last
    # increment alone under-covered D = 12, 24, 44 and 48 there
    from cyclotrace.arith import is_square
    from cyclotrace.bqf import hypothesis_check
    from cyclotrace.special_forms import closed_formula

    for D in range(5, 101):
        if D % 4 in (0, 1) and not is_square(D) and hypothesis_check(D, -4):
            exact = float(closed_formula(2, D))
            rep = lhs_latticesum(2, D, -4, tol=5e-5 * (1 + abs(exact)))
            assert abs(rep.value - exact) <= rep.error_estimate, D


def test_latticesum_rejects_int64_overflow():
    # n(j) = D + j^2 must fit in int64 up to the j ceiling 2^24 of the sieve
    D = (1 << 63) - 3
    with pytest.raises(ValueError, match=f"D = {D}"):
        lhs_latticesum(2, D, -4)


@pytest.mark.parametrize("d", CLASS_NUMBER_ONE)
def test_sieved_latticesums_reject_int64_overflow(d):
    # n(j) = |d| D/4 + j^2 at D ≡ 0 (mod 4) must fit in int64 up to the j
    # ceiling 2^24, and the check comes before hypothesis_check, which does
    # not return on such D.  D is the least multiple of 4 past that border,
    # so |d| D itself does not fit in int64
    big, S = (1 << 63) - 1, analytic.S_CEILING
    D = 4 * ((big - S * S) // -d + 1)
    assert -d * (D - 4) // 4 + S * S <= big < -d * D // 4 + S * S
    with pytest.raises(ValueError, match=f"D = {D}"):
        lhs_latticesum(2, D, d)


# under a j ceiling of 2^13 (t <= 2^14), above the k = 2 first pass over
# j <= 4096, neither k = 2 sum reaches 1e-9: each names its last cutoff
# and estimate in t, at d = -4 as elsewhere
@pytest.mark.parametrize("d, ceiling, message", [
    (-4, 1 << 13, "latticesum: t_cutoff 32768 would pass the ceiling 16384; last cutoff 16384, estimate "),
    (-7, 1 << 13, "latticesum: t_cutoff 32768 would pass the ceiling 16384; last cutoff 16384, estimate "),
])
def test_latticesum_ceiling_names_the_last_cutoff_and_estimate(monkeypatch, d, ceiling, message):
    monkeypatch.setattr(analytic, "S_CEILING", ceiling)
    with pytest.raises(NoConvergence, match=message + r"\d\.\d{3}e-\d+$"):
        lhs_latticesum(2, 12, d, tol=1e-9)


@pytest.mark.parametrize("k, d, tol", [(2, -4, 1e-2), (4, -4, 1e-6), (4, -7, 1e-3)])
def test_latticesum_slices_keep_the_sum(monkeypatch, k, d, tol):
    # slices of 5 cut every window, and the first pass over j <= 16 first
    # (128 terms at k = 4, 4096 at k = 2) mid-window too
    whole = lhs_latticesum(k, 21, d, tol=tol)
    monkeypatch.setattr(analytic, "TAIL_SLICE", 5)
    sliced = lhs_latticesum(k, 21, d, tol=tol)
    assert sliced.cutoff == whole.cutoff
    assert abs(sliced.value - whole.value) <= 1e-13 * abs(whole.value)


def _latticesum_by_windows(k, D, d, tol):
    """lhs_latticesum's value and cutoff from a loop that sieves and sums one
    window per doubling, with the same terms, extrapolates and stop."""
    first = 256 if k == 2 else 8
    e = -d * D % 2
    if d in CLASS_NUMBER_ONE:
        counts = _DirichletSieve(d, D).counts
    else:
        solver = PairingSolver(definite_class_reps(d)[0])
        counts = lambda lo, hi: np.array([len(solver.forms(D, 2 * j - e)) for j in range(lo + 1, hi + 1)])

    def window(lo, hi):
        t = 2 * np.arange(lo + 1, hi + 1) - e
        return float(np.sum(2.0 * counts(lo, hi) * _latticesum_terms(k, D, d, t)))

    pref = ((-1) ** k * 2**k * math.sqrt(-d) * D ** (k - 0.5)
            / (stabilizer_order(d) * math.comb(2 * k - 2, k - 1) * math.pi * (2 * k - 1)))
    S, total, R = first, window(0, first), []
    while True:
        inc = window(S, 2 * S)
        total += inc
        S *= 2
        R = R[-3:] + [pref * (total + inc / (2 ** (k - 1) - 1))]
        if len(R) == 4:
            est = max(abs(R[3 - i] - R[2 - i]) * 2.0 ** (-(k - 2) * i) for i in range(3))
            rest = analytic.ROUNDING_FLOOR * analytic.EPS * abs(pref * total)
            cutoff = {"t_cutoff": 2 * S, "met_tol": max(est + rest, 1e-15) <= tol}
            if est < tol - rest:
                return R[-1], {**cutoff, "stop_rule": "tol"}
            if est < tol / 2:
                return R[-1], {**cutoff, "stop_rule": "rest"}
            if est <= rest:
                return R[-1], {**cutoff, "stop_rule": "noise_floor"}


# (4, 12, -4) starts at j = 8 as k >= 4 does at every d, (2, 24, -4) runs
# on past the first pass, (6, 5, -23) counts with PairingSolver, and
# (2, 12, -4) and (2, 12, -7) stop at the least k = 2 cutoff, t = 2 * 16 * 2^8
@pytest.mark.parametrize("k, D, d, tol, cutoff", [
    (4, 12, -4, 1e-4, {"t_cutoff": 1024, "stop_rule": "tol", "met_tol": True}),
    (2, 24, -4, 2e-3, {"t_cutoff": 65536, "stop_rule": "tol", "met_tol": True}),
    (4, 33, -7, 1e-6, {"t_cutoff": 16384, "stop_rule": "tol", "met_tol": True}),
    (4, 13, -8, 1e-6, {"t_cutoff": 4096, "stop_rule": "tol", "met_tol": True}),
    (6, 5, -23, 1e-6, {"t_cutoff": 512, "stop_rule": "tol", "met_tol": True}),
    (2, 12, -4, 1e-2, {"t_cutoff": 8192, "stop_rule": "tol", "met_tol": True}),
    (2, 12, -7, 1e-2, {"t_cutoff": 8192, "stop_rule": "tol", "met_tol": True}),
])
def test_latticesum_first_pass_keeps_every_window(k, D, d, tol, cutoff):
    rep = lhs_latticesum(k, D, d, tol=tol)
    assert rep.cutoff == cutoff
    assert (rep.value, rep.cutoff) == _latticesum_by_windows(k, D, d, tol)


# float.hex of value and error_estimate, and the stop rule, of lattice sums
# at k = 2 on d = -4, at k >= 4 off d = -4 and at odd k: the first window
# follows k alone, so none of these may move
LATTICESUM_PINS = [
    ((2, 24, -4, 2e-3), "0x1.c000019329af0p+5", "0x1.31a76b7df7d37p-10", "tol"),
    ((2, 12, -4, 1e-4), "0x1.7fffffaecb3b9p+4", "0x1.bb178509fe65fp-16", "tol"),
    ((4, 33, -7, 1e-6), "0x1.5536db6db7627p+11", "0x1.6b56b6db6d6b3p-25", "tol"),
    ((4, 13, -8, 1e-6), "0x1.effffffff1cd1p+7", "0x1.2370183ffff89p-21", "tol"),
    ((6, 5, -23, 1e-6), "0x1.3379b4f46e115p+2", "0x1.d745230d5b4f0p-22", "tol"),
    ((4, 12, -20, 1e-4), "0x1.6fffffeab764ap+7", "0x1.8e25feac9ffd6p-14", "tol"),
    ((3, 21, -3, 1e-3), "0x0.0p+0", "0x0.0p+0", "tol"),
]


@pytest.mark.parametrize("args, value, estimate, rule", LATTICESUM_PINS, ids=lambda x: None)
def test_latticesum_reports_are_pinned_bit_for_bit(args, value, estimate, rule):
    rep = lhs_latticesum(*args)
    assert (rep.value.hex(), rep.error_estimate.hex(), rep.cutoff["stop_rule"]) == (value, estimate, rule)


def test_latticesum_sieves_its_first_span_once(monkeypatch):
    # the stop test needs four extrapolates, so a k = 2 sum stopping at its
    # least cutoff, t_cutoff 8192, sieves and evaluates 2F1 over j <= 4096 once
    calls = {"counts": 0, "_hyp2f1_quadratic": 0}
    for owner, name in ((analytic._DirichletSieve, "counts"), (analytic, "_hyp2f1_quadratic")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    assert lhs_latticesum(2, 12, -4, tol=1e-2).cutoff == {"t_cutoff": 8192, "stop_rule": "tol", "met_tol": True}
    assert calls == {"counts": 1, "_hyp2f1_quadratic": 1}


def test_latticesum_builds_one_sieve_and_one_character_table(monkeypatch):
    # (2, 24, -4) runs past its first pass to t_cutoff 65536, so it sieves
    # four windows; the one sieve takes chi_(-4) once, in 4 kronecker calls
    calls = {"sieves": 0, "kronecker": 0}
    init, kronecker = analytic._DirichletSieve.__init__, analytic.kronecker

    def counted_init(*args):
        calls["sieves"] += 1
        init(*args)

    def counted_kronecker(*args):
        calls["kronecker"] += 1
        return kronecker(*args)

    monkeypatch.setattr(analytic._DirichletSieve, "__init__", counted_init)
    monkeypatch.setattr(analytic, "kronecker", counted_kronecker)
    assert lhs_latticesum(2, 24, -4, tol=2e-3).cutoff == {"t_cutoff": 65536, "stop_rule": "tol", "met_tol": True}
    assert calls == {"sieves": 1, "kronecker": 4}


@pytest.mark.parametrize("k, D, d", [(8, 21, -4), (10, 13, -7), (6, 13, -3)])
def test_latticesum_covers_the_mpmath_2f1_reference(k, D, d, monkeypatch):
    # the same sum with mpmath's 2F1 on every term with w = 4z(1 - z) > 1/2;
    # through the transformation in 1 - w these sums were off by up to
    # 30 times their estimates
    mp = pytest.importorskip("mpmath")
    rep = lhs_latticesum(k, D, d, tol=1e-13)

    def reference(a, b, z):
        out = _hyp2f1_quadratic(a, b, z)
        with mp.workdps(30):
            for i in np.flatnonzero(4 * z * (1 - z) > 0.5):
                zi = mp.mpf(float(z[i]))
                out[i] = float(mp.hyp2f1(a, b, a + b + 0.5, 4 * zi * (1 - zi)))
        return out

    monkeypatch.setattr(analytic, "_hyp2f1_quadratic", reference)
    ref = lhs_latticesum(k, D, d, tol=1e-13)
    assert abs(rep.value - ref.value) <= rep.error_estimate


@pytest.mark.parametrize("D, tol", [(21, None), (57, None), (44, 1e-11), (384, 1e-12)])
def test_latticesum_estimate_covers_its_rounding(D, tol):
    # near the sum's own rounding the changes of the extrapolate no longer
    # bound its error: without the rounding term D = 21 and 57 at
    # 1e-13 (1 + |trace|) were off by 58 and 53 eps relative, beside
    # estimates of 40 and 45, D = 44 at 1e-11 absolute was under-covered,
    # and D = 384 at 1e-12 absolute ran to the ceiling; the absolute ones,
    # below the sum's rounding, now stop at the noise floor and report
    # that they missed tol
    from cyclotrace.special_forms import closed_formula

    exact = float(closed_formula(4, D))
    rep = lhs_latticesum(4, D, -4, tol=tol or 1e-13 * (1 + exact))
    assert abs(rep.value - exact) <= rep.error_estimate
    assert rep.cutoff["stop_rule"] == ("tol" if tol is None else "noise_floor")
    assert rep.cutoff["met_tol"] == (tol is None)


def test_pairing_solver_counts_match_sieve():
    # the lattice sum counts the groups t and -t together as 2 N(t)
    for d in CLASS_NUMBER_ONE:
        solver = PairingSolver(definite_class_reps(d)[0])
        for D, lo, hi in ((12, 0, 40), (21, 0, 40), (24, 0, 40), (21, 17, 60), (60, 100, 130)):
            N = _DirichletSieve(d, D).counts(lo, hi)
            for j in range(lo + 1, hi + 1):
                t = 2 * j - (-d * D) % 2
                count = len(solver.forms(D, t)) + len(solver.forms(D, -t))
                assert count == 2 * N[j - lo - 1], (d, D, t)
                # the t of the other parity hold no form
                assert solver.forms(D, t + 1) == solver.forms(D, -t - 1) == [], (d, D, t)


@pytest.mark.parametrize("d", CLASS_NUMBER_ONE)
def test_divisor_sums_count_as_the_pairing_solver(d):
    # N(t) = w (1 + [p_d divides n]) sum_{m | n} chi_d(m), n = (|d| D + t^2)/4,
    # at t = 2j - e, e = |d| D mod 2, over growing windows with one
    # sieve, the last one holding multiples of |d| near t = 4096;
    # the t of the other parity hold no form
    solver, w = PairingSolver(definite_class_reps(d)[0]), stabilizer_order(d)
    windows = ((0, 32), (32, 150), (2048 + d, 2048))
    for D in range(5, 61):
        if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
            continue
        sieve = _DirichletSieve(d, D)
        for lo, hi in windows:
            t = [2 * j - (-d * D) % 2 for j in range(lo + 1, hi + 1)]
            N = sieve.counts(lo, hi)
            assert N.tolist() == [len(solver.forms(D, u)) for u in t], (D, lo)
            assert not any(solver.forms(D, u + 1) or solver.forms(D, -u - 1) for u in t), (D, lo)


@pytest.mark.parametrize("k, D, d", [(2, 12, -7), (2, 21, -3), (2, 13, -8)])
def test_sieved_latticesum_meets_the_geodesic(k, D, d):
    # the 1/t tail of k = 2: at t = 2^16 for (12, -7)
    l = lhs_latticesum(k, D, d, tol=1e-3)
    g = lhs_geodesic(k, D, d, tol=1e-11)
    assert abs(l.value - g.value) <= l.error_estimate + g.error_estimate


def test_imprimitive_classes_in_trace():
    # D = 84 contains the imprimitive class 2*[1,1,-5]; its cycle uses the
    # generator of the primitive stabiliser, and the three methods agree
    ex = float(rhs_trace(2, 84))
    g = lhs_geodesic(2, 84, -4, tol=1e-6 * (1 + abs(ex)))
    l = lhs_latticesum(2, 84, -4, tol=0.4e-4 * (1 + abs(ex)))
    assert abs(g.value - ex) < 1e-6 * (1 + abs(ex))
    assert abs(l.value - ex) < 1e-4 * (1 + abs(ex))


def test_long_period_arc():
    # disc 129 has regulator ~10.4; the pieces of the reduced cycle keep
    # every quadrature endpoint at height >= D^(-1/4)
    ex = float(rhs_trace(4, 129))
    g = lhs_geodesic(4, 129, -4, tol=1e-6 * (1 + abs(ex)))
    assert abs(g.value - ex) < 1e-6 * (1 + abs(ex))
    # period ~22.9 at disc 209: its pieces' lengths sum to the period
    ex = float(rhs_trace(4, 209))
    g = lhs_geodesic(4, 209, -4, tol=0.2e-6 * (1 + abs(ex)))
    assert abs(g.value - ex) < 1e-6 * (1 + abs(ex))


@pytest.mark.parametrize("d, tol", [(-3, 1e-8), (-7, 1e-6)])
def test_long_period_window_from_exact_period(d, tol):
    # disc 97 has period ~37.3: one period centered at the arc's top would
    # end within 1.6e-8 of theta = pi, while the pieces of the reduced
    # cycle end at height >= D^(-1/4).  The odd-k trace is 0.
    rep = lhs_geodesic(3, 97, d, tol=tol)
    assert abs(rep.value) <= rep.error_estimate


# One period centered at the arc's top under-covered the first five and
# raised on the last five (D = 721 and 889 have periods 76 and 89).
# The tolerance is 1e-7 (1 + |trace|), five times tighter than what
# `verify --tol 1e-6` asks of the geodesic; the odd-k trace is 0.
@pytest.mark.parametrize("k, D, d", [(4, 649, -4), (2, 649, -4), (4, 921, -4), (3, 97, -20), (3, 281, -3),
                                     (2, 721, -4), (4, 889, -4), (4, 249, -4), (2, 849, -4), (4, 996, -4)])
def test_geodesic_error_bar_on_long_periods(k, D, d):
    exact = float(rhs_trace(k, D)) if k % 2 == 0 else 0.0
    rep = lhs_geodesic(k, D, d, tol=1e-7 * (1 + abs(exact)))
    assert abs(rep.value - exact) <= rep.error_estimate


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
