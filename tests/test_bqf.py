import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from cyclotrace.analytic import _class_pairs
from cyclotrace.arith import is_square
from cyclotrace.bqf import (
    BQF,
    SL2Z,
    PairingSolver,
    definite_class_reps,
    equivalent_indefinite,
    hypothesis_check,
    indefinite_class_reps,
    is_reduced_indefinite,
    on_geodesic_forms,
    pairing,
    pell_automorph,
    pell_fundamental,
    reduce_definite,
    reduced_cycle,
    sqrt_mod_roots,
    stabilizer_order,
)
from cyclotrace.errors import NotDefinite, SquareDiscriminant


def random_sl2(rng, bound=10):
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        c, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a * d - b * c == 1:
            return SL2Z(a, b, c, d)


def test_disc_examples():
    assert BQF(1, 0, 1).disc == -4
    assert BQF(1, 2, -2).disc == 12
    assert BQF(1, 1, -1).disc == 5


def test_reduce_definite_examples():
    red, g = reduce_definite(BQF(1, 0, 1))
    assert red == BQF(1, 0, 1) and g == SL2Z.identity()
    for Q in (BQF(2, 2, 1), BQF(5, 4, 1)):
        red, g = reduce_definite(Q)
        assert red == BQF(1, 0, 1)
        assert Q.apply(g) == red
    with pytest.raises(NotDefinite):
        reduce_definite(BQF(1, 2, -2))


def test_reduce_definite_brute_force_equivalence():
    # a small matrix search confirms [2,2,1] ~ [1,0,1]
    found = False
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    if a * d - b * c == 1 and BQF(2, 2, 1).apply(SL2Z(a, b, c, d)) == BQF(1, 0, 1):
                        found = True
    assert found


def test_reduction_idempotent_exhaustive():
    for a in range(1, 51):
        for b in range(-50, 51):
            cmin = b * b // (4 * a) + 1
            for c in (cmin, cmin + 7, 50):
                Q = BQF(a, b, c)
                if not Q.is_positive_definite:
                    continue
                red, g = reduce_definite(Q)
                assert Q.apply(g) == red
                red2, _ = reduce_definite(red)
                assert red2 == red


def test_action_invariance():
    rng = random.Random(3)
    for _ in range(200):
        Q = BQF(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        g = random_sl2(rng)
        assert Q.apply(g).disc == Q.disc


def test_definite_class_reps():
    assert definite_class_reps(-4) == [BQF(1, 0, 1)]
    assert definite_class_reps(-3) == [BQF(1, 1, 1)]
    assert definite_class_reps(-12) == [BQF(1, 0, 3), BQF(2, 2, 2)]
    assert len(definite_class_reps(-23)) == 3


def test_indefinite_class_reps():
    reps5 = indefinite_class_reps(5)
    assert len(reps5) == 1
    assert equivalent_indefinite(reps5[0], BQF(1, 1, -1))
    assert len(indefinite_class_reps(12)) == 2
    with pytest.raises(SquareDiscriminant):
        indefinite_class_reps(4)


def test_indefinite_reps_cover_all_cycles():
    # representatives pairwise inequivalent; their cycles partition the
    # full set of reduced forms (exhaustive narrow-class count)
    for D in range(5, 201):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        reps = indefinite_class_reps(D)
        all_reduced = set()
        s = isqrt(D)
        for b in range(1, s + 1):
            if (D - b * b) % 4:
                continue
            prod = (b * b - D) // 4
            for a2 in range(1, 2 * s + 2):
                if a2 % 2:
                    continue
                a = a2 // 2
                if prod % a:
                    continue
                for aa in (a, -a):
                    Q = BQF(aa, b, prod // aa)
                    if is_reduced_indefinite(Q):
                        all_reduced.add(Q)
        seen = set()
        for Q in reps:
            cycle, _ = reduced_cycle(Q)
            assert not (set(cycle) & seen), (D, Q)
            seen |= set(cycle)
        assert seen == all_reduced, D


def test_pell_examples():
    arc = pell_automorph(BQF(1, 1, -1))
    assert (arc.t, arc.u) == (3, 1)
    assert arc.automorph == SL2Z(2, -1, -1, 1)
    arc = pell_automorph(BQF(1, 2, -2))
    assert (arc.t, arc.u) == (4, 1)
    assert arc.automorph == SL2Z(3, -2, -1, 1)


def test_pell_fixes_form():
    rng = random.Random(9)
    for D in (5, 8, 12, 13, 17, 21, 24, 28, 40, 60, 73):
        for Q in indefinite_class_reps(D):
            arc = pell_automorph(Q)
            g = arc.automorph
            assert Q.apply(g) == Q
            assert g.a * g.d - g.b * g.c == 1
            assert (g.a, g.b, g.c, g.d) not in ((1, 0, 0, 1), (-1, 0, 0, -1))


def test_pell_minimality_brute():
    # the brute search is only feasible while u stays moderate; the monsters
    # (D = 151, 166, 199, ... with u ~ 1e8+) are excluded from the sweep
    for D in range(5, 201):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        t, u = pell_fundamental(D)
        assert t * t - D * u * u == 4 and t > 0 and u > 0
        if u > 200_000:
            continue
        for uu in range(1, u):
            assert not is_square(4 + D * uu * uu), (D, uu)


def test_pell_automorph_imprimitive():
    # an imprimitive form shares its stabiliser with its primitive part;
    # the generator's (t, u) live at the primitive discriminant
    Q = BQF(2, 2, -10)  # 2 * [1, 1, -5], disc 84
    arc = pell_automorph(Q)
    assert Q.apply(arc.automorph) == Q
    assert arc.primitive_disc == 21
    assert arc.t * arc.t - 21 * arc.u * arc.u == 4
    assert (arc.t, arc.u) == (5, 1)
    # the minimal solution at disc 84 itself, (t, u) = (110, 12), only
    # reaches the cube of the generator
    naive = SL2Z((110 + 2 * 12) // 2, -10 * 12, -2 * 12, (110 - 2 * 12) // 2)
    assert Q.apply(naive) == Q
    cube = arc.automorph * arc.automorph * arc.automorph
    assert naive == cube


def test_pell_automorph_of_unreduced_forms():
    # SL(2,Z) images of the class reps are not reduced; each keeps its own
    # stabiliser, the closed form in its primitive coefficients
    rng = random.Random(41)
    for D in range(5, 201):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        for R in indefinite_class_reps(D):
            for Qp in [R] + [R.apply(random_sl2(rng)) for _ in range(3)]:
                for m in (1, 2):
                    Q = BQF(m * Qp.a, m * Qp.b, m * Qp.c)
                    arc = pell_automorph(Q)
                    g, t, u = arc.automorph, arc.t, arc.u
                    a, b, c = (x // Q.content() for x in (Q.a, Q.b, Q.c))
                    assert Q.apply(g) == Q, (Q, g)
                    assert (g.a, g.b, g.c, g.d) not in ((1, 0, 0, 1), (-1, 0, 0, -1))
                    assert arc.primitive_disc == b * b - 4 * a * c
                    assert (t, u) == pell_fundamental(arc.primitive_disc), Q
                    assert g == SL2Z((t + b * u) // 2, c * u, -a * u, (t - b * u) // 2), Q


def test_pell_validity_to_1000():
    rng = random.Random(1)
    Ds = [D for D in range(5, 1001) if D % 4 in (0, 1) and not is_square(D)]
    for D in rng.sample(Ds, 60):
        t, u = pell_fundamental(D)
        assert t * t - D * u * u == 4 and t > 0 and u > 0


def test_pairing():
    assert pairing(BQF(1, 0, 1), BQF(1, 0, 1)) == 2
    rng = random.Random(17)
    for _ in range(100):
        Q1 = BQF(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        Q2 = BQF(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert pairing(Q1, Q2) == pairing(Q2, Q1)
        assert pairing(Q1, Q1) == Fraction(-Q1.disc, 2)
        assert pairing(Q1, BQF(-1, 0, -1)) == -(Q1.a + Q1.c)
        g = random_sl2(rng)
        assert pairing(Q1.apply(g), Q2.apply(g)) == pairing(Q1, Q2)


def test_stabilizer_order():
    assert stabilizer_order(-4) == 2
    assert stabilizer_order(-3) == 3
    assert stabilizer_order(-20) == 1
    # oracle: count PSL2 matrices with small entries fixing the CM point
    for d, want in ((-4, 2), (-3, 3), (-20, 1)):
        Q = definite_class_reps(d)[0]
        fixers = set()
        for a in range(-2, 3):
            for b in range(-2, 3):
                for c in range(-2, 3):
                    for e in range(-2, 3):
                        if a * e - b * c == 1 and BQF.apply(Q, SL2Z(a, b, c, e)) == Q:
                            fixers.add((a, b, c, e))
        assert len(fixers) == 2 * want  # counts both lifts of each PSL2 element


def test_hypothesis_examples():
    assert hypothesis_check(12, -4) is True
    assert hypothesis_check(5, -4) is False
    assert hypothesis_check(8, -4) is False
    # at d = -20 only the non-principal class has a CM point on a geodesic
    assert hypothesis_check(41, -20) is False
    assert PairingSolver(BQF(1, 0, 5)).forms(41, 0) == []
    assert PairingSolver(BQF(2, 2, 3)).forms(41, 0)
    with pytest.raises(SquareDiscriminant):
        hypothesis_check(9, -4)


def test_hypothesis_brute_force_300():
    for D in range(5, 301):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        brute = any(
            b * b + 4 * a * a == D
            for a in range(1, isqrt(D) // 2 + 2)
            for b in range(isqrt(D) + 1)
        )
        assert hypothesis_check(D, -4) == (not brute), D


def test_on_geodesic_forms_float_oracle():
    # d = -3: compare the exact orthogonality solutions with a float scan
    import math

    z = complex(-0.5, math.sqrt(3) / 2)
    for D in (5, 8, 12, 13, 21, 24, 28, 33):
        exact = on_geodesic_forms(D, -3)
        brute = []
        for a in range(-30, 31):
            if not a:
                continue
            for b in range(-30, 31):
                if (b * b - D) % (4 * a) == 0:
                    c = (b * b - D) // (4 * a)
                    if abs(a * abs(z) ** 2 + b * z.real + c) < 1e-9:
                        brute.append((a, b, c))
        assert bool(exact) == bool(brute), D


def test_pairing_solver_box_oracle():
    # Every class of four d, including a0 > 1 and t != 0, against a scan of
    # the box |a| <= A, |b| <= B.  The box holds every solution: with
    # m = -disc(Q0), eliminating c from t = 2 pairing(X, Q0) =
    # 2 a c0 - b b0 + 2 a0 c and b^2 - 4 a c = D gives
    #   (a0 b - a b0)^2 + m a^2 - 2 a0 t a - a0^2 D = 0.
    # Dropping the first square, (m a - a0 t)^2 <= a0^2 (t^2 + m D), so
    # |a| <= a0 (|t| + sqrt(t^2 + m D))/m = A.  The rest of the equation is
    # at most its maximum over real a, a0^2 (D + t^2/m), so
    # |b| <= A |b0|/a0 + sqrt(D + t^2/m) = B.  a = 0 would need b^2 = D.
    # The scan takes |t| <= T in A and B, and rounds each term down, plus 1.
    T = 12
    for d in (-3, -7, -20, -23):
        for Q0 in definite_class_reps(d):
            a0, b0, m = Q0.a, Q0.b, -Q0.disc
            solver = PairingSolver(Q0)
            for D in range(5, 41):
                if D % 4 not in (0, 1) or is_square(D):
                    continue
                A = isqrt(a0 * a0 * (T * T + m * D)) // m + a0 * T // m + 1
                B = A * abs(b0) // a0 + isqrt(D + T * T // m) + 1
                a, b = np.meshgrid(np.arange(-A, A + 1), np.arange(-B, B + 1))
                nonzero = a != 0
                a, b = a[nonzero], b[nonzero]
                keep = (b * b - D) % (4 * a) == 0
                box = [BQF(int(x), int(y), (int(y) ** 2 - D) // (4 * int(x)))
                       for x, y in zip(a[keep], b[keep])]
                for t in range(-T, T + 1):
                    want = {X for X in box if 2 * pairing(X, Q0) == t}
                    got = solver.forms(D, t)
                    assert len(got) == len(set(got)) and set(got) == want, (Q0, D, t)


def test_enumerate_definite():
    # the forms [a, b0, (b0^2 - d)/4a] with a <= A, as the class sum enumerates them
    def forms(d, A):
        return [BQF(int(a), int(b0), (int(b0) ** 2 - d) // (4 * int(a)))
                for a, b0 in zip(*_class_pairs(d, A))]

    assert forms(-4, 1) == [BQF(1, 0, 1)]
    # residues b mod 4 with b^2 ≡ -4 (mod 8): b ≡ 2 (mod 4), one family
    assert sqrt_mod_roots(-4, 2) == [2]
    assert forms(-4, 2) == [BQF(1, 0, 1), BQF(2, 2, 1)]
    assert BQF(1, 1, 1) in forms(-3, 1)
    for Q in forms(-23, 40):
        assert Q.disc == -23 and Q.is_positive_definite
    # the class filter splits the enumeration into the h(-23) = 3 classes
    reps = definite_class_reps(-23)
    assert sum(_class_pairs(-23, 40, rep).shape[1] for rep in reps) == len(forms(-23, 40))


def test_sqrt_mod_roots():
    # a = 1: b in {0, 1} with b^2 ≡ d (mod 4), so [1, 0, 1] and [1, 1, 1]
    assert sqrt_mod_roots(-4, 1) == [0] and sqrt_mod_roots(-3, 1) == [1]
    assert sqrt_mod_roots(-7, 1) == [1] and sqrt_mod_roots(-1, 1) == sqrt_mod_roots(6, 1) == []
    with pytest.raises(ValueError):
        sqrt_mod_roots(-4, 0)


def test_sqrt_mod_brute():
    # every root x of x^2 ≡ d (mod 4a), folded into (-a, a] mod 2a; the d
    # include ints far beyond int64
    rng = random.Random(23)
    for a in list(range(1, 70)) + [128, 243, 200, 360]:
        for bound in (1000, 10**30):
            d = rng.randrange(-bound, bound)
            want = sorted({(x + a - 1) % (2 * a) - a + 1 for x in range(4 * a)
                           if (x * x - d) % (4 * a) == 0})
            assert sqrt_mod_roots(d, a) == want, (d, a)
