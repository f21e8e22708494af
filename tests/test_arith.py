import random
from fractions import Fraction
from math import comb, isqrt, lcm

import pytest

from cyclotrace.arith import (
    bernoulli_numbers,
    cohen_H,
    dirichlet_L_value,
    factor,
    fundamental_decomposition,
    gen_bernoulli,
    is_fundamental_discriminant,
    is_square,
    kronecker,
    sigma,
    sigma_table,
    zeta_negative,
)
from cyclotrace.errors import NonFundamental


def test_kronecker_examples():
    # 5 is a square mod 11 (exhaustive squaring oracle below), 12 ≡ 2 mod 5 is not
    assert kronecker(5, 11) == 1
    assert kronecker(12, 5) == -1
    for a in range(-25, 26):
        assert kronecker(a, 1) == 1


def test_kronecker_against_quadratic_residues():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-200, 201):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert kronecker(a, p) == want


def test_kronecker_multiplicative():
    rng = random.Random(42)
    for _ in range(500):
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        n = rng.randint(1, 200)
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
        m = rng.randint(1, 200)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_bernoulli():
    B = bernoulli_numbers(12)
    assert B[0] == 1 and B[1] == Fraction(-1, 2)
    assert B[2] == Fraction(1, 6) and B[4] == Fraction(-1, 30)
    assert B[12] == Fraction(-691, 2730)
    assert zeta_negative(1) == Fraction(-1, 12)
    assert zeta_negative(3) == Fraction(1, 120)


def test_fundamental_decomposition():
    assert fundamental_decomposition(5) == (5, 1)
    assert fundamental_decomposition(12) == (12, 1)
    assert fundamental_decomposition(45) == (5, 3)
    assert fundamental_decomposition(-16) == (-4, 2)
    assert is_fundamental_discriminant(-4)
    assert not is_fundamental_discriminant(-16)


def test_gen_bernoulli_examples():
    assert gen_bernoulli(2, 5) == Fraction(4, 5)
    assert gen_bernoulli(2, 12) == 4
    assert gen_bernoulli(2, 1) == Fraction(1, 6)
    with pytest.raises(NonFundamental):
        gen_bernoulli(2, 45)


def test_gen_bernoulli_vanishes_for_even_character():
    # B_{1, chi} = 0 for the even characters of positive discriminants
    for D in (5, 8, 12, 13, 17, 21, 24):
        assert gen_bernoulli(1, D) == 0


def test_gen_bernoulli_against_definition():
    # B_{r,chi} = f^(r-1) sum_{a=1..f} chi_D(a) B_r(a/f), where B_r(x) =
    # sum_j c_j x^(r-j) with c_j = C(r, j) B_j; with L the common
    # denominator of the c_j, L f^r B_r(a/f) = sum_j L c_j a^(r-j) f^j
    B = bernoulli_numbers(6)
    c = {r: [comb(r, j) * B[j] for j in range(r + 1)] for r in range(1, 7)}
    L = {r: lcm(*(x.denominator for x in c[r])) for r in c}
    for D in range(-400, 401):
        if D in (0, 1) or not is_fundamental_discriminant(D):
            continue
        f = abs(D)
        chi = [(kronecker(D, a), a) for a in range(1, f + 1)]
        for r in range(1, 7):
            N = [int(x * L[r]) for x in c[r]]
            total = sum(s * sum(N[j] * a ** (r - j) * f**j for j in range(r + 1)) for s, a in chi if s)
            assert gen_bernoulli(r, D) == Fraction(total, L[r] * f), (r, D)


def test_L_value_examples():
    # zeta_{Q(sqrt 5)}(-1) = zeta(-1) L_5(-1) = 1/30
    assert zeta_negative(1) * dirichlet_L_value(5, -1) == Fraction(1, 30)
    assert dirichlet_L_value(5, -1) == Fraction(-2, 5)
    assert dirichlet_L_value(12, -1) == -2
    # degenerate character: L_1(1-r) = zeta(1-r)
    assert dirichlet_L_value(1, -1) == zeta_negative(1)
    assert dirichlet_L_value(1, -3) == zeta_negative(3)


def test_cohen_H_examples():
    assert cohen_H(2, 0) == Fraction(1, 120)  # zeta(-3)
    assert cohen_H(2, 5) == dirichlet_L_value(5, -1)
    assert cohen_H(2, 2) == 0
    assert cohen_H(2, 3) == 0
    # non-fundamental: convolution over the conductor
    assert cohen_H(2, 20) == dirichlet_L_value(20, -1)


def test_cohen_H_matches_L_for_all_small_discriminants():
    for D in range(5, 101):
        if D % 4 in (0, 1) and not is_square(D):
            assert cohen_H(2, D) == dirichlet_L_value(D, -1)


def test_cohen_H_cross_module_constant_term():
    # -120 L_D(-1) must equal the constant term of the k=2 input form
    from cyclotrace.special_forms import fD_const_term

    for D in range(5, 101):
        if D % 4 in (0, 1) and not is_square(D):
            assert -120 * dirichlet_L_value(D, -1) == fD_const_term(2, D)


def test_sigma_table_matches_sigma():
    for k in (0, 1, 3):
        assert sigma_table(k, 300) == [0] + [sigma(k, n) for n in range(1, 301)]


def test_factor_vs_brute():
    primes = [p for p in range(2, 2001) if all(p % q for q in range(2, isqrt(p) + 1))]
    for n in range(1, 2001):
        brute = []
        for p in primes:
            e, m = 0, n
            while m % p == 0:
                m //= p
                e += 1
            if e:
                brute.append((p, e))
        assert factor(n) == brute, n
    with pytest.raises(ValueError):
        factor(0)
