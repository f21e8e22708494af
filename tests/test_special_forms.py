from fractions import Fraction
from math import isqrt

import pytest

from cyclotrace.arith import cohen_H, dirichlet_L_value, is_square
from cyclotrace.bqf import hypothesis_check
from cyclotrace.errors import (
    HypothesisViolated,
    InsufficientPrecision,
    SquareDiscriminant,
    UnsupportedK,
)
from cyclotrace.fqm import ct_pairing, rankin_cohen, restrict
from cyclotrace.special_forms import (
    ExactSeries,
    build_fD,
    closed_formula,
    embedding_PN_in_L,
    fD_const_term,
    hurwitz,
    hurwitz_gen,
    hurwitz_table,
    hurwitz_table_recursive,
    module_L,
    module_P,
    rhs_trace,
    theta_N_minus,
)


def admissible(limit, require_hypothesis=True):
    for D in range(5, limit + 1):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        if require_hypothesis and not hypothesis_check(D, -4):
            continue
        yield D


def test_hurwitz_values():
    assert hurwitz(0) == Fraction(-1, 12)
    assert hurwitz(3) == Fraction(1, 3)
    assert hurwitz(4) == Fraction(1, 2)
    assert hurwitz(12) == Fraction(4, 3)
    assert hurwitz(7) == 1 and hurwitz(8) == 1 and hurwitz(11) == 1
    assert hurwitz(23) == 3


def test_hurwitz_vanishing_pattern():
    for n in range(1, 401):
        if n % 4 in (1, 2):
            assert hurwitz(n) == 0, n
        else:
            assert hurwitz(n) > 0, n


def test_hurwitz_two_algorithms_agree():
    assert hurwitz_table(200) == hurwitz_table_recursive(200)


def test_hurwitz_kronecker_relation():
    # sum_{s^2 <= 4n} H(4n - s^2) = sum_{d | n} max(d, n/d)
    for n in range(1, 51):
        lhs = sum(
            hurwitz(4 * n - s * s)
            for s in range(-isqrt(4 * n), isqrt(4 * n) + 1)
        )
        rhs = sum(max(d, n // d) for d in range(1, n + 1) if n % d == 0)
        assert lhs == rhs, n


def test_hurwitz_gen_examples():
    g = hurwitz_gen(3)
    M = module_P()
    i0, i1 = M.index[(0,)], M.index[(1,)]
    assert g.pi_power == 1 and g.weight == Fraction(3, 2) and g.sigma == -1
    assert g.terms[(i0, 0)] == Fraction(4, 3)  # -16 H(0)
    assert g.terms[(i1, 3)] == Fraction(-16, 3)  # -16 H(3) at exponent 3/4
    assert g.terms[(i0, 4)] == -8  # -16 H(4) at exponent 1
    g.validate_support()


def test_theta_N_minus_examples():
    th = theta_N_minus(3)
    assert th.weight == 1
    M = th.module
    assert th.coefficient(M.index[(0, 0)], 1) == 4
    half_half = [t for t in M.elements if M.q_value(t) == Fraction(1, 2)]
    assert len(half_half) == 1
    assert th.coefficient(M.index[half_half[0]], Fraction(1, 2)) == 4


def test_fD_const_term():
    assert fD_const_term(2, 12) == 240
    assert fD_const_term(2, 5) == 48
    for D in admissible(200, require_hypothesis=False):
        assert fD_const_term(2, D) == -120 * dirichlet_L_value(D, -1)


def test_fD_const_term_is_cohens_divisor_sum():
    # the divisor sums against -H(k, D)/H(k, 0) from generalized Bernoulli
    # numbers, fundamental D or not, on either side of the hypothesis
    for k in (2, 4):
        for D in admissible(1000, require_hypothesis=False):
            assert fD_const_term(k, D) == -cohen_H(k, D) / cohen_H(k, 0), (k, D)


def test_fD_const_term_from_the_series_sigma_tables():
    # the divisor sums read from one ExactSeries(2000)'s sigma tables,
    # against -H(k, D)/H(k, 0) from generalized Bernoulli numbers
    series = ExactSeries(2000)
    for k in (2, 4):
        sigmas = series.sigmas(k)
        for D in admissible(2000, require_hypothesis=False):
            assert fD_const_term(k, D, sigmas) == -cohen_H(k, D) / cohen_H(k, 0), (k, D)


@pytest.mark.parametrize("k", [1, 3, 6, 8])
def test_fD_const_term_rejects_k_without_an_input_form(k):
    with pytest.raises(UnsupportedK):
        fD_const_term(k, 13)


def test_build_fD():
    f = build_fD(2, 12)
    M = module_L()
    i0 = M.index[(0, 0, 0)]
    assert f.terms == {(i0, -12): 1, (i0, 0): 240}
    f5 = build_fD(2, 5)
    i1 = M.index[(0, 0, 1)]
    assert f5.terms == {(i1, -5): 1, (i0, 0): 48}
    # Kohnen condition: the scalar exponents 4 * (n/4) lie in 0, 3 mod 4
    for (c, n) in f5.terms:
        assert n % 4 in (0, 3)
    f5.validate_support()
    with pytest.raises(SquareDiscriminant):
        build_fD(2, 16)
    with pytest.raises(UnsupportedK):
        build_fD(3, 12)


def test_rhs_trace_examples():
    assert rhs_trace(2, 12) == 24
    assert rhs_trace(4, 12) == 72
    assert isinstance(rhs_trace(2, 21), Fraction)
    with pytest.raises(HypothesisViolated):
        rhs_trace(2, 5)


def test_closed_formula_examples():
    assert closed_formula(2, 12) == 24
    assert closed_formula(4, 12) == 72
    # the spec's intermediate numbers for (2, 12): L_12(-1) = -2, sum = 14
    assert dirichlet_L_value(12, -1) == -2
    total = Fraction(0)
    for n in range(-3, 4):
        if n % 2:
            continue
        for m in range(-3, 4):
            if n * n + m * m <= 12:
                total += hurwitz(12 - n * n - m * m)
    assert total == 14
    assert -40 * (-2) - 4 * 14 == 24
    with pytest.raises(UnsupportedK):
        closed_formula(6, 12)


def test_rhs_equals_closed_formula_to_300():
    for D in admissible(300):
        for k in (2, 4):
            assert rhs_trace(k, D) == closed_formula(k, D), (k, D)


def test_shared_series_gives_the_same_traces():
    series = ExactSeries(400)
    for D in admissible(400):
        for k in (2, 4):
            shared = rhs_trace(k, D, series=series)
            assert shared == rhs_trace(k, D) == closed_formula(k, D), (k, D)
    # complete only below exponent 26, so D = 120 needs more than it holds
    with pytest.raises(InsufficientPrecision):
        rhs_trace(2, 120, series=ExactSeries(100))


def test_row_reads_the_full_brackets_coefficients():
    # the bracket coefficients a row reads off the series, opposite each
    # term of f_D restricted to P ⊕ N, against the full bracket, and the
    # row against pairing that restriction with the full bracket
    series = ExactSeries(200)
    E = embedding_PN_in_L()
    for k in (2, 4):
        bracket = series.bracket(k)
        full = rankin_cohen(series.hurwitz, series.theta, k // 2 - 1)
        for D in admissible(200):
            fK = restrict(build_fD(k, D), E)
            for (c, n) in fK.terms:
                read = Fraction(bracket.coefficient(c, -n * bracket.den // fK.den), bracket.scale)
                assert read == full.coefficient(c, Fraction(-n, fK.den)), (k, D, c)
            ct, pi_power = ct_pairing(fK, full)
            assert pi_power == 1 and rhs_trace(k, D, series=series) == ct * 2**k / 16, (k, D)


def test_series_covers_D_below_Dmax_plus_4():
    # the bracket is complete below exponent (Dmax + 4)/4: D = 12 needs
    # sigma(3) from ExactSeries(9), and D = 120 more than ExactSeries(100) holds
    for k in (2, 4):
        assert rhs_trace(k, 12, series=ExactSeries(9)) == rhs_trace(k, 12)
    with pytest.raises(InsufficientPrecision) as err:
        rhs_trace(2, 120, series=ExactSeries(100))
    assert err.value.required == Fraction(120, 4)


def test_rhs_trace_rejects_higher_even_k():
    # for even k >= 6 the dual cusp space is nonzero, so no weakly
    # holomorphic form has principal part q^(-D) + O(1); pairing the naive
    # two-term input gives a number both numerical methods refute
    # (tr(6,12) = 338.4208..., not the naive pairing's 1134)
    with pytest.raises(UnsupportedK):
        rhs_trace(6, 12)
    with pytest.raises(UnsupportedK):
        build_fD(6, 12)
