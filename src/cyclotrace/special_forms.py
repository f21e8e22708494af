"""Concrete modular objects for discriminant -4 and the exact trace formula.

Hurwitz class numbers (two independent algorithms), the vector-valued
class-number generating function, the theta series of the negated
negative-definite sublattice, principal parts of the half-integral
weight input forms, and the finite constant-term formula for the trace.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import check_discriminant, dirichlet_L_value, divisors, sigma
from .bqf import definite_class_reps, hypothesis_check
from .errors import HypothesisViolated, UnsupportedK
from .fqm import (
    FQModule,
    IntLattice,
    LatticeEmbedding,
    VVSeries,
    ct_pairing,
    rankin_cohen,
    restrict,
    theta_series,
)

__all__ = [
    "EXACT_K",
    "hurwitz",
    "hurwitz_table",
    "hurwitz_table_recursive",
    "hurwitz_gen",
    "theta_N_minus",
    "ExactSeries",
    "fD_const_term",
    "build_fD",
    "rhs_trace",
    "closed_formula",
    "lattice_L",
    "lattice_P",
    "lattice_N",
    "lattice_N_minus",
    "module_L",
    "module_P",
    "module_N",
    "module_N_minus",
    "embedding_PN_in_L",
]

# The k of the exact trace, whose d is -4: only for these does the
# principal part q^(-D) + O(1) define a form (see build_fD).
EXACT_K = (2, 4)


# ----------------------------------------------------------------------
# Hurwitz class numbers


@lru_cache(maxsize=None)
def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n), with H(0) = -1/12.

    Weighted count of reduced positive definite forms of discriminant -n:
    forms proportional to [1,0,1] weigh 1/2, to [1,1,1] weigh 1/3.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for Q in definite_class_reps(-n):
        if Q.b == 0 and Q.a == Q.c:
            total += Fraction(1, 2)
        elif Q.a == Q.b == Q.c:
            total += Fraction(1, 3)
        else:
            total += 1
    return total


def hurwitz_table(nmax: int) -> list[Fraction]:
    """H(0..nmax) by reduced-form counting (the primary algorithm)."""
    return [hurwitz(n) for n in range(nmax + 1)]


def hurwitz_table_recursive(nmax: int) -> list[Fraction]:
    """H(0..nmax) from the Hurwitz--Kronecker and Eichler relations.

    For odd n:   H(n) + 2 sum_{s>=1} H(n - s^2) + lambda(n) = sigma_1(n)/3
    with lambda(n) = (1/2) sum_{d|n} min(d, n/d); solves H(n) for
    n ≡ 3 (mod 4).  For n ≡ 0 (mod 4), the relation at n/4,
    sum_{s^2 <= 4m} H(4m - s^2) = sum_{d|m} max(d, m/d), is solved for its
    top entry H(4m).  Entries n ≡ 1, 2 (mod 4) vanish.  Entirely
    independent of the reduced-form counting path.
    """
    H = [Fraction(0)] * (nmax + 1)
    H[0] = Fraction(-1, 12)
    for n in range(1, nmax + 1):
        if n % 4 in (1, 2):
            continue
        # 2 sum_{s>=1} H(n - s^2), the terms below the top entry
        acc = 2 * sum(H[n - s * s] for s in range(1, isqrt(n) + 1))
        if n % 4 == 3:
            divs = divisors(n)
            H[n] = Fraction(sum(divs), 3) - Fraction(sum(min(d, n // d) for d in divs), 2) - acc
        else:
            m = n // 4
            H[n] = sum(max(d, m // d) for d in divisors(m)) - acc
    return H


# ----------------------------------------------------------------------
# the concrete lattices for d = -4


@lru_cache(maxsize=None)
def lattice_L() -> IntLattice:
    """Signature (1,2) lattice of forms [a, b, c] with b even.

    Basis coordinates (a, b/2, c); q = ac - (b/2)^2 = -disc/4.
    """
    return IntLattice(((0, 0, 1), (0, -2, 0), (1, 0, 0)))


@lru_cache(maxsize=None)
def lattice_P() -> IntLattice:
    return IntLattice(((2,),))


@lru_cache(maxsize=None)
def lattice_N() -> IntLattice:
    return IntLattice(((-2, 0), (0, -2)))


@lru_cache(maxsize=None)
def lattice_N_minus() -> IntLattice:
    return IntLattice(((2, 0), (0, 2)))


@lru_cache(maxsize=None)
def module_L() -> FQModule:
    return FQModule(lattice_L())


@lru_cache(maxsize=None)
def module_P() -> FQModule:
    return FQModule(lattice_P())


@lru_cache(maxsize=None)
def module_N() -> FQModule:
    return FQModule(lattice_N())


@lru_cache(maxsize=None)
def module_N_minus() -> FQModule:
    return FQModule(lattice_N_minus())


@lru_cache(maxsize=None)
def module_K() -> FQModule:
    """P ⊕ N as a direct sum (component tuples concatenate)."""
    return FQModule.direct_sum(module_P(), module_N())


@lru_cache(maxsize=None)
def module_K_minus() -> FQModule:
    """P ⊕ N^- ; underlying group identical to that of P ⊕ N."""
    return FQModule.direct_sum(module_P(), module_N_minus())


@lru_cache(maxsize=None)
def embedding_PN_in_L() -> LatticeEmbedding:
    """The index-2 inclusion P ⊕ N ⊂ L.

    In L-coordinates (a, b/2, c) the K-basis is v_P = (-1, 0, -1),
    v_1 = (1, 0, -1), v_2 = (0, 1, 0).
    """
    iota = ((-1, 1, 0), (0, 0, 1), (-1, -1, 0))
    return LatticeEmbedding(source=module_K(), target=module_L(), matrix=iota)


_L_NONTRIVIAL = (0, 0, 1)  # the odd-b coset of L'/L, q = 3/4 mod 1


# ----------------------------------------------------------------------
# the two holomorphic inputs of the bracket


def hurwitz_gen(prec) -> VVSeries:
    """Vector-valued generating function of Hurwitz class numbers.

    Weight 3/2 for the dual Weil representation of P (sigma = -1):
    component mu carries -16 H(4n) at exponents n ≡ -q(mu) (mod 1),
    with an overall factor pi (pi_power = 1).
    """
    prec = Fraction(prec)
    M = module_P()
    terms = {}
    i0, i1 = M.index[(0,)], M.index[(1,)]
    n_scaled = 0
    while Fraction(n_scaled, 4) < prec:
        h = hurwitz(n_scaled)
        if h:
            comp = i0 if n_scaled % 4 == 0 else i1
            terms[(comp, n_scaled)] = -16 * h
        n_scaled += 1
    return VVSeries(
        module=M,
        weight=Fraction(3, 2),
        den=4,
        terms=terms,
        prec=prec,
        pi_power=1,
        sigma=-1,
    )


def theta_N_minus(prec) -> VVSeries:
    """Theta series of N^- = (Z^2, x^2 + y^2); weight 1."""
    return theta_series(lattice_N_minus(), prec, module=module_N_minus())


class ExactSeries:
    """Both inputs of the bracket, complete for every trace with D <= Dmax.

    The series for a smaller D is a prefix of these, so a table builds one
    object at its largest D and passes it to each exact trace.
    """

    def __init__(self, Dmax: int):
        prec = Fraction(Dmax + 4, 4)
        self.hurwitz = hurwitz_gen(prec)
        self.theta = theta_N_minus(prec)


# ----------------------------------------------------------------------
# input forms f_D


def fD_const_term(k: int, D: int) -> int:
    """Constant term of the weight 3/2 - k plus-space form with q^{-D} pole.

    Pairing against the weight k + 1/2 Cohen--Eisenstein series gives
    c(0) = -H(k, D)/H(k, 0).  For k in {2, 4}, the only k with such a form
    (see build_fD), Kohnen's plus space of weight k + 1/2 is
    one-dimensional, and Cohen (Math. Ann. 217, 1975) writes its
    coefficients as divisor sums: H(2, N) = -S_1(N)/5 and H(4, N) = S_3(N)
    for non-square N, with S_m(N) the sum of sigma_m((N - b^2)/4) over
    the integers b ≡ N (mod 2), b^2 < N.  As H(2, 0) = 1/120 and
    H(4, 0) = 1/240, c(0) is 24 S_1(D) at k = 2 and -240 S_3(D) at k = 4,
    an integer.  arith.cohen_H, through generalized Bernoulli numbers, is
    the independent route to the same values.
    """
    _check_exact_k(k)
    check_discriminant(D)
    # b and -b give one term; b = 0 only for even D, which is not a square
    S = sum((2 if b else 1) * sigma(k - 1, (D - b * b) // 4)
            for b in range(D % 2, isqrt(D) + 1, 2))
    return 24 * S if k == 2 else -240 * S


def _check_exact_k(k: int) -> None:
    if k not in EXACT_K:
        raise UnsupportedK(
            "the exact side covers k in {%s}; for even k >= 6 the principal "
            "part q^(-D) + O(1) does not define a modular form" % ", ".join(map(str, EXACT_K))
        )


def build_fD(k: int, D: int) -> VVSeries:
    """The unique plus-space form e(-D tau) + O(1) of weight 3/2 - k.

    Vector-valued over L'/L: coefficient 1 at exponent -D/4 on the
    component determined by D mod 2, the constant term fD_const_term(k, D)
    on the zero component.  Both coefficients are Python ints.  It stops
    at prec 1/4: the pairing against a holomorphic bracket reads no
    positive exponent.

    Only k = 2 and k = 4 are admitted: for even k >= 6 the dual space of
    cusp forms of weight k + 1/2 is nonzero, so no weakly holomorphic
    form has this two-term principal part (both numerical methods agree
    on a trace that the naive pairing does not reproduce).
    """
    _check_exact_k(k)
    check_discriminant(D)
    M = module_L()
    zero = M.index[(0, 0, 0)]
    comp = zero if D % 2 == 0 else M.index[_L_NONTRIVIAL]
    f = VVSeries(
        module=M,
        weight=Fraction(3 - 2 * k, 2),
        den=4,
        # D is not 0, so the pole and the constant term are two keys
        terms={(comp, -D): 1, (zero, 0): fD_const_term(k, D)},
        prec=Fraction(1, 4),
        pi_power=0,
        sigma=+1,
    )
    f.validate_support()
    return f


# ----------------------------------------------------------------------
# the exact trace


# The scalar class-number generating function has shadow equal to the
# Jacobi theta function; rescaling tau by 4 in the dictionary between
# scalar plus-space forms and vector-valued forms halves the xi-image,
# so the bracket input normalised as above has shadow 2 Theta_P.  The
# trace formula wants shadow exactly Theta_P; compensate by 1/2.  This
# factor is pinned by the agreement with closed_formula (k = 2 and 4).


def rhs_trace(k: int, D: int, series: ExactSeries | None = None) -> Fraction:
    """Exact trace of cycle integrals via the constant-term formula.

    Restricts the input form to P ⊕ N, pairs it against the Rankin--Cohen
    bracket of the class-number generating function with the theta series
    of N^-, and scales by 2^(k-3) |d|^(1/2) / (pi |stab|) (the pi cancels
    the bracket's pi-power).  Covers k in {2, 4} with d = -4; see
    build_fD for why even k >= 6 has no two-term input form.

    f_D's constant term is a divisor sum (fD_const_term), and the bracket
    is computed only at the two exponents the pairing reads, in integers;
    the one division is the pairing's, and the prefactor scales its
    numerator and denominator.

    series, shared by the traces of a table, holds the bracket's inputs;
    without it they are built for this D.  A series too short for D
    raises InsufficientPrecision from the bracket.
    """
    # invalid k or D raise before the hypothesis is checked (hypothesis_check
    # validates D), and a violated hypothesis before f_D's constant term is computed
    _check_exact_k(k)
    if not hypothesis_check(D, -4):
        raise HypothesisViolated(
            f"the CM point of disc -4 lies on a geodesic of disc {D}"
        )
    fK = restrict(build_fD(k, D), embedding_PN_in_L())
    # the pairing reads the bracket only opposite fK's terms (exponents D/4 and 0)
    targets = [(c, Fraction(-n, fK.den)) for (c, n) in fK.terms]
    if series is None:
        series = ExactSeries(D)
    bracket = rankin_cohen(series.hurwitz, series.theta, k // 2 - 1,
                           module=module_K_minus(), targets=targets)
    ct, pi_power = ct_pairing(fK, bracket)
    if pi_power != 1:
        raise RuntimeError(f"the pairing carries pi^{pi_power}, not the pi^1 the prefactor cancels")
    # 2^(k-3) * |d|^(1/2) / (pi * |stab(z_A)|) with |d|^(1/2) = 2, |stab| = 2,
    # where the 1/pi cancels pi_power = 1, times the shadow's 1/2: 2^k / 16
    return Fraction(ct.numerator << k, ct.denominator << 4)


def closed_formula(k: int, D: int) -> Fraction:
    """Independent finite formulas for the trace at k = 2 and k = 4.

    k=2:  -40 L_D(-1) - 4 sum_{n ≡ D (2), m} H(D - n^2 - m^2)
    k=4:  sum_{n ≡ D (2), m} (4D - 10 n^2 - 10 m^2) H(D - n^2 - m^2)

    No bracket machinery is involved.
    """
    check_discriminant(D)
    if k not in EXACT_K:
        raise UnsupportedK(f"no closed formula for k = {k}")
    s = isqrt(D)
    total = 0  # 12 times the sum: 12 H(n) is an integer
    for n in range(-s, s + 1):
        if (n - D) % 2:
            continue
        for m in range(isqrt(D - n * n) + 1):
            h = hurwitz(D - n * n - m * m)
            if not h:
                continue
            # the terms at m and -m are equal
            h12 = (24 if m else 12) * h.numerator // h.denominator
            total += h12 if k == 2 else (4 * D - 10 * n * n - 10 * m * m) * h12
    if k == 2:
        return -40 * dirichlet_L_value(D, -1) - Fraction(total, 3)
    return Fraction(total, 12)
