"""Concrete modular objects for discriminant -4 and the exact trace formula.

Hurwitz class numbers (the table from one sweep over reduced forms, the
per-n count, and the independent Hurwitz--Kronecker recursion), the
vector-valued class-number generating function, the theta series of the
negated negative-definite sublattice, principal parts of the
half-integral weight input forms, and the finite constant-term formula
for the trace.
The trace is one integer sum over the bracket's PairSum; ExactSeries
holds the bracket's inputs and fills, once per k, what every trace at
that k reads of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import ceil, isqrt

from .arith import check_discriminant, dirichlet_L_value, divisors, sigma, sigma_table
from .bqf import definite_class_reps, hypothesis_check
from .errors import HypothesisViolated, UnsupportedK
from .fqm import (
    FQModule,
    IntLattice,
    LatticeEmbedding,
    PairSum,
    VVSeries,
    rankin_cohen_sum,
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


def _check_n(n) -> None:
    """Reject n unless it is an integer >= 0; a bool is not one."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__") or n < 0:
        raise ValueError(f"{n!r} is not an integer >= 0")


# typed: hurwitz(1.0) and hurwitz(True) must not hit the entry of hurwitz(1)
@lru_cache(maxsize=None, typed=True)
def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n), with H(0) = -1/12.

    Weighted count of reduced positive definite forms of discriminant -n:
    forms proportional to [1,0,1] weigh 1/2, to [1,1,1] weigh 1/3.
    """
    _check_n(n)
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
    """H(0..nmax) from one sweep over the reduced forms (the primary algorithm).

    Each reduced form [a, b, c], |b| <= a <= c, with 4ac - b^2 <= nmax adds
    its weight, as in hurwitz, to 12 H(4ac - b^2), an integer; for fixed
    a and b the discriminants run through a progression of step 4a in c.
    That is one pass over about nmax^(3/2) forms, not one enumeration of
    forms per n (Cohen, GTM 138, 5.3), and one Fraction per n.
    """
    _check_n(nmax)
    h12 = [0] * (nmax + 1)
    a = 1
    while 3 * a * a <= nmax:
        step = 4 * a
        for b in range(a + 1):
            n = step * a - b * b
            if n > nmax:
                continue
            # c = a: [a, 0, a] weighs 1/2, [a, a, a] 1/3; [a, -b, a] is not reduced
            h12[n] += 6 if b == 0 else 4 if b == a else 12
            # c > a: [a, b, c] and [a, -b, c], one form if b is 0 or a
            w = 12 if b in (0, a) else 24
            for m in range(n + step, nmax + 1, step):
                h12[m] += w
        a += 1
    h12[0] = -1
    return [Fraction(h, 12) for h in h12]


def hurwitz_table_recursive(nmax: int) -> list[Fraction]:
    """H(0..nmax) from the Hurwitz--Kronecker and Eichler relations.

    For odd n:   H(n) + 2 sum_{s>=1} H(n - s^2) + lambda(n) = sigma_1(n)/3
    with lambda(n) = (1/2) sum_{d|n} min(d, n/d); solves H(n) for
    n ≡ 3 (mod 4).  For n ≡ 0 (mod 4), the relation at n/4,
    sum_{s^2 <= 4m} H(4m - s^2) = sum_{d|m} max(d, m/d), is solved for its
    top entry H(4m).  Entries n ≡ 1, 2 (mod 4) vanish.  Entirely
    independent of the reduced-form counting path.
    """
    _check_n(nmax)
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


# the zero coset of L'/L, and the odd-b coset, whose q is 3/4 mod 1
_L_ZERO, _L_NONTRIVIAL = (0, 0, 0), (0, 0, 1)


# ----------------------------------------------------------------------
# the two holomorphic inputs of the bracket


def hurwitz_gen(prec) -> VVSeries:
    """Vector-valued generating function of Hurwitz class numbers.

    Weight 3/2 for the dual Weil representation of P (sigma = -1):
    component mu carries -16 H(4n) at exponents n ≡ -q(mu) (mod 1),
    with an overall factor pi (pi_power = 1).  The class numbers come
    from one hurwitz_table sweep up to 4 prec, about (4 prec)^(3/2)
    forms.
    """
    prec = Fraction(prec)
    M = module_P()
    i0, i1 = M.index[(0,)], M.index[(1,)]
    # every n >= 0 with n/4 < prec
    nmax = ceil(4 * prec) - 1
    H = hurwitz_table(nmax) if nmax >= 0 else []
    terms = {(i0 if n % 4 == 0 else i1, n): -16 * h for n, h in enumerate(H) if h}
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
    return theta_series(module_N_minus(), prec)


class ExactSeries:
    """Both inputs of the bracket, complete for every trace with D <= Dmax,
    and what each k's traces read of them.

    The series for a smaller D is a prefix of these, so a table builds one
    object at its largest D and passes it to each exact trace.  On the
    first trace at a k the object also takes, once, the bracket's integer
    sum (its pair weights, scale, exponent floor and precision bound) with
    its pi-power check, and the sigma_(k-1) table that f_D's constant term
    reads, up to the largest D/4 the series covers.
    """

    def __init__(self, Dmax: int):
        prec = Fraction(Dmax + 4, 4)
        self.hurwitz = hurwitz_gen(prec)
        self.theta = theta_N_minus(prec)
        # the bracket is complete below exponent prec, so for D < Dmax + 4
        self._nmax = (Dmax + 3) // 4
        self._brackets, self._sigmas = {}, {}

    def bracket(self, k: int) -> PairSum:
        """The integer sum of the bracket [hurwitz, theta]_(k/2 - 1) that the
        trace at k pairs f_D with."""
        if k not in self._brackets:
            bracket = rankin_cohen_sum(self.hurwitz, self.theta, k // 2 - 1)
            # f_D carries no pi, so the pairing carries the bracket's
            if bracket.pi_power != 1:
                raise RuntimeError(f"the pairing carries pi^{bracket.pi_power}, "
                                   "not the pi^1 the prefactor cancels")
            self._brackets[k] = bracket
        return self._brackets[k]

    def sigmas(self, k: int) -> list[int]:
        """sigma_(k-1)(n) for every n <= D/4 at every D the series covers:
        the divisor sums of fD_const_term(k, D)."""
        if k not in self._sigmas:
            self._sigmas[k] = sigma_table(k - 1, self._nmax)
        return self._sigmas[k]


# ----------------------------------------------------------------------
# input forms f_D


def fD_const_term(k: int, D: int, sigmas: list[int] | None = None) -> int:
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

    sigmas, a table of sigma_(k-1)(n) for n <= D/4 (ExactSeries.sigmas),
    supplies the divisor sums; without it each is computed by
    arith.sigma.
    """
    _check_exact_k(k)
    check_discriminant(D)
    sig = sigmas.__getitem__ if sigmas is not None else partial(sigma, k - 1)
    # b and -b give one term; b = 0 only for even D, which is not a square
    S = sum((2 if b else 1) * sig((D - b * b) // 4) for b in range(D % 2, isqrt(D) + 1, 2))
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
    return VVSeries(
        module=M,
        weight=Fraction(3 - 2 * k, 2),
        den=4,
        # D is not 0, so the pole and the constant term are two keys
        terms={(_fD_pole(D), -D): 1, (M.index[_L_ZERO], 0): fD_const_term(k, D)},
        prec=Fraction(1, 4),
        pi_power=0,
        sigma=+1,
    )


def _fD_pole(D: int) -> int:
    """The component of L'/L that carries f_D's pole q^(-D/4), the one
    fixed by D mod 2; raises ValueError if the pole's exponent breaks the
    plus-space congruence there (the constant term, at exponent 0 on the
    zero component, always meets it)."""
    M = module_L()
    c = M.index[_L_ZERO if D % 2 == 0 else _L_NONTRIVIAL]
    M.check_support(c, -D, 4, +1)
    return c


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

    f_D has two terms, its pole and its constant term (fD_const_term).
    Restricted to P ⊕ N, each sits on the fiber above its component of
    L'/L, and the pairing reads the bracket opposite them, at exponents
    D/4 and 0.  So the trace is one integer sum of those bracket
    coefficients, read from the bracket's integer sum (ExactSeries.bracket),
    and one Fraction: the sum over the bracket's scale, times the
    prefactor.

    series, shared by the traces of a table, holds the bracket's inputs
    and what each k reads of them; without it they are built for this D.
    A series too short for D raises InsufficientPrecision from the
    bracket.
    """
    # invalid k or D raise before the hypothesis is checked (hypothesis_check
    # validates D), and a violated hypothesis before f_D's constant term is computed
    _check_exact_k(k)
    if not hypothesis_check(D, -4):
        raise HypothesisViolated(
            f"the CM point of disc -4 lies on a geodesic of disc {D}"
        )
    if series is None:
        series = ExactSeries(D)
    bracket = series.bracket(k)
    fibers = embedding_PN_in_L().fibers
    # f_D's exponents are in units of 1/4, a divisor of the bracket's 1/den;
    # the precision check at the pole comes before the sigma table is read
    total = sum(bracket.coefficient(c, D * (bracket.den // 4)) for c in fibers[_fD_pole(D)])
    total += fD_const_term(k, D, series.sigmas(k)) * sum(
        bracket.coefficient(c, 0) for c in fibers[module_L().index[_L_ZERO]])
    # 2^(k-3) * |d|^(1/2) / (pi * |stab(z_A)|) with |d|^(1/2) = 2, |stab| = 2,
    # where the 1/pi cancels pi_power = 1, times the shadow's 1/2: 2^k / 16
    return Fraction(total << k, bracket.scale << 4)


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
