"""Exact integer and rational number theory.

Kronecker symbols, Bernoulli machinery, generalized Bernoulli numbers,
L-values of quadratic characters at non-positive integers, and the
weighted class-number coefficients H(r, N) of half-integral-weight
Eisenstein series.  Everything here is exact Fraction arithmetic; there
is no floating-point fallback.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm

from .errors import NonFundamental, SquareDiscriminant

__all__ = [
    "check_discriminant",
    "kronecker",
    "is_fundamental_discriminant",
    "fundamental_decomposition",
    "bernoulli_numbers",
    "gen_bernoulli",
    "dirichlet_L_value",
    "cohen_H",
    "zeta_negative",
    "factor",
    "moebius",
    "sigma",
    "sigma_table",
    "divisors",
    "is_square",
]


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def factor(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (p, e) pairs, p increasing,
    by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _squarefree_part(n: int) -> tuple[int, int]:
    """Write |n| = s * f^2 with s squarefree; returns (sign(n)*s, f)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    s, f = 1, 1
    for p, e in factor(abs(n)):
        s *= p ** (e % 2)
        f *= p ** (e // 2)
    return (s if n > 0 else -s), f


def is_fundamental_discriminant(D: int) -> bool:
    """D = 1 counts as the (degenerate) trivial-character discriminant."""
    if D == 0:
        return False
    s, f = _squarefree_part(D)
    if D % 4 == 1:
        return f == 1
    if D % 4 == 0:
        q = D // 4
        return q == s and q % 4 in (2, 3)
    return False


def fundamental_decomposition(D: int) -> tuple[int, int]:
    """Write D = D0 * f^2 with D0 a fundamental discriminant.

    Requires D ≡ 0, 1 (mod 4), D ≠ 0.
    """
    if D == 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant")
    s, f = _squarefree_part(D)
    if s % 4 == 1:
        return s, f
    # s ≡ 2, 3 (mod 4): the fundamental discriminant is 4s
    if f % 2:
        raise ValueError(f"{D} is not a discriminant")
    return 4 * s, f // 2


def check_discriminant(D: int, positive: bool = True) -> None:
    """Reject D unless it is a discriminant of the required sign.

    A discriminant is an integer D ≡ 0, 1 (mod 4), D ≠ 0; a positive one
    must also be a non-square.  A positive square raises
    SquareDiscriminant, every other bad D raises ValueError, among them a
    bool and anything that is not an integer (`operator.index` rejects it).
    """
    # an int-like type has __index__, which is what operator.index takes
    if isinstance(D, bool) or not hasattr(type(D), "__index__"):
        raise ValueError(f"{D!r} is not an integer discriminant")
    if D == 0 or (D > 0) != positive or D % 4 not in (0, 1):
        sign = "positive" if positive else "negative"
        raise ValueError(f"{D} is not a {sign} discriminant")
    if positive and is_square(D):
        raise SquareDiscriminant(f"{D} must be a positive non-square discriminant")


def kronecker(a: int, n: int) -> int:
    """Full Kronecker symbol (a/n), with the standard conventions.

    (a/0) = 1 if a = ±1 else 0; (a/-1) = -1 for a < 0 else 1;
    (a/2) = 0 for even a, +1 for a ≡ ±1 (mod 8), -1 for a ≡ ±3 (mod 8).
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out twos from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            result = -result
    a %= n
    # Jacobi symbol loop with quadratic reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0 .. B_n (convention B_1 = -1/2), exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(Fraction(comb(m + 1, j)) * out[j] for j in range(m))
        out.append(-s / (m + 1))
    return tuple(out)


def zeta_negative(m: int) -> Fraction:
    """zeta(-m) = -B_{m+1}/(m+1) for m >= 0, exact."""
    if m < 0:
        raise ValueError("m must be >= 0")
    B = bernoulli_numbers(m + 1)
    return -B[m + 1] / (m + 1)


def gen_bernoulli(r: int, D: int) -> Fraction:
    """Generalized Bernoulli number B_{r,chi_D} for fundamental D.

    By definition f^(r-1) * sum_{a=1..f} chi_D(a) B_r(a/f) with f = |D|;
    expanding B_r(x) = sum_j C(r, j) B_j x^(r-j) gives

        B_{r,chi_D} = sum_j C(r, j) B_j f^(j-1) P_(r-j),

    with the integer power sums P_m = sum_{a=1..f} chi_D(a) a^m.
    chi_D(a) = (D/a) is completely multiplicative in a, so it is read
    from a table filled from its values at the primes.  D = 1 reduces to
    the ordinary Bernoulli number B_r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if D == 1:
        return bernoulli_numbers(r)[r]
    if not is_fundamental_discriminant(D):
        raise NonFundamental(f"{D} is not a fundamental discriminant")
    f = abs(D)
    # least[a] is the least prime factor of a: the slices of the larger p
    # are written first and overwritten by those of the smaller
    least = list(range(f + 1))
    for p in range(isqrt(f), 1, -1):
        least[p * p :: p] = [p] * len(range(p * p, f + 1, p))
    chis = [0, 1] + [0] * (f - 1)
    P = [0] * (r + 1)
    for a in range(1, f + 1):
        if a > 1:
            p = least[a]
            chis[a] = kronecker(D, a) if p == a else chis[p] * chis[a // p]
        chi = chis[a]
        if chi:
            power = chi
            for m in range(r + 1):
                P[m] += power
                power *= a
    # over the common denominator L f, L the lcm of the B_j's denominators
    B = bernoulli_numbers(r)
    L = lcm(*(b.denominator for b in B))
    return Fraction(sum(comb(r, j) * B[j].numerator * (L // B[j].denominator) * f**j * P[r - j]
                        for j in range(r + 1)), L * f)


def moebius(n: int) -> int:
    primes = factor(n)
    if any(e > 1 for _, e in primes):
        return 0
    return (-1) ** len(primes)


def divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma(k: int, n: int) -> int:
    return sum(d**k for d in divisors(n))


def sigma_table(k: int, nmax: int) -> list[int]:
    """sigma_k(n) for n = 0..nmax, with entry 0 set to 0, by a divisor sieve."""
    table = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        power = d**k
        for n in range(d, nmax + 1, d):
            table[n] += power
    return table


def cohen_H(r: int, N: int) -> Fraction:
    """Cohen's H(r, N): weight r + 1/2 Eisenstein coefficients, exact.

    H(r, 0) = zeta(1 - 2r).  For (-1)^r N ≡ 0, 1 (mod 4), writing
    (-1)^r N = D0 f^2 with D0 fundamental,

        H(r, N) = L_{D0}(1-r) * sum_{d | f} mu(d) chi_{D0}(d) d^(r-1) sigma_{2r-1}(f/d).

    Otherwise H(r, N) = 0.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if N < 0:
        raise ValueError("N must be >= 0")
    if N == 0:
        return zeta_negative(2 * r - 1)
    signed = N if r % 2 == 0 else -N
    if signed % 4 not in (0, 1):
        return Fraction(0)
    D0, f = fundamental_decomposition(signed)
    base = -gen_bernoulli(r, D0) / r
    acc = 0
    for d in divisors(f):
        mu = moebius(d)
        if mu == 0:
            continue
        acc += mu * kronecker(D0, d) * d ** (r - 1) * sigma(2 * r - 1, f // d)
    return base * acc


def dirichlet_L_value(D: int, one_minus_r: int) -> Fraction:
    """L_D(1-r) for a discriminant D, exact.

    For fundamental D this is -B_{r,chi_D}/r; a non-fundamental D ≡ 0, 1
    (mod 4) is handled through the conductor convolution shared with
    cohen_H, and D = 1 (the int) degenerates to zeta(1-r).  Every other D
    is checked by `check_discriminant`.
    """
    if one_minus_r > 0:
        raise ValueError("only non-positive arguments are supported")
    r = 1 - one_minus_r
    if type(D) is int and D == 1:
        return zeta_negative(r - 1)
    # the sign is read only off an integer: anything else fails the check
    check_discriminant(D, positive=hasattr(type(D), "__index__") and D > 0)
    if is_fundamental_discriminant(D):
        return -gen_bernoulli(r, D) / r
    if (D > 0) == (r % 2 == 0):
        # single source of truth for the conductor convolution
        return cohen_H(r, abs(D))
    # parity mismatch: the generalized Bernoulli number of the even/odd
    # character vanishes, so the convolved value is zero as well
    return Fraction(0)
