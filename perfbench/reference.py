"""Reference values the benchmark checks cyclotrace against.

Everything here is computed from first principles and imports nothing
from cyclotrace, so a fault in the program cannot hide in its own
reference: Hurwitz numbers by a brute-force count of reduced forms,
L_D(-1) from generalized Bernoulli numbers of the Kronecker character,
the closed trace formulas for k = 2 and 4 at d = -4, and the
discriminants whose geodesics meet a CM point, from the geometry of
the geodesic semicircles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt


def admissible(dmin: int, dmax: int) -> list[int]:
    """Positive non-square discriminants D with dmin <= D <= dmax."""
    return [D for D in range(dmin, dmax + 1) if D % 4 in (0, 1) and isqrt(D) ** 2 != D]


@lru_cache(maxsize=None)
def hurwitz(n: int) -> Fraction:
    """H(n) by counting forms [a, b, c] of discriminant -n with |b| <= a <= c.

    Loops over b >= 0 first and reads a off the divisors of (b^2 + n)/4;
    forms equivalent to [1, 0, 1] weigh 1/2, to [1, 1, 1] weigh 1/3, and
    H(0) = -1/12.
    """
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    b = n % 2
    while 3 * b * b <= n:
        ac = (b * b + n) // 4
        for a in range(max(b, 1), isqrt(ac) + 1):
            if ac % a:
                continue
            c = ac // a
            if b == 0:
                total += Fraction(1, 2) if a == c else 1
            elif b == a or a == c:
                # only b > 0 is reduced here; a == b == c is [1, 1, 1] up to scale
                total += Fraction(1, 3) if a == b == c else 1
            else:
                total += 2  # the forms with b and -b
        b += 2
    return total


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
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


def _fundamental(D: int) -> tuple[int, int]:
    """(D0, f) with D = D0 f^2 and D0 a fundamental discriminant."""
    for f in range(isqrt(D), 0, -1):
        if D % (f * f):
            continue
        D0 = D // (f * f)
        if D0 % 4 == 1 and all(D0 % (p * p) for p in range(2, isqrt(D0) + 1)):
            return D0, f
        if D0 % 4 == 0 and (D0 // 4) % 4 in (2, 3) and all(
            (D0 // 4) % (p * p) for p in range(2, isqrt(D0 // 4) + 1)
        ):
            return D0, f
    raise ValueError(f"{D} is not a discriminant")


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def l_value_minus1(D: int) -> Fraction:
    """Zagier's L_D(-1) for a positive non-square discriminant D.

    L_D0(-1) = -B_{2,chi}/2 with B_{2,chi} = D0 sum_{a <= D0} chi(a) B_2(a/D0);
    for D = D0 f^2 it is multiplied by sum_{e | f} mu(e) chi(e) e sigma_3(f/e).
    """
    D0, f = _fundamental(D)
    b2 = Fraction(0)
    for a in range(1, D0 + 1):
        x = Fraction(a, D0)
        b2 += kronecker(D0, a) * (x * x - x + Fraction(1, 6))
    L0 = -D0 * b2 / 2
    factor = 0
    for e in range(1, f + 1):
        if f % e == 0:
            m = f // e
            sigma3 = sum(t**3 for t in range(1, m + 1) if m % t == 0)
            factor += _mobius(e) * kronecker(D0, e) * e * sigma3
    return L0 * factor


def exact_trace(k: int, D: int) -> Fraction:
    """The d = -4 trace from the closed formulas, k in {2, 4}.

    k=2:  -40 L_D(-1) - 4 sum H(D - n^2 - m^2)
    k=4:  sum (4D - 10 n^2 - 10 m^2) H(D - n^2 - m^2)
    over n ≡ D (mod 2) and all m with n^2 + m^2 <= D.
    """
    total = Fraction(0)
    s = isqrt(D)
    for n in range(-s, s + 1):
        if (n - D) % 2:
            continue
        r = isqrt(D - n * n)
        for m in range(-r, r + 1):
            h = hurwitz(D - n * n - m * m)
            total += h if k == 2 else (4 * D - 10 * n * n - 10 * m * m) * h
    if k == 2:
        return -40 * l_value_minus1(D) - 4 * total
    if k == 4:
        return total
    raise ValueError(f"no closed formula for k = {k}")


def _class_reps(d: int) -> list[tuple[int, int, int]]:
    reps = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c >= a and not ((abs(b) == a or a == c) and b < 0):
                reps.append((a, b, c))
    return reps


def geodesic_hits_cm(dmax: int, d: int) -> set[int]:
    """All D <= dmax with a geodesic of discriminant D through a CM point of disc d.

    The geodesic of [a, b, c] (a != 0) is the semicircle a|z|^2 + b x + c = 0
    with radius sqrt(D)/(2|a|); through z0 = x0 + i y0 it needs
    |a| <= sqrt(D)/(2 y0) and |b + 2 a x0| <= sqrt(D).  Vertical geodesics
    (a = 0) have square discriminant and never occur for admissible D.
    """
    hits = set()
    for a0, b0, c0 in _class_reps(d):
        # z0 = (-b0 + i sqrt|d|) / (2 a0); |z0|^2 = c0 / a0
        amax = isqrt(dmax * a0 * a0 // (-d)) + 1
        for a in range(-amax, amax + 1):
            if a == 0:
                continue
            bmid = Fraction(a * b0, a0)
            span = isqrt(dmax) + 1
            for b in range(int(bmid) - span - 1, int(bmid) + span + 2):
                num = b * b0 - 2 * a * c0
                if num % (2 * a0):
                    continue
                c = num // (2 * a0)
                D = b * b - 4 * a * c
                if 0 < D <= dmax:
                    hits.add(D)
    return hits
