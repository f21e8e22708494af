"""Integral binary quadratic forms and their geometry.

Gauss reduction and class enumeration for definite forms, the middle
coefficients b of the forms [a, b, *] of discriminant d (by direct search
of b^2 ≡ d mod 4a), reduced-cycle ("river") enumeration for indefinite
forms, automorphs from the Pell equation, the signature (1,2) pairing,
and the exact check that no CM point of discriminant d lies on a
geodesic of discriminant D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from .arith import check_discriminant, is_square
from .errors import NotDefinite

__all__ = [
    "BQF",
    "SL2Z",
    "GeodesicArc",
    "reduce_definite",
    "definite_class_reps",
    "indefinite_class_reps",
    "reduced_cycle",
    "equivalent_indefinite",
    "pell_automorph",
    "pell_fundamental",
    "pairing",
    "stabilizer_order",
    "hypothesis_check",
    "on_geodesic_forms",
    "PairingSolver",
    "sqrt_mod_roots",
]


@dataclass(frozen=True)
class BQF:
    """Integral binary quadratic form [a, b, c] = a x^2 + b x y + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_positive_definite(self) -> bool:
        return self.disc < 0 and self.a > 0

    def content(self) -> int:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))

    def apply(self, g: "SL2Z") -> "BQF":
        """The form g.Q with (g.Q)(v) = Q(g^{-1} v), so z_{g.Q} = g(z_Q)."""
        a, b, c = self.a, self.b, self.c
        p, q, r, s = g.a, g.b, g.c, g.d
        aa = a * s * s - b * s * r + c * r * r
        bb = -2 * a * q * s + b * (p * s + q * r) - 2 * c * p * r
        cc = a * q * q - b * q * p + c * p * p
        return BQF(aa, bb, cc)

    def __repr__(self) -> str:
        return f"[{self.a},{self.b},{self.c}]"


@dataclass(frozen=True)
class SL2Z:
    """Integer matrix [[a, b], [c, d]] of determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    @staticmethod
    def identity() -> "SL2Z":
        return SL2Z(1, 0, 0, 1)

    def __mul__(self, other: "SL2Z") -> "SL2Z":
        return SL2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


S_FLIP = SL2Z(0, -1, 1, 0)


def reduce_definite(Q: BQF) -> tuple[BQF, SL2Z]:
    """Gauss-reduce a positive definite form.

    Returns the reduced form (|b| <= a <= c, with b >= 0 if |b| = a or
    a = c) and g with g.Q equal to it.
    """
    if not Q.is_positive_definite:
        raise NotDefinite(f"{Q} is not positive definite")
    a, b, c = Q.a, Q.b, Q.c
    g = SL2Z.identity()
    D = Q.disc
    while True:
        if not (-a < b <= a):
            n = (a - b) // (2 * a)
            b = b + 2 * a * n
            c = (b * b - D) // (4 * a)
            # T^{-n} sends b to b + 2an
            g = SL2Z(1, -n, 0, 1) * g
        if a > c:
            a, b, c = c, -b, a
            g = S_FLIP * g
            continue
        if a == c and b < 0:
            a, b, c = c, -b, a
            g = S_FLIP * g
        break
    red = BQF(a, b, c)
    if red != Q.apply(g):
        raise RuntimeError(f"reduction matrix {g} does not send {Q} to {red}")
    return red, g


def definite_class_reps(d: int) -> list[BQF]:
    """All reduced positive definite forms of discriminant d < 0."""
    check_discriminant(d, positive=False)
    reps = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a):
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            reps.append(BQF(a, b, c))
        a += 1
    return sorted(reps, key=lambda Q: (Q.a, Q.b, Q.c))


# ----------------------------------------------------------------------
# the forms [a, b, *] of discriminant d: b^2 ≡ d (mod 4a)


def sqrt_mod_roots(d: int, a: int) -> list[int]:
    """Residues b mod 2a, taken in (-a, a], with b^2 ≡ d (mod 4a), by
    testing all 2a of them."""
    if a < 1:
        raise ValueError(f"a = {a} must be >= 1")
    m = 4 * a
    b = np.arange(1 - a, a + 1, dtype=np.int64)
    return b[(b * b - d % m) % m == 0].tolist()


# ----------------------------------------------------------------------
# indefinite forms: reduced cycles, class representatives, automorphs


def is_reduced_indefinite(Q: BQF) -> bool:
    D = Q.disc
    if D <= 0 or is_square(D):
        return False
    b, a2 = Q.b, 2 * abs(Q.a)
    if b <= 0 or b * b >= D:
        return False
    return (b - a2) ** 2 < D < (b + a2) ** 2


def _rho(Q: BQF) -> tuple[BQF, SL2Z]:
    """One neighbouring step along the river of reduced indefinite forms.

    rho([a,b,c]) = [c, b', (b'^2 - D)/(4c)] with b' ≡ -b (mod 2|c|) in the
    window (sqrt(D) - 2|c|, sqrt(D)).  The returned g satisfies g.Q = rho(Q).
    """
    D = Q.disc
    b, c = Q.b, Q.c
    s = isqrt(D)
    m = 2 * abs(c)
    r = (-b) % m
    b1 = r + ((s - r) // m) * m
    c1 = (b1 * b1 - D) // (4 * c)
    new = BQF(c, b1, c1)
    n = -(b + b1) // (2 * c)
    g = SL2Z(n, -1, 1, 0)
    if Q.apply(g) != new:
        raise RuntimeError(f"river step {g} does not send {Q} to {new}")
    return new, g


def _reduce_indefinite(Q: BQF) -> BQF:
    while not is_reduced_indefinite(Q):
        Q, _ = _rho(Q)
    return Q


def reduced_cycle(Q: BQF) -> tuple[list[BQF], SL2Z]:
    """The cycle of reduced forms equivalent to Q, plus the cycle automorph.

    Returns (cycle, g) where cycle[0] is the first reduced form reached from
    Q and g (the composition of the rho-steps once around) stabilises it.
    """
    check_discriminant(Q.disc)
    start = _reduce_indefinite(Q)
    cycle = [start]
    cur = start
    total = SL2Z.identity()
    while True:
        cur, g = _rho(cur)
        total = g * total
        if cur == start:
            break
        cycle.append(cur)
    if start.apply(total) != start:
        raise RuntimeError(f"cycle automorph {total} does not fix {start}")
    return cycle, total


def indefinite_class_reps(D: int) -> list[BQF]:
    """One reduced representative per SL(2,Z)-class of forms of disc D."""
    check_discriminant(D)
    s = isqrt(D)
    all_reduced = []
    for b in range(1, s + 1):
        if (D - b * b) % 4:
            continue
        prod = (b * b - D) // 4
        for a2 in range(max(2, s - b), s + b + 1):
            if a2 % 2:
                continue
            a = a2 // 2
            if prod % a:
                continue
            for aa in (a, -a):
                Q = BQF(aa, b, prod // aa)
                if is_reduced_indefinite(Q):
                    all_reduced.append(Q)
    remaining = set(all_reduced)
    reps = []
    for Q in sorted(all_reduced, key=lambda f: (abs(f.a), f.a, f.b)):
        if Q not in remaining:
            continue
        cycle, _ = reduced_cycle(Q)
        reps.append(Q)
        remaining -= set(cycle)
    return reps


def equivalent_indefinite(Q1: BQF, Q2: BQF) -> bool:
    """Exact SL(2,Z)-equivalence test via reduction-cycle membership."""
    if Q1.disc != Q2.disc:
        return False
    cycle, _ = reduced_cycle(Q1)
    start = _reduce_indefinite(Q2)
    return start in cycle


@dataclass(frozen=True)
class GeodesicArc:
    """The closed geodesic attached to an indefinite form.

    The automorph cuts out one period of the semicircle
    a|z|^2 + b x + c = 0.  (t, u) is the minimal positive solution of
    t^2 - D0 u^2 = 4 for the discriminant D0 of the primitive part of
    the form: the stabiliser of m*Q' equals
    the stabiliser of Q', so for imprimitive forms the generator's
    parameters live at the primitive discriminant.
    """

    form: BQF
    automorph: SL2Z
    t: int
    u: int
    primitive_disc: int


def pell_automorph(Q: BQF) -> GeodesicArc:
    """The generator of the stabiliser of Q in SL(2,Z) modulo ±1.

    For primitive Q this is gamma_Q = [[(t+bu)/2, cu], [-au, (t-bu)/2]]
    with (t, u) minimal positive solving t^2 - D u^2 = 4.  The cycle
    automorph of the reduced cycle, once around, is ±gamma_R^(±1) for the
    cycle's first form R, so it gives t = |trace| and u = |lower left|/|a_R|.
    An imprimitive form m*Q' has the same stabiliser as Q', with (t, u)
    taken at disc(Q').
    """
    check_discriminant(Q.disc)
    m = Q.content()
    a, b, c = Q.a // m, Q.b // m, Q.c // m
    Dp = b * b - 4 * a * c
    cycle, g0 = reduced_cycle(BQF(a, b, c))
    t, u = abs(g0.a + g0.d), abs(g0.c) // abs(cycle[0].a)
    if not (u > 0 and t * t - Dp * u * u == 4):
        raise RuntimeError(f"({t}, {u}) does not solve the Pell equation for {Dp}")
    g = SL2Z((t + b * u) // 2, c * u, -a * u, (t - b * u) // 2)
    if Q.apply(g) != Q:
        raise RuntimeError(f"{g} is not the Pell automorph of {Q}")
    return GeodesicArc(form=Q, automorph=g, t=t, u=u, primitive_disc=Dp)


def pell_fundamental(D: int) -> tuple[int, int]:
    """Minimal (t, u), t, u > 0, with t^2 - D u^2 = 4."""
    check_discriminant(D)
    if D % 4 == 0:
        Q = BQF(1, 0, -(D // 4))
    else:
        Q = BQF(1, 1, (1 - D) // 4)
    arc = pell_automorph(Q)
    return arc.t, arc.u


# ----------------------------------------------------------------------
# pairing, hypothesis check


def pairing(Q1: BQF, Q2: BQF) -> Fraction:
    """(X, Y) = a c' + a' c - b b' / 2 on the signature (1,2) space.

    pairing(Q, Q) = 2 q(X_Q) = -disc(Q)/2, and SL(2,Z) acts by isometries.
    """
    return Fraction(2 * (Q1.a * Q2.c + Q2.a * Q1.c) - Q1.b * Q2.b, 2)


def stabilizer_order(d: int) -> int:
    """Order of the stabiliser in PSL(2,Z) of a CM point of disc d < 0."""
    check_discriminant(d, positive=False)
    if d == -4:
        return 2
    if d == -3:
        return 3
    return 1


_SQUARES_MOD_64 = frozenset(x * x % 64 for x in range(64))


class PairingSolver:
    """The forms X of discriminant D with pairing(X, Q0) = t/2, exactly.

    For X = [a, b, c] and Q0 = [a0, b0, c0] the doubled pairing is
    t = 2 a c0 - b b0 + 2 a0 c, which fixes c = (t + b b0 - 2 a c0)/(2 a0).
    Then disc(X) = D reads a0 b^2 - 2 a b0 b + (4 c0 a^2 - 2 t a - a0 D) = 0,
    so b = (a b0 ± sqrt(q(a)))/a0 with q(a) = a0^2 D + 2 a0 t a - m a^2 and
    m = -disc(Q0) > 0.  q(a) >= 0 exactly on the integer window
    |m a - a0 t| <= isqrt(a0^2 (t^2 + m D)), and the solutions are found by
    stepping a through it.
    """

    def __init__(self, Q0: BQF):
        if not Q0.is_positive_definite:
            raise NotDefinite(f"{Q0} is not positive definite")
        self.Q0 = Q0
        self.m = -Q0.disc
        self.g = gcd(gcd(2 * Q0.c, Q0.b), 2 * Q0.a)

    def forms(self, D: int, t: int) -> list[BQF]:
        """The forms of disc D > 0 with doubled pairing t."""
        if t % self.g:
            return []
        a0, b0, c0 = self.Q0.a, self.Q0.b, self.Q0.c
        # q(a) = qD + (qt - m a) a
        m, qD, qt = self.m, a0 * a0 * D, 2 * a0 * t
        r = isqrt(a0 * a0 * (t * t + m * D))
        a_lo, a_hi = -((r - a0 * t) // m), (a0 * t + r) // m
        found = []
        # q(a) mod 64 depends only on a mod 64: step through the classes
        # where it is a square mod 64
        for a_start in range(a_lo, min(a_lo + 64, a_hi + 1)):
            if (qD + (qt - m * a_start) * a_start) % 64 not in _SQUARES_MOD_64:
                continue
            for a in range(a_start, a_hi + 1, 64):
                q = qD + (qt - m * a) * a
                s = isqrt(q)
                if s * s != q:
                    continue
                for num in (a * b0 + s, a * b0 - s) if s else (a * b0,):
                    if num % a0:
                        continue
                    b = num // a0
                    c, rem = divmod(t + b * b0 - 2 * a * c0, 2 * a0)
                    if rem:
                        continue
                    X = BQF(a, b, c)
                    if X.disc != D:
                        raise RuntimeError(f"{X} solved the pairing equation but has "
                                           f"disc {X.disc} != {D}")
                    found.append(X)
        return found


def on_geodesic_forms(D: int, d: int) -> list[BQF]:
    """All forms of disc D whose geodesic passes through a CM point of disc d.

    A form X lies on the geodesic through z_{Q0} exactly when
    pairing(X, Q0) = 0, which confines X to the negative definite rank-2
    lattice orthogonal to Q0; representations of disc D there are finite.
    CM points of every class of discriminant d are considered.
    """
    check_discriminant(D)
    return [X for Q0 in definite_class_reps(d) for X in PairingSolver(Q0).forms(D, 0)]


def hypothesis_check(D: int, d: int = -4) -> bool:
    """True when no CM point of disc d lies on any geodesic of disc D.

    For d = -4 this is equivalent to D not being representable as
    b^2 + 4a^2 with a != 0.
    """
    return not on_geodesic_forms(D, d)
