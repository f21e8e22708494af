"""Floating-point engine: 2F1, the meromorphic form, and both numeric traces.

The meromorphic weight 2k form attached to a class of definite forms is
evaluated by resumming its defining class sum exactly in the middle
coefficient: each family { [a, b0 + 2at, *] : t in Z } has a closed
cotangent-polynomial sum, and the families with small CM-point height
collapse into rapidly convergent Fourier layers.  Cycle integrals use
Gauss--Legendre nodes along one automorph period of each geodesic; the
hypergeometric lattice sum counts representations with a factorization
sieve.  Error estimates are heuristic doubling deltas throughout.
"""

from __future__ import annotations

import cmath
import math
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt

import numpy as np

from .arith import check_discriminant
from .bqf import (
    BQF,
    PairingSolver,
    equivalent_indefinite,
    indefinite_class_reps,
    on_geodesic_forms,
    pell_automorph,
    reduce_definite,
    sqrt_mod_roots,
    stabilizer_order,
    definite_class_reps,
    hypothesis_check,
)
from .errors import (
    DivergentParameters,
    HypothesisViolated,
    NoConvergence,
    PoleAtZ,
    PoleOnGeodesic,
)

__all__ = [
    "TraceReport",
    "hyp2f1",
    "eval_fkA",
    "FkAEvaluator",
    "cycle_integral",
    "lhs_geodesic",
    "lhs_latticesum",
    "eisenstein_oracle",
    "reduce_to_fundamental_domain",
]


@dataclass
class TraceReport:
    """Record of one trace computation."""

    k: int
    D: int
    d: int
    method: str
    value: object  # float, or Fraction for the exact method
    error_estimate: float
    hypothesis_ok: bool
    seconds: float
    cutoff: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Gauss hypergeometric function


def _hyp_series(a: float, b: float, c: float, w, terms: int = 90):
    """Direct series, scalar or numpy array w with |w| <= 0.55."""
    t = np.ones_like(np.asarray(w, dtype=float))
    acc = t.copy()
    for j in range(terms):
        t = t * ((a + j) * (b + j)) / ((c + j) * (1.0 + j)) * w
        acc = acc + t
    return acc


def _hyp2f1_vec(a: float, b: float, c: float, w: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; w) on an array with 0 <= w < 1, relative error ~1e-12.

    For w > 1/2 the standard linear transformation in 1 - w is applied;
    it requires c - a - b non-integral (true for every in-scope call,
    where c - a - b = 1/2).
    """
    out = np.empty_like(w)
    lo = w <= 0.5
    if lo.any():
        out[lo] = _hyp_series(a, b, c, w[lo])
    hi = ~lo
    if hi.any():
        s = c - a - b
        if float(s).is_integer():
            raise DivergentParameters(f"c - a - b = {s} is an integer and some w > 1/2")
        u = 1.0 - w[hi]
        g = math.gamma
        c1 = g(c) * g(s) / (g(c - a) * g(c - b))
        c2 = g(c) * g(-s) / (g(a) * g(b))
        out[hi] = c1 * _hyp_series(a, b, 1 - s, u) + c2 * u**s * _hyp_series(
            c - a, c - b, 1 + s, u
        )
    return out


def hyp2f1(a: float, b: float, c: float, w: float) -> float:
    """2F1(a, b; c; w) for 0 <= w < 1, relative error ~1e-12; see _hyp2f1_vec."""
    if not (0 <= w < 1):
        raise DivergentParameters(f"w = {w} outside [0, 1)")
    if c <= 0 and float(c).is_integer():
        raise DivergentParameters(f"c = {c} is a non-positive integer")
    return float(_hyp2f1_vec(a, b, c, np.array([w], dtype=float))[0])


# ----------------------------------------------------------------------
# fundamental domain reduction


def reduce_to_fundamental_domain(z: complex) -> tuple[complex, complex]:
    """Return (z', j) with z' = g(z) in the standard fundamental domain
    and j = cz + d the automorphy factor of g at z."""
    a, b, c, d = 1, 0, 0, 1
    w = z
    for _ in range(200):
        n = round(w.real)
        if n:
            w = w - n
            a, b = a - n * c, b - n * d
        r2 = w.real * w.real + w.imag * w.imag
        if r2 < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b
        else:
            break
    return w, c * z + d


# ----------------------------------------------------------------------
# cotangent-polynomial machinery for the exact translate sums
#
# For fixed a and a residue b0 mod 2a, the forms [a, b0 + 2at, *] contribute
#   a^{-k} * sum_{t in Z} ((t + w1)(t + w2))^{-k},
# with w1 = z + b0/(2a) - i y_a, w2 = z + b0/(2a) + i y_a, y_a = sqrt|d|/(2a).
# Partial fractions reduce the t-sum to derivatives of pi cot(pi w).


def _cot_polys(k: int) -> list[list[float]]:
    """poly_j with P_j(w) = sum_t (t+w)^{-j} = pi^j poly_j(cot(pi w)), j = 1..k.

    Recurrence poly_{j+1} = (1 + u^2) poly_j'(u) / j, exact in rationals.
    """
    polys = [[Fraction(0), Fraction(1)]]  # poly_1(u) = u
    for j in range(1, k):
        p = polys[-1]
        dp = [i * p[i] for i in range(1, len(p))]
        nxt = [Fraction(0)] * (len(dp) + 2)
        for i, coeff in enumerate(dp):
            nxt[i] += coeff
            nxt[i + 2] += coeff
        polys.append([x / j for x in nxt])
    return [[float(x) for x in p] for p in polys]


def _partial_fraction_coeffs(k: int, delta: complex) -> tuple[list[complex], list[complex]]:
    """A_j, B_j with ((X)(X+delta))^{-k} = sum_j A_j X^{-j} + B_j (X+delta)^{-j}."""
    A = [0j] * (k + 1)
    B = [0j] * (k + 1)
    for j in range(1, k + 1):
        C = comb(2 * k - 1 - j, k - 1)
        A[j] = (-1) ** (k - j) * C * delta ** (j - 2 * k)
        B[j] = (-1) ** k * C * delta ** (j - 2 * k)
    return A, B


def _translate_sum(k: int, w1: np.ndarray, w2: np.ndarray, delta: complex,
                   polys: list[list[float]]) -> np.ndarray:
    """sum_t ((t+w1)(t+w2))^{-k} with w2 - w1 = delta, vectorized over w."""
    A, B = _partial_fraction_coeffs(k, delta)
    out = np.zeros_like(w1, dtype=complex)
    for w, coeffs in ((w1, A), (w2, B)):
        s = np.sin(np.pi * w)
        bad = np.abs(s) < 1e-13
        if bad.any():
            raise PoleAtZ("evaluation point lies on a pole of the class sum")
        u = np.cos(np.pi * w) / s
        pj = np.pi
        for j in range(1, k + 1):
            poly = polys[j - 1]
            val = np.zeros_like(u)
            for coeff in reversed(poly):
                val = val * u + coeff
            out += coeffs[j] * pj * val
            pj *= np.pi
    return out


# layer coefficients T_n(c): sum_t ((t+w-ic)(t+w+ic))^{-k} = sum_n T_n(c) e(nw)


def _kappa_coeffs(k: int, mmax: int = 18) -> np.ndarray:
    """Taylor coefficients: T_n(c) = (2 pi)^{2k} n^{2k-1} sum_m kappa_m x^{2m},
    x = 2 pi n c; exact rationals evaluated to float."""
    out = []
    for m in range(mmax):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += (
                Fraction(comb(2 * k - 1 - j, k - 1) * (-1) ** j * 2**j)
                / (factorial(j - 1) * factorial(2 * m + 2 * k - j))
            )
        out.append(float(acc * Fraction(2, 2 ** (2 * k))))
    return np.array(out)


def _layer_T(k: int, n: int, c: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """T_n(c), stable for small 2 pi n c via the entire-series expansion."""
    x = 2 * np.pi * n * c
    out = np.empty_like(c)
    small = x < 0.75
    if small.any():
        xs = x[small]
        acc = np.zeros_like(xs)
        for km in reversed(kappa):
            acc = acc * (xs * xs) + km
        out[small] = (2 * np.pi) ** (2 * k) * float(n) ** (2 * k - 1) * acc
    big = ~small
    if big.any():
        xb = x[big]
        cb = c[big]
        acc = np.zeros_like(xb)
        for j in range(1, k + 1):
            C = comb(2 * k - 1 - j, k - 1)
            bracket = np.exp(-xb) + (-1) ** j * np.exp(xb)
            acc += (
                C
                * (2 * cb) ** (j - 2 * k)
                * (2 * np.pi) ** j
                * float(n) ** (j - 1)
                / factorial(j - 1)
                * bracket
            )
        out[big] = acc
    return out


# ----------------------------------------------------------------------
# the meromorphic form evaluator


def _reduce_to_rep(a: np.ndarray, b: np.ndarray, d: int, rep: BQF) -> np.ndarray:
    """Mask of the definite forms [a, b, (b^2 - d)/4a] whose Gauss
    reduction is rep: `reduce_definite` run on int64 arrays at once."""
    a, b = a.copy(), b.copy()
    c = (b * b - d) // (4 * a)
    active = np.arange(len(a))
    while active.size:
        aa, bb = a[active], b[active]
        bb = bb + 2 * aa * ((aa - bb) // (2 * aa))
        cc = (bb * bb - d) // (4 * aa)
        a[active], b[active], c[active] = aa, bb, cc
        swap = aa > cc
        active = active[swap]
        a[active], b[active], c[active] = cc[swap], -bb[swap], aa[swap]
    flip = (a == c) & (b < 0)
    b[flip] = -b[flip]
    return (a == rep.a) & (b == rep.b) & (c == rep.c)


class FkAEvaluator:
    """Evaluates the weight 2k meromorphic form of a definite class.

    The class sum over [a, b, c] is grouped by (a, b mod 2a).  Families
    with a <= a_direct are summed exactly in closed cotangent form; the
    rest are collapsed into Fourier layers g_n, convergent for points in
    the fundamental domain because their CM heights stay below
    sqrt(3)/2.  Points are reduced modulo SL(2,Z) with the automorphy
    factor restored, so any z in the upper half-plane is accepted.

    The evaluator owns its table of pairs (a, b0), b0^2 ≡ d (mod 4a)
    with -a < b0 <= a, as int64 arrays in increasing a.  The table grows
    one shell lo < a <= hi at a time, built from the table itself (see
    `_shell_pairs`), and each shell is filtered to the class once, by a
    vectorized Gauss reduction.  The layers are additive: g_n(A) is
    g_n(A/2) plus the sum over the shell A/2 < a <= A.  One lock guards
    the table and the layers: `get_evaluator` shares one evaluator per
    (k, d, rep) across the process, so callers on several threads may
    grow it at once.
    """

    Y_MIN = 0.85
    N_LAYERS = 14
    A_START = 1 << 11
    A_CEILING = 1 << 21
    A_ROOTS = 32  # pairs with a <= A_ROOTS come from sqrt_mod_roots

    def __init__(self, k: int, d: int, rep: BQF | None = None):
        if k < 2:
            raise ValueError("k must be >= 2")
        check_discriminant(d, positive=False)
        self.k = k
        self.d = d
        reps = definite_class_reps(d)
        self.rep = reduce_definite(rep)[0] if rep is not None else reps[0]
        self.filter_class = len(reps) > 1
        self.a_direct = max(1, math.ceil(math.sqrt(-d) / (2 * self.Y_MIN * 0.9)))
        self.prefactor = (-d) ** ((k + 1) / 2) / math.pi
        self._polys = _cot_polys(k)
        self._kappa = _kappa_coeffs(k)
        # the table: a, b0 and the class mask, complete for a <= _a_max
        self._a = np.zeros(0, dtype=np.int64)
        self._b = np.zeros(0, dtype=np.int64)
        self._in_class = np.zeros(0, dtype=bool)
        self._a_max = 0
        direct = self._pairs(0, self.a_direct)
        self._direct_pairs = [(int(a), int(b0)) for a, b0 in zip(*direct)]
        self._gn: dict[int, np.ndarray] = {}  # A -> layer coefficient vector
        self._lock = threading.RLock()

    def _shell_pairs(self, lo: int, hi: int, c_max: int) -> tuple[np.ndarray, np.ndarray]:
        """The pairs with lo < a <= hi, sorted, from the table rows a <= c_max.

        A pair [a, b0, c] has b0^2 - d = 4ac, so b0 mod 2c is a root r of
        the table row a = c, and c <= c_max = hi/4 + |d|/4(lo + 1) because
        |b0| <= a.  Each row (c, r) gives b = r + 2ct over the t with
        4c lo < b^2 - d <= 4c hi, with a margin for the float square roots;
        the exact conditions on a and b are applied after.
        """
        rows = int(np.searchsorted(self._a, c_max, side="right"))
        c, r = self._a[:rows], self._b[:rows]
        u = 4 * c * lo + self.d
        v = np.maximum(4 * c * hi + self.d, 0)
        top = np.floor(np.sqrt(v)).astype(np.int64) + 1
        bottom = np.maximum(np.floor(np.sqrt(np.maximum(u, 0))).astype(np.int64) - 1, 0)
        # b in [bottom, top] and in [-top, -max(bottom, 1)]
        b1 = np.concatenate([bottom, -top])
        b2 = np.concatenate([top, -np.maximum(bottom, 1)])
        c, r = np.concatenate([c, c]), np.concatenate([r, r])
        t1 = -((r - b1) // (2 * c))
        count = np.maximum((b2 - r) // (2 * c) - t1 + 1, 0)
        row = np.repeat(np.arange(len(c)), count)
        start = np.cumsum(count) - count
        t = t1[row] + np.arange(len(row)) - start[row]
        b = r[row] + 2 * c[row] * t
        a = (b * b - self.d) // (4 * c[row])
        ok = (a > lo) & (a <= hi) & (-a < b) & (b <= a)
        a, b = a[ok], b[ok]
        order = np.lexsort((b, a))
        return a[order], b[order]

    def _grow_table(self, A: int) -> None:
        """Extend the table to a <= A, one shell lo < a <= 2 lo at a time."""
        while self._a_max < A:
            lo = self._a_max
            hi = min(A, max(2 * lo, self.A_ROOTS))
            c_max = (hi * (lo + 1) - self.d) // (4 * (lo + 1))
            if lo < self.A_ROOTS or c_max > lo:
                pairs = [(a, b0) for a in range(lo + 1, hi + 1)
                         for b0 in sqrt_mod_roots(self.d, a)]
                a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            else:
                a, b = self._shell_pairs(lo, hi, c_max)
            if self.filter_class:
                keep = _reduce_to_rep(a, b, self.d, self.rep)
            else:
                keep = np.ones(len(a), dtype=bool)
            self._a = np.concatenate([self._a, a])
            self._b = np.concatenate([self._b, b])
            self._in_class = np.concatenate([self._in_class, keep])
            self._a_max = hi

    def _pairs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The class's pairs with lo < a <= hi."""
        self._grow_table(hi)
        i, j = np.searchsorted(self._a, [lo, hi], side="right")
        keep = self._in_class[i:j]
        return self._a[i:j][keep], self._b[i:j][keep]

    def _ensure_layers(self, A: int) -> None:
        with self._lock:
            if A in self._gn:
                return
            if A > self.A_CEILING:
                raise NoConvergence(f"layer cutoff {A} above ceiling")
            gn = np.zeros(self.N_LAYERS + 1)
            if A > self.a_direct:
                self._ensure_layers(A // 2)
                a, b = self._pairs(max(A // 2, self.a_direct), A)
                aa, bb = a.astype(float), b.astype(float)
                c = math.sqrt(-self.d) / (2 * aa)
                weights = aa ** (-self.k)
                for n in range(1, self.N_LAYERS + 1):
                    Tn = _layer_T(self.k, n, c, self._kappa)
                    gn[n] = np.sum(weights * Tn * np.cos(np.pi * n * bb / aa))
                gn += self._gn[A // 2]
            self._gn[A] = gn

    def layer_delta(self, A: int) -> float:
        """Heuristic coefficient-tail proxy: weighted change A/2 -> A."""
        self._ensure_layers(A)
        self._ensure_layers(A // 2)
        diff = self._gn[A] - self._gn[A // 2]
        n = np.arange(len(diff))
        return float(self.prefactor * np.sum(np.abs(diff) * np.exp(-2 * np.pi * n * self.Y_MIN)))

    def eval(self, zs, A: int) -> np.ndarray:
        """Values at the points zs using layer cutoff A."""
        self._ensure_layers(A)
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        zr = np.empty_like(zs)
        jf = np.empty_like(zs)
        for i, z in enumerate(zs):
            if z.imag <= 0:
                raise ValueError("points must lie in the upper half-plane")
            zr[i], jf[i] = reduce_to_fundamental_domain(complex(z))
        vals = np.zeros_like(zs)
        # direct families, exact translate sums
        for a, b0 in self._direct_pairs:
            ya = math.sqrt(-self.d) / (2 * a)
            w = zr + b0 / (2 * a)
            vals += a ** (-self.k) * _translate_sum(
                self.k, w - 1j * ya, w + 1j * ya, 2j * ya, self._polys
            )
        # Fourier layers
        q = np.exp(2j * np.pi * zr)
        gn = self._gn[A]
        acc = np.zeros_like(zs)
        for n in range(self.N_LAYERS, 0, -1):
            acc = (acc + gn[n]) * q
        vals += acc
        return self.prefactor * vals * jf ** (-2 * self.k)

    def eval_adaptive(self, zs, tol: float) -> tuple[np.ndarray, float, int]:
        """Values with the layer cutoff doubled until the change is < tol."""
        with self._lock:
            A = max(self._gn, default=self.A_START)
            warm = A // 2 in self._gn
        prev = self.eval(zs, A)
        if warm:
            older = self.eval(zs, A // 2)
            delta = float(np.max(np.abs(prev - older)))
            if delta < tol:
                return prev, delta, A
        while True:
            if A >= self.A_CEILING:
                raise NoConvergence("class-sum cutoff ceiling reached")
            A *= 2
            cur = self.eval(zs, A)
            delta = float(np.max(np.abs(cur - prev)))
            if delta < tol:
                return cur, delta, A
            prev = cur


@lru_cache(maxsize=None)
def get_evaluator(k: int, d: int, rep: BQF | None = None) -> FkAEvaluator:
    """The process's shared evaluator of (k, d, rep); its tables only grow."""
    return FkAEvaluator(k, d, rep)


def eval_fkA(z: complex, k: int, d: int, rep: BQF | None = None, tol: float = 1e-9) -> complex:
    """The meromorphic weight 2k form of the class at a point z.

    Truncated class sum with the family cutoff doubled until the last
    doubling changes the value by less than tol.
    """
    # the cache keys on the arguments as passed: share the geodesic
    # method's get_evaluator(k, d) for the principal class
    ev = get_evaluator(k, d) if rep is None else get_evaluator(k, d, rep)
    vals, _, _ = ev.eval_adaptive(np.array([z], dtype=complex), tol)
    return complex(vals[0])


# ----------------------------------------------------------------------
# cycle integrals (method 1)

# Orientation of the geodesics: integration runs along the automorph flow
# from z0 toward gamma_Q z0 (t, u > 0); the overall sign is calibrated once
# against the lattice-sum method at (k, D) = (2, 12) and frozen.
CYCLE_ORIENTATION = 1


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def cycle_integral(
    Q: BQF,
    k: int,
    d: int = -4,
    tol: float = 1e-9,
    evaluator: FkAEvaluator | None = None,
    check_pole: bool = True,
    theta_start: float | None = None,
) -> tuple[complex, float, dict]:
    """One geodesic cycle integral of f_{k, class} against Q(z,1)^{k-1} dz.

    Composite Gauss--Legendre quadrature in the hyperbolic arclength
    parameter over one automorph period, panel count doubled until the
    change falls below tol.  The default starting point centers the
    period around the arc top: the height along the arc is R/cosh(u), so
    a centered window keeps both endpoints as high as possible, which
    bounds the precision lost to the chaotic fundamental-domain
    reduction at low points.  Returns (value, error_estimate,
    cutoff_metadata).
    """
    D = Q.disc
    if check_pole:
        for X in on_geodesic_forms(D, d):
            if equivalent_indefinite(X, Q):
                raise PoleOnGeodesic(f"a pole lies on the geodesic of {Q}")
    ev = evaluator if evaluator is not None else get_evaluator(k, d)
    arc = pell_automorph(Q)
    C = float(arc.center)
    R = math.sqrt(float(arc.radius_squared))
    # the flow moves toward increasing u = log tan(theta/2) for a > 0,
    # decreasing for a < 0
    flow = 1.0 if Q.a > 0 else -1.0
    if theta_start is None:
        theta_start = 2 * math.atan(math.exp(-flow * arc.period_length / 2))
    if not 0 < theta_start < math.pi:
        raise ValueError("theta_start must be interior to (0, pi)")
    theta0 = theta_start
    # the window's far end comes from the exact period length, not from the
    # float image of the base point: on long arcs that image lies within
    # ~R sech(period) of an endpoint, where its rounding moves it far in u
    u0 = math.log(math.tan(theta0 / 2))
    u1 = u0 + flow * arc.period_length
    theta1 = 2 * math.atan(math.exp(u1))

    # pick the layer cutoff from the coefficient-tail proxy
    probe = C + R * np.exp(1j * np.linspace(theta0, theta1, 17))
    qmax = float(np.max(np.abs([Q.value(z) for z in probe]))) ** (k - 1)
    weight_bound = qmax * R * abs(theta1 - theta0) * 2.0
    A = ev.A_START
    while ev.layer_delta(A) * weight_bound > tol / 2:
        A *= 2
        if A > ev.A_CEILING:
            raise NoConvergence("class-sum cutoff ceiling reached inside quadrature")
        if A >= (1 << 16) and ev.layer_delta(A) * weight_bound < 16 * tol:
            # coefficient tails hit their arithmetic noise floor near 1e-8;
            # accept and report the achieved bound in the error estimate
            break

    # composite Gauss--Legendre in the hyperbolic arclength parameter
    # u = log tan(theta/2): the automorph period has u-length 2 log(eps),
    # along which each fundamental-domain crossing is a unit-scale feature,
    # so fixed-order panels with the panel count doubled converge fast even
    # for long arcs (a single rule uniform in theta undersamples the ends)
    x0, w0 = _gauss_legendre(48)

    def quad(panels: int) -> complex:
        edges = np.linspace(u0, u1, panels + 1)
        mid = (edges[1:] + edges[:-1]) / 2
        half = (edges[1:] - edges[:-1]) / 2
        u = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
        wts = (half[:, None] * w0[None, :]).ravel()
        theta = 2 * np.arctan(np.exp(u))
        z = C + R * np.exp(1j * theta)
        f = ev.eval(z, A)
        qpow = np.array([Q.value(zz) for zz in z]) ** (k - 1)
        dz = 1j * R * np.exp(1j * theta) * np.sin(theta)
        return complex(np.sum(wts * f * qpow * dz))

    panels = max(2, int(abs(u1 - u0)))
    prev = quad(panels)
    deltas: list[float] = []
    while True:
        panels *= 2
        if panels > 1 << 12:
            raise NoConvergence("quadrature panels above ceiling")
        cur = quad(panels)
        delta = abs(cur - prev)
        if delta < tol:
            return (
                CYCLE_ORIENTATION * cur,
                delta + ev.layer_delta(A) * weight_bound,
                {"panels": panels, "layer_cutoff": A},
            )
        # near-pole passages leave a noise floor in the node values; once
        # two successive refinements stop producing real decay (geometric
        # convergence would gain far more than 4x per two doublings) the
        # delta has hit that floor and more panels cannot help.  Accept
        # and report the floor honestly.
        if len(deltas) >= 2 and panels >= 256 and delta > deltas[-2] / 4:
            return (
                CYCLE_ORIENTATION * cur,
                delta + ev.layer_delta(A) * weight_bound,
                {"panels": panels, "layer_cutoff": A, "noise_floor": True},
            )
        deltas.append(delta)
        prev = cur


def lhs_geodesic(k: int, D: int, d: int = -4, tol: float = 1e-8) -> TraceReport:
    """Trace by numerical quadrature: sum of cycle integrals over classes."""
    t0 = time.perf_counter()
    if not hypothesis_check(D, d):
        raise HypothesisViolated(f"CM point of disc {d} lies on a disc {D} geodesic")
    ev = get_evaluator(k, d)
    total = 0j
    err = 0.0
    metas = []
    reps = indefinite_class_reps(D)
    for Q in reps:
        val, e, meta = cycle_integral(Q, k, d, tol=tol / max(1, len(reps)), evaluator=ev,
                                      check_pole=False)
        total += val
        err += e
        metas.append(meta)
    error_estimate = max(err, abs(total.imag))
    # the largest cutoffs over the classes, and any class's noise floor
    cutoff = {key: max(m[key] for m in metas) for key in ("panels", "layer_cutoff")}
    if any(m.get("noise_floor") for m in metas):
        cutoff["noise_floor"] = True
    return TraceReport(
        k=k,
        D=D,
        d=d,
        method="geodesic",
        value=total.real,
        error_estimate=error_estimate,
        hypothesis_ok=True,
        seconds=time.perf_counter() - t0,
        cutoff={**cutoff, "classes": len(reps), "met_tol": error_estimate <= tol},
    )


# ----------------------------------------------------------------------
# hypergeometric lattice sum (method 2)


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


def _r2_table(D: int, lo: int, hi: int) -> np.ndarray:
    """r2(D + s^2) for s = lo+1..hi via a quadratic-progression sieve.

    r2(n) counts all (b, e) with b^2 + e^2 = n; it vanishes unless every
    prime ≡ 3 (mod 4) divides n to an even power, and otherwise equals
    4 * prod (e_p + 1) over p ≡ 1 (mod 4).  Entry i belongs to s = lo+1+i.
    """
    vals = [D + s * s for s in range(lo + 1, hi + 1)]
    mult = np.ones(hi - lo, dtype=np.int64)
    bad = np.zeros(hi - lo, dtype=bool)
    bound = isqrt(D + hi * hi) + 1
    from .bqf import _sqrt_mod_prime

    for p in _primes_up_to(bound):
        if p == 2:
            roots = [r for r in range(2) if (r * r + D) % 2 == 0]
        else:
            roots = _sqrt_mod_prime((-D) % p, p)
        for r in set(x % p for x in roots):
            # the first index whose s = lo+1+i is ≡ r (mod p)
            for i in range((r - lo - 1) % p, hi - lo, p):
                v = vals[i]
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                vals[i] = v
                if p % 4 == 1:
                    mult[i] *= e + 1
                elif p % 4 == 3 and e % 2:
                    bad[i] = True
    for i, v in enumerate(vals):
        if v > 1:
            # leftover prime (exponent 1)
            if v % 4 == 1:
                mult[i] *= 2
            elif v % 4 == 3:
                bad[i] = True
    r2 = 4 * mult
    r2[bad] = 0
    return r2


def _parity_counts(D: int, lo: int, hi: int) -> np.ndarray:
    """N(s) = #{(b, e): b^2 + e^2 = D + s^2, e ≡ s (mod 2)} for s = lo+1..hi,
    entry i belonging to s = lo+1+i."""
    r2 = _r2_table(D, lo, hi)
    s = np.arange(lo + 1, hi + 1)
    n = D + s * s
    N = np.zeros(hi - lo, dtype=float)
    odd = n % 2 == 1
    N[odd] = r2[odd] / 2.0
    zero4 = n % 4 == 0
    N[zero4 & (s % 2 == 0)] = r2[zero4 & (s % 2 == 0)]
    two4 = n % 4 == 2
    N[two4 & (s % 2 == 1)] = r2[two4 & (s % 2 == 1)]
    return N


def lhs_latticesum(k: int, D: int, d: int = -4, tol: float = 1e-6) -> TraceReport:
    """Trace via the closed hypergeometric series at the CM point.

    The forms of disc D are grouped by their doubled pairing t with the
    CM form Q0; with p^2 = t^2/|d| the series is

      sum_{t != 0} sgn(t)^k N(t) (D + p^2)^{-k/2} 2F1(k/2, k/2; k+1/2; D/(D+p^2))

    with N(t) the number of forms in group t; the prefactor composes the
    trace scaling with the raised-form series constants.  For d = -4 the
    terms are indexed by s = t/2 = a + c, and N(t) = N(-t) counts
    b^2 + e^2 = D + s^2, e ≡ s (2), by a factorization sieve; for other d
    `PairingSolver` counts each group exactly.  The cutoff is doubled
    until the change is below tol.
    """
    t0 = time.perf_counter()
    if not hypothesis_check(D, d):
        raise HypothesisViolated(f"CM point of disc {d} lies on a disc {D} geodesic")
    w_stab = stabilizer_order(d)
    pref = (
        (-1) ** k
        * 2**k
        * math.sqrt(-d)
        * D ** (k - 0.5)
        / (w_stab * comb(2 * k - 2, k - 1) * math.pi * (2 * k - 1))
    )
    if k % 2 == 1:
        # sgn(t)^k is odd while N(t) is even in t: exact cancellation
        return TraceReport(
            k=k, D=D, d=d, method="latticesum", value=0.0, error_estimate=0.0,
            hypothesis_ok=True, seconds=time.perf_counter() - t0, cutoff={"s_cutoff": 0},
        )
    if d == -4:
        first, ceiling, key = 1 << 12, 1 << 24, "s_cutoff"

        def window(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            s = np.arange(lo + 1, hi + 1, dtype=float)
            return s * s, 2.0 * _parity_counts(D, lo, hi)
    else:
        first, ceiling, key = 64, 1 << 16, "t_cutoff"
        solver = PairingSolver(definite_class_reps(d)[0])

        def window(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            # X -> -X maps the forms with pairing t/2 onto those with -t/2
            t = np.arange(lo + 1, hi + 1)
            counts = [2 * len(solver.forms(D, u)) for u in range(lo + 1, hi + 1)]
            return t * t / (-d), np.array(counts, dtype=float)

    def tail_sum(lo: int, hi: int) -> float:
        """The terms lo < s <= hi (or t); each doubling counts only its new half."""
        p2, counts = window(lo, hi)
        F = _hyp2f1_vec(k / 2, k / 2, k + 0.5, D / (D + p2))
        return float(np.sum(counts * (D + p2) ** (-k / 2.0) * F))

    S = first
    total = tail_sum(0, S)
    while True:
        S2 = 2 * S
        if S2 > ceiling:
            raise NoConvergence("lattice-sum cutoff above ceiling")
        inc = tail_sum(S, S2)
        total += inc
        S = S2
        if abs(pref * inc) < tol / 2:
            break
    return TraceReport(
        k=k,
        D=D,
        d=d,
        method="latticesum",
        value=pref * total,
        error_estimate=max(abs(pref * inc), 1e-15),
        hypothesis_ok=True,
        seconds=time.perf_counter() - t0,
        cutoff={key: S},
    )


# ----------------------------------------------------------------------
# Eisenstein / discriminant oracle


def eisenstein_oracle(z: complex, terms: int = 40) -> tuple[complex, complex, complex]:
    """(E4, E6, Delta) at z by q-series; tails < 1e-12 for Im z >= 0.5."""
    if z.imag < 0.5:
        raise ValueError("oracle requires Im z >= 0.5")
    q = cmath.exp(2j * cmath.pi * z)
    sigma3 = [sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(terms + 1)]
    sigma5 = [sum(d**5 for d in range(1, n + 1) if n % d == 0) for n in range(terms + 1)]
    E4 = 1 + 240 * sum(sigma3[n] * q**n for n in range(1, terms + 1))
    E6 = 1 - 504 * sum(sigma5[n] * q**n for n in range(1, terms + 1))
    eta24 = q
    for n in range(1, terms + 1):
        eta24 *= (1 - q**n) ** 24
    return E4, E6, eta24
