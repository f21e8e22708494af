"""Floating-point engine: 2F1, the meromorphic form, and both numeric traces.

The meromorphic weight 2k form attached to a class of definite forms is
a modular form with poles on one CM orbit, so it is evaluated from
E4, E6 and Delta (one vectorized q-series routine): a fit of partial
fractions E/(j - j_A)^m to its principal part at the CM point, plus the
cusp forms of weight 2k, pinned by the class sum where there are any
(`FkAEvaluator`).  Cycle integrals use the 48-point Gauss--Legendre
rule, a table of module data, along the pieces of each geodesic's
reduced cycle, the arcs of its reduced forms;
their error estimate is the last panel doubling's change, plus the
evaluator's residual over the nodes, plus a rounding floor.  A trace
doubles the panels of all its classes in lockstep, so each doubling
makes one evaluator call for every class not yet within its tolerance,
the first holding the two levels of every class that the first stop
test reads, and builds that call's nodes in one pass.  The
hypergeometric lattice sum counts the forms of each group; its value is
the tail extrapolate of its last doubling, and its estimate the largest
of the extrapolate's last three changes, scaled down by the decay of
those changes, plus a rounding floor.  Both doublings stop by one rule,
`_stop_rule`, and report it.  Only the t of the parity of |d| D hold
forms, so the groups are indexed by j with t = 2j - (|d| D mod 2); the
cutoff S on j doubles from 2^8 at k = 2, whose 1/S tail runs every sum
to thousands of terms, and from 8 at k >= 4, and the report names
t_cutoff = 2S.  At the nine d of class number one the counts are divisor
sums of a quadratic character (Dirichlet), from one factorization sieve
per sum, `_DirichletSieve`, in numpy array work: the square roots of
-|d| D modulo every new prime come from one batched Tonelli--Shanks as
the cutoff grows, with least non-residues by reciprocity, and the int64
values n(j) = (|d| D + t^2)/4 are divided by their prime powers in
chunks of a bounded number of hits.  Other d count with `PairingSolver`.
2F1 is summed as the positive series of its quadratic transformation,
which stops once no term left can change its sum.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import pairwise
from math import comb, isqrt

import numpy as np

from .arith import check_discriminant, kronecker, sigma_table
from .bqf import (
    BQF,
    PairingSolver,
    equivalent_indefinite,
    indefinite_class_reps,
    on_geodesic_forms,
    reduce_definite,
    reduced_cycle,
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

EPS = float(np.finfo(float).eps)

__all__ = [
    "TraceReport",
    "check_tol",
    "hyp2f1",
    "eval_fkA",
    "FkAEvaluator",
    "cycle_integral",
    "lhs_geodesic",
    "lhs_latticesum",
    "eisenstein_oracle",
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


def _hyp2f1_quadratic(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """2F1(a, b; a + b + 1/2; 4z(1 - z)) on an array with 0 <= z <= 1/2, a, b > 0.

    It sums the series of 2F1(2a, 2b; c; z), c = a + b + 1/2, equal by the
    quadratic transformation DLMF 15.8.18.  Every term is positive, so
    nothing cancels, and z <= 1/2 keeps the series short: its terms fall
    like j^(a+b-3/2) 2^-j at z = 1/2.

    It stops once no term left can change any entry of the sum, so it
    returns the sum of all terms up to its cap bit for bit: the last term
    is below half the float gap under its sum (a quarter ulp, as the gap
    halves below a power of two), and no later term is larger.  Term m is
    term m-1 times z rho_m, rho_m = (2a + m)(2b + m)/((c + m)(1 + m)), and
    rho_m - 1 = ((2a + 2b - c - 1) m + 4ab - c)/((c + m)(1 + m)) bounds
    every rho_m, m >= n, by
    1 + |2a + 2b - c - 1|/(c + n) + |4ab - c|/((c + n)(1 + n)), so the
    stop waits until that bound times max z is at most 1.  At a = b = k/2,
    k >= 3, the terms near z = 1/2 grow before they fall.  As rounding is
    monotone, no term or sum is smaller than at a smaller z: the largest
    term is the one at max z and the smallest sum the one at min z.  Those
    two are carried as floats through the same recurrence, in place of
    reductions over the arrays, and give the same stop.  The stop needs
    the most terms on an array that holds both z = 0 and z near 1/2: 57
    at a + b = 2, 93 at 10 and 116 at 16 (measured), against the cap
    64 + 4 (a + b).
    """
    A, B, c = 2 * a, 2 * b, a + b + 0.5
    z = np.asarray(z, dtype=float)
    t = np.ones_like(z)
    acc = t.copy()
    zmax, zmin = float(np.max(z, initial=0.0)), float(np.min(z, initial=np.inf))
    slope, offset = abs(A + B - c - 1), abs(A * B - c)
    t_hi = t_lo = acc_lo = 1.0
    for j in range(64 + 4 * math.ceil(a + b)):
        num, den = (A + j) * (B + j), (c + j) * (1.0 + j)
        t = t * num / den * z
        acc = acc + t
        t_hi, t_lo = t_hi * num / den * zmax, t_lo * num / den * zmin
        acc_lo = acc_lo + t_lo
        n = j + 1  # the next ratio is rho_n
        if (1 + slope / (c + n) + offset / ((c + n) * (1 + n))) * zmax <= 1 and t_hi < math.ulp(acc_lo) / 4:
            break
    return acc


def hyp2f1(a: float, b: float, c: float, w: float) -> float:
    """2F1(a, b; c; w) for a, b > 0, c = a + b + 1/2 and 0 <= w < 1, the
    only 2F1 the lattice sum takes: `_hyp2f1_quadratic` at
    z = (1 - sqrt(1 - w))/2.  At a = b = k/2, k = 1..12, it is within
    2e-15 relative of mpmath at 1,000 points of w in [0, 0.999]."""
    if not (a > 0 and b > 0 and c == a + b + 0.5 and 0 <= w < 1):
        raise DivergentParameters(f"2F1({a}, {b}; {c}; {w}) needs a, b > 0, c = a + b + 1/2 and 0 <= w < 1")
    # z = (1 - sqrt(1 - w))/2, written without the cancellation
    return float(_hyp2f1_quadratic(a, b, np.array([w / (2 * (1 + math.sqrt(1 - w)))]))[0])


# ----------------------------------------------------------------------
# Eisenstein series and the fundamental domain


def _eisenstein(z: np.ndarray, terms: int = 24) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E4, E6 and Delta at the points z, by their q-expansions.

    Delta is q P^24 with P = prod_n (1 - q^n), the power taken by squarings,
    never (E4^3 - E6^2)/1728, which cancels to nothing once Im z is above
    ~4.  The coefficients 240 sigma_3(n) and -504 sigma_5(n) come from
    arith.sigma_table.  At the default terms every tail is below 1e-17 for
    Im z >= 0.4; at points of the fundamental domain, where
    |q| <= exp(-pi sqrt 3) ~ 4.3e-3, 12 terms leave tails below 1e-25.  One
    pass per term keeps the memory to a few arrays of the points' size.
    """
    s3, s5 = sigma_table(3, terms), sigma_table(5, terms)
    q = np.exp(2j * np.pi * np.asarray(z, dtype=complex))
    E4, E6, P, qn = np.ones_like(q), np.ones_like(q), np.ones_like(q), np.ones_like(q)
    # no in-place complex products, and np.multiply where the right factor
    # is a temporary: numpy computes `x * y` with a temporary y of 256 KiB
    # or more as y * x in y's memory, and a complex product's imaginary
    # part rounds differently with its factors swapped
    for n in range(1, terms + 1):
        qn = qn * q
        E4 += 240 * s3[n] * qn
        E6 -= 504 * s5[n] * qn
        P = np.multiply(P, 1 - qn)
    return E4, E6, np.multiply(q, _power(P, 24))


def _power(x: np.ndarray, n: int) -> np.ndarray:
    """x^n for an integer n >= 0, by squarings and elementwise products."""
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return np.ones_like(x) if out is None else out


def check_tol(tol: float) -> None:
    """Reject tol unless it is finite and positive: no change falls below
    any other tol, so a cutoff doubled until one does runs to its ceiling."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, not {tol}")


def _float_range(prefactor: Callable[[], float], at: str) -> float:
    """prefactor(), or ValueError if it overflows a float, naming `at`: k and D, or k and d."""
    try:
        value = prefactor()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the prefactor at {at} overflows a float")
    return value


def eisenstein_oracle(z: complex, terms: int = 40) -> tuple[complex, complex, complex]:
    """(E4, E6, Delta) at z by q-series; tails < 1e-12 for Im z >= 0.5."""
    if z.imag < 0.5:
        raise ValueError("oracle requires Im z >= 0.5")
    E4, E6, delta = _eisenstein(np.array([z], dtype=complex), terms)
    return complex(E4[0]), complex(E6[0]), complex(delta[0])


def _reduce_points(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (z', j) with z' = g(z) in the standard fundamental domain
    and j = cz + d the automorphy factor of g at z."""
    w = z.copy()
    a, b, c, d = (np.full(z.shape, v, dtype=float) for v in (1, 0, 0, 1))
    for _ in range(200):
        n = np.round(w.real)
        w = w - n
        a, b = a - n * c, b - n * d
        flip = w.real * w.real + w.imag * w.imag < 1.0 - 1e-15
        if not flip.any():
            break
        w[flip] = -1.0 / w[flip]
        a[flip], b[flip], c[flip], d[flip] = -c[flip], -d[flip], a[flip], b[flip]
    return w, c * z + d


# ----------------------------------------------------------------------
# the meromorphic form evaluator


def _pole_gap(tau: complex) -> float:
    """Distance from tau (in the fundamental domain) to the nearest other
    point of its SL(2,Z)-orbit.  Only the translates and the images
    a - 1/(tau + d) can come closer than Im(tau)/2."""
    images = [tau + 1] + [a - 1 / (tau + d) for a in range(-2, 3) for d in range(-2, 3)]
    return min(abs(w - tau) for w in images if abs(w - tau) > 1e-9)


def _class_pairs(d: int, A: int, rep: BQF | None = None) -> np.ndarray:
    """The (a, b0) of the forms [a, b0, (b0^2 - d)/4a] with a <= A and b0 from
    `sqrt_mod_roots`, as two float rows; only those that reduce to rep if given."""
    return np.array([(a, b0) for a in range(1, A + 1) for b0 in sqrt_mod_roots(d, a)
                     if rep is None or reduce_definite(BQF(a, b0, (b0 * b0 - d) // (4 * a)))[0] == rep],
                    dtype=float).reshape(-1, 2).T


class FkAEvaluator:
    """Evaluates f_{k,A}, the weight 2k meromorphic form of a definite class A.

    f_{k,A}(z) = |d|^((k+1)/2)/pi sum_{Q in A} Q(z,1)^(-k) is a modular
    form of weight 2k whose poles lie on the SL(2,Z)-orbit of the root
    tau_A of the class representative Q_A, and it vanishes at the cusp.
    So, with E = E4^p E6^r of weight 2k and u = s/(j - j_A) for a fixed
    scale s, it is exactly

        f = E (c_1 u + ... + c_M u^M) + sum_i beta_i h_i,

    where h_i = Delta^i E4^p_i E6^r_i, i = 1..dim S_2k, span the cusp
    forms of weight 2k, and M = ceil((k + ord E at tau_A)/e), with e = 2
    at i, 3 at rho and 1 elsewhere.  The evaluator is this expression,
    built once; it never changes afterwards.

    - Principal part.  Of the forms of the class only Q_A vanishes at
      tau_A, so f has the principal part of prefactor * Q_A(z,1)^(-k)
      there.  A discrete Fourier transform of NODES values on a circle
      around tau_A, of radius half the distance to the nearest other
      pole, taken only at the orders -1..-eM, gives the Laurent
      coefficients of that and of each E u^m.  E u^m has a pole of order
      e m - ord E, so the rows at those orders are a triangular system
      for the c_m; the other rows check the fit.
    - Cusp forms.  When dim S_2k > 0 (k = 6 and k >= 8), the beta_i are
      pinned by the class sum itself, summed directly in floats over the
      forms [a, b0 + 2at, *] with a <= PIN_CUTOFF (the pairs (a, b0) from
      `sqrt_mod_roots`) and |t| <= PIN_TRANSLATES, at dim S_2k points
      half a period away from tau_A.  Fourier coefficients at the
      cusp would pin them too, but they grow like exp(pi n sqrt|d|) and
      cancel against the fit's to that many digits.
    - Values.  Points are reduced to the fundamental domain, E4, E6 and
      Delta come from one q-series routine (12 terms, as |q| <= 4.3e-3
      there), c_1 u + ... + c_M u^M is taken by Horner's rule and times
      E, the beta_i h_i are added in order, and the automorphy factor
      (cz + d)^(-2k) is restored.  Every step is elementwise, and no
      complex product lets numpy swap its factors in a large batch (see
      `_eisenstein`), so a point's value does not depend on the other
      points of its batch, at any batch size.

    `residual` is the evaluator's absolute error on values away from the
    pole, the sum of three terms: the part of the fit's principal-part
    mismatch that rounding cannot explain (0 for a consistent fit); 16 eps
    times the size of the partial fractions, least over three probe points
    (far from the pole they cancel, by ~1e9 at k = 7 and d = -163); and
    `layer_delta(cutoff)` for the pinned coefficients.  The rounding of a
    value in proportion to its size is left to the caller (`cycle_integral`
    bounds it with ROUNDING_FLOOR).
    """

    NODES = 256
    PIN_CUTOFF = 1 << 10
    PIN_TRANSLATES = 64

    def __init__(self, k: int, d: int, rep: BQF | None = None):
        if k < 2:
            raise ValueError("k must be >= 2")
        check_discriminant(d, positive=False)
        if rep is not None and rep.disc != d:
            raise ValueError(f"rep {rep} has discriminant {rep.disc}, not d = {d}")
        self.k = k
        self.d = d
        reps = definite_class_reps(d)
        self.rep = reduce_definite(rep)[0] if rep is not None else reps[0]
        self.filter_class = len(reps) > 1
        self.prefactor = _float_range(lambda: (-d) ** ((k + 1) / 2) / math.pi, f"k = {k}, d = {d}")
        a, b, c = self.rep.a, self.rep.b, self.rep.c
        tau = complex(-b, math.sqrt(-d)) / (2 * a)
        # E = E4^p E6^r; its order at tau and the ramification e of j there
        self._p, self._r = (k - 3 * (k % 2)) // 2, k % 2
        if b == 0 and a == c:
            e, order = 2, self._r
        elif a == b == c:
            e, order = 3, self._p
        else:
            e, order = 1, 0
        self._M = -(-(k + order) // e)
        # h_i = Delta^i E4^p_i E6^r_i, as (i, p_i, r_i)
        dim = k // 6 - (k % 6 == 1)
        self._cusp = [(i, (k - 6 * i - 3 * self._r) // 2, self._r) for i in range(1, dim + 1)]
        # NODES points on a circle around tau, of radius half the distance
        # to the nearest other pole, and probes half a period from tau and
        # above the unit circle, far from every pole; the first dim of them
        # are the pin points.  E4, E6 and Delta at tau, the circle and the
        # probes come from one call
        radius = min(_pole_gap(tau), tau.imag) / 2
        zc = tau + radius * np.exp(2j * np.pi * np.arange(self.NODES) / self.NODES)
        x = tau.real + (0.5 if tau.real <= 0 else -0.5)
        probes = x + 1j * (1.25 + 0.3 * np.arange(max(dim, 3)))
        self._pin_points = probes[:dim]
        at_tau, circle, at_probes = np.split(np.stack(_eisenstein(np.concatenate([[tau], zc, probes]))),
                                             [1, 1 + self.NODES], axis=1)
        self._pin_values = at_probes[:, :dim]
        E4, E6, delta = at_tau[:, 0]
        with np.errstate(all="ignore"):
            self._jA = complex(E4 * E4 * E4 / delta)
        if not np.isfinite(self._jA):
            raise ValueError(f"j at the root of the class of d = {d} overflows a float")

        # a large k overflows the fit or the pin: the checks below reject
        # what is not finite, without numpy's warnings
        with np.errstate(all="ignore"):
            # Laurent coefficients of orders -1..-eM, each times radius^order,
            # from a discrete Fourier transform of values on the circle at
            # those orders only: row m - 1 holds order -m
            E4, E6, delta = circle
            # s, the median of |j - j_A| there, keeps u near 1 on the circle
            self._scale = float(np.sort(np.abs(E4 * E4 * E4 / delta - self._jA))[self.NODES // 2])
            turns = np.outer(np.arange(1, e * self._M + 1), np.arange(self.NODES)) % self.NODES
            phase = np.exp(2j * np.pi * turns / self.NODES)
            G = phase @ self._terms(E4, E6, delta)[0] / self.NODES
            target = phase @ (self.prefactor / _power(a * zc * zc + b * zc + c, k)) / self.NODES
            # E u^m has a pole of order e m - order: the rows at those orders
            # are a triangular system in the c_m
            self._c = np.zeros(self._M, dtype=complex)
            for m in reversed(range(self._M)):
                row = e * (m + 1) - order - 1
                self._c[m] = (target[row] - G[row, m + 1 :] @ self._c[m + 1 :]) / G[row, m]
            # the mismatch beyond the rounding of G c - target: zero for a
            # consistent fit
            rounding = 16 * EPS * (np.sum(np.abs(G) @ np.abs(self._c)) + np.sum(np.abs(target)))
            fit = max(0.0, float(np.sum(np.abs(G @ self._c - target)) - rounding))
            fractions = self._terms(*at_probes)[0]
            cancellation = 16 * EPS * float(np.min(np.abs(fractions) @ np.abs(self._c)))

            self.cutoff = self.PIN_CUTOFF if dim else 0
            self._beta, pin_change = self._pin(self.cutoff) if dim else (np.zeros(0), 0.0)
        if not (np.all(np.isfinite(self._c)) and np.all(np.isfinite(self._beta))):
            raise ValueError(f"the coefficients of f_(k,A) at k = {k}, d = {d} are not finite")
        self.residual = fit + cancellation + pin_change

    def _parts(self, E4, E6, delta) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """E = E4^p E6^r, u = s/(j - j_A) and the h_i, from E4, E6 and Delta at points."""
        u = self._scale * delta / (E4 * E4 * E4 - self._jA * delta)
        # np.multiply: a power may be a temporary right factor (see _eisenstein)
        cusp = [np.multiply(np.multiply(_power(delta, i), _power(E4, p)), _power(E6, r)) for i, p, r in self._cusp]
        return np.multiply(_power(E4, self._p), _power(E6, self._r)), u, cusp

    def _terms(self, E4, E6, delta) -> tuple[np.ndarray, np.ndarray]:
        """The columns E u^m (m = 1..M) and h_i, from E4, E6 and Delta at points."""
        E, u, cusp = self._parts(E4, E6, delta)
        fractions = E[:, None] * np.cumprod(np.repeat(u[:, None], self._M, axis=1), axis=1)
        if not cusp:
            return fractions, np.zeros((len(u), 0))
        return fractions, np.column_stack(cusp)

    def _class_sum(self, zs: np.ndarray, a: np.ndarray, b0: np.ndarray) -> np.ndarray:
        """prefactor * sum Q(z,1)^(-k) over the forms [a, b0 + 2at, *], |t| <= PIN_TRANSLATES."""
        t = np.arange(-self.PIN_TRANSLATES, self.PIN_TRANSLATES + 1)
        a = a[:, None]
        b = b0[:, None] + 2 * a * t
        c = (b * b - self.d) / (4 * a)
        return self.prefactor * np.array([np.sum(1 / _power(a * z * z + b * z + c, self.k)) for z in zs])

    def _pin(self, A: int) -> tuple[np.ndarray, float]:
        """The beta_i pinned by the class sum over a <= A, and their change
        from the sum over a <= A/2, weighted by the largest |h_i| at the
        pin points."""
        a, b0 = _class_pairs(self.d, A, self.rep if self.filter_class else None)
        fractions, cusp = self._terms(*self._pin_values)
        beta, half = (np.linalg.solve(cusp, self._class_sum(self._pin_points, a[keep], b0[keep]) - fractions @ self._c)
                      for keep in (a > 0, a <= A // 2))
        return beta, float(np.abs(beta - half) @ np.max(np.abs(cusp), axis=0))

    def layer_delta(self, A: int) -> float:
        """The weighted change of the pinned cusp-form coefficients when
        the class sum's cutoff doubles from A/2 to A (see `_pin`).  It is
        exactly 0.0 when dim S_2k = 0: then nothing is pinned."""
        return self._pin(A)[1] if self._cusp else 0.0

    def eval(self, zs) -> np.ndarray:
        """Values at the points zs."""
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        if np.any(zs.imag <= 0):
            raise ValueError("points must lie in the upper half-plane")
        zr, jf = _reduce_points(zs)
        # |q| <= 4.3e-3 at reduced points: 12 terms suffice (see _eisenstein)
        E, u, cusp = self._parts(*_eisenstein(zr, 12))
        # Horner's rule in u, then the h_i in order: each point's value is
        # the same whatever points share its batch
        acc = np.zeros_like(u)
        for c in self._c[::-1]:
            acc = (acc + c) * u
        vals = E * acc
        for beta, h in zip(self._beta, cusp):
            vals = vals + beta * h
        vals = vals / _power(jf, 2 * self.k)
        if not np.all(np.isfinite(vals)):
            raise PoleAtZ("evaluation point lies on a pole of the form")
        return vals


@lru_cache(maxsize=None)
def _shared_evaluator(k: int, d: int, rep: BQF | None) -> FkAEvaluator:
    return FkAEvaluator(k, d, rep)


def get_evaluator(k: int, d: int, rep: BQF | None = None) -> FkAEvaluator:
    """The process's shared evaluator of k, d and the class of rep (None:
    the principal class), keyed on the reduced rep; it never changes once built."""
    if rep is not None and rep.disc == d and rep.is_positive_definite:
        rep = reduce_definite(rep)[0]
        if rep == definite_class_reps(d)[0]:
            rep = None
    return _shared_evaluator(k, d, rep)


def eval_fkA(z: complex, k: int, d: int, rep: BQF | None = None) -> complex:
    """The meromorphic weight 2k form of the class at a point z; see
    `FkAEvaluator`, whose error on the value is its `residual`."""
    ev = get_evaluator(k, d, rep)
    return complex(ev.eval(np.array([z], dtype=complex))[0])


# ----------------------------------------------------------------------
# cycle integrals (method 1)

# The rounding floor of a cycle integral, in units of eps * sum |term|
# over its nodes, fixed once for every case.  Over d = -4, k in {2, 4},
# every admissible D <= 1000, at 1e-3, 1e-7 and 1e-8 * (1 + |trace|), and
# odd k in {3, 5}, d in {-3, -7, -20}, D <= 300, at 1e-7 and 1e-8, the
# largest error left over by the other terms of the estimate needed 58 of
# these units, at (k, D) = (4, 796) and tol 1e-7 or 1e-8: node noise near
# pole passages.  The lattice sum charges the same units on its sum of
# positive terms; at d = -4, k = 4, D < 400 and 1e-13 (1 + |trace|) its
# largest error was 131 of them.
ROUNDING_FLOOR = 256


def _stop_rule(change: float, rest: float, tol: float) -> str | None:
    """Why a doubling loop stops, or None to double again.  change is the
    part of the estimate change + rest that a larger cutoff lowers: "tol"
    once it fits in what rest leaves of tol, "rest" once it fits in half
    of tol as rest takes more, "noise_floor" once it is at most rest.  Only
    "tol" keeps the estimate below tol."""
    if change < tol - rest:
        return "tol"
    if change < tol / 2:
        return "rest"
    if change <= rest:
        return "noise_floor"
    return None


def _check_trace(k: int, D: int, d: int, tol: float, prefactor: Callable[[], float], Q: BQF | None = None) -> float:
    """Returns prefactor() after the preconditions of a numeric trace, in one
    order: k, tol, the float range (prefactor(), by `_float_range`), and the
    hypothesis (with Q, on Q's geodesic alone) last, whose check takes
    ~sqrt(D) steps, so that invalid input is rejected at any D at once."""
    if k < 2:
        raise ValueError("k must be >= 2")
    check_tol(tol)
    value = _float_range(prefactor, f"k = {k}, D = {D}")
    if Q is not None:
        if any(equivalent_indefinite(X, Q) for X in on_geodesic_forms(D, d)):
            raise PoleOnGeodesic(f"a pole lies on the geodesic of {Q}")
    elif not hypothesis_check(D, d):
        raise HypothesisViolated(f"CM point of disc {d} lies on a disc {D} geodesic")
    return value


def trace_report(method: str, k: int, D: int, d: int, t0: float, value=None, error_estimate: float = 0.0,
                 hypothesis_ok: bool = True, tol: float | None = None, cutoff: dict | None = None) -> TraceReport:
    """The report of a trace started at t0: exact, numeric (with tol, and a
    cutoff that gains met_tol) or a row with no value."""
    if tol is not None:
        cutoff = {**cutoff, "met_tol": error_estimate <= tol}
    return TraceReport(k=k, D=D, d=d, method=method, value=value, error_estimate=error_estimate,
                       hypothesis_ok=hypothesis_ok, seconds=time.perf_counter() - t0, cutoff=cutoff or {})


# The 48-point Gauss--Legendre rule on [-1, 1]: its 24 positive nodes,
# increasing, and their weights, the rule being symmetric about 0.  They
# are the Golub--Welsch eigenvalues of the Jacobi matrix, polished by one
# Newton step and made symmetric; tests/test_analytic.py derives them
# again and checks every bit.
_GL48_NODES = (
    0.03238017096286936, 0.0970046992094627, 0.1612223560688917, 0.22476379039468905,
    0.28736248735545555, 0.34875588629216075, 0.4086864819907167, 0.4669029047509584,
    0.523160974722233, 0.5772247260839727, 0.6288673967765136, 0.6778723796326639,
    0.7240341309238146, 0.7671590325157404, 0.8070662040294426, 0.8435882616243935,
    0.8765720202742479, 0.9058791367155696, 0.9313866907065543, 0.9529877031604308,
    0.9705915925462473, 0.9841245837228269, 0.9935301722663508, 0.9987710072524262,
)
_GL48_WEIGHTS = (
    0.0647376968126839, 0.0644661644359501, 0.06392423858464817, 0.06311419228625405,
    0.06203942315989268, 0.06070443916589386, 0.059114839698395566, 0.05727729210040315,
    0.05519950369998417, 0.05289018948519366, 0.05035903555385447, 0.04761665849249055,
    0.044674560856694294, 0.041545082943464776, 0.03824135106583072, 0.03477722256477045,
    0.0311672278327981, 0.027426509708356934, 0.023570760839324342, 0.019616160457355532,
    0.015579315722943856, 0.01147723457923459, 0.007327553901276208, 0.003153346052305687,
)
# all 48 nodes, increasing, and their weights
_GL_X = np.array([-x for x in reversed(_GL48_NODES)] + list(_GL48_NODES))
_GL_W = np.array(list(reversed(_GL48_WEIGHTS)) + list(_GL48_WEIGHTS))


# The most panels a cycle integral's rule may reach.  One evaluator call
# holds at most the nodes of that many panels, so no call is larger than
# one rule at its ceiling.
PANEL_CEILING = 1 << 12


class _CycleRule:
    """Composite Gauss--Legendre rule along the reduced cycle of a form Q.

    Per form P of the cycle: P's coefficients, the center C and radius R of
    its semicircle, and u = log tan(theta/2) = -atanh((x - C)/R) at its
    crossings of x = 0 and x = n, one column per piece in `pieces`; `base`
    holds each piece's max(1, round(its length)) panels.  A level of the
    rule is a multiplier mult, at mult * base panels per piece, each panel
    holding the 48 Gauss--Legendre nodes; `_quadratures` builds the nodes.
    """

    def __init__(self, Q: BQF):
        cycle, _ = reduced_cycle(Q)
        pieces = []
        for prev, P in zip(cycle[-1:] + cycle[:-1], cycle):
            n = -(prev.b + P.b) // (2 * prev.c)
            C, R = -P.b / (2 * P.a), math.sqrt(P.disc) / (2 * abs(P.a))
            pieces.append((P.a, P.b, P.c, C, R, -math.atanh(-C / R), -math.atanh((n - C) / R)))
        self.pieces = np.array(pieces).T
        u0, u1 = self.pieces[-2:]
        self.base = np.maximum(1, np.round(np.abs(u1 - u0))).astype(int)

    def panels(self, mult: int) -> int:
        return int(self.base.sum()) * mult


def _quadratures(ev: FkAEvaluator, levels: list[tuple[_CycleRule, int]]) -> list[tuple[complex, float, float]]:
    """Per level (rule, mult): the rule's value at mult * base panels per
    piece, the sum of its terms' sizes and the sum of |P(z,1)^(k-1) dz| over
    its nodes.  No level may pass PANEL_CEILING panels.  The levels share
    evaluator calls in order, as many in each as PANEL_CEILING panels hold.

    The nodes z and weights P(z,1)^(k-1) dz of a call's levels come from
    one pass over their pieces, stacked.  Every step is elementwise, and
    no complex product has a temporary right factor (see `_eisenstein`),
    so a node's bits do not depend on its batch; the evaluator's values do
    not either, and so neither do the sums."""
    panels = [rule.panels(mult) for rule, mult in levels]
    out = []
    while levels:
        # the longest run of levels within PANEL_CEILING panels
        n = int(np.searchsorted(np.cumsum(panels), PANEL_CEILING, side="right"))
        a, b, c, C, R, u0, u1 = np.concatenate([rule.pieces for rule, _ in levels[:n]], axis=1)
        per_piece = np.concatenate([rule.base * mult for rule, mult in levels[:n]])
        piece = np.repeat(np.arange(per_piece.size), per_piece)
        # each panel's index within its piece, and its half-width in u
        j = np.arange(piece.size) - np.repeat(np.cumsum(per_piece) - per_piece, per_piece)
        half = ((u1 - u0) / (2 * per_piece))[piece]
        u = ((u0[piece] + (2 * j + 1) * half)[:, None] + half[:, None] * _GL_X).ravel()
        node = np.repeat(piece, _GL_X.size)
        # z = C + R e^(i theta), with cos theta = -tanh u and sin theta = sech u
        sech, tanh = 1 / np.cosh(u), np.tanh(u)
        z = C[node] + np.multiply(R[node], 1j * sech - tanh)
        dz = np.multiply((half[:, None] * _GL_W).ravel() * -R[node] * sech, sech + 1j * tanh)
        weights = (a[node] * z * z + b[node] * z + c[node]) ** (ev.k - 1) * dz
        terms = ev.eval(z) * weights
        for lo, hi in pairwise(np.cumsum([0] + panels[:n]) * _GL_X.size):
            part = terms[lo:hi]
            out.append((complex(np.sum(part)), float(np.sum(np.abs(part))), float(np.sum(np.abs(weights[lo:hi])))))
        levels, panels = levels[n:], panels[n:]
    return out


def _cycle_integrals(forms: list[BQF], k: int, d: int, tol: float) -> list[tuple[complex, float, dict]]:
    """The cycle integrals of the forms, each to tol, as `cycle_integral`
    computes one, with their rules doubled in lockstep.

    The first round evaluates every form's rule at mult = 1 and 2, which
    its first stop test reads; each later round doubles the rules of the
    forms whose test has not fired.  Each round shares its evaluator calls
    across the forms (`_quadratures`), and each form keeps its own rule,
    estimate, stop and cutoff metadata.  A round with a level above
    PANEL_CEILING panels raises NoConvergence before it is evaluated.
    """
    ev = get_evaluator(k, d)
    rules = [_CycleRule(Q) for Q in forms]
    results = [None] * len(rules)
    last = [0j] * len(rules)  # each rule's value at its last level
    estimates = [None] * len(rules)  # and its last estimate
    levels = [(i, mult) for i in range(len(rules)) for mult in (1, 2)]
    while levels:
        i, mult = max(levels, key=lambda level: rules[level[0]].panels(level[1]))
        if (panels := rules[i].panels(mult)) > PANEL_CEILING:
            reached = "none" if estimates[i] is None else f"{panels // 2} panels, estimate {estimates[i]:.3e}"
            raise NoConvergence(f"geodesic: {panels} panels would pass the ceiling {PANEL_CEILING}; last cutoff {reached}")
        sums = _quadratures(ev, [(rules[i], mult) for i, mult in levels])
        for (i, mult), (cur, size, weight_sum) in zip(levels, sums):
            prev, last[i] = last[i], cur
            if mult == 1:
                continue
            delta = abs(cur - prev)
            # what more panels cannot lower: the evaluator's residual over
            # the rule's weights, and ROUNDING_FLOOR eps per unit of sum |term|
            rest = ev.residual * weight_sum + ROUNDING_FLOOR * EPS * size
            estimates[i] = delta + rest
            if rule := _stop_rule(delta, rest, tol):
                results[i] = cur, delta + rest, {"panels": rules[i].panels(mult), "stop_rule": rule}
        levels = [(i, 2 * mult) for i, mult in levels if mult > 1 and results[i] is None]
    return results


def cycle_integral(
    Q: BQF,
    k: int,
    d: int = -4,
    tol: float = 1e-9,
) -> tuple[complex, float, dict]:
    """One geodesic cycle integral of f_{k, class} against Q(z,1)^{k-1} dz.

    The closed geodesic of Q is the union of the arcs of the forms P of its
    reduced cycle: the piece of P runs along P's semicircle from its
    crossing of x = 0 to its crossing of x = n, the n of the river step
    from P's predecessor (see `bqf._rho`).  Every piece's endpoints lie at
    height >= D^(-1/4).  The integrand has weight 0, so each piece is the
    matching stretch of Q's own period, taken against P(z,1)^{k-1} dz.
    Composite Gauss--Legendre quadrature in the hyperbolic arclength u,
    with each piece given max(1, round(its length)) panels times a common
    multiplier, doubled until `_stop_rule` stops it, up to PANEL_CEILING
    panels.  Returns (value, error_estimate, cutoff_metadata), the
    metadata naming the rule in stop_rule.  The estimate is the last doubling's
    change, plus the evaluator's residual times the rule's sum of
    |P(z,1)^(k-1) dz|, plus ROUNDING_FLOOR eps times the sum of the sizes
    of the rule's terms.  This is the one-form case of `_cycle_integrals`,
    through which `lhs_geodesic` integrates all its classes at once.
    """
    _check_trace(k, Q.disc, d, tol, lambda: get_evaluator(k, d).prefactor, Q)
    return _cycle_integrals([Q], k, d, tol)[0]


def lhs_geodesic(k: int, D: int, d: int = -4, tol: float = 1e-8) -> TraceReport:
    """Trace by numerical quadrature: sum of cycle integrals over classes.

    Each class's integral is taken to tol over the number of classes, all
    in lockstep (`_cycle_integrals`), so each doubling makes one evaluator
    call for every class still short of its tolerance.  The cutoff's
    `panels` is the largest over the classes of a class's panels, summed
    over the pieces of its reduced cycle, and its `stop_rule` the loosest
    of the classes' rules."""
    t0 = time.perf_counter()
    # the evaluator, built or fetched from the cache, checks the float range
    _check_trace(k, D, d, tol, lambda: get_evaluator(k, d).prefactor)
    total = 0j
    err = 0.0
    metas = []
    reps = indefinite_class_reps(D)
    for val, e, meta in _cycle_integrals(reps, k, d, tol / max(1, len(reps))):
        total += val
        err += e
        metas.append(meta)
    # the largest panels over the classes, and the loosest stop rule
    cutoff = {"panels": max(m["panels"] for m in metas),
              "stop_rule": max((m["stop_rule"] for m in metas), key=("tol", "rest", "noise_floor").index),
              "classes": len(reps)}
    return trace_report("geodesic", k, D, d, t0, total.real, max(err, abs(total.imag)), tol=tol, cutoff=cutoff)


# ----------------------------------------------------------------------
# hypergeometric lattice sum (method 2)


# The most (index, prime) hits one pass of the sieve holds in its
# arrays; it bounds the sieve's memory and does not change its counts.
SIEVE_CHUNK = 1 << 16
# The ceiling of the sieved lattice sums' cutoff j, the index of t = 2j - e.
S_CEILING = 1 << 24
# The fundamental d of class number one, whose lattice sums count each
# group with the sieve, by Dirichlet's formula.
CLASS_NUMBER_ONE = (-3, -4, -7, -8, -11, -19, -43, -67, -163)
# The most terms that the lattice sum evaluates at once; it bounds the
# sum's memory and does not change its terms.
TAIL_SLICE = 1 << 19


def _primes_between(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo < p <= hi as int64, by sieving that segment alone
    with the primes up to sqrt(hi)."""
    seg = np.ones(max(hi - lo, 0), dtype=bool)  # entry i is lo + 1 + i
    seg[: max(1 - lo, 0)] = False
    base = _primes_between(1, isqrt(hi)).tolist() if hi >= 4 else []
    for q in base:
        start = max(q * q, (lo // q + 1) * q)
        seg[start - lo - 1 :: q] = False
    return np.flatnonzero(seg).astype(np.int64) + (lo + 1)


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod mod elementwise, on int64 arrays whose squared moduli fit in int64."""
    out = np.ones_like(mod)
    base = base % mod
    exp = exp.copy()
    while exp.any():
        # times base where the bit is set, times 1 elsewhere
        out = out * ((exp & 1) * (base - 1) + 1) % mod
        base = base * base % mod
        exp >>= 1
    return out


def _order_log2(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The least i with t^(2^i) ≡ 1 (mod p), elementwise, for t whose order
    mod p is a power of 2."""
    i, t = np.zeros_like(p), t.copy()
    more = np.flatnonzero(t != 1)
    while more.size:
        t[more] = t[more] * t[more] % p[more]
        i[more] += 1
        more = more[t[more] != 1]
    return i


def _least_non_residues(p: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue of each prime p ≡ 1 (mod 4).

    It is a prime below sqrt(p) + 1, and by reciprocity, for such p, 2 is a
    non-residue exactly when p ≡ 5 (mod 8), and an odd prime l exactly when
    p mod l is a non-residue mod l; so no power mod p is taken.
    """
    z = np.zeros_like(p)
    todo = np.arange(p.size)
    for l in _primes_between(1, isqrt(int(p.max(initial=2))) + 1).tolist():
        if not todo.size:
            break
        if l == 2:
            non = p[todo] % 8 == 5
        else:
            residue = np.zeros(l, dtype=bool)
            residue[np.arange(l) ** 2 % l] = True
            non = ~residue[p[todo] % l]
        z[todo[non]] = l
        todo = todo[~non]
    return z


def _sqrt_mod_primes(n: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euler's criterion and Tonelli--Shanks, batched over odd primes p that
    do not divide n: (square, r), where square marks the p mod which n is a
    square, and r holds a square root of n mod each of those p."""
    # p - 1 = q 2^m with q odd.  From y = n^((q-1)/2) come r = n^((q+1)/2)
    # and t = n^q, of order 2^i; Euler's criterion t^(2^(m-1)) = 1 is i < m
    low = (p - 1) & (1 - p)
    q, m = (p - 1) // low, np.log2(low).astype(np.int64)
    y = _powmod(n, (q - 1) // 2, p)
    r, t = y * n % p, y * y % p * n % p
    i = _order_log2(t, p)
    square = i < m
    p, q, m, t, r, i = (x[square] for x in (p, q, m, t, r, i))
    # c = z^q for the least non-residue z of p; only p ≡ 1 (mod 4) needs
    # one, since t = 1 already when m = 1
    z = np.full_like(p, 2)
    z[m > 1] = _least_non_residues(p[m > 1])
    c = _powmod(z, q, p)
    # each step keeps r^2 ≡ n t and lowers the order 2^i of t, until t = 1.
    # Its b = c^(2^(m-i-1)), with the m and c of that step, is the first c
    # squared u = m - i - 1 times for the first m, since each step's m is the
    # last i and its c the last b^2.  u rises from step to step, so round u
    # steps the primes with i = m - u - 1 and then squares every live c
    live, u = np.flatnonzero(i > 0), 0
    while live.size:
        step = live[i[live] == m[live] - u - 1]
        ps, b = p[step], c[step]
        t[step], r[step] = t[step] * (b * b % ps) % ps, r[step] * b % ps
        i[step] = _order_log2(t[step], ps)
        live = live[i[live] > 0]
        c[live] = c[live] * c[live] % p[live]
        u += 1
    return square, r


def _n_of_j(M: int, j):
    """n(j) = (M + t^2)/4 at t = 2j - e, e = M mod 2, for an int or an int64
    array j, as j (j - e) + (M + e)/4, so that M + t^2 is never formed."""
    e = M % 2
    return j * (j - e) + (M + e) // 4


class _DirichletSieve:
    """N(t), the number of forms of disc D > 0 with doubled pairing t with
    the CM form of disc d, for t = 2j - e and e = |d| D mod 2, via a
    quadratic-progression sieve.  A sieved lattice sum builds one and
    keeps it across its doublings.

    d is one of CLASS_NUMBER_ONE.  By Dirichlet's formula,
    N(t) = w (1 + [p_d | n]) sum_{m | n} chi_d(m), with n = n(j) =
    (|d| D + t^2)/4, w the stabilizer order of the CM point, p_d the prime
    dividing d and chi_d(m) the Kronecker symbol (d/m), periodic mod |d|.
    The sum is the product over p^e || n of e + 1 where chi_d(p) = 1, of
    1 or 0 as e is even or odd where chi_d(p) = -1, and of 1 where p | d.
    The constructor takes chi_d, p_d and w once.  The values n(j) are
    int64, so it raises ValueError when n(S_CEILING) does not fit.

    `upto(bound)` holds the pairs (p, r) of a prime p <= bound and a
    residue 0 <= r < p with p | n(r), as int64 arrays sorted by p, then r.
    It sieves only the primes above the bound it reached before, up to 4
    times that bound but at most the root bound isqrt(n(S_CEILING)) + 1
    of the j ceiling, keeps the odd p mod which -M, M = |d| D, is a square
    by Euler's criterion, and finds the square roots x of -M mod all of
    them in one batched Tonelli--Shanks, whose cost hardly depends on its
    size; 2j - e ≡ x (mod p) holds at j ≡ (x + e)(p + 1)/2.  A prime
    dividing M has the single root x = 0, and 2 has the residues r in
    {0, 1} where n(r) is even.  So each prime's roots are found once, not
    once per window.

    `counts(lo, hi)` is N(t) at j = lo+1..hi; entry i belongs to
    j = lo+1+i.  A pair (p, r) hits the entries with j ≡ r (mod p), all of
    which p divides.  The hits are taken in chunks of at most
    SIEVE_CHUNK; each chunk finds the p-adic valuations of its hits as
    arrays, and folds them into the product of local factors, the zero
    flags and the product of the prime powers found with np.multiply.at:
    an entry repeats across the primes of a chunk, and a fancy-index
    write-back would keep only one of its updates.  The sieve takes the
    primes up to isqrt(n) + 1, so what their powers leave of n is 1 or
    one prime.
    """

    def __init__(self, d: int, D: int):
        M = -d * D
        if _n_of_j(M, S_CEILING) > np.iinfo(np.int64).max:
            raise ValueError(f"D = {D}: n(j) = ({M} + t^2)/4 overflows int64 below the j ceiling {S_CEILING}")
        self.M = M
        self.chi = np.array([kronecker(d, m) for m in range(-d)], dtype=np.int8)
        self.p_d = 2 if d % 4 == 0 else -d
        self.w = stabilizer_order(d)
        self.bound = 1
        self.p = self.r = np.zeros(0, dtype=np.int64)

    def upto(self, bound: int) -> tuple[np.ndarray, np.ndarray]:
        if bound > self.bound:
            M = self.M
            reach = max(bound, min(4 * self.bound, isqrt(_n_of_j(M, S_CEILING)) + 1))
            p = _primes_between(self.bound, reach)
            self.bound = reach
            # -M = e - 4 n(0), reduced mod p without forming M in int64
            x = (M % 2 - 4 * (_n_of_j(M, 0) % p)) % p
            # each odd prime's square roots x of -M as a row, with a mask of
            # those that exist: one for p | M, else none or two
            two, one = p == 2, (p != 2) & (x == 0)
            pairs = np.zeros((p.size, 2), dtype=np.int64)
            exists = np.zeros((p.size, 2), dtype=bool)
            exists[one, 0] = True
            odd = np.flatnonzero(~two & ~one)
            square, x = _sqrt_mod_primes(x[odd], p[odd])
            odd = odd[square]
            pairs[odd, 0], pairs[odd, 1] = x, p[odd] - x
            exists[odd] = True
            # the roots j of the odd primes, and those of 2
            half = (p[:, None] + 1) // 2
            pairs = np.sort((pairs + M % 2) * half % p[:, None], axis=1)
            pairs[two] = (0, 1)
            exists[two] = (_n_of_j(M, 0) % 2 == 0, _n_of_j(M, 1) % 2 == 0)
            self.p = np.concatenate([self.p, np.repeat(p, 2).reshape(-1, 2)[exists]])
            self.r = np.concatenate([self.r, pairs[exists]])
        n = np.searchsorted(self.p, bound, side="right")
        return self.p[:n], self.r[:n]

    def counts(self, lo: int, hi: int) -> np.ndarray:
        chi, q = self.chi, self.chi.size
        size = hi - lo
        vals = _n_of_j(self.M, np.arange(lo + 1, hi + 1, dtype=np.int64))
        mult = np.ones(size, dtype=np.int64)
        found = np.ones(size, dtype=np.int64)
        zero = np.zeros(size, dtype=bool)
        p, r = self.upto(isqrt(_n_of_j(self.M, hi)) + 1)
        # the first index whose j = lo+1+i is ≡ r (mod p), and the hits per pair
        first = (r - (lo + 1)) % p
        ends = np.cumsum((size - first + p - 1) // p)
        starts = np.concatenate([[0], ends[:-1]])
        total = int(ends[-1]) if ends.size else 0
        for h0 in range(0, total, SIEVE_CHUNK):
            h1 = min(h0 + SIEVE_CHUNK, total)
            # the pairs a..b hold hits h0..h1-1
            a, b = np.searchsorted(ends, [h0, h1 - 1], side="right")
            taken = np.minimum(ends[a : b + 1], h1) - np.maximum(starts[a : b + 1], h0)
            pair = np.repeat(np.arange(a, b + 1), taken)
            pp = p[pair]
            idx = first[pair] + (np.arange(h0, h1) - starts[pair]) * pp
            v, power, e = vals[idx] // pp, pp.copy(), np.ones_like(pp)
            more = np.flatnonzero(v % pp == 0)
            while more.size:
                v[more] //= pp[more]
                power[more] *= pp[more]
                e[more] += 1
                more = more[v[more] % pp[more] == 0]
            np.multiply.at(found, idx, power)
            c = chi[pp % q]
            np.multiply.at(mult, idx[c == 1], e[c == 1] + 1)
            zero[idx[(c == -1) & (e & 1 == 1)]] = True
        # the leftover prime (exponent 1)
        left = vals // found
        c = chi[left % q]
        mult[(left > 1) & (c == 1)] *= 2
        zero |= c == -1
        mult[zero] = 0
        return self.w * (1 + (vals % self.p_d == 0)) * mult


def _latticesum_terms(k: int, D: int, d: int, t: np.ndarray) -> np.ndarray:
    """(D + p^2)^(-k/2) 2F1(k/2, k/2; k + 1/2; D/(D + p^2)) with p^2 = t^2/|d|.

    2F1 is taken through `_hyp2f1_quadratic` at z = D/(2s(s + p)),
    s^2 = D + p^2, the root z <= 1/2 of 4z(1 - z) = D/s^2 formed without
    the cancellation of 1 - p/s.
    """
    p2 = t * t / (-d)
    s = np.sqrt(D + p2)
    return (D + p2) ** (-k / 2.0) * _hyp2f1_quadratic(k / 2, k / 2, D / (2 * s * (s + np.sqrt(p2))))


def lhs_latticesum(k: int, D: int, d: int = -4, tol: float = 1e-6) -> TraceReport:
    """Trace via the closed hypergeometric series at the CM point.

    The forms of disc D are grouped by their doubled pairing t with the
    CM form Q0; with p^2 = t^2/|d| the series is

      sum_{t != 0} sgn(t)^k N(t) (D + p^2)^{-k/2} 2F1(k/2, k/2; k+1/2; D/(D+p^2))

    with N(t) the number of forms in group t; the prefactor composes the
    trace scaling with the raised-form series constants.  A group holds
    forms only if t ≡ |d| D (mod 2), so the terms are indexed by j >= 1
    with t = 2j - (|d| D mod 2), and N(t) = N(-t).  For the d of
    CLASS_NUMBER_ONE a factorization sieve counts
    N(t) = w (1 + [p_d divides n]) sum_{m | n} chi_d(m), n = (|d| D + t^2)/4
    (`_DirichletSieve`, Dirichlet's formula).  For other d `PairingSolver`
    counts each group exactly, stepping the leading coefficient a of the
    forms through the integer window where
    q(a) = a0^2 D + 2 a0 t a + disc(Q0) a^2 >= 0; its j ceiling is 2^15
    (t <= 2^16), and the sieve's S_CEILING.

    The cutoff S on j doubles from a first window of 2^8 at k = 2, whose
    1/S tail runs every sum to thousands of terms, and 8 at k >= 4; the
    report names it t_cutoff = 2S.  After each doubling the terms
    past the cutoff, which fall like S^(-k), are extrapolated from its
    increment: R = pref (total + inc/(2^(k-1) - 1)).  The value is the
    last R.  The estimate is the window
    max(|dR_n|, |dR_(n-1)| 2^-(k-2), |dR_(n-2)| 2^-2(k-2)) of the last
    three changes of R, the older ones discounted by the S^(2-k) decay of
    the changes, plus the sum's rounding, ROUNDING_FLOOR eps times
    |pref total|.  The loop stops by `_stop_rule` on the window and the
    rounding, and the cutoff names the rule in stop_rule; its met_tol
    says whether the estimate is within tol.  The estimate needs four
    extrapolates, so no sum stops before S = 16 first: one pass counts
    the groups and evaluates 2F1 over j <= 16 first, and the first
    window's sum and the next four increments are read off it; each
    later doubling is one pass over its new half.  Every pass runs in
    slices of at most TAIL_SLICE terms.  A sieved sum builds one
    `_DirichletSieve` and keeps it across its doublings.  The checks run
    in one order: D and d, the sieve's int64 range (a sieved d and D with
    n(S_CEILING) beyond int64 raise ValueError), then `_check_trace`: k,
    tol, the prefactor's float range, and the hypothesis last.
    """
    t0 = time.perf_counter()
    # the sieve takes D and d as integers before _check_trace runs
    check_discriminant(D)
    check_discriminant(d, positive=False)
    sieve = _DirichletSieve(d, D) if d in CLASS_NUMBER_ONE else None
    # w, the stabilizer order, is 1 at every d off CLASS_NUMBER_ONE
    pref = _check_trace(k, D, d, tol, lambda: 2**k * math.sqrt(-d) * D ** (k - 0.5)
                        / ((sieve.w if sieve else 1) * comb(2 * k - 2, k - 1) * math.pi * (2 * k - 1)))
    ceiling = S_CEILING if sieve else 1 << 15
    e = -d * D % 2  # t = 2j - e
    if k % 2 == 1:
        # sgn(t)^k is odd while N(t) is even in t: exact cancellation
        return trace_report("latticesum", k, D, d, t0, 0.0, 0.0, tol=tol, cutoff={"t_cutoff": 0, "stop_rule": "tol"})
    if sieve:
        counts = sieve.counts
    else:
        solver = PairingSolver(definite_class_reps(d)[0])

        def counts(lo: int, hi: int) -> np.ndarray:
            return np.array([len(solver.forms(D, 2 * j - e)) for j in range(lo + 1, hi + 1)])

    def window_sums(bounds: list[int]) -> list[float]:
        """The sums of the terms bounds[i] < j <= bounds[i+1], from one pass
        over bounds[0] < j <= bounds[-1] in slices of at most TAIL_SLICE."""
        sums = [0.0] * (len(bounds) - 1)
        for start in range(bounds[0], bounds[-1], TAIL_SLICE):
            end = min(start + TAIL_SLICE, bounds[-1])
            t = 2 * np.arange(start + 1, end + 1) - e
            # X -> -X maps the forms with pairing t/2 onto those with -t/2
            terms = 2.0 * counts(start, end) * _latticesum_terms(k, D, d, t)
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if lo < end and hi > start:
                    sums[i] += float(np.sum(terms[max(lo, start) - start : min(hi, end) - start]))
        return sums

    # the stop test reads four extrapolates, so no sum stops before j =
    # 16 first: one pass sums the first window and the next four
    S, R = (1 << 8 if k == 2 else 8), []  # R: the last four extrapolates
    total, *incs = window_sums([0] + [S << i for i in range(5)])
    while True:
        if not incs:
            if 2 * S > ceiling:
                raise NoConvergence(f"latticesum: t_cutoff {4 * S} would pass the ceiling {2 * ceiling}; "
                                    f"last cutoff {2 * S}, estimate {est + rest:.3e}")
            incs = window_sums([S, 2 * S])
        inc = incs.pop(0)
        total += inc
        S *= 2
        R = R[-3:] + [pref * (total + inc / (2 ** (k - 1) - 1))]
        if len(R) == 4:
            # the i-th latest change discounted by i doublings of S^(2-k)
            est = max(abs(R[3 - i] - R[2 - i]) * 2.0 ** (-(k - 2) * i) for i in range(3))
            # what more terms cannot lower: the sum's rounding, ROUNDING_FLOOR
            # eps per unit of the sum, whose terms are all positive at even k
            rest = ROUNDING_FLOOR * EPS * abs(pref * total)
            if rule := _stop_rule(est, rest, tol):
                break
    return trace_report("latticesum", k, D, d, t0, R[-1], max(est + rest, 1e-15), tol=tol,
                        cutoff={"t_cutoff": 2 * S, "stop_rule": rule})
