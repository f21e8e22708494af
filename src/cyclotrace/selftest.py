"""Built-in invariant suite for `cyclotrace selftest`.

Each check is a named callable returning True on success; the runner
prints one PASS/FAIL line per check and the total counts.  The numeric
helpers the checks use come first: the Milgram defect and Weil
representation matrices of a discriminant form, a truncated series
evaluated at a point, and the Siegel theta function of a signature
(1,2) lattice.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from math import isqrt

import numpy as np

from .fqm import FQModule, VVSeries


# ----------------------------------------------------------------------
# numeric helpers


def milgram_defect(M: FQModule) -> float:
    """| sum_mu e(q(mu)) - sqrt(|M|) e(sig/8) |, should vanish."""
    s = sum(cmath.exp(2j * cmath.pi * float(M.q_value(t))) for t in M.elements)
    target = math.sqrt(M.order) * cmath.exp(2j * cmath.pi * M.signature_mod_8 / 8)
    return abs(s - target)


def weil_matrices(M: FQModule) -> tuple[np.ndarray, np.ndarray]:
    """Numeric matrices of rho(T) and rho(S) on the group ring of M.

    rho(T) e_mu = e(q(mu)) e_mu;
    rho(S) e_mu = e((s-r)/8)/sqrt(|M|) * sum_nu e(-(nu,mu)) e_nu.
    """
    m = M.order
    T = np.zeros((m, m), dtype=complex)
    S = np.zeros((m, m), dtype=complex)
    phase = cmath.exp(-2j * cmath.pi * M.signature_mod_8 / 8)
    for i, mu in enumerate(M.elements):
        T[i, i] = cmath.exp(2j * cmath.pi * float(M.q_value(mu)))
        for j, nu in enumerate(M.elements):
            S[j, i] = cmath.exp(-2j * cmath.pi * float(M.bilinear_value(nu, mu)))
    S *= phase / math.sqrt(m)
    return T, S


def eval_series(f: VVSeries, tau: complex) -> np.ndarray:
    """Numeric component vector of the truncated series at tau."""
    out = np.zeros(len(f.module.elements), dtype=complex)
    for (c, n), v in f.terms.items():
        out[c] += float(v) * cmath.exp(2j * cmath.pi * Fraction(n, f.den) * tau)
    if f.pi_power:
        out *= math.pi**f.pi_power
    return out


def siegel_theta_eval(
    module: FQModule,
    form_map,
    tau: complex,
    z: complex,
    cutoff: int = 10,
) -> np.ndarray:
    """Siegel theta function of a signature (1,2) lattice of binary forms.

    form_map sends lattice basis coordinates to form coefficients [a,b,c];
    with p_X(z) = (a|z|^2 + bx + c)/y and Q_X(z) = az^2 + bz + c the sum is

        v * sum_mu sum_X e( q(X_z) tau + q(X_{z perp}) conj(tau) ) e_mu,

    q(X_z) = p_X(z)^2/4 and q(X_{z perp}) = -|Q_X(z)|^2 / (4 y^2).
    Truncated to |coords| <= cutoff (Gaussian tail).
    """
    v = tau.imag
    y = z.imag
    x = z.real
    out = np.zeros(len(module.elements), dtype=complex)
    if module.lattice.rank != 3:
        raise ValueError("the Siegel theta needs a rank-3 lattice of binary forms")
    F = np.array([[float(form_map[i][j]) for j in range(3)] for i in range(3)])
    rng = np.arange(-cutoff, cutoff + 1)
    g0, g1, g2 = np.meshgrid(rng, rng, rng, indexing="ij")
    grid = np.stack([g0.ravel(), g1.ravel(), g2.ravel()], axis=1).astype(float)
    for ci, t in enumerate(module.elements):
        shift = np.array([float(s) for s in module.rep_vector(t)])
        abc = (grid + shift) @ F.T
        a, b, c = abc[:, 0], abc[:, 1], abc[:, 2]
        p = (a * (x * x + y * y) + b * x + c) / y
        Q = a * (z * z) + b * z + c
        qz = p * p / 4
        qperp = -np.abs(Q) ** 2 / (4 * y * y)
        out[ci] = np.sum(np.exp(2j * np.pi * (qz * tau + qperp * np.conj(tau))))
    return v * out


# ----------------------------------------------------------------------
# the checks


def _check_kronecker() -> bool:
    from .arith import kronecker

    for p in (3, 5, 7, 11, 13, 17):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            if kronecker(a, p) != want:
                return False
    rng = random.Random(11)
    for _ in range(200):
        a, m, n = rng.randint(-80, 80), rng.randint(1, 60), rng.randint(1, 60)
        if kronecker(a, m * n) != kronecker(a, m) * kronecker(a, n):
            return False
    return True


def _check_L_values() -> bool:
    from .arith import cohen_H, dirichlet_L_value

    return (
        dirichlet_L_value(5, -1) == Fraction(-2, 5)
        and dirichlet_L_value(12, -1) == -2
        and cohen_H(2, 0) == Fraction(1, 120)
        and all(cohen_H(2, D) == dirichlet_L_value(D, -1)
                for D in range(5, 60) if D % 4 in (0, 1) and isqrt(D) ** 2 != D)
    )


def _check_hurwitz() -> bool:
    from .arith import divisors
    from .special_forms import hurwitz, hurwitz_table, hurwitz_table_recursive

    if hurwitz_table(120) != hurwitz_table_recursive(120):
        return False
    for n in range(1, 51):
        lhs = sum(hurwitz(4 * n - s * s) for s in range(-isqrt(4 * n), isqrt(4 * n) + 1)
                  if s * s <= 4 * n)
        rhs = sum(max(d, n // d) for d in divisors(n))
        if lhs != rhs:
            return False
    return hurwitz(0) == Fraction(-1, 12)


def _check_reduction() -> bool:
    from .bqf import BQF, reduce_definite

    rng = random.Random(5)
    for _ in range(300):
        a = rng.randint(1, 40)
        b = rng.randint(-40, 40)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 40)
        Q = BQF(a, b, c)
        if not Q.is_positive_definite:
            continue
        red, g = reduce_definite(Q)
        if Q.apply(g) != red or reduce_definite(red)[0] != red:
            return False
    return True


def _check_pell() -> bool:
    from .arith import is_square
    from .bqf import pell_fundamental

    for D in range(5, 150):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        t, u = pell_fundamental(D)
        if t * t - D * u * u != 4 or t <= 0 or u <= 0:
            return False
        uu = 1
        while uu < u:
            if is_square(4 + D * uu * uu):
                return False
            uu += 1
    return True


def _check_hypothesis() -> bool:
    from .arith import is_square
    from .bqf import hypothesis_check

    for D in range(5, 151):
        if D % 4 not in (0, 1) or is_square(D):
            continue
        brute = any(
            b * b + 4 * a * a == D
            for a in range(1, isqrt(D) // 2 + 2)
            for b in range(0, isqrt(D) + 1)
        )
        if hypothesis_check(D, -4) != (not brute):
            return False
    return True


def _check_exact_oracle() -> bool:
    from .arith import is_square
    from .bqf import hypothesis_check
    from .special_forms import closed_formula, rhs_trace

    for D in range(5, 61):
        if D % 4 not in (0, 1) or is_square(D) or not hypothesis_check(D, -4):
            continue
        for k in (2, 4):
            if rhs_trace(k, D) != closed_formula(k, D):
                return False
    return True


def _check_milgram_weil() -> bool:
    from .special_forms import module_L, module_N_minus, module_P

    for M in (module_P(), module_N_minus(), module_L()):
        if milgram_defect(M) > 1e-10:
            return False
        _, S = weil_matrices(M)
        if np.max(np.abs(S @ S.conj().T - np.eye(M.order))) > 1e-12:
            return False
    return True


def _check_siegel_split() -> bool:
    from .fqm import theta_series
    from .special_forms import module_K, module_P, theta_N_minus

    tau, z = 2j, 1j
    MK = module_K()
    FK = ((-1, 1, 0), (0, 0, 2), (-1, -1, 0))
    thK = siegel_theta_eval(MK, FK, tau, z, cutoff=8)
    thP = eval_series(theta_series(module_P(), 30), tau)
    thNm = eval_series(theta_N_minus(30), tau)
    split = np.array([p * tau.imag * np.conj(q) for p in thP for q in thNm])
    return float(np.max(np.abs(thK - split))) < 1e-8


def _check_hyp2f1() -> bool:
    from .analytic import hyp2f1

    ok = True
    for w in (0.25, 0.9, 0.999):
        # 2F1(1/2, 1/2; 3/2; w) = asin(sqrt w)/sqrt w, 2F1(1, 1/2; 2; w) = 2/(1 + sqrt(1 - w))
        for got, want in ((hyp2f1(0.5, 0.5, 1.5, w), math.asin(math.sqrt(w)) / math.sqrt(w)),
                          (hyp2f1(1, 0.5, 2, w), 2 / (1 + math.sqrt(1 - w)))):
            ok = ok and abs(got - want) < 1e-14 * want
    return ok


def _check_proportionality() -> bool:
    from .analytic import eisenstein_oracle, get_evaluator

    pts = np.array([complex(0.03 + 0.04 * j, 1.05 + 0.06 * j) for j in range(10)])
    ev = get_evaluator(2, -4)
    vals = ev.eval(pts)
    ratios = []
    for z, f in zip(pts, vals):
        E4, E6, Delta = eisenstein_oracle(complex(z))
        ratios.append((f / (E4 * Delta / E6**2)).real)
    spread = (max(ratios) - min(ratios)) / abs(sum(ratios) / len(ratios))
    return spread < 1e-6


def _check_three_way() -> bool:
    from .analytic import lhs_geodesic, lhs_latticesum
    from .special_forms import rhs_trace

    ex = float(rhs_trace(2, 12))
    g = lhs_geodesic(2, 12, -4, tol=1e-5)
    l = lhs_latticesum(2, 12, -4, tol=1e-3)
    return abs(g.value - ex) < 1e-6 * (1 + abs(ex)) and abs(l.value - ex) < 1e-4 * (
        1 + abs(ex)
    )


CHECKS = [
    ("kronecker multiplicativity", _check_kronecker),
    ("L-values and Cohen numbers", _check_L_values),
    ("hurwitz two-algorithm agreement", _check_hurwitz),
    ("definite reduction idempotence", _check_reduction),
    ("pell minimality", _check_pell),
    ("hypothesis detection", _check_hypothesis),
    ("exact trace vs closed formula", _check_exact_oracle),
    ("milgram and weil unitarity", _check_milgram_weil),
    ("siegel theta splitting", _check_siegel_split),
    ("gauss 2F1 oracles", _check_hyp2f1),
    ("meromorphic-form proportionality", _check_proportionality),
    ("three-way trace agreement (2,12)", _check_three_way),
]


def run() -> tuple[int, int]:
    passed = failed = 0
    for name, fn in CHECKS:
        try:
            ok = fn()
        except Exception as e:  # a crashing check is a failing check
            print(f"FAIL {name}: {type(e).__name__}: {e}")
            failed += 1
            continue
        if ok:
            print(f"PASS {name}")
            passed += 1
        else:
            print(f"FAIL {name}")
            failed += 1
    return passed, failed
