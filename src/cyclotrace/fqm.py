"""Even lattices, discriminant forms, and vector-valued sparse q-series.

The series type VVSeries stores a map (component, rational exponent) ->
rational coefficient together with a weight tag and a pi-power tag, and
supports tensor products, restriction and trace along a finite-index
sublattice, Rankin--Cohen brackets, and the constant-term pairing.  The
integer sum behind a product (PairSum) is set up once and is read one
coefficient at a time, or summed over every pair into the product
series.  Everything here is exact: Python ints and Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import (
    GammaPole,
    IncompatibleEmbedding,
    InsufficientPrecision,
    NotPositiveDefinite,
    SingularGram,
)

__all__ = [
    "IntLattice",
    "FQModule",
    "LatticeEmbedding",
    "VVSeries",
    "theta_series",
    "tensor",
    "restrict",
    "trace_up",
    "PairSum",
    "rankin_cohen_sum",
    "rankin_cohen",
    "ct_pairing",
]


# ----------------------------------------------------------------------
# exact linear algebra helpers (small integer matrices)


def _mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _charpoly(M) -> list[int]:
    """The coefficients c_0..c_n of det(xI - M) for an integer matrix M.

    Faddeev--LeVerrier: with N_1 = I, c_(n-j) = -tr(M N_j)/j and
    N_(j+1) = M N_j + c_(n-j) I.  Each trace is divisible by its j, so
    the arithmetic stays in integers.
    """
    n = len(M)
    c = [0] * n + [1]
    N = _identity(n)
    for j in range(1, n + 1):
        N = _mat_mul(M, N)
        trace = sum(N[i][i] for i in range(n))
        if trace % j:
            raise RuntimeError(f"tr(M N_{j}) = {trace} is not divisible by {j}")
        c[n - j] = -trace // j
        for i in range(n):
            N[i][i] += c[n - j]
    return c


def _det(M) -> int:
    return (-1) ** len(M) * _charpoly(M)[0]


def _sign_changes(coeffs) -> int:
    signs = [x > 0 for x in coeffs if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _signature(gram) -> tuple[int, int]:
    """(number of positive, number of negative) eigenvalues, exact.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs counts them exactly: the sign changes of p(x) give the positive
    roots, those of p(-x) the negative ones, and zero eigenvalues are the
    vanishing low coefficients.
    """
    c = _charpoly(gram)
    return _sign_changes(c), _sign_changes([x if i % 2 == 0 else -x for i, x in enumerate(c)])


def smith_normal_form(M):
    """U, D, V with U M V = D diagonal, d1 | d2 | ..., U, V unimodular.

    One loop per pivot (Cohen, GTM 138, 2.4.4): the smallest nonzero
    entry of the remaining block becomes the pivot, and its row and
    column are cleared by division with remainder.  A nonzero remainder
    is the next, smaller pivot.  Once the row and column are clear, a
    remaining entry that the pivot does not divide has its row added to
    the pivot row, and the pivot is chosen again.
    """
    A = [row[:] for row in M]
    n, m = len(A), len(A[0])
    U, V = _identity(n), _identity(m)

    def add_row(src, dst, f):
        A[dst] = [x + f * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + f * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, f):
        for row in A + V:
            row[dst] += f * row[src]

    for t in range(min(n, m)):
        while True:
            block = [(abs(A[i][j]), i, j) for i in range(t, n) for j in range(t, m) if A[i][j]]
            if not block:
                return U, A, V
            _, i, j = min(block)
            A[t], A[i], U[t], U[i] = A[i], A[t], U[i], U[t]
            for row in A + V:
                row[t], row[j] = row[j], row[t]
            p = A[t][t]
            for i in range(t + 1, n):
                add_row(t, i, -(A[i][t] // p))
            for j in range(t + 1, m):
                add_col(t, j, -(A[t][j] // p))
            if any(A[i][t] for i in range(t + 1, n)) or any(A[t][j] for j in range(t + 1, m)):
                continue
            i = next((i for i in range(t + 1, n) for j in range(t + 1, m) if A[i][j] % p), None)
            if i is None:
                break
            add_row(i, t, 1)
        if A[t][t] < 0:
            A[t], U[t] = [-x for x in A[t]], [-x for x in U[t]]
    return U, A, V


# ----------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class IntLattice:
    """An even lattice given by a symmetric integer Gram matrix.

    The quadratic form is q(x) = x . gram . x / 2, integer-valued on
    lattice vectors because the diagonal is even.
    """

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = self.gram
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("gram must be square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram must be symmetric")
        if any(g[i][i] % 2 for i in range(n)):
            raise ValueError("gram diagonal must be even (even lattice)")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return _det(self.gram)

    @property
    def signature(self) -> tuple[int, int]:
        return _signature(self.gram)

    @property
    def is_positive_definite(self) -> bool:
        return self.signature == (self.rank, 0)

    def q(self, v) -> Fraction:
        return self.bilinear(v, v) / 2

    def bilinear(self, v, w) -> Fraction:
        acc = Fraction(0)
        g = self.gram
        n = self.rank
        for i in range(n):
            for j in range(n):
                acc += Fraction(v[i]) * g[i][j] * Fraction(w[j])
        return acc


class FQModule:
    """Finite quadratic module L'/L of an even lattice.

    Elements are tuples t over Z/d_i, the elementary divisors of the Gram
    matrix G.  With U G V = diag(d) its Smith form, the coset t has the
    representative x = V (t_i / d_i) in the dual lattice, since then
    U G x = t; a dual vector x lies in the coset U G x mod d.  Each
    element knows its representative, its Q/Z-valued quadratic form
    value, and the bilinear form mod 1.  Direct sums keep the factor
    structure so that component tuples of a tensor product are
    concatenations.
    """

    def __init__(self, lattice: IntLattice):
        if lattice.det == 0:
            raise SingularGram("gram matrix is singular")
        self.lattice = lattice
        n = lattice.rank
        U, Dm, V = smith_normal_form([list(r) for r in lattice.gram])
        self.orders = tuple(Dm[i][i] for i in range(n))
        self._u = U
        self.elements = [tuple(t) for t in product(*(range(d) for d in self.orders))]
        self.index = {t: i for i, t in enumerate(self.elements)}
        self._rep = {
            t: tuple(sum(V[i][j] * Fraction(t[j], self.orders[j]) for j in range(n)) for i in range(n))
            for t in self.elements
        }
        self._q = [lattice.q(self._rep[t]) % 1 for t in self.elements]
        pos, neg = lattice.signature
        self.signature_mod_8 = (pos - neg) % 8

    @property
    def order(self) -> int:
        return len(self.elements)

    def rep_vector(self, t) -> tuple[Fraction, ...]:
        """A representative of the coset t in the dual lattice (basis coords)."""
        return self._rep[tuple(t)]

    def q_value(self, t) -> Fraction:
        return self._q[self.index[tuple(t)]]

    def bilinear_value(self, t1, t2) -> Fraction:
        return self.lattice.bilinear(self.rep_vector(t1), self.rep_vector(t2)) % 1

    def check_support(self, c: int, n: int, den: int, sigma: int) -> None:
        """Raise ValueError unless the exponent n/den on component c is
        congruent to sigma q(c) (mod 1)."""
        q = self._q[c]
        # n / den - sigma q is an integer when den q.denominator divides its numerator
        if (n * q.denominator - sigma * q.numerator * den) % (den * q.denominator):
            raise ValueError(f"exponent {Fraction(n, den)} on component {c} is not "
                             f"congruent to {sigma * q % 1} (mod 1)")

    def element_of_vector(self, x) -> tuple:
        """The coset of a dual vector x (lattice basis coords, Fractions)."""
        n = self.lattice.rank
        g = self.lattice.gram
        m = [sum(Fraction(g[i][j]) * x[j] for j in range(n)) for i in range(n)]
        if any(mi.denominator != 1 for mi in m):
            raise ValueError(f"{x} is not in the dual lattice")
        return tuple(sum(u * int(mj) for u, mj in zip(row, m)) % d for row, d in zip(self._u, self.orders))

    @staticmethod
    def direct_sum(A: "FQModule", B: "FQModule") -> "FQModule":
        ga, gb = A.lattice.gram, B.lattice.gram
        na, nb = len(ga), len(gb)
        rows = [tuple(r) + (0,) * nb for r in ga] + [(0,) * na + tuple(r) for r in gb]
        out = FQModule.__new__(FQModule)
        out.lattice = IntLattice(tuple(rows))
        out.orders = A.orders + B.orders
        out.elements = [ta + tb for ta in A.elements for tb in B.elements]
        out.index = {t: i for i, t in enumerate(out.elements)}
        out._rep = {
            (ta + tb): A._rep[ta] + B._rep[tb] for ta in A.elements for tb in B.elements
        }
        out._q = [(qa + qb) % 1 for qa in A._q for qb in B._q]
        # block-diagonal U: each block finds its own components of the coset
        out._u = [list(r) + [0] * nb for r in A._u] + [[0] * na + list(r) for r in B._u]
        out.signature_mod_8 = (A.signature_mod_8 + B.signature_mod_8) % 8
        return out


# ----------------------------------------------------------------------
# vector-valued sparse q-series


@dataclass
class VVSeries:
    """Sparse vector-valued q-series.

    terms maps (component index, scaled exponent) -> coefficient, a
    Fraction or an int, where the true exponent is scaled/den.  The
    series represents pi^pi_power * sum c(mu, n) q^n e_mu, complete for
    exponents < prec.
    sigma in {+1, -1, None} tags which of n ≡ ±q(mu) (mod 1) the
    exponents satisfy (None when mixed, e.g. after tensor products).

    terms is never changed after construction: the integer view that
    `integers` fills on first use is kept with the series and read again
    by every later product, pairing or scaled_floor.
    """

    module: FQModule
    weight: Fraction
    den: int
    terms: dict
    prec: Fraction
    pi_power: int = 0
    sigma: int | None = None
    _integers: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def integers(self) -> tuple[int, dict, dict]:
        """(L, by_key, by_comp): the least common denominator L of the
        coefficients, the integer numerator L c of each key, and each
        component's (scaled exponent, L c) pairs by rising exponent."""
        if self._integers is None:
            L = math.lcm(*(v.denominator for v in self.terms.values()))
            by_key = {key: v.numerator * (L // v.denominator) for key, v in self.terms.items()}
            by_comp = {}
            for (c, n), v in sorted(by_key.items()):
                by_comp.setdefault(c, []).append((n, v))
            self._integers = (L, by_key, by_comp)
        return self._integers

    def coefficient(self, comp: int, exponent: Fraction) -> Fraction:
        n = Fraction(exponent) * self.den
        if n.denominator != 1:
            return Fraction(0)
        return self.terms.get((comp, int(n)), Fraction(0))

    def scaled_floor(self) -> int:
        """The least scaled exponent of a term (the exponent times den), 0
        without terms."""
        return min((pairs[0][0] for pairs in self.integers()[2].values()), default=0)

    def validate_support(self) -> None:
        """Check the sigma-congruence n ≡ sigma q(mu) (mod 1) for all terms."""
        if self.sigma is None:
            return
        for (c, n) in self.terms:
            self.module.check_support(c, n, self.den, self.sigma)


def theta_series(M: FQModule, prec) -> VVSeries:
    """Vector-valued theta series of the positive definite even lattice K
    of the module M = K'/K.

    Coefficient at (mu, n) counts vectors of norm q = n in the coset
    K + mu; weight rank/2, complete for exponents < prec.  The count is
    exact integer arithmetic.  With s the lcm of the denominators of mu's
    representative, y = s x is integral for x in the coset, and x is kept
    when y^T G y < B = 2 s^2 prec.  By Cauchy--Schwarz in the G-norm such
    a y has y_i^2 < B adj(G)_ii / det G, so y_i runs over the residues
    ≡ s mu_i (mod s) in that box.
    """
    K = M.lattice
    if not K.is_positive_definite:
        raise NotPositiveDefinite("theta series needs a positive definite lattice")
    prec = Fraction(prec)
    den = _exponent_denominator(M)
    g, n, det = K.gram, K.rank, K.det
    # adj(G)_ii is the determinant of the minor without row and column i
    adj = [_det([[g[a][b] for b in range(n) if b != i] for a in range(n) if a != i]) for i in range(n)]
    # y^T G y as its nonzero upper-triangular terms
    terms = [(i, j, g[i][j] * (1 if i == j else 2)) for i in range(n) for j in range(i, n) if g[i][j]]
    counts = {}
    for ci, t in enumerate(M.elements):
        shift = M.rep_vector(t)
        s = math.lcm(*(x.denominator for x in shift))
        bound = 2 * s * s * prec
        box = []
        for i in range(n):
            r = math.isqrt(max(bound * adj[i] // det, 0))
            box.append(range(-r + (int(shift[i] * s) + r) % s, r + 1, s))
        top, bottom = bound.numerator, bound.denominator
        for y in product(*box):
            norm = 0
            for i, j, c in terms:
                norm += c * y[i] * y[j]
            if norm * bottom >= top:
                continue
            # q(x) = norm / (2 s^2) ≡ q(mu) (mod 1), so q(x) * den is an integer
            e, rem = divmod(norm * den, 2 * s * s)
            if rem:
                raise RuntimeError(f"norm {Fraction(norm, 2 * s * s)} of a vector in coset {t} "
                                   f"is not a multiple of 1/{den}")
            counts[(ci, e)] = counts.get((ci, e), 0) + 1
    return VVSeries(
        module=M,
        weight=Fraction(K.rank, 2),
        den=den,
        terms={key: Fraction(c) for key, c in counts.items()},
        prec=prec,
        pi_power=0,
        sigma=+1,
    )


def _exponent_denominator(M: FQModule) -> int:
    return math.lcm(*(q.denominator for q in M._q))


class PairSum:
    """The integer sum behind a product of two series, set up once.

    The product sum P(e_f, e_g) f(mu, e_f) g(nu, e_g) q^(e_f+e_g) e_(mu,nu)
    runs over pairs of terms, with the pair weight
    P(e_f, e_g) = sum_r C[r] e_f^r e_g^(n-r) / L, n = len(C) - 1, for
    integers C[r] and L, over the direct-sum module, whose component
    (mu, nu) has index mu |g| + nu; the product has the given weight.

    The sum runs in integers.  With the exponents x_f, x_g in units of
    1/den, den the lcm of the two series' denominators, and the integer
    views L_f f, L_g g of the series, a pair adds
    W(x_f, x_g) (L_f f) (L_g g), W(x, y) = sum_r C[r] x^r y^(n-r), to its
    coefficient, which is that sum divided once by
    scale = L den^n L_f L_g.  Everything a coefficient reads is taken here
    once: the integer views, f's least exponent, the scale, and the
    precision prec below which the product is complete, kept as the
    integer ratio prec den = top / top_den.  `coefficient` reads one
    coefficient; `series` sums every pair into the product series.
    """

    def __init__(self, f: VVSeries, g: VVSeries, C, L: int, weight: Fraction):
        self.f, self.g, self.C, self.weight = f, g, tuple(C), weight
        self.den = den = math.lcm(f.den, g.den)
        fs, gs = den // f.den, den // g.den
        self.ng = len(g.module.elements)
        self._order = len(f.module.elements) * self.ng
        Lf, f_key, _ = f.integers()
        Lg, _, g_comp = g.integers()
        self.scale = L * den ** (len(C) - 1) * Lf * Lg
        self.pi_power = f.pi_power + g.pi_power
        # the least exponents in units of 1/den
        self._xf_min = f.scaled_floor() * fs
        xg_min = g.scaled_floor() * gs
        self.prec = min(f.prec + Fraction(xg_min, den), g.prec + Fraction(self._xf_min, den))
        self._top, self._top_den = self.prec.numerator * den, self.prec.denominator
        # f's numerators by component and exponent, g's by component in
        # rising exponent, both in units of 1/den
        self._f_comp = {}
        for (c, n), v in f_key.items():
            self._f_comp.setdefault(c, {})[n * fs] = v
        self._g_comp = {c: [(m * gs, v) for m, v in pairs] for c, pairs in g_comp.items()}

    def pair_weight(self, x: int, y: int) -> int:
        """W(x, y), by Horner's rule in x over the falling powers of y."""
        C = self.C
        acc, ypow = C[-1], 1
        for c in C[-2::-1]:
            ypow *= y
            acc = acc * x + c * ypow
        return acc

    def coefficient(self, c: int, N) -> int:
        """The product's coefficient at component c and exponent N/den,
        times scale.

        N is an int, or a Fraction for an exponent off the 1/den grid, where
        the coefficient is 0.  Walks the g-terms on c's g-component, up to
        the first whose f partner would lie below f's least exponent, and
        looks up their f partners.  A component outside the product's
        module raises ValueError, and an exponent at or beyond prec
        InsufficientPrecision.
        """
        if not 0 <= c < self._order:
            raise ValueError(f"component {c} is not one of the product's {self._order}")
        if N * self._top_den >= self._top:
            e = Fraction(N, self.den)
            raise InsufficientPrecision(
                f"product complete only below {self.prec}, target exponent {e}", required=e)
        cf, cg = divmod(c, self.ng)
        fc = self._f_comp.get(cf, {})
        acc, xg_max = 0, N - self._xf_min
        for xg, vg in self._g_comp.get(cg, ()):
            if xg > xg_max:
                break
            vf = fc.get(N - xg)
            if vf:
                acc += self.pair_weight(N - xg, xg) * vg * vf
        return acc

    def series(self) -> VVSeries:
        """The whole product below prec, over the direct sum of the two
        modules: every pair of terms summed, each coefficient divided by
        scale once."""
        # each component's g-terms rise in exponent, so a walk stops at the
        # first whose exponent is too large
        top = -(-self._top // self._top_den)  # x_f + x_g < prec den
        sums = {}
        for cf, by_exponent in self._f_comp.items():
            for xf, vf in by_exponent.items():
                for cg, pairs in self._g_comp.items():
                    for xg, vg in pairs:
                        if xf + xg >= top:
                            break
                        key = (cf * self.ng + cg, xf + xg)
                        sums[key] = sums.get(key, 0) + self.pair_weight(xf, xg) * vf * vg
        f, g = self.f, self.g
        return VVSeries(
            module=FQModule.direct_sum(f.module, g.module),
            weight=self.weight,
            den=self.den,
            terms={key: Fraction(v, self.scale) for key, v in sums.items() if v},
            prec=self.prec,
            pi_power=self.pi_power,
            sigma=f.sigma if f.sigma == g.sigma else None,
        )


def tensor(f: VVSeries, g: VVSeries) -> VVSeries:
    """Componentwise tensor product over the direct-sum module."""
    return PairSum(f, g, (1,), 1, f.weight + g.weight).series()


@dataclass(frozen=True)
class LatticeEmbedding:
    """A finite-index inclusion K ⊂ L of even lattices of equal rank.

    `matrix` has the K-basis vectors as columns, written in L-coordinates.
    `fibers` maps each component index of L'/L to the indices of the
    components of L'/K above it.
    """

    source: FQModule
    target: FQModule
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        K, L = self.source.lattice, self.target.lattice
        n = K.rank
        if L.rank != n:
            raise IncompatibleEmbedding("ranks differ")
        M = [list(r) for r in self.matrix]
        GL = [list(r) for r in L.gram]
        MT = [[M[j][i] for j in range(n)] for i in range(n)]
        gram_K = _mat_mul(_mat_mul(MT, GL), M)
        if any(gram_K[i][j] != K.gram[i][j] for i in range(n) for j in range(n)):
            raise IncompatibleEmbedding("gram matrices incompatible with the inclusion")
        idx = self.index
        if idx * idx * self.target.order != self.source.order:
            raise IncompatibleEmbedding("index^2 |L'/L| != |K'/K|")
        # source index -> index of its image in L'/L, None off L'/K
        bar_index = tuple(
            self.target.index[self.bar(t)] if self.in_target_dual(t) else None
            for t in self.source.elements
        )
        fibers = {}
        for ti, ci in enumerate(bar_index):
            if ci is not None:
                fibers.setdefault(ci, []).append(ti)
        object.__setattr__(self, "_bar_index", bar_index)
        object.__setattr__(self, "fibers", fibers)

    @property
    def index(self) -> int:
        d = _det(self.matrix)
        if d == 0:
            raise RuntimeError("the embedding matrix is singular")
        return abs(d)

    def source_vector_in_target(self, x) -> tuple[Fraction, ...]:
        n = self.source.lattice.rank
        return tuple(
            sum(Fraction(self.matrix[i][j]) * x[j] for j in range(n)) for i in range(n)
        )

    def in_target_dual(self, t_source) -> bool:
        """Does the coset t of K'/K lie in L'/K?"""
        xL = self.source_vector_in_target(self.source.rep_vector(t_source))
        GL = self.target.lattice.gram
        n = len(GL)
        for i in range(n):
            if sum(Fraction(GL[i][j]) * xL[j] for j in range(n)).denominator != 1:
                return False
        return True

    def bar(self, t_source) -> tuple:
        """The image of t in L'/L (requires t in L'/K)."""
        xL = self.source_vector_in_target(self.source.rep_vector(t_source))
        return self.target.element_of_vector(xL)


def restrict(f: VVSeries, E: LatticeEmbedding) -> VVSeries:
    """Restriction along K ⊂ L: component mu of K'/K reads f at its image
    in L'/L when mu is in L'/K, and is zero otherwise."""
    if f.module.orders != E.target.orders:
        raise IncompatibleEmbedding("series does not live on the target module")
    den = math.lcm(f.den, _exponent_denominator(E.source))
    step = den // f.den
    terms = {
        (ti, n * step): v
        for (c, n), v in f.terms.items()
        for ti in E.fibers.get(c, ())
    }
    return VVSeries(
        module=E.source,
        weight=f.weight,
        den=den,
        terms=terms,
        prec=f.prec,
        pi_power=f.pi_power,
        sigma=f.sigma,
    )


def trace_up(g: VVSeries, E: LatticeEmbedding) -> VVSeries:
    """Trace along K ⊂ L: component mu-bar of L'/L sums g over the fiber
    of L'/K -> L'/L above it."""
    if g.module.orders != E.source.orders:
        raise IncompatibleEmbedding("series does not live on the source module")
    den = math.lcm(g.den, _exponent_denominator(E.target))
    step = den // g.den
    terms = {}
    for (c, n), v in g.terms.items():
        ci = E._bar_index[c]
        if ci is not None:
            terms[(ci, n * step)] = terms.get((ci, n * step), Fraction(0)) + v
    terms = {k: v for k, v in terms.items() if v != 0}
    return VVSeries(
        module=E.target,
        weight=g.weight,
        den=den,
        terms=terms,
        prec=g.prec,
        pi_power=g.pi_power,
        sigma=g.sigma,
    )


def rankin_cohen_sum(f: VVSeries, g: VVSeries, n: int) -> PairSum:
    """The integer sum behind the n-th Rankin--Cohen bracket of f and g.

    [f, g]_n = sum_{r+s=n} (-1)^r C(kappa, s) C(ell, r) theta^r f ⊗ theta^s g,
    with theta = q d/dq and
    C(kappa, s) = Gamma(kappa+n)/(Gamma(s+1) Gamma(kappa+n-s)), the
    product of kappa + n - i over i = 1..s divided by s!; weight
    kappa + ell + 2n.  A pair of terms at exponents e_f, e_g is weighted by
    sum_r (-1)^r C(kappa, s) C(ell, r) e_f^r e_g^s.  With kappa = a/b and
    ell = c/e in lowest terms, these coefficients times b^n e^n n! are the
    integers (-1)^r binom(n, r) b^r e^s prod_i (a + b (n - i)) prod_j (c + e (n - j)),
    i = 1..s, j = 1..r.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b, c, e = f.weight.numerator, f.weight.denominator, g.weight.numerator, g.weight.denominator
    for num, den in ((a, b), (c, e)):
        if den == 1 and num + n <= 0:
            raise GammaPole(f"Gamma ratio undefined for weight {num} with n={n}")
    C = [(-1) ** r * math.comb(n, r) * b**r * e ** (n - r)
         * math.prod(a + b * (n - i) for i in range(1, n - r + 1))
         * math.prod(c + e * (n - j) for j in range(1, r + 1))
         for r in range(n + 1)]
    return PairSum(f, g, C, b**n * e**n * math.factorial(n),
                   Fraction(a * e + c * b + 2 * n * b * e, b * e))


def rankin_cohen(f: VVSeries, g: VVSeries, n: int) -> VVSeries:
    """n-th Rankin--Cohen bracket [f, g]_n as a series (see rankin_cohen_sum)."""
    return rankin_cohen_sum(f, g, n).series()


def ct_pairing(f: VVSeries, g: VVSeries) -> tuple[Fraction, int]:
    """Constant term of the bilinear pairing: sum_mu sum_n f(mu,n) g(mu,-n).

    Components are identified through equal element tuples; the result is
    (rational value, combined pi power).  Raises InsufficientPrecision if
    either series could have unknown coefficients meeting the other's
    stored ones.
    """
    if f.module.orders != g.module.orders:
        raise ValueError("component groups differ")
    # each series must be complete above minus the other's least exponent
    for name, series, other in (("second", g, f), ("first", f, g)):
        floor = other.scaled_floor()
        if series.prec.numerator * other.den <= -floor * series.prec.denominator:
            need = Fraction(-floor, other.den)
            raise InsufficientPrecision(
                f"{name} series complete only below {series.prec}, need > {need}", required=need)
    # summed over the integer views, divided once
    Lf, fi, _ = f.integers()
    Lg, gi, _ = g.integers()
    total = 0
    for (c, nf), vf in fi.items():
        ng, rem = divmod(-nf * g.den, f.den)
        if not rem:
            total += vf * gi.get((c, ng), 0)
    return Fraction(total, Lf * Lg), f.pi_power + g.pi_power
