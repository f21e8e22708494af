import cmath
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from cyclotrace.errors import (
    GammaPole,
    IncompatibleEmbedding,
    InsufficientPrecision,
    NotPositiveDefinite,
    SingularGram,
)
from cyclotrace.fqm import (
    FQModule,
    IntLattice,
    LatticeEmbedding,
    VVSeries,
    ct_pairing,
    rankin_cohen,
    rankin_cohen_sum,
    restrict,
    smith_normal_form,
    tensor,
    theta_series,
    trace_up,
)
from cyclotrace.selftest import eval_series, milgram_defect, siegel_theta_eval, weil_matrices
from cyclotrace.special_forms import (
    embedding_PN_in_L,
    lattice_L,
    lattice_N_minus,
    lattice_P,
    module_K,
    module_K_minus,
    module_L,
    module_N_minus,
    module_P,
    theta_N_minus,
)

GOLDEN = Path(__file__).parent / "golden"


def test_smith_normal_form_random():
    from cyclotrace.fqm import _det, _mat_mul

    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 4)
        while True:
            M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if _det(M) != 0:
                break
        U, D, V = smith_normal_form(M)
        assert _mat_mul(_mat_mul(U, M), V) == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1
        diag = [D[i][i] for i in range(n)]
        assert all(x > 0 for x in diag)
        assert all(diag[i + 1] % diag[i] == 0 for i in range(n - 1))


def test_det_and_signature_against_numpy():
    # numpy as the independent oracle: a nonzero eigenvalue of an integer
    # matrix this small is above 1e-5, so the 1e-9 threshold is safe
    from cyclotrace.fqm import _det

    rng = random.Random(23)
    singular = 0
    for trial in range(1000):
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-1, 1)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if trial % 4 == 0 and n > 1:
            # a repeated row and column make it singular
            g[-1] = g[0][:-1] + [g[0][0]]
            for i in range(n - 1):
                g[i][-1] = g[-1][i]
        A = np.array(g, dtype=float)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert _det(M) == round(np.linalg.det(np.array(M, dtype=float)))
        L = IntLattice(tuple(map(tuple, g)))
        assert _det(g) == L.det == round(np.linalg.det(A))
        eig = np.linalg.eigvalsh(A)
        assert L.signature == (int(np.sum(eig > 1e-9)), int(np.sum(eig < -1e-9)))
        singular += L.det == 0
    assert singular > 250


def test_fqmodule_round_trips_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        while True:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = 2 * rng.randint(-3, 3)
                for j in range(i):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            L = IntLattice(tuple(map(tuple, g)))
            if 0 < abs(L.det) <= 100:
                break
        M = FQModule(L)
        assert M.order == abs(L.det)
        for t in M.elements:
            rep = M.rep_vector(t)
            assert M.element_of_vector(rep) == t
            assert all(sum(g[i][j] * rep[j] for j in range(n)).denominator == 1 for i in range(n))
            assert M.q_value(t) == L.q(rep) - math.floor(L.q(rep))
            # the coset ignores lattice vectors, and so does q mod 1
            shifted = [x + rng.randint(-3, 3) for x in rep]
            assert M.element_of_vector(shifted) == t
            assert (L.q(shifted) - M.q_value(t)).denominator == 1


def test_direct_sum_coset_round_trip():
    # a direct sum finds the coset of a dual vector blockwise, as its
    # summands do
    for M in (module_K(), module_K_minus()):
        for t in M.elements:
            assert M.element_of_vector(M.rep_vector(t)) == t


def test_disc_group_examples():
    MP = module_P()
    assert MP.orders == (2,)
    assert sorted(MP.q_value(t) for t in MP.elements) == [Fraction(0), Fraction(1, 4)]
    MNm = module_N_minus()
    assert MNm.orders == (2, 2)
    reps = {t: MNm.rep_vector(t) for t in MNm.elements}
    half = [t for t, v in reps.items() if v in ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)))]
    assert all(MNm.q_value(t) == Fraction(1, 4) for t in half)
    # unimodular gram: trivial group
    assert FQModule(IntLattice(((0, 1), (1, 0)))).order == 1
    with pytest.raises(SingularGram):
        FQModule(IntLattice(((2, 2), (2, 2))))
    ML = module_L()
    assert ML.order == 2
    assert sorted(ML.q_value(t) for t in ML.elements) == [Fraction(0), Fraction(3, 4)]
    assert ML.lattice.signature == (1, 2)


def test_milgram():
    for M in (module_P(), module_N_minus(), module_L(), module_K()):
        assert milgram_defect(M) < 1e-10
    fancy = FQModule(IntLattice(((4, 1), (1, 4))))
    assert milgram_defect(fancy) < 1e-10


def test_theta_series_examples():
    th = theta_N_minus(3)
    M = th.module
    i00 = M.index[(0, 0)]
    assert th.coefficient(i00, 0) == 1
    assert th.coefficient(i00, 1) == 4
    assert th.coefficient(i00, 2) == 4
    thP = theta_series(module_P(), 2)
    # component of the half-integer coset: two vectors ±1/2 of norm 1/4
    i1 = module_P().index[(1,)]
    assert thP.coefficient(i1, Fraction(1, 4)) == 2
    assert thP.coefficient(module_P().index[(0,)], 0) == 1
    th.validate_support()
    thP.validate_support()
    with pytest.raises(NotPositiveDefinite):
        theta_series(FQModule(IntLattice(((-2,),))), 3)


def test_theta_trace_compatibility_positive_definite():
    # Theta_L = (Theta_K)^L for the index-3 inclusion 3Z ⊂ Z (gram 18 ⊂ 2)
    L = IntLattice(((2,),))
    K = IntLattice(((18,),))
    ML, MK = FQModule(L), FQModule(K)
    E = LatticeEmbedding(source=MK, target=ML, matrix=((3,),))
    assert E.index == 3
    prec = 110
    thL = theta_series(ML, prec)
    thK = theta_series(MK, prec)
    lifted = trace_up(thK, E)
    assert lifted.module is ML
    exps = {Fraction(n, thL.den) for (_, n) in thL.terms}
    exps |= {Fraction(n, lifted.den) for (_, n) in lifted.terms}
    assert len(exps) >= 20
    for e in exps:
        for ci in range(ML.order):
            assert thL.coefficient(ci, e) == lifted.coefficient(ci, e), (ci, e)


def test_tensor_examples():
    MP = module_P()
    MNm = module_N_minus()
    one = VVSeries(module=MP, weight=Fraction(0), den=4, terms={(0, 0): Fraction(1)},
                   prec=Fraction(10**9))
    f = VVSeries(module=MP, weight=Fraction(1, 2), den=4,
                 terms={(1, 5): Fraction(3)}, prec=Fraction(10**9))
    t = tensor(f, one)
    # identity up to the component relabelling mu -> (mu, 0)
    assert list(t.terms.items()) == [((1 * MP.order + 0, 5), Fraction(3))]
    assert t.module.elements[1 * MP.order + 0] == (1, 0)
    # q^a e_mu ⊗ q^b e_nu = q^(a+b) e_(mu,nu)
    g = VVSeries(module=MNm, weight=Fraction(1), den=4,
                 terms={(2, 9): Fraction(5)}, prec=Fraction(10**9))
    tg = tensor(f, g)
    assert tg.terms == {(1 * 4 + 2, 14): Fraction(15)}
    assert tg.weight == Fraction(3, 2)
    # Theta_P ⊗ Theta_{N^-} coefficient at ((0,0,0), 2) by brute convolution
    thP = theta_series(MP, 5)
    thN = theta_N_minus(5)
    tt = tensor(thP, thN)
    want = sum(
        thP.coefficient(0, j) * thN.coefficient(0, 2 - j) for j in range(3)
    )
    assert tt.coefficient(0, 2) == want
    assert want == 1 * 4 + 2 * 4  # r_P(0) r_N(2) + r_P(1) r_N(1); r_P(2) = 0


def test_restrict_examples():
    E = embedding_PN_in_L()
    th = theta_N_minus(4)
    # index-1 embedding acts as the identity
    MNm = module_N_minus()
    E1 = LatticeEmbedding(source=FQModule(lattice_N_minus()), target=MNm,
                          matrix=((1, 0), (0, 1)))
    assert restrict(th, E1).terms == th.terms
    assert trace_up(th, E1).terms == th.terms
    # the concrete index-2 embedding spreads e_0 to <= |L'/K| = 4 components
    ML = module_L()
    f = VVSeries(module=ML, weight=Fraction(1), den=4,
                 terms={(0, 4): Fraction(1), (1, 3): Fraction(2)}, prec=Fraction(10))
    fK = restrict(f, E)
    comps = {c for (c, _) in fK.terms}
    assert len(comps) == 4
    assert len([c for (c, n) in fK.terms if n == 4]) == 2
    in_dual = [t for t in E.source.elements if E.in_target_dual(t)]
    assert len(in_dual) == 4  # = [L:K] |L'/L|


def test_adjointness_random():
    E = embedding_PN_in_L()
    ML, MK = module_L(), module_K()
    rng = random.Random(7)
    for _ in range(100):
        fterms = {
            (rng.randrange(ML.order), rng.randint(-8, 8)): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        }
        gterms = {
            (rng.randrange(MK.order), rng.randint(-8, 8)): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        }
        f = VVSeries(module=ML, weight=Fraction(1), den=4, terms=fterms, prec=Fraction(100))
        g = VVSeries(module=MK, weight=Fraction(1), den=4, terms=gterms, prec=Fraction(100))
        assert ct_pairing(f, trace_up(g, E)) == ct_pairing(restrict(f, E), g)


def test_embedding_validation():
    with pytest.raises(IncompatibleEmbedding):
        LatticeEmbedding(source=module_K(), target=module_L(),
                         matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_rankin_cohen():
    MP, MNm = module_P(), module_N_minus()
    thP = theta_series(MP, 6)
    thN = theta_N_minus(6)
    # n = 0 reduces to the tensor product
    assert rankin_cohen(thP, thN, 0).terms == tensor(thP, thN).terms
    # [q^a e_mu, q^b e_nu]_1 = (kappa b - ell a) q^(a+b)
    f = VVSeries(module=MP, weight=Fraction(3, 2), den=4,
                 terms={(0, 8): Fraction(1)}, prec=Fraction(10**9))
    g = VVSeries(module=MNm, weight=Fraction(1), den=4,
                 terms={(2, 12): Fraction(1)}, prec=Fraction(10**9))
    rc = rankin_cohen(f, g, 1)
    assert rc.terms == {(2, 20): Fraction(3, 2) * 3 - Fraction(1) * 2}
    assert rc.weight == Fraction(3, 2) + 1 + 2
    # constant term of [f, g]_n vanishes for n >= 1 on non-negative supports
    br = rankin_cohen(thP, thN, 1)
    assert all(n > 0 for (_, n) in br.terms)
    # bilinearity
    f2 = VVSeries(module=MP, weight=Fraction(3, 2), den=4,
                  terms={(1, 5): Fraction(2)}, prec=Fraction(10**9))
    s = VVSeries(module=MP, weight=Fraction(3, 2), den=4,
                 terms={**f.terms, **f2.terms}, prec=min(f.prec, f2.prec))
    left = rankin_cohen(s, g, 1)
    r1, r2 = rankin_cohen(f, g, 1), rankin_cohen(f2, g, 1)
    combined = dict(r1.terms)
    for kk, vv in r2.terms.items():
        combined[kk] = combined.get(kk, Fraction(0)) + vv
    assert left.terms == {k: v for k, v in combined.items() if v != 0}
    with pytest.raises(GammaPole):
        bad = VVSeries(module=MP, weight=Fraction(-2), den=4,
                       terms={(0, 0): Fraction(1)}, prec=Fraction(10))
        rankin_cohen(bad, g, 1)


def test_ct_pairing():
    MP = module_P()
    a = VVSeries(module=MP, weight=Fraction(1), den=4,
                 terms={(1, -4): Fraction(1)}, prec=Fraction(1))
    b = VVSeries(module=MP, weight=Fraction(1), den=4,
                 terms={(1, 4): Fraction(1)}, prec=Fraction(2))
    assert ct_pairing(a, b) == (Fraction(1), 0)
    # distinct components pair to zero
    b2 = VVSeries(module=MP, weight=Fraction(1), den=4,
                  terms={(0, 4): Fraction(1)}, prec=Fraction(2))
    assert ct_pairing(a, b2)[0] == 0
    # symmetry on finite series
    rng = random.Random(12)
    for _ in range(50):
        t1 = {(rng.randrange(2), rng.randint(-6, 6)): Fraction(rng.randint(-4, 4))
              for _ in range(4)}
        t2 = {(rng.randrange(2), rng.randint(-6, 6)): Fraction(rng.randint(-4, 4))
              for _ in range(4)}
        u = VVSeries(module=MP, weight=Fraction(1), den=4, terms=t1, prec=Fraction(99))
        v = VVSeries(module=MP, weight=Fraction(1), den=4, terms=t2, prec=Fraction(99))
        assert ct_pairing(u, v) == ct_pairing(v, u)
    with pytest.raises(InsufficientPrecision) as err:
        ct_pairing(a, VVSeries(module=MP, weight=Fraction(1), den=4,
                               terms={}, prec=Fraction(1, 2)))
    assert err.value.required == 1
    # a series must be complete strictly above minus the other's least
    # exponent, on either side of the pairing
    for prec, raises in ((Fraction(1), True), (Fraction(9, 8), False)):
        other = VVSeries(module=MP, weight=Fraction(1), den=8, terms={}, prec=prec)
        for f, g in ((a, other), (other, a)):
            if raises:
                with pytest.raises(InsufficientPrecision) as err:
                    ct_pairing(f, g)
                assert err.value.required == 1
            else:
                assert ct_pairing(f, g) == (0, 0)


def test_validate_support_is_the_congruence():
    # the integer check against n/den ≡ sigma q(mu) (mod 1) in Fractions
    for M in (module_P(), module_L(), module_N_minus(), module_K_minus()):
        for den, sigma in product((4, 8), (1, -1)):
            for c in range(M.order):
                for n in range(-9, 10):
                    f = VVSeries(module=M, weight=Fraction(1), den=den,
                                 terms={(c, n): Fraction(1)}, prec=Fraction(3), sigma=sigma)
                    if Fraction(n, den) % 1 == sigma * M._q[c] % 1:
                        f.validate_support()
                    else:
                        with pytest.raises(ValueError):
                            f.validate_support()


def test_weil_matrices():
    triv = FQModule(IntLattice(((0, 1), (1, 0))))
    T, S = weil_matrices(triv)
    assert T.shape == (1, 1) and abs(T[0, 0] - 1) < 1e-14
    assert abs(abs(S[0, 0]) - 1) < 1e-14
    T, S = weil_matrices(module_P())
    assert abs(T[0, 0] - 1) < 1e-14 and abs(T[1, 1] - 1j) < 1e-14
    for M in (module_P(), module_N_minus(), module_L()):
        T, S = weil_matrices(M)
        assert np.max(np.abs(T @ T.conj().T - np.eye(M.order))) < 1e-12
        assert np.max(np.abs(S @ S.conj().T - np.eye(M.order))) < 1e-12
        # S^2 is a global phase times the negation permutation
        P = np.zeros_like(S)
        for i, t in enumerate(M.elements):
            P[M.index[tuple((-a) % d for a, d in zip(t, M.orders))], i] = 1
        R = (S @ S) @ np.linalg.inv(P)
        assert np.max(np.abs(R - R[0, 0] * np.eye(M.order))) < 1e-12


def test_theta_transformation_vs_weil():
    tau0 = 0.3 + 1j
    for K, M in ((lattice_P(), module_P()), (lattice_N_minus(), module_N_minus())):
        th = theta_series(M, 60)
        T, S = weil_matrices(M)
        n = K.rank
        assert np.max(np.abs(eval_series(th, tau0 + 1) - T @ eval_series(th, tau0))) < 1e-6
        lhs = eval_series(th, -1 / tau0)
        rhs = cmath.sqrt(tau0) ** n * (S @ eval_series(th, tau0))
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_siegel_theta_splitting():
    tau, z = 2j, 1j
    MK = module_K()
    FK = ((-1, 1, 0), (0, 0, 2), (-1, -1, 0))
    thK = siegel_theta_eval(MK, FK, tau, z, cutoff=9)
    thP = eval_series(theta_series(module_P(), 40), tau)
    thNm = eval_series(theta_N_minus(40), tau)
    split = np.array([p * tau.imag * np.conj(q) for p in thP for q in thNm])
    assert np.max(np.abs(thK - split)) < 1e-8
    # trace compatibility with the full lattice
    ML = module_L()
    FL = ((1, 0, 0), (0, 2, 0), (0, 0, 1))
    thL = siegel_theta_eval(ML, FL, tau, z, cutoff=9)
    E = embedding_PN_in_L()
    agg = np.zeros(ML.order, dtype=complex)
    for ti, t in enumerate(MK.elements):
        if E.in_target_dual(t):
            agg[ML.index[E.bar(t)]] += thK[ti]
    assert np.max(np.abs(thL - agg)) < 1e-8
    # doubling the cutoff is inert (Gaussian decay)
    assert np.max(np.abs(thL - siegel_theta_eval(ML, FL, tau, z, cutoff=18))) < 1e-10
    # tau -> tau + 1 matches the Weil T action
    T, _ = weil_matrices(ML)
    thL_T = siegel_theta_eval(ML, FL, tau + 1, z, cutoff=9)
    assert np.max(np.abs(thL_T - T @ thL)) < 1e-8


def _to_text(f):
    """The golden files' line format: a header, then one tab-separated
    line (component, scaled exponent, coefficient) per term."""
    head = (
        f"weight={f.weight} pi_power={f.pi_power} "
        f"sigma={f.sigma if f.sigma is not None else 0} "
        f"den={f.den} prec={Fraction(f.prec) * f.den}"
    )
    lines = [head]
    for (c, n) in sorted(f.terms):
        v = f.terms[(c, n)]
        lines.append(f"{c}\t{n}\t{v.numerator}/{v.denominator}")
    return "\n".join(lines) + "\n"


def _from_text(text, module):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = dict(item.split("=") for item in lines[0].split())
    den = int(head["den"])
    terms = {}
    for ln in lines[1:]:
        c, n, v = ln.split("\t")
        num, denom = v.split("/")
        terms[(int(c), int(n))] = Fraction(int(num), int(denom))
    return VVSeries(
        module=module,
        weight=Fraction(head["weight"]),
        den=den,
        terms=terms,
        prec=Fraction(head["prec"]) / den,
        pi_power=int(head["pi_power"]),
        sigma=int(head["sigma"]) or None,
    )


def test_serialization_roundtrip_and_golden():
    th = theta_N_minus(3)
    text = _to_text(th)
    back = _from_text(text, module_N_minus())
    assert back.terms == th.terms
    assert back.weight == th.weight and back.prec == th.prec
    assert back.pi_power == th.pi_power and back.sigma == th.sigma
    golden = (GOLDEN / "theta_n_minus_prec3.txt").read_text()
    assert text == golden
    from cyclotrace.special_forms import hurwitz_gen

    g = hurwitz_gen(2)
    golden_g = (GOLDEN / "hurwitz_gen_prec2.txt").read_text()
    assert _to_text(g) == golden_g


def _keys(series):
    """Every (component, exponent) key of a series."""
    return [(c, Fraction(n, series.den)) for (c, n) in series.terms]


def _read(s, c, e):
    """The coefficient of s's product at component c and exponent e, read
    as rhs_trace reads it: one walk, over the scale.  An exponent off the
    product's 1/den grid goes in as a Fraction."""
    N = Fraction(e) * s.den
    return Fraction(s.coefficient(c, N.numerator if N.denominator == 1 else N), s.scale)


def test_integer_view_equals_the_fraction_terms():
    from cyclotrace.special_forms import build_fD, hurwitz_gen

    f = VVSeries(module=module_P(), weight=Fraction(1, 2), den=4,
                 terms={(1, -3): Fraction(-1, 3), (0, 4): Fraction(5), (0, -8): Fraction(2),
                        (1, 1): Fraction(7, 2)}, prec=Fraction(3))
    empty = VVSeries(module=module_P(), weight=Fraction(1), den=4, terms={}, prec=Fraction(3))
    fK = restrict(build_fD(4, 21), embedding_PN_in_L())
    g = VVSeries(module=module_N_minus(), weight=Fraction(1), den=2,
                 terms={(0, -2): Fraction(1), (3, -1): Fraction(4), (0, 0): Fraction(-2),
                        (2, 3): Fraction(1, 5), (3, 1): Fraction(3)}, prec=Fraction(2))
    products = [rankin_cohen(f, g, n) for n in (0, 1, 2)] + [tensor(f, g)]
    for series in (hurwitz_gen(Fraction(52)), theta_N_minus(Fraction(52)), fK, f, empty,
                   *products):
        L, by_key, by_comp = series.integers()
        assert series.integers() is series.integers()
        assert {key: Fraction(v, L) for key, v in by_key.items()} == series.terms
        assert math.lcm(*(Fraction(v, L).denominator for v in by_key.values())) == L
        assert by_comp == {c: sorted((n, v) for (cc, n), v in by_key.items() if cc == c)
                           for c in {c for (c, _) in by_key}}
        floor = min((n for (_, n) in series.terms), default=0)
        assert series.scaled_floor() == floor


def _bracket_by_fractions(f, g, n):
    """[f, g]_n straight from its definition in Fractions, over every pair."""
    kappa, ell = f.weight, g.weight

    def binom(x, s):
        return math.prod((x + n - i for i in range(1, s + 1)), start=Fraction(1)) / math.factorial(s)

    ng, den = len(g.module.elements), math.lcm(f.den, g.den)
    prec = min(f.prec + Fraction(min(n for (_, n) in g.terms), g.den),
               g.prec + Fraction(min(n for (_, n) in f.terms), f.den))
    out = {}
    for (cf, nf), vf in f.terms.items():
        for (cg, m), vg in g.terms.items():
            ef, eg = Fraction(nf, f.den), Fraction(m, g.den)
            if ef + eg < prec:
                w = sum((-1) ** r * binom(kappa, n - r) * binom(ell, r) * ef**r * eg ** (n - r)
                        for r in range(n + 1))
                key = (cf * ng + cg, int((ef + eg) * den))
                out[key] = out.get(key, 0) + w * vf * vg
    return {key: v for key, v in out.items() if v}


def test_bracket_matches_its_fraction_definition():
    from cyclotrace.special_forms import hurwitz_gen

    h, th = hurwitz_gen(Fraction(13)), theta_N_minus(Fraction(13))
    f = VVSeries(module=module_P(), weight=Fraction(1, 2), den=4,
                 terms={(0, -8): Fraction(2), (1, -3): Fraction(-1, 3), (0, 4): Fraction(5),
                        (1, 1): Fraction(7, 2)}, prec=Fraction(3))
    g = VVSeries(module=module_N_minus(), weight=Fraction(1), den=2,
                 terms={(0, -2): Fraction(1), (3, -1): Fraction(4), (0, 0): Fraction(-2),
                        (2, 3): Fraction(1, 5), (3, 1): Fraction(3)}, prec=Fraction(2))
    for n in (0, 1, 2, 3):
        assert rankin_cohen(h, th, n).terms == _bracket_by_fractions(h, th, n)
        assert rankin_cohen(f, g, n).terms == _bracket_by_fractions(f, g, n)


def _check_bracket_sum(Ds, degrees, hand_built):
    """Read the bracket sum of h and Theta_{N^-} for each D in Ds at the keys
    the pairing with f_D reads, plus a spread of others, some with
    coefficient 0, and one that is not an exponent of the bracket; then read
    the hand-built pairs (f, g) at every key of their full bracket and at
    exponents the bracket does not have.  Every read must equal the full
    bracket's coefficient."""
    from cyclotrace.special_forms import build_fD, hurwitz_gen

    MK = module_K_minus()
    E = embedding_PN_in_L()
    for D in Ds:
        prec = Fraction(D + 4, 4)
        h, th = hurwitz_gen(prec), theta_N_minus(prec)
        read = [(c, -e) for (c, e) in _keys(restrict(build_fD(4, D), E))]
        wanted = read + [(c, Fraction(m, 4)) for c in range(MK.order) for m in range(0, D + 1)
                         if m % 5 == 0 or m % 7 == 0]
        wanted += [(3, Fraction(1, 3))]
        for n in degrees:
            s, full = rankin_cohen_sum(h, th, n), rankin_cohen(h, th, n)
            for c, e in wanted:
                assert _read(s, c, e) == full.coefficient(c, e), (D, n, c, e)
            assert any(_read(s, c, e) for (c, e) in read)
            assert (s.den, s.prec, s.weight, s.pi_power) == (full.den, full.prec, full.weight,
                                                             full.pi_power)
    absent = [(0, Fraction(-7, 4)), (5, Fraction(-1, 2)), (7, Fraction(-1, 3))]
    for f, g in hand_built:
        for n in degrees:
            s, full = rankin_cohen_sum(f, g, n), rankin_cohen(f, g, n)
            assert full.terms
            for c, e in _keys(full) + absent:
                assert _read(s, c, e) == full.coefficient(c, e), (n, c, e)
            assert not any(full.coefficient(c, e) for c, e in absent)


def _hand_built_pair(extra_f=None, extra_g=None):
    """A pair with f.den = 4, g.den = 2 and negative exponents."""
    f = VVSeries(module=module_P(), weight=Fraction(1, 2), den=4,
                 terms={(0, -8): Fraction(2), (1, -3): Fraction(-1, 3), (0, 4): Fraction(5),
                        (1, 1): Fraction(7, 2), **(extra_f or {})}, prec=Fraction(3))
    g = VVSeries(module=module_N_minus(), weight=Fraction(1), den=2,
                 terms={(0, -2): Fraction(1), (3, -1): Fraction(4), (0, 0): Fraction(-2),
                        (2, 3): Fraction(1, 5), (3, 1): Fraction(3), **(extra_g or {})},
                 prec=Fraction(2))
    return f, g


def test_targeted_bracket_matches_full():
    # the targeted reads rhs_trace makes, through rankin_cohen_sum(...).coefficient,
    # at degrees 0 and 1, which the traces read
    _check_bracket_sum((12, 21, 44, 76, 149), (0, 1), [_hand_built_pair()])


def test_targeted_bracket_integer_weights_at_higher_degree():
    # degrees 2 and 3 scale the pair weights by den^n and a coefficient
    # lcm L > 1, which the traces (n = 0, 1) barely exercise
    pair = _hand_built_pair({(1, -7): Fraction(3, 4)}, {(1, -3): Fraction(2, 7)})
    _check_bracket_sum((21, 76), (2, 3), [pair])


def test_bracket_sum_matches_the_full_bracket_for_every_trace():
    # the keys rhs_trace reads, for k in {2, 4} and every non-square D <= 200,
    # off the one bracket sum of one pair of series
    from cyclotrace.special_forms import ExactSeries, build_fD

    series = ExactSeries(200)
    E = embedding_PN_in_L()
    for k in (2, 4):
        s = series.bracket(k)
        full = rankin_cohen(series.hurwitz, series.theta, k // 2 - 1)
        for D in range(5, 201):
            if D % 4 not in (0, 1) or math.isqrt(D) ** 2 == D:
                continue
            for c, e in _keys(restrict(build_fD(k, D), E)):
                assert _read(s, c, -e) == full.coefficient(c, -e), (k, D, c, e)


def test_bracket_sum_precision():
    thP = theta_series(module_P(), Fraction(9, 2))
    thN = theta_N_minus(Fraction(7, 2))
    s = rankin_cohen_sum(thP, thN, 1)
    assert s.prec == rankin_cohen(thP, thN, 1).prec == Fraction(7, 2)
    _read(s, 0, 0)
    _read(s, 0, Fraction(13, 4))
    # at and above prec, on the exponent grid and off it
    for e in (Fraction(7, 2), Fraction(15, 4), 40, Fraction(11, 3)):
        with pytest.raises(InsufficientPrecision) as err:
            _read(s, 5, e)
        assert err.value.required == e


def test_bracket_sum_rejects_components_outside_its_module():
    # a component outside P ⊕ N^- is an error, not a zero coefficient
    from cyclotrace.special_forms import ExactSeries

    s = ExactSeries(40).bracket(4)
    order = module_K_minus().order
    assert isinstance(s.coefficient(order - 1, s.den), int)
    for c in (-1, order, 99):
        with pytest.raises(ValueError, match="component"):
            s.coefficient(c, 0)


def _brute_theta(K, prec):
    """Count coset vectors in a box that contains the ellipsoid q(x) < prec."""
    M = FQModule(K)
    n = K.rank
    ginv = np.linalg.inv(np.array(K.gram, dtype=float))
    half = [int(np.sqrt(2 * float(prec) * ginv[i][i])) + 2 for i in range(n)]
    den = math.lcm(*(M.q_value(t).denominator for t in M.elements))
    counts = {}
    for ci, t in enumerate(M.elements):
        shift = M.rep_vector(t)
        # x = shift + v ranges over the box |x_i| <= half_i + 1 (shifts need not be reduced)
        lo = [-math.floor(shift[i]) - half[i] - 1 for i in range(n)]
        s = math.lcm(*(x.denominator for x in shift))
        for v in product(*(range(lo[i], lo[i] + 2 * half[i] + 3) for i in range(n))):
            y = [int((shift[i] + v[i]) * s) for i in range(n)]
            qv = Fraction(sum(y[i] * K.gram[i][j] * y[j] for i in range(n) for j in range(n)), 2 * s * s)
            if qv < prec:
                key = (ci, int(qv * den))
                counts[key] = counts.get(key, 0) + 1
    return M, counts


def test_theta_series_matches_box_count():
    cases = [
        (((2, -1), (-1, 2)), Fraction(37, 3)),
        (((4, 1), (1, 4)), Fraction(21, 2)),
        (((4, 2, 1), (2, 6, 1), (1, 1, 8)), Fraction(17, 4)),
        (lattice_P().gram, Fraction(83, 7)),
        (((2, 1), (1, 50)), Fraction(40)),
        (((2, 0, 0), (0, 2, 0), (0, 0, 2)), Fraction(60)),
        (lattice_N_minus().gram, Fraction(203, 2)),
    ]
    for gram, prec in cases:
        K = IntLattice(gram)
        M, counts = _brute_theta(K, prec)
        th = theta_series(M, prec)
        assert th.terms == counts, gram
        assert th.prec == prec and all(Fraction(n, th.den) < prec for (_, n) in th.terms)
        th.validate_support()


def test_theta_series_stops_strictly_below_prec():
    # the vectors x = ±1 of P have norm exactly 1
    i0 = module_P().index[(0,)]
    assert theta_series(module_P(), 1).coefficient(i0, 1) == 0
    assert theta_series(module_P(), Fraction(5, 4)).coefficient(i0, 1) == 2
    for prec in (0, -1):
        th = theta_series(module_P(), prec)
        assert th.terms == {} and th.prec == prec
