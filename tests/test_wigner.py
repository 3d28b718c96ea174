import itertools
import math
import random
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, assume, strategies as st

from gfkit import exact
from gfkit.exact import SR_ZERO, SqrtRational, HalfInt, neg_one_pow, triangle_ok
from gfkit.polytools import (TruncatedSeries, poly_mul, poly_pow, poly_const,
                             poly_var, poly_add)
from gfkit.wigner import (NineJLabel, SixJLabel, ThreeJLabel, clebsch_gordan,
                          gaunt, gf_coefficient, ninej, regge_orbit,
                          sixj_gf, sixj_oracle, threej,
                          threej_second_route, threej_second_route_square,
                          wigner_3j, wigner_6j_gf, wigner_6j_oracle,
                          wigner_9j, _G_TERMS, _TAU_VARS, _sum_signed_sqrts,
                          _threej_core)


def sr(c, r=1):
    return SqrtRational(Fraction(c), Fraction(r))


def valid_threej_labels(tjmax):
    for tj1 in range(tjmax + 1):
        for tj2 in range(tjmax + 1):
            for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, tjmax) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm3 = -tm1 - tm2
                        if abs(tm3) <= tj3:
                            yield tj1, tj2, tj3, tm1, tm2, tm3


def random_threej_label(rng, lo, hi):
    """A valid 3j label with every 2j in [lo, hi]."""
    while True:
        tj1, tj2 = rng.randint(lo, hi), rng.randint(lo, hi)
        lo3, hi3 = max(abs(tj1 - tj2), lo), min(tj1 + tj2, hi)
        if lo3 > hi3:
            continue
        tj3 = rng.randint(lo3, hi3)
        if (tj1 + tj2 + tj3) % 2:
            continue
        tm1, tm2 = rng.randrange(-tj1, tj1 + 1, 2), rng.randrange(-tj2, tj2 + 1, 2)
        if abs(tm1 + tm2) <= tj3:
            return tj1, tj2, tj3, tm1, tm2, -tm1 - tm2


def sign_of(v):
    return (v.coeff > 0) - (v.coeff < 0)


def test_threej_examples():
    assert threej(0, 0, 0, 0, 0, 0) == sr(1)
    assert threej(2, 2, 2, 2, -2, 0) == SqrtRational(1, Fraction(1, 6))
    assert threej(2, 2, 4, 0, 0, 0) == SqrtRational(1, Fraction(2, 15))
    assert wigner_3j(ThreeJLabel((2, 2, 2), (2, -2, 0))) == SqrtRational(1, Fraction(1, 6))


def test_threej_selection_rules_return_zero():
    assert threej(2, 2, 2, 2, 2, -4) == SR_ZERO          # |m3| > j3
    assert threej(2, 2, 8, 0, 0, 0) == SR_ZERO           # triangle
    assert threej(2, 2, 2, 2, 2, -2) == SR_ZERO          # m sum != 0
    assert threej(1, 1, 1, 1, -1, 0) == SR_ZERO          # odd doubled sum


def test_threej_second_route_spotcheck():
    random.seed(0)
    labels = list(valid_threej_labels(6))
    for lab in random.sample(labels, 200):
        assert threej(*lab) == threej_second_route(*lab)


def test_threej_equals_from_square_of_its_core():
    # the factor-free canonical value is the from_square form, label by label
    for lab in valid_threej_labels(10):
        sign, sq, value = _threej_core(*lab)
        assert threej(*lab) is value
        want = SqrtRational.from_square(sq, sign)
        assert (value.coeff, value.radicand) == (want.coeff, want.radicand)


def test_kernels_never_factor(monkeypatch):
    def refuse(n, *args):
        raise AssertionError(f"square_free_split({n}) called")

    monkeypatch.setattr(exact, "square_free_split", refuse)
    _threej_core.cache_clear()
    rng = random.Random(8)
    for _ in range(40):
        lab = random_threej_label(rng, 0, 60)
        v = threej(*lab)
        assert v.square() == _threej_core(*lab)[1]
        tj1, tj2, tj3, tm1, tm2, tm3 = lab
        cg = clebsch_gordan(*(HalfInt(x) for x in (tj1, tm1, tj2, tm2, tj3, -tm3)))
        assert cg.square() == v.square() * (tj3 + 1)
    for _ in range(20):
        tj1, tj2, tj3, _, _, _ = random_threej_label(rng, 0, 60)
        tl1 = rng.randint(0, 60)
        l2s = [x for x in range(61) if triangle_ok(tl1, x, tj3)]
        tl2 = rng.choice(l2s)
        l3s = [x for x in range(61) if triangle_ok(tj1, tl2, x) and triangle_ok(tl1, tj2, x)]
        if l3s:
            sixj_gf(tj1, tj2, tj3, tl1, tl2, rng.choice(l3s))
    assert sixj_gf(*[60] * 6)


def test_threej_large_j_against_second_route():
    # 2j in 300..400: each 3j well under a second; checked by exact square
    # and sign against the second route, which takes no square root
    rng = random.Random(9)
    _threej_core.cache_clear()
    for _ in range(30):
        lab = random_threej_label(rng, 300, 400)
        t0 = time.perf_counter()
        v = threej(*lab)
        assert time.perf_counter() - t0 < 1.0, lab
        sign, sq = threej_second_route_square(*lab)
        assert (sign_of(v), v.square()) == (sign, sq), lab


def racah_sixj_square(tj1, tj2, tj3, tl1, tl2, tl3):
    """(sign, exact square) of the 6j from Racah's formula with math.factorial."""
    f = math.factorial
    tri = ((tj1, tj2, tj3), (tj1, tl2, tl3), (tl1, tj2, tl3), (tl1, tl2, tj3))
    delta2 = Fraction(1)
    for a, b, c in tri:
        delta2 *= Fraction(f((a + b - c) // 2) * f((a - b + c) // 2) * f((b + c - a) // 2),
                           f((a + b + c) // 2 + 1))
    alphas = [sum(t) // 2 for t in tri]
    betas = [(tj1 + tj2 + tl1 + tl2) // 2, (tj2 + tj3 + tl2 + tl3) // 2,
             (tj3 + tj1 + tl3 + tl1) // 2]
    s = 0
    for t in range(max(alphas), min(betas) + 1):
        den = math.prod(f(t - a) for a in alphas) * math.prod(f(b - t) for b in betas)
        s += Fraction((-1) ** t * f(t + 1), den)
    return (s > 0) - (s < 0), s * s * delta2


def test_sixj_gf_large_j():
    for tj in (100, 200, 400):
        t0 = time.perf_counter()
        v = sixj_gf(*[tj] * 6)
        assert time.perf_counter() - t0 < 2.0, tj
        assert (sign_of(v), v.square()) == racah_sixj_square(*[tj] * 6)


def test_sixj_gf_orthogonality_large_j():
    # sum_x (2x+1)(2f+1) {a b x; c d f}{a b x; c d f'} = delta(f, f'), exactly
    a, b, c, d = 99, 101, 97, 103
    xs = range(max(abs(a - b), abs(c - d)), min(a + b, c + d) + 1, 2)
    for f, fp in ((100, 100), (4, 4), (100, 102), (4, 198), (50, 150)):
        total = SR_ZERO
        for x in xs:
            total = total + sixj_gf(a, b, x, c, d, f) * sixj_gf(a, b, x, c, d, fp) \
                * ((x + 1) * (f + 1))
        assert total == (SqrtRational(1) if f == fp else SR_ZERO), (f, fp)


def test_clebsch_gordan_examples():
    h = HalfInt
    assert clebsch_gordan(h(3), h(1), h(0), h(0), h(3), h(1)) == sr(1)
    assert clebsch_gordan(h(1), h(1), h(1), h(-1), h(0), h(0)) == \
        SqrtRational(1, Fraction(1, 2))
    assert clebsch_gordan(h(2), h(2), h(2), h(-2), h(0), h(0)) == \
        SqrtRational(1, Fraction(1, 3))


def test_threej_orthogonality_small():
    # sum_{m1,m2} (2j3+1) 3j(j3,m3) 3j(j3',m3') = delta exactly, two_j <= 4
    for tj1, tj2 in itertools.product(range(0, 5), repeat=2):
        tj3s = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        for tj3, tj3p in itertools.product(tj3s, repeat=2):
            for tm3 in range(-min(tj3, tj3p), min(tj3, tj3p) + 1, 2):
                acc = SR_ZERO
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = -tm3 - tm1
                    if abs(tm2) > tj2:
                        continue
                    a = threej(tj1, tj2, tj3, tm1, tm2, tm3)
                    b = threej(tj1, tj2, tj3p, tm1, tm2, tm3)
                    if a and b:
                        acc = acc + (a * b) * (tj3 + 1)
                expected = sr(1) if tj3 == tj3p else SR_ZERO
                assert acc == expected


def test_threej_column_swap_phase():
    random.seed(1)
    labels = list(valid_threej_labels(6))
    for lab in random.sample(labels, 120):
        tj1, tj2, tj3, tm1, tm2, tm3 = lab
        J = (tj1 + tj2 + tj3) // 2
        swapped = threej(tj2, tj1, tj3, tm2, tm1, tm3)
        orig = threej(*lab)
        if J % 2:
            assert swapped == -orig
        else:
            assert swapped == orig


def test_sixj_examples_both_routes():
    assert sixj_oracle(0, 2, 2, 2, 2, 2) == sr(Fraction(-1, 3))
    assert sixj_oracle(2, 2, 2, 2, 2, 2) == sr(Fraction(1, 6))
    assert sixj_gf(2, 2, 2, 2, 2, 2) == sr(Fraction(1, 6))
    assert sixj_gf(0, 2, 2, 2, 2, 2) == sr(Fraction(-1, 3))
    assert sixj_gf(0, 0, 0, 0, 0, 0) == sr(1)
    # triad failure
    assert sixj_oracle(0, 2, 4, 2, 2, 2) == SR_ZERO
    lab = SixJLabel((2, 2, 2, 2, 2, 2))
    assert wigner_6j_oracle(lab) == wigner_6j_gf(lab)


def sixj_fixed_m(tj1, tj2, tj3, tl1, tl2, tl3, tm1, tm2, tm3) -> SqrtRational:
    """6j from the mu-sum at one fixed magnetic configuration, divided by the
    accompanying 3j; used to assert the m-independence of the contraction."""
    s0, q0, v0 = _threej_core(tj1, tj2, tj3, tm1, tm2, tm3)
    if s0 == 0:
        raise ValueError("chosen (m1,m2,m3) has vanishing 3j")
    terms = []
    for tmu1 in range(-tl1, tl1 + 1, 2):
        for tmu2 in range(-tl2, tl2 + 1, 2):
            s1, q1, _ = _threej_core(tl1, tl2, tj3, tmu1, -tmu2, tm3)
            if s1 == 0:
                continue
            tmu3 = tmu2 + tm1
            if abs(tmu3) > tl3:
                continue
            s2, q2, _ = _threej_core(tl2, tl3, tj1, tmu2, -tmu3, tm1)
            if s2 == 0:
                continue
            s3, q3, _ = _threej_core(tl3, tl1, tj2, tmu3, -tmu1, tm2)
            if s3 == 0:
                continue
            ph = neg_one_pow((tl1 + tl2 + tl3 + tmu1 + tmu2 + tmu3) // 2)
            terms.append((ph * s1 * s2 * s3, q1 * q2 * q3))
    return _sum_signed_sqrts(terms) / v0


def test_sixj_fixed_m_self_consistency():
    # two different free-m conventions agree with the full contraction
    cases = [(2, 2, 2, 2, 2, 2), (2, 4, 2, 2, 2, 4), (1, 1, 2, 3, 3, 2)]
    for lab in cases:
        full = sixj_oracle(*lab)
        tj1, tj2, tj3 = lab[:3]
        seen = []
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > tj3 or not threej(tj1, tj2, tj3, tm1, tm2, tm3):
                    continue
                seen.append(sixj_fixed_m(*lab, tm1, tm2, tm3))
                if len(seen) == 2:
                    break
            if len(seen) == 2:
                break
        assert len(seen) == 2
        assert seen[0] == seen[1] == full


def test_sixj_route_agreement_medium():
    for lab in itertools.product(range(0, 4), repeat=6):
        assert sixj_oracle(*lab) == sixj_gf(*lab)


def test_sixj_symmetries():
    random.seed(3)
    pool = [lab for lab in itertools.product(range(0, 5), repeat=6)
            if sixj_oracle(*lab)]
    for lab in random.sample(pool, 25):
        j1, j2, j3, l1, l2, l3 = lab
        v = sixj_gf(*lab)
        # column permutations
        assert sixj_gf(j2, j1, j3, l2, l1, l3) == v
        assert sixj_gf(j3, j2, j1, l3, l2, l1) == v
        # swap upper/lower pairs in two columns
        assert sixj_gf(l1, l2, j3, j1, j2, l3) == v
        assert sixj_gf(l1, j2, l3, j1, l2, j3) == v


def sixj_triads_ok(lab):
    j1, j2, j3, l1, l2, l3 = lab
    return all(triangle_ok(*t) for t in
               ((j1, j2, j3), (j1, l2, l3), (l1, j2, l3), (l1, l2, j3)))


def test_gf_coefficient_matches_series():
    # the closed form against the literal series of g^-2 at degree 18, the
    # total degree of every 6j label with 2j <= 3
    one = (0,) * 12
    g = {one: 1}
    for t in _G_TERMS:
        g[t] = 1
    gs = TruncatedSeries(g, 12, 18)
    series = gs.mul(gs).inverse()
    for expo in series.terms:
        assert gf_coefficient(expo) == series.coefficient(expo)

    # tau_{i nu} carries J_i - 2 j_{i nu} for triad i and the pair (i, nu)
    pair_of = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 5, (1, 3): 4, (2, 3): 3}
    for lab in itertools.product(range(4), repeat=6):
        j1, j2, j3, l1, l2, l3 = lab
        triads = ((j1, j2, j3), (j1, l2, l3), (l1, j2, l3), (l1, l2, j3))
        if any(sum(t) % 2 for t in triads):
            continue
        expo = []
        for v in _TAU_VARS:
            i, nu = int(v[0]), int(v[1])
            expo.append(sum(triads[i]) // 2 - lab[pair_of[min(i, nu), max(i, nu)]])
        assert sum(expo) <= 18
        assert gf_coefficient(expo) == series.coefficient(expo)


def test_sixj_gf_under_threads():
    labels = [lab for lab in itertools.product(range(7), repeat=6)
              if sixj_triads_ok(lab)]
    random.Random(4).shuffle(labels)
    expected = [sixj_oracle(*lab) for lab in labels]
    got = [None] * len(labels)
    n_threads = 4

    def work(first):
        for k in range(first, len(labels), n_threads):
            got[k] = sixj_gf(*labels[k])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_sixj_gf_all_equal_large():
    assert sixj_gf(*[8] * 6) == sr(Fraction(-467, 18018))
    assert sixj_gf(*[10] * 6) == sr(Fraction(1, 52))
    for tj in (8, 10, 20):
        assert sixj_gf(*[tj] * 6) == sixj_oracle(*[tj] * 6)


@st.composite
def sixj_labels(draw, tjmax=12):
    def third(a, b):
        return draw(st.sampled_from(range(abs(a - b), min(a + b, tjmax) + 1, 2)))

    j1, j2, l1 = (draw(st.integers(0, tjmax)) for _ in range(3))
    j3 = third(j1, j2)
    l2 = third(l1, j3)
    l3s = [x for x in range(tjmax + 1) if triangle_ok(j1, l2, x) and triangle_ok(l1, j2, x)]
    assume(l3s)
    return j1, j2, j3, l1, l2, draw(st.sampled_from(l3s))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sixj_labels())
def test_sixj_gf_tetrahedral_symmetry(lab):
    # the 24 images: any column permutation, and upper/lower swapped in two columns
    v = sixj_gf(*lab)
    cols = list(zip(lab[:3], lab[3:]))
    for perm in itertools.permutations(range(3)):
        for flips in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            image = [cols[c][::-1] if f else cols[c] for c, f in zip(perm, flips)]
            assert sixj_gf(*(u for u, _ in image), *(w for _, w in image)) == v


def test_ninej_examples():
    assert ninej(((0, 0, 0), (0, 0, 0), (0, 0, 0))) == sr(1)
    # row triad triangle failure
    assert ninej(((2, 2, 6), (2, 2, 2), (2, 2, 2))) == SR_ZERO
    v = wigner_9j(NineJLabel(((1, 1, 2), (1, 1, 2), (2, 2, 0))))
    assert v == sr(Fraction(-1, 18))


def test_ninej_independent_summation_order():
    # 9j = sum_x (-1)^{2x}(2x+1) {a b c; f i x}{d e f; b x h}{g h i; x a d}
    def ninej_via_sixj(rows):
        (a, b, c), (d, e, f), (g, h, i) = rows
        lo = max(abs(a - i), abs(b - f), abs(d - h))
        hi = min(a + i, b + f, d + h)
        total = SR_ZERO
        for x in range(lo, hi + 1, 2):
            term = sixj_oracle(a, b, c, f, i, x) * \
                sixj_oracle(d, e, f, b, x, h) * \
                sixj_oracle(g, h, i, x, a, d)
            term = term * Fraction((x + 1) * (-1 if x % 2 else 1))
            if term:
                total = total + term if total else term
        return total if total else SR_ZERO

    cases = [((1, 1, 2), (1, 1, 2), (2, 2, 0)),
             ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
             ((1, 1, 2), (1, 1, 2), (2, 2, 4)),
             ((2, 1, 1), (1, 2, 1), (1, 1, 2))]
    for rows in cases:
        assert ninej(rows) == ninej_via_sixj(rows)


def test_ninej_symmetries():
    rows = ((2, 2, 2), (2, 2, 2), (2, 2, 0))
    v = ninej(rows)
    transposed = tuple(tuple(rows[r][c] for r in range(3)) for c in range(3))
    assert ninej(transposed) == v
    swapped = (rows[1], rows[0], rows[2])
    J = sum(sum(r) for r in rows) // 2
    assert ninej(swapped) == (v if J % 2 == 0 else -v)


def test_regge_orbit_examples():
    orb = regge_orbit(ThreeJLabel((0, 0, 0), (0, 0, 0)))
    assert len(orb) == 1
    seed = ThreeJLabel((2, 2, 2), (2, -2, 0))
    v0 = wigner_3j(seed)
    orb = regge_orbit(seed)
    assert 72 % len(orb) == 0
    for lab, phase in orb:
        assert wigner_3j(lab) == v0 * phase


def test_regge_orbits_random():
    random.seed(7)
    labels = [lab for lab in valid_threej_labels(6)]
    for lab in random.sample(labels, 60):
        seed = ThreeJLabel(lab[:3], lab[3:])
        v0 = wigner_3j(seed)
        orb = regge_orbit(seed)
        assert 72 % len(orb) == 0
        for member, phase in orb:
            assert wigner_3j(member) == v0 * phase


def test_gaunt():
    assert gaunt(0, 0, 0, 0, 0, 0) == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-14)
    assert gaunt(1, 0, 0, 0, 0, 0) == 0.0
    # quadrature oracle for (1,0,1,0,2,0)
    from gfkit.special import spherical_harmonic
    from gfkit.quadrature import gauss_legendre
    ct, w = np.polynomial.legendre.leggauss(60)
    theta = np.arccos(ct)
    val = 2 * math.pi * np.sum(
        w * (spherical_harmonic(1, 0, theta, 0.0).real ** 2
             * spherical_harmonic(2, 0, theta, 0.0).real))
    assert gaunt(1, 0, 1, 0, 2, 0) == pytest.approx(float(val), abs=1e-10)


def test_threej_from_invariant_polynomial():
    # third route: expand the invariant
    # [u2 u3]^{J-2j1} [u3 u1]^{J-2j2} [u1 u2]^{J-2j3} /
    #   sqrt((J+1)! (J-2j1)! (J-2j2)! (J-2j3)!)
    # and read the coefficient of prod phi_{j_i m_i}(u^i).
    def bracket(i, j):
        # [u^i u^j] = xi_i eta_j - eta_i xi_j over 6 vars (xi1,eta1,...)
        a = poly_mul(poly_var(2 * i, 6), poly_var(2 * j + 1, 6))
        b = poly_mul(poly_var(2 * i + 1, 6), poly_var(2 * j, 6))
        return poly_add(a, {k: -v for k, v in b.items()})

    def invariant_threej(tj1, tj2, tj3, tm1, tm2, tm3):
        J2 = tj1 + tj2 + tj3
        k1, k2, k3 = (J2 - 2 * tj1) // 2, (J2 - 2 * tj2) // 2, (J2 - 2 * tj3) // 2
        H = poly_mul(poly_pow(bracket(1, 2), k1, 6),
                     poly_mul(poly_pow(bracket(2, 0), k2, 6),
                              poly_pow(bracket(0, 1), k3, 6)))
        expo = ((tj1 + tm1) // 2, (tj1 - tm1) // 2,
                (tj2 + tm2) // 2, (tj2 - tm2) // 2,
                (tj3 + tm3) // 2, (tj3 - tm3) // 2)
        coef = H.get(expo, Fraction(0))
        if coef == 0:
            return SR_ZERO
        normsq = Fraction(math.factorial(J2 // 2 + 1))
        for k in (k1, k2, k3):
            normsq *= math.factorial(k)
        monos = Fraction(1)
        for e in expo:
            monos *= math.factorial(e)
        # 3j = coef * sqrt(prod (j+-m)!) / sqrt((J+1)! prod(J-2j)!)
        return SqrtRational.from_square(coef * coef * monos / normsq,
                                        1 if coef > 0 else -1)

    random.seed(2)
    labels = list(valid_threej_labels(4))
    for lab in random.sample(labels, 80):
        assert invariant_threej(*lab) == threej(*lab)
