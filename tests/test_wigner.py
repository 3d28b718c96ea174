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

from gfkit import exact, wigner
from gfkit.exact import SR_ZERO, SqrtRational, HalfInt, neg_one_pow, triangle_ok
from gfkit.polytools import TruncatedSeries, poly_add, poly_mul
from gfkit.wigner import (ThreeJLabel, clebsch_gordan, gaunt, ninej, regge_orbit,
                          sixj_gf, sixj_oracle, threej, threej_second_route,
                          threej_second_route_square, _PARITY, _PERM3,
                          _sixj_coefficient, _threej_core, _threej_sum)
from oracles import clebsch_gordan_product, gf_coefficient, poly_pow, poly_var


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


def random_ninej_label(rng, lo, hi):
    """A 9j label with every 2j in [lo, hi] and all six triads valid."""
    def thirds(x, y):
        return [z for z in range(lo, hi + 1) if triangle_ok(x, y, z)]

    while True:
        a, b, d, e = (rng.randint(lo, hi) for _ in range(4))
        pools = thirds(a, b), thirds(d, e), thirds(a, d), thirds(b, e)
        if not all(pools):
            continue
        c, f, g, h = (rng.choice(pool) for pool in pools)
        i_s = [z for z in thirds(c, f) if triangle_ok(g, h, z)]
        if i_s:
            return ((a, b, c), (d, e, f), (g, h, rng.choice(i_s)))


def sign_of(v):
    return (v.coeff > 0) - (v.coeff < 0)


def threej_sign_squares():
    """A reader of (sign, exact square) of threej's value, label by label,
    with a table of its own: an oracle takes one per call, so each 3j it
    reads is squared once."""
    table = {}

    def sign_square(*label):
        entry = table.get(label)
        if entry is None:
            v = threej(*label)
            entry = table[label] = (sign_of(v), v.square())
        return entry
    return sign_square


def threej_ratios():
    """A reader of each 3j's rational part p/q, reduced, label by label, with
    a table of its own; None where the 3j vanishes.  A 3j is
    (p/q) sqrt(Delta^2(j1 j2 j3) prod_i (j_i + m_i)! (j_i - m_i)!), with p
    and q from _threej_sum."""
    table = {}

    def ratio(*label):
        if label not in table:
            parts = _threej_sum(*label)
            if parts is None:
                table[label] = None
            else:
                q = sum_denominator(parts)
                g = math.gcd(parts[0], q)
                table[label] = (parts[0] // g, q // g)
        return table[label]
    return ratio


def sum_denominator(parts):
    """q of _threej_sum's (p, num_args, (J + 1, *q_args, *q_args))."""
    return math.prod(map(math.factorial, parts[2][1:7]))


def pm_factorials(tj, tm):
    """(j + m)! (j - m)!, doubled arguments."""
    return math.factorial((tj + tm) // 2) * math.factorial((tj - tm) // 2)


def rational_sum(terms):
    """The sum of n/d over (n, d) pairs, d > 0, in integers over the running
    lcm of the denominators."""
    num, den = 0, 1
    for n, d in terms:
        g = math.gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den * (d // g)
    return Fraction(num, den)


def delta_square(a, b, c):
    """Delta^2(a b c) of a doubled triad, from math.factorial."""
    return Fraction(math.factorial((a + b - c) // 2) * math.factorial((a - b + c) // 2)
                    * math.factorial((-a + b + c) // 2),
                    math.factorial((a + b + c) // 2 + 1))


def times_root_of_deltas(s, triads):
    """s sqrt(prod of the triads' Delta^2), canonicalized from its square."""
    deltas = math.prod(delta_square(*t) for t in triads)
    return SqrtRational.from_square(s * s * deltas, 1 if s > 0 else -1)


def test_threej_examples():
    assert threej(0, 0, 0, 0, 0, 0) == sr(1)
    assert threej(2, 2, 2, 2, -2, 0) == SqrtRational(1, Fraction(1, 6))
    assert threej(2, 2, 4, 0, 0, 0) == SqrtRational(1, Fraction(2, 15))


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
    # the factor-free canonical value is the from_square form, label by
    # label: every label with 2j <= 10 and a seeded sample at 2j 300..400
    sign_square = threej_sign_squares()
    rng = random.Random(13)
    large = [random_threej_label(rng, 300, 400) for _ in range(10)]
    for lab in itertools.chain(valid_threej_labels(10), large):
        value = threej(*lab)
        sign, sq = sign_square(*lab)
        want = SqrtRational.from_square(sq, sign)
        assert (value.coeff, value.radicand) == (want.coeff, want.radicand)


def van_der_waerden_definition(a, b, c, d, e):
    """Van der Waerden's sum by its definition, term by term in Fractions."""
    f = math.factorial
    return sum(Fraction((-1) ** k, f(k) * f(a - k) * f(b - k) * f(c - k) * f(d + k) * f(e + k))
               for k in range(max(0, -d, -e), min(a, b, c) + 1))


def test_van_der_waerden_is_its_definition():
    # every (a, b, c, d, e) with entries in -6..6 whose sum has a term,
    # then the sums of seeded 3j labels at 2j 40..400, as _threej_sum
    # reads them off the label
    args = [x for x in itertools.product(range(-6, 7), repeat=5)
            if max(0, -x[3], -x[4]) <= min(x[:3])]
    rng = random.Random(30)
    for _ in range(40):
        tj1, tj2, tj3, tm1, tm2, _tm3 = random_threej_label(rng, 40, 400)
        args.append(((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2,
                     (tj3 - tj2 + tm1) // 2, (tj3 - tj1 - tm2) // 2))
    for x in args:
        total, q_args = wigner._van_der_waerden(*x)
        assert Fraction(total, math.prod(map(math.factorial, q_args))) \
            == van_der_waerden_definition(*x), x


def test_threej_cache_holds_the_value():
    # each entry of the bounded cache is the label's canonical value, and
    # threej returns that object
    _threej_core.cache_clear()
    lab = (4, 2, 2, 2, -2, 0)
    assert threej(*lab) is threej(*lab)
    assert isinstance(_threej_core(*lab), SqrtRational)
    assert _threej_core(*lab) is threej(*lab)
    assert threej(2, 2, 8, 0, 0, 0) is SR_ZERO       # triangle fails
    assert threej(1, 1, 1, 1, -1, 0) is SR_ZERO      # odd doubled sum
    info = _threej_core.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (4, 3, 1 << 12)


def test_kernels_never_factor(monkeypatch):
    def refuse(n, *args):
        raise AssertionError(f"square_free_split({n}) called")

    monkeypatch.setattr(exact, "square_free_split", refuse)
    _threej_core.cache_clear()
    sign_square = threej_sign_squares()
    rng = random.Random(8)
    for _ in range(40):
        lab = random_threej_label(rng, 0, 60)
        v = threej(*lab)
        assert sign_square(*lab) == threej_second_route_square(*lab), lab
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
    for _ in range(8):
        ninej(random_ninej_label(rng, 0, 40))
    assert ninej(((40,) * 3,) * 3)


def test_threej_large_j_against_second_route():
    # 2j in 300..400: each 3j well under a second; checked by exact square
    # and sign, which fix the value, against the second route's factorial
    # sum (test_threej_equals_from_square_of_its_core checks the canonical
    # form at these j)
    rng = random.Random(9)
    _threej_core.cache_clear()
    for _ in range(30):
        lab = random_threej_label(rng, 300, 400)
        t0 = time.perf_counter()
        v = threej(*lab)
        assert time.perf_counter() - t0 < 1.0, lab
        sign, sq = threej_second_route_square(*lab)
        assert (sign_of(v), v.square()) == (sign, sq), lab


def test_threej_integer_sum_against_second_route():
    # many-term sums (2j 40..60 and 100..140) and sums that cancel to zero:
    # the integer sum over one denominator gives the second route's sign and
    # exact square
    rng = random.Random(10)
    labels = ([random_threej_label(rng, 40, 60) for _ in range(2000)]
              + [random_threej_label(rng, 100, 140) for _ in range(200)])
    sign_square = threej_sign_squares()
    for lab in labels:
        assert sign_square(*lab) == threej_second_route_square(*lab), lab
    for lab in ((3, 6, 7, -1, -2, 3), (3, 3, 4, -1, -1, 2)):
        assert threej(*lab) == SR_ZERO
        assert threej_second_route(*lab) == SR_ZERO


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


def test_clebsch_gordan_equals_product_route():
    # one canonicalization from the 3j's integers gives the parts of the
    # canonical 3j times the canonical sqrt(2 j3 + 1), and leaves the 3j
    # cache alone
    rng = random.Random(14)
    labels = (list(valid_threej_labels(8))
              + [random_threej_label(rng, 40, 60) for _ in range(3000)]
              + [random_threej_label(rng, 300, 400) for _ in range(20)])
    for tj1, tj2, tj3, tm1, tm2, tm3 in labels:
        args = (tj1, tm1, tj2, tm2, tj3, -tm3)
        before = _threej_core.cache_info()
        got = clebsch_gordan(*map(HalfInt, args))
        assert _threej_core.cache_info() == before
        want = clebsch_gordan_product(*args)
        assert (got.coeff, got.radicand) == (want.coeff, want.radicand), args


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


def sixj_fixed_m(tj1, tj2, tj3, tl1, tl2, tl3, tm1, tm2, tm3) -> SqrtRational:
    """6j from the mu-sum at one fixed magnetic configuration, divided by the
    accompanying 3j; used to assert the m-independence of the contraction.

    The (j +- m)! of j1, j2 and j3 under the three roots cancel against the
    3j divided by, and those of l1, l2 and l3 come out squared, so the
    quotient is one rational sum, times q0 / (p0 Delta^2(j1 j2 j3)), under
    the root of the four triads' Delta^2."""
    parts = _threej_sum(tj1, tj2, tj3, tm1, tm2, tm3)
    if parts is None:
        raise ValueError("chosen (m1,m2,m3) has vanishing 3j")
    ratio = threej_ratios()
    terms = []
    for tmu1 in range(-tl1, tl1 + 1, 2):
        for tmu2 in range(-tl2, tl2 + 1, 2):
            r1 = ratio(tl1, tl2, tj3, tmu1, -tmu2, tm3)
            if r1 is None:
                continue
            tmu3 = tmu2 + tm1
            if abs(tmu3) > tl3:
                continue
            r2 = ratio(tl2, tl3, tj1, tmu2, -tmu3, tm1)
            if r2 is None:
                continue
            r3 = ratio(tl3, tl1, tj2, tmu3, -tmu1, tm2)
            if r3 is None:
                continue
            ph = neg_one_pow((tl1 + tl2 + tl3 + tmu1 + tmu2 + tmu3) // 2)
            terms.append((ph * r1[0] * r2[0] * r3[0] * pm_factorials(tl1, tmu1)
                          * pm_factorials(tl2, tmu2) * pm_factorials(tl3, tmu3),
                          r1[1] * r2[1] * r3[1]))
    s = (rational_sum(terms) * Fraction(sum_denominator(parts), parts[0])
         / delta_square(tj1, tj2, tj3))
    return times_root_of_deltas(
        s, ((tj1, tj2, tj3), (tj1, tl2, tl3), (tl1, tj2, tl3), (tl1, tl2, tj3)))


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


# tau variable order, tau_{i nu} for the four-triad coupling scheme
TAU_VARS = ("01", "02", "03", "10", "20", "30", "12", "21", "13", "31", "23", "32")
TAU_IDX = {v: i for i, v in enumerate(TAU_VARS)}


# tau_{i nu} carries J_i - 2 j_{i nu} for triad i and the pair (i, nu)
PAIR_OF = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 5, (1, 3): 4, (2, 3): 3}


def sixj_tau_exponents(lab):
    """The twelve tau exponents of the doubled 6j label lab, in TAU_VARS order."""
    triads = wigner._sixj_triads(lab)
    return tuple(sum(triads[i]) // 2 - lab[PAIR_OF[min(i, nu), max(i, nu)]]
                 for i, nu in (map(int, v) for v in TAU_VARS))


def tau_monomial(*names):
    e = [0] * 12
    for nm in names:
        e[TAU_IDX[nm]] += 1
    return tuple(e)


# the seven non-constant terms a0..a3, b1..b3 of g, as gf_coefficient's
# docstring spells them out
G_TERMS = [
    tau_monomial("10", "20", "30"),
    tau_monomial("01", "31", "21"),
    tau_monomial("32", "02", "12"),
    tau_monomial("23", "13", "03"),
    tau_monomial("01", "10", "23", "32"),
    tau_monomial("02", "20", "13", "31"),
    tau_monomial("03", "30", "12", "21"),
]


def test_gf_coefficient_matches_series():
    # the closed form against the literal series of g^-2 at degree 18, the
    # total degree of every 6j label with 2j <= 3
    one = (0,) * 12
    g = {one: 1}
    for t in G_TERMS:
        g[t] = 1
    gs = TruncatedSeries(g, 12, 18)
    series = gs.mul(gs).inverse()
    for expo in series.terms:
        assert gf_coefficient(expo) == series.coefficient(expo)

    # every label with integer triad sums; Racah's sum, which needs its four
    # triads to pass, on those that do
    for lab in itertools.product(range(4), repeat=6):
        if any(sum(t) % 2 for t in wigner._sixj_triads(lab)):
            continue
        expo = sixj_tau_exponents(lab)
        assert sum(expo) <= 18
        assert gf_coefficient(expo) == series.coefficient(expo)
        if sixj_triads_ok(lab):
            assert _sixj_coefficient(*lab) == series.coefficient(expo), lab


def test_sixj_coefficient_is_gf_coefficient():
    # Racah's sum by its term ratio against the g^-2 coefficient read from
    # the twelve tau exponents, on every 6j with 2j <= 8 and at large j
    labels = [lab for lab in itertools.product(range(9), repeat=6)
              if sixj_triads_ok(lab)]
    assert len(labels) == 13691
    labels += [(tj,) * 6 for tj in (100, 200, 400, 800)]
    for lab in labels:
        assert _sixj_coefficient(*lab) == gf_coefficient(sixj_tau_exponents(lab)), lab


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


def test_sixj_oracle_leaves_shared_cache_alone():
    # the oracle reads its 3j through a table of its own call
    before = _threej_core.cache_info()
    assert sixj_oracle(*[32] * 6) == sixj_gf(*[32] * 6)
    assert _threej_core.cache_info() == before


def test_sixj_oracle_shares_no_step_with_sixj_gf(monkeypatch):
    # sixj_gf is _sixj_coefficient canonicalized by from_factorial_ratio, and
    # so by from_exponents; with all three made to raise, the oracle still
    # gives sixj_gf's values, computed first, on seeded labels with 2j <= 8
    # and on all six 2j = 20
    rng = random.Random(15)
    labels = [(20,) * 6]
    while len(labels) <= 300:
        lab = tuple(rng.randint(0, 8) for _ in range(6))
        if sixj_triads_ok(lab):
            labels.append(lab)
    expected = [sixj_gf(*lab) for lab in labels]
    assert sum(map(bool, expected)) > len(labels) // 2

    def refuse(*args):
        raise AssertionError("the 6j oracle took a step of sixj_gf")

    monkeypatch.setattr(SqrtRational, "from_factorial_ratio", staticmethod(refuse))
    monkeypatch.setattr(SqrtRational, "from_exponents", staticmethod(refuse))
    monkeypatch.setattr(wigner, "_sixj_coefficient", refuse)
    with pytest.raises(AssertionError):
        sixj_gf(*labels[0])
    assert [sixj_oracle(*lab) for lab in labels] == expected


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
    v = ninej(((1, 1, 2), (1, 1, 2), (2, 2, 0)))
    assert v == sr(Fraction(-1, 18))


def ninej_magnetic(two_j_rows) -> SqrtRational:
    """The 9j oracle: the definitional magnetic sum over six 3j symbols.

    Every j sits in one row and one column 3j with the same m, so the
    (j +- m)! under the six roots form a perfect square: the 9j is the
    rational sum over m of prod_k p_k/q_k times each j's (j + m)! (j - m)!,
    under the root of the six row and column Delta^2."""
    (a, b, c), (d, e, f), (g, h, i) = two_j_rows
    triads = ((a, b, c), (d, e, f), (g, h, i), (a, d, g), (b, e, h), (c, f, i))
    for tri in triads:
        if sum(tri) % 2 or not triangle_ok(*tri):
            return SR_ZERO
    ratio = threej_ratios()
    terms = []
    for ma in range(-a, a + 1, 2):
        for mb in range(-b, b + 1, 2):
            mc = -ma - mb
            if abs(mc) > c:
                continue
            r1 = ratio(a, b, c, ma, mb, mc)
            if r1 is None:
                continue
            n1 = r1[0] * pm_factorials(a, ma) * pm_factorials(b, mb) * pm_factorials(c, mc)
            for md in range(-d, d + 1, 2):
                for me in range(-e, e + 1, 2):
                    mf = -md - me
                    if abs(mf) > f:
                        continue
                    r2 = ratio(d, e, f, md, me, mf)
                    if r2 is None:
                        continue
                    mg = -ma - md
                    mh = -mb - me
                    mi = -mc - mf
                    if abs(mg) > g or abs(mh) > h or abs(mi) > i:
                        continue
                    r3 = ratio(g, h, i, mg, mh, mi)
                    if r3 is None:
                        continue
                    r4 = ratio(a, d, g, ma, md, mg)
                    if r4 is None:
                        continue
                    r5 = ratio(b, e, h, mb, me, mh)
                    if r5 is None:
                        continue
                    r6 = ratio(c, f, i, mc, mf, mi)
                    if r6 is None:
                        continue
                    terms.append((
                        n1 * r2[0] * r3[0] * r4[0] * r5[0] * r6[0]
                        * pm_factorials(d, md) * pm_factorials(e, me) * pm_factorials(f, mf)
                        * pm_factorials(g, mg) * pm_factorials(h, mh) * pm_factorials(i, mi),
                        r1[1] * r2[1] * r3[1] * r4[1] * r5[1] * r6[1]))
    return times_root_of_deltas(rational_sum(terms), triads)


def test_ninej_independent_summation_order():
    # the 6j-sum route against the magnetic sum over six 3j
    cases = [((1, 1, 2), (1, 1, 2), (2, 2, 0)),
             ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
             ((1, 1, 2), (1, 1, 2), (2, 2, 4)),
             ((2, 1, 1), (1, 2, 1), (1, 1, 2))]
    for rows in cases:
        assert ninej(rows) == ninej_magnetic(rows)


def test_ninej_against_magnetic_sum_sampled():
    # seeded labels with every 2j in 0..4 and in 5..8, and all nine 2j equal
    rng = random.Random(11)
    labels = [random_ninej_label(rng, 0, 4) for _ in range(200)]
    labels += [random_ninej_label(rng, 5, 8) for _ in range(40)]
    labels += [((tj,) * 3,) * 3 for tj in (4, 8)]
    nonzero = 0
    for rows in labels:
        v = ninej(rows)
        assert v == ninej_magnetic(rows), rows
        nonzero += bool(v)
    assert nonzero > len(labels) // 2


def ninej_via_sixj(two_j_rows) -> SqrtRational:
    """The 9j as the x-sum of three sixj_gf products, added as SqrtRational
    values.  x runs over every integer up to the largest x-triad bound, so
    wherever a triad fails, sixj_gf's own check gives the zero."""
    (a, b, c), (d, e, f), (g, h, i) = two_j_rows
    total = SR_ZERO
    for x in range(max(a + i, b + f, d + h) + 1):
        total = total + (sixj_gf(a, b, c, f, i, x) * sixj_gf(d, e, f, b, x, h)
                         * sixj_gf(g, h, i, x, a, d) * (neg_one_pow(x) * (x + 1)))
    return total


def test_ninej_equals_three_sixj_sum():
    # ninej's one root over a rational x-sum against the x-sum of the three
    # canonical 6j: seeded labels with every 2j in 0..4 and in 5..8, and all
    # nine 2j = 12
    rng = random.Random(12)
    labels = [random_ninej_label(rng, 0, 4) for _ in range(300)]
    labels += [random_ninej_label(rng, 5, 8) for _ in range(60)]
    labels.append(((12,) * 3,) * 3)
    clipped = nonzero = 0
    for rows in labels:
        v = ninej(rows)
        assert v == ninej_via_sixj(rows), rows
        nonzero += bool(v)
        (a, b, c), (d, e, f), (g, h, i) = rows
        # some x between the three x-triads' bounds fails one of them
        clipped += len({abs(a - i), abs(b - f), abs(d - h)}) > 1 \
            or len({a + i, b + f, d + h}) > 1
    assert nonzero > len(labels) // 2
    assert clipped > len(labels) // 2


def test_ninej_symmetries():
    rows = ((2, 2, 2), (2, 2, 2), (2, 2, 0))
    v = ninej(rows)
    transposed = tuple(tuple(rows[r][c] for r in range(3)) for c in range(3))
    assert ninej(transposed) == v
    swapped = (rows[1], rows[0], rows[2])
    J = sum(sum(r) for r in rows) // 2
    assert ninej(swapped) == (v if J % 2 == 0 else -v)


@st.composite
def ninej_labels(draw, tjmax=8):
    def third(x, y):
        return draw(st.sampled_from(range(abs(x - y), min(x + y, tjmax) + 1, 2)))

    a, b, d, e = (draw(st.integers(0, tjmax)) for _ in range(4))
    c, f, g, h = third(a, b), third(d, e), third(a, d), third(b, e)
    i_s = [z for z in range(tjmax + 1) if triangle_ok(c, f, z) and triangle_ok(g, h, z)]
    assume(i_s)
    return ((a, b, c), (d, e, f), (g, h, draw(st.sampled_from(i_s))))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ninej_labels())
def test_ninej_72_symmetries(rows):
    # odd row or column permutations each give (-1)^{sum of the nine j};
    # transposition gives no phase
    v = ninej(rows)
    j_sum = sum(map(sum, rows)) // 2
    for rp in _PERM3:
        for cp in _PERM3:
            for transpose in (False, True):
                sq = tuple(zip(*rows)) if transpose else rows
                image = tuple(tuple(sq[r][c] for c in cp) for r in rp)
                phase = neg_one_pow(j_sum * (_PARITY[rp] + _PARITY[cp]))
                assert ninej(image) == v * phase, (rows, image)



def test_regge_orbit_examples():
    orb = regge_orbit(ThreeJLabel((0, 0, 0), (0, 0, 0)))
    assert len(orb) == 1
    seed = ThreeJLabel((2, 2, 2), (2, -2, 0))
    v0 = threej(*seed.two_j, *seed.two_m)
    orb = regge_orbit(seed)
    assert 72 % len(orb) == 0
    for lab, phase in orb:
        assert threej(*lab.two_j, *lab.two_m) == v0 * phase


def test_regge_orbits_random():
    random.seed(7)
    labels = [lab for lab in valid_threej_labels(6)]
    for lab in random.sample(labels, 60):
        seed = ThreeJLabel(lab[:3], lab[3:])
        v0 = threej(*seed.two_j, *seed.two_m)
        orb = regge_orbit(seed)
        assert 72 % len(orb) == 0
        for member, phase in orb:
            assert threej(*member.two_j, *member.two_m) == v0 * phase


@st.composite
def threej_labels(draw, tjmax=60):
    tj1, tj2 = draw(st.integers(0, tjmax)), draw(st.integers(0, tjmax))
    tj3 = draw(st.sampled_from(range(abs(tj1 - tj2), min(tj1 + tj2, tjmax) + 1, 2)))
    tm1 = draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
    tm2 = draw(st.sampled_from(range(-tj2, tj2 + 1, 2)))
    assume(abs(tm1 + tm2) <= tj3)
    return ThreeJLabel((tj1, tj2, tj3), (tm1, tm2, -tm1 - tm2))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(threej_labels())
def test_regge_orbit_hypothesis(seed):
    # each image has its own summation range, so a wrong first or last term
    # of the integer sum breaks the symmetry
    v0 = threej(*seed.two_j, *seed.two_m)
    for member, phase in regge_orbit(seed):
        assert threej(*member.two_j, *member.two_m) == v0 * phase, (seed, member)


def test_gaunt():
    assert gaunt(0, 0, 0, 0, 0, 0) == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-14)
    assert gaunt(1, 0, 0, 0, 0, 0) == 0.0
    # quadrature oracle for (1,0,1,0,2,0)
    from gfkit.special import spherical_harmonic
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
