"""Exact SU(2) recoupling coefficients.

All angular momenta travel as doubled integers (two_j), all values as
SqrtRational.  The 6j symbol has two independent routes: the definitional
magnetic sum over four 3j symbols, and the coefficient of the generating
function g(tau)^-2 with the triangle-delta normalization.  That coefficient
is Racah's single sum, read straight off the six 2j: it starts at the
largest triad sum and takes each term from the previous one by the exact
term ratio, so the route keeps no state (all six 2j = 800 take about 1 ms,
1600 about 4 ms, the 9j with all nine 2j = 200 about 33 ms, on a 2-vCPU
VM).  The two routes must agree exactly and the test suite enforces it; the
tests also check Racah's sum against the g^-2 coefficient read from its
twelve tau exponents and against the truncated series of g^-2
(polytools.TruncatedSeries), two oracles that only they use.

The 3j, CG and 6j never factor an integer.  Each is an integer sum times
the square root of a factorial ratio, and SqrtRational.from_factorial_ratio
keeps the sum outside the root and canonicalizes from the packed prime
exponents of exact's factorial table, with no factorial product.  The sums
take their factorial quotients from math.comb and math.perm or build them
one factor at a time, so only exact knows how factorials are stored.  The
3j's single sum is summed in integers over one common denominator, a
product of factorials that enters the ratio's denominator twice, by
Horner's rule from its last term down: each step multiplies, none
divides, and a 3j builds no Fraction at all (about 3 us a sum at 2j 40-60
and 23 us at 300-400, where dividing out each term ratio took 4.6 and
58 us; 2-vCPU VM, Python 3.11.7).  Racah's sum of the 6j keeps its exact
term-ratio divisions, which measured faster there than Horner's rule.
That 3j sum (_van_der_waerden) is kept apart from the 3j's label checks,
and su3's coupling table calls it directly on labels its loops have
already made valid.

The 9j is Racah's form of the x-sum of three GF-route 6j: each
x-triad's delta appears in two of the three 6j and leaves the root, so the
9j is one rational x-sum, summed in integers, under the root of its six
row and column deltas, and it never factors either.  threej is the 3j
core, an lru_cache bounded at 2**12 labels holding each label's canonical
value.  clebsch_gordan, which takes HalfInt arguments, reads no cache:
it appends sqrt(2 j3 + 1) to the 3j's factorial ratio and canonicalizes
once, which costs less than a cache hit and a product.  The only magnetic
sum left, the 6j oracle, is one rational sum under the root of its
triangle deltas too (see sixj_oracle); it reads each 3j into a table of
its own call, leaving the shared cache alone, and ends in from_square, as
the second 3j route does.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exact import (SR_ZERO, SqrtRational, _triad_args, neg_one_pow,
                    triangle_ok)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------
class ThreeJLabel(namedtuple("ThreeJLabel", "two_j two_m")):
    """A 3j label, the doubled j and m triples; a named tuple, as HalfInt."""

    __slots__ = ()

    def __new__(cls, two_j, two_m):
        for tj, tm in zip(two_j, two_m):
            if (tj - tm) % 2:
                raise ValueError("two_m parity must match two_j")
            if abs(tm) > tj:
                raise ValueError("|m| <= j violated")
        return super().__new__(cls, two_j, two_m)


# ---------------------------------------------------------------------------
# 3j: Van der Waerden single sum
# ---------------------------------------------------------------------------
def _threej_sum(tj1, tj2, tj3, tm1, tm2, tm3):
    """The 3j symbol, doubled arguments, as an integer and factorial arguments
    (p, num_args, den_args) with
    3j = p * sqrt(prod n! over num_args / prod n! over den_args); None where
    it vanishes.  den_args is (J + 1, *q_args, *q_args), and p/q with
    q = prod n! over q_args, not reduced, is the phase times the
    _van_der_waerden sum of the label's a, b, c, d, e.  kmin <= kmax there
    for every label that passes the checks, as each of a, b, c plus each of
    d, e is a j + m, a j - m or a triangle sum."""
    if tm1 + tm2 + tm3 != 0 or not triangle_ok(tj1, tj2, tj3):
        return None
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2:
            return None
    a, b, c = (tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    total, q_args = _van_der_waerden(a, b, c, (tj3 - tj2 + tm1) // 2,
                                     (tj3 - tj1 - tm2) // 2)
    if total == 0:
        return None
    return (neg_one_pow((tj1 - tj2 - tm3) // 2) * total,
            (a, (tj1 - tj2 + tj3) // 2, (-tj1 + tj2 + tj3) // 2,
             (tj1 + tm1) // 2, b, c, (tj2 - tm2) // 2, (tj3 + tm3) // 2, (tj3 - tm3) // 2),
            ((tj1 + tj2 + tj3) // 2 + 1, *q_args, *q_args))


def _van_der_waerden(a, b, c, d, e):
    """Van der Waerden's single sum

        S = sum_k (-1)^k / (k! (a-k)! (b-k)! (c-k)! (d+k)! (e+k)!),

    k from kmin = max(0, -d, -e) to kmax = min(a, b, c), for kmin <= kmax,
    as (total, q_args): S = total / q, q = prod n! over q_args =
    kmax! (a-kmin)! (b-kmin)! (c-kmin)! (d+kmax)! (e+kmax)!, the common
    denominator, which every term's denominator divides.  The term at k
    times q is u_k v_k, u_k = kmax!/k! (d+kmax)!/(d+k)! (e+kmax)!/(e+k)! and
    v_k = (a-kmin)!/(a-k)! (b-kmin)!/(b-k)! (c-kmin)!/(c-k)!, so by
    Horner's rule T_k = u_k - (a-k)(b-k)(c-k) T_(k+1) from T_kmax = 1 gives
    S q = (-1)^kmin T_kmin: one pass down from kmax, u_k grown by one
    factor a step, with no division."""
    kmin, kmax = max(0, -d, -e), min(a, b, c)
    u = total = 1
    for k in range(kmax - 1, kmin - 1, -1):
        u *= (k + 1) * (d + k + 1) * (e + k + 1)
        total = u - (a - k) * (b - k) * (c - k) * total
    return (-total if kmin & 1 else total), (kmax, a - kmin, b - kmin, c - kmin,
                                             d + kmax, e + kmax)


# Bounded at 2**12 labels.  Its production callers are one threej per CLI
# process and the two in gaunt, and the largest repeated working set
# measured is 1,384 labels, every 3j with 2j <= 6, which the bound holds
# whole.  An entry with 2j in 40..60, key included, holds about 244 B
# (tracemalloc), so on a stream of distinct labels the cache stays near
# 1 MB, where 2**14 entries held about 4 MB that were never hit.
@lru_cache(maxsize=1 << 12)
def _threej_core(tj1, tj2, tj3, tm1, tm2, tm3):
    """3j symbol with doubled integer arguments: its canonical value, SR_ZERO
    where it vanishes.

    The value is p * sqrt(factorial ratio) from _threej_sum, whose single
    sum is taken in integers over one common denominator; p stays outside
    the root, so the canonical form needs no factoring."""
    parts = _threej_sum(tj1, tj2, tj3, tm1, tm2, tm3)
    if parts is None:
        return SR_ZERO
    return SqrtRational.from_factorial_ratio(*parts)


threej = _threej_core


def threej_second_route_square(tj1, tj2, tj3, tm1, tm2, tm3) -> tuple[int, Fraction]:
    """Independent 3j evaluation as (sign, exact square): the defining
    factorial sum of the Clebsch-Gordan coefficient, summed in descending
    order with raw math.factorial, then converted through the 3j phase
    relation.

    Deliberately avoids the Van der Waerden sum and from_exponents.
    """
    if tm1 + tm2 + tm3 != 0 or not triangle_ok(tj1, tj2, tj3):
        return 0, Fraction(0)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2:
            return 0, Fraction(0)
    tj12, tm12 = tj3, -tm3

    def f(two_n):
        return math.factorial(two_n // 2)

    kmin = max(0, (tj2 - tj12 - tm1) // 2, (tj1 + tm2 - tj12) // 2)
    kmax = min((tj1 + tj2 - tj12) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    s = Fraction(0)
    for k in range(kmax, kmin - 1, -1):
        den = (math.factorial(k) * f(tj1 + tj2 - tj12 - 2 * k)
               * f(tj1 - tm1 - 2 * k) * f(tj2 + tm2 - 2 * k)
               * f(tj12 - tj2 + tm1 + 2 * k) * f(tj12 - tj1 - tm2 + 2 * k))
        s += Fraction((-1) ** k, den)
    if s == 0:
        return 0, Fraction(0)
    sq = Fraction((tj12 + 1) * f(tj12 + tj1 - tj2) * f(tj12 - tj1 + tj2)
                  * f(tj1 + tj2 - tj12), f(tj1 + tj2 + tj12 + 2))
    sq *= (f(tj12 + tm12) * f(tj12 - tm12) * f(tj1 - tm1) * f(tj1 + tm1)
           * f(tj2 - tm2) * f(tj2 + tm2))
    # 3j = (-1)^{j1-j2-m3} / sqrt(2 j3 + 1) * <j1 m1 j2 m2 | j3 -m3>
    phase = neg_one_pow((tj1 - tj2 - tm3) // 2)
    return (phase if s > 0 else -phase), sq * s * s / (tj3 + 1)


def threej_second_route(tj1, tj2, tj3, tm1, tm2, tm3) -> SqrtRational:
    """The second route's 3j, canonicalized from its exact square."""
    sign, sq = threej_second_route_square(tj1, tj2, tj3, tm1, tm2, tm3)
    return SqrtRational.from_square(sq, sign)


def clebsch_gordan(j1, m1, j2, m2, j3, m3) -> SqrtRational:
    """<j1 m1, j2 m2 | j3 m3> for HalfInt arguments, in the Condon-Shortley
    convention, (-1)^{j1-j2+m3} sqrt(2 j3 + 1) times the 3j with -m3,
    canonicalized once from that 3j's integers; the 3j cache is neither
    read nor filled."""
    tj1, tm1, tj2, tm2, tj3, tm3 = (x.two_j for x in (j1, m1, j2, m2, j3, m3))
    parts = _threej_sum(tj1, tj2, tj3, tm1, tm2, -tm3)
    if parts is None:
        return SR_ZERO
    p, num_args, den_args = parts
    # sqrt(2 j3 + 1) = sqrt((2 j3 + 1)! / (2 j3)!)
    return SqrtRational.from_factorial_ratio(
        neg_one_pow((tj1 - tj2 + tm3) // 2) * p,
        (*num_args, tj3 + 1), (*den_args, tj3))


# ---------------------------------------------------------------------------
# 6j definitional oracle: full magnetic contraction of four 3j symbols
# ---------------------------------------------------------------------------
def _sixj_triads(two_j):
    tj1, tj2, tj3, tl1, tl2, tl3 = two_j
    return ((tj1, tj2, tj3), (tj1, tl2, tl3), (tl1, tj2, tl3), (tl1, tl2, tj3))


def sixj_oracle(tj1, tj2, tj3, tl1, tl2, tl3) -> SqrtRational:
    """6j as the definitional magnetic sum of four 3j, the check on sixj_gf.

    A 3j is (p/q) sqrt(Delta^2(j1 j2 j3) prod_i (j_i + m_i)! (j_i - m_i)!)
    with p and the factorial arguments of q from _threej_sum.  j1, j2 and
    j3 come back in two of the four 3j with the same m, and l1, l2 and l3
    with +-mu, so the (j +- m)! under the four roots form a perfect square
    and

        6j = S sqrt(prod of the four triads' Delta^2),
        S = sum_{m, mu} (-1)^(l1+l2+l3+mu1+mu2+mu3) prod_k p_k / q_k
            prod over the six j of (j + m)! (j - m)!,

    summed in integers over the running lcm of the denominators.  The value
    ends in from_square, never in from_factorial_ratio, so its canonical
    form is not sixj_gf's.  Each 3j is read once into a table of this call,
    which leaves the shared cache alone (all six 2j = 40 read 68,921
    distinct labels, which would only evict each other there)."""
    triads = _sixj_triads((tj1, tj2, tj3, tl1, tl2, tl3))
    if not all(triangle_ok(*t) for t in triads):
        return SR_ZERO
    table = {}
    f = math.factorial

    def ratio(*label):
        # p (j + m)! (j - m)! of the first column, and q, reduced: the first
        # columns of the three inner 3j are l1, l2 and l3
        if label not in table:
            parts = _threej_sum(*label)
            if parts is None:
                table[label] = None
            else:
                tj, tm = label[0], label[3]
                p = parts[0] * f((tj + tm) // 2) * f((tj - tm) // 2)
                q = math.prod(map(f, parts[2][1:7]))   # the first q_args
                g = math.gcd(p, q)
                table[label] = (p // g, q // g)
        return table[label]

    num, den = 0, 1
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            r0 = ratio(tj1, tj2, tj3, tm1, tm2, tm3)
            if r0 is None:
                continue
            p0 = r0[0] * (f((tj2 + tm2) // 2) * f((tj2 - tm2) // 2)
                          * f((tj3 + tm3) // 2) * f((tj3 - tm3) // 2))
            # the m sums of the second and third 3j fix mu2 and mu3; every
            # other (mu1, mu2) term is zero
            for tmu1 in range(-tl1, tl1 + 1, 2):
                tmu2, tmu3 = tmu1 + tm3, tmu1 + tm3 + tm1
                if abs(tmu2) > tl2 or abs(tmu3) > tl3:
                    continue
                r1 = ratio(tl1, tl2, tj3, tmu1, -tmu2, tm3)
                r2 = r1 and ratio(tl2, tl3, tj1, tmu2, -tmu3, tm1)
                r3 = r2 and ratio(tl3, tl1, tj2, tmu3, -tmu1, tm2)
                if r3 is None:
                    continue
                n = neg_one_pow((tl1 + tl2 + tl3 + tmu1 + tmu2 + tmu3) // 2) \
                    * p0 * r1[0] * r2[0] * r3[0]
                d = r0[1] * r1[1] * r2[1] * r3[1]
                g = math.gcd(den, d)
                num, den = num * (d // g) + n * (den // g), den * (d // g)
    if not num:
        return SR_ZERO
    s = Fraction(num, den)
    deltas = Fraction(math.prod(f(n) for t in triads for n in _triad_args(*t)),
                      math.prod(f(sum(t) // 2 + 1) for t in triads))
    return SqrtRational.from_square(s * s * deltas, 1 if s > 0 else -1)


# ---------------------------------------------------------------------------
# 6j: Racah's single sum, the coefficient of the generating function g(tau)^-2
# ---------------------------------------------------------------------------
def _sixj_coefficient(tj1, tj2, tj3, tl1, tl2, tl3) -> int:
    """Racah's single sum of a 6j whose four triads pass, doubled arguments:
    6j = this integer times the four triangle deltas, where

        sum_z (-1)^z (z+1)! / (prod_i (z - a_i)! prod_k (b_k - z)!)

    runs from the largest triad sum a_i to the smallest quadrilateral sum
    b_k.  The seven factorial arguments of a term's denominator add up to z,
    so every term is (z+1) times a multinomial coefficient, an integer: the
    first is a product of six math.comb and each next one follows by the
    exact term ratio.  This is the coefficient of g(tau)^-2 at the 6j's
    twelve tau exponents, which the tests check against the series."""
    a1, a2 = (tj1 + tj2 + tj3) // 2, (tj1 + tl2 + tl3) // 2
    a3, a4 = (tl1 + tj2 + tl3) // 2, (tl1 + tl2 + tj3) // 2
    b1, b2 = (tj1 + tj2 + tl1 + tl2) // 2, (tj2 + tj3 + tl2 + tl3) // 2
    b3 = (tj3 + tj1 + tl3 + tl1) // 2
    zmin, zmax = max(a1, a2, a3, a4), min(b1, b2, b3)
    t, n = zmin + 1, zmin - a1
    for k in (zmin - a2, zmin - a3, zmin - a4, b1 - zmin, b2 - zmin, b3 - zmin):
        n += k
        t *= math.comb(n, k)
    total = t = -t if zmin & 1 else t
    for z in range(zmin, zmax):
        t = -t * (z + 2) * (b1 - z) * (b2 - z) * (b3 - z) // (
            (z + 1 - a1) * (z + 1 - a2) * (z + 1 - a3) * (z + 1 - a4))
        total += t
    return total


def sixj_gf(tj1, tj2, tj3, tl1, tl2, tl3) -> SqrtRational:
    """6j as the g(tau)^-2 coefficient times the four triangle deltas."""
    triads = _sixj_triads((tj1, tj2, tj3, tl1, tl2, tl3))
    for t in triads:
        if not triangle_ok(*t):
            return SR_ZERO
    # the coefficient times the four triangle deltas under one square root
    return SqrtRational.from_factorial_ratio(
        _sixj_coefficient(tj1, tj2, tj3, tl1, tl2, tl3),
        [n for t in triads for n in _triad_args(*t)],
        [sum(t) // 2 + 1 for t in triads])


# ---------------------------------------------------------------------------
# 9j: one rational sum over x under one square root
# ---------------------------------------------------------------------------
def ninej(two_j_rows) -> SqrtRational:
    """9j = sum_x (-1)^{2x} (2x+1) {a b c; f i x}{d e f; b x h}{g h i; x a d},
    doubled arguments, in Racah's form: one rational x-sum under one root.

    Each 6j is its g(tau)^-2 coefficient c_k times the root of its four
    triangle deltas.  The six row and column triads each sit in one 6j, and
    each x-triad, (a i x), (f b x) and (d x h), in two, so its delta leaves
    the root as the rational Delta^2.  The 9j is
    sqrt(prod of the six row and column Delta^2) times
    sum_x (-1)^{2x} (2x+1) c1 c2 c3 Delta^2(a i x) Delta^2(f b x) Delta^2(d x h),
    summed in integers over the common denominator, the three x-triads'
    (s+1)! at the largest x."""
    (a, b, c), (d, e, f), (g, h, i) = two_j_rows
    triads = ((a, b, c), (d, e, f), (g, h, i), (a, d, g), (b, e, h), (c, f, i))
    for tri in triads:
        if not triangle_ok(*tri):
            return SR_ZERO
    pairs = ((a, i), (f, b), (d, h))
    lo, hi = max(abs(p - q) for p, q in pairs), min(p + q for p, q in pairs)
    # the row and column parities give a + i, b + f and d + h one parity,
    # so every x in lo..hi passes the three x-triads
    tops = [(p + q + hi) // 2 + 1 for p, q in pairs]
    fact = math.factorial
    total = 0
    for x in range(lo, hi + 1, 2):
        term = (_sixj_coefficient(a, b, c, f, i, x) * _sixj_coefficient(d, e, f, b, x, h)
                * _sixj_coefficient(g, h, i, x, a, d))
        if not term:
            continue
        term *= x + 1
        for (p, q), top in zip(pairs, tops):
            u, v, w = _triad_args(p, q, x)
            # Delta^2(p q x) times the common denominator (top)!
            term *= fact(u) * fact(v) * fact(w) * math.perm(top, (hi - x) // 2)
        total += -term if x & 1 else term
    if not total:
        return SR_ZERO
    # the common denominator, the product of the (top)!, enters twice
    return SqrtRational.from_factorial_ratio(
        total, [n for t in triads for n in _triad_args(*t)],
        [*(sum(t) // 2 + 1 for t in triads), *tops, *tops])


# ---------------------------------------------------------------------------
# Regge symmetries: 72-element group on the magic square
# ---------------------------------------------------------------------------
# the six permutations of three rows or columns, each with its parity, that
# of its number of inversions
_PARITY = {p: sum(a > b for a, b in itertools.combinations(p, 2)) & 1
           for p in itertools.permutations(range(3))}
_PERM3 = tuple(_PARITY)


def _magic_square(two_j, two_m):
    tj1, tj2, tj3 = two_j
    tm1, tm2, tm3 = two_m
    return ((( -tj1 + tj2 + tj3) // 2, (tj1 - tj2 + tj3) // 2, (tj1 + tj2 - tj3) // 2),
            ((tj1 - tm1) // 2, (tj2 - tm2) // 2, (tj3 - tm3) // 2),
            ((tj1 + tm1) // 2, (tj2 + tm2) // 2, (tj3 + tm3) // 2))


def _label_from_square(sq):
    two_j = tuple(sq[1][c] + sq[2][c] for c in range(3))
    two_m = tuple(sq[2][c] - sq[1][c] for c in range(3))
    return ThreeJLabel(two_j, two_m)


def regge_orbit(label: ThreeJLabel):
    """Closure under the 72-element Regge group, as {(label, phase)}.

    phase is (+1/-1): the 3j of the member equals phase times the seed's.
    Odd row or column permutations contribute (-1)^J; transposition none.
    A seed that fails its triangle (which also makes J integral) or whose
    2m do not sum to 0 has no magic square and raises ValueError.
    """
    two_j, two_m = label.two_j, label.two_m
    if not triangle_ok(*two_j):
        raise ValueError("regge_orbit needs a triangle-valid label")
    if sum(two_m):
        raise ValueError("regge_orbit needs 2m1 + 2m2 + 2m3 = 0")
    J = sum(two_j) // 2
    sq0 = _magic_square(two_j, two_m)
    seen = {}
    for rp in _PERM3:
        for cp in _PERM3:
            phase = neg_one_pow(J * (_PARITY[rp] + _PARITY[cp]))
            for sq in (sq0, tuple(zip(*sq0))):
                sq = tuple(tuple(sq[r][c] for c in cp) for r in rp)
                seen.setdefault(_label_from_square(sq), phase)
    return set(seen.items())


# ---------------------------------------------------------------------------
# Gaunt coefficient
# ---------------------------------------------------------------------------
def gaunt(l1, m1, l2, m2, l3, m3) -> float:
    """Integral of Y_{l1 m1} Y_{l2 m2} Y_{l3 m3} over the sphere; 0.0 where
    either 3j vanishes, an odd l1 + l2 + l3 or m that do not sum to 0
    among them."""
    a = threej(2 * l1, 2 * l2, 2 * l3, 0, 0, 0)
    b = threej(2 * l1, 2 * l2, 2 * l3, 2 * m1, 2 * m2, 2 * m3)
    if not a or not b:
        return 0.0
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4 * math.pi))
    return pref * float(a) * float(b)
