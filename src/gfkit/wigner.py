"""Exact SU(2) recoupling coefficients.

All angular momenta travel as doubled integers (two_j), all values as
SqrtRational.  The 6j symbol has two independent routes: the definitional
magnetic sum over four 3j symbols, and the coefficient of the generating
function g(tau)^-2 with the triangle-delta normalization.  That coefficient
is a closed-form single sum over the exponent of b1 (Bargmann's generating
function reduced to Racah's sum), so the route keeps no state.  The two
routes must agree exactly and the test suite enforces it; the tests also
check the closed form against the truncated series of g^-2
(polytools.TruncatedSeries), which only they use.

The 3j, CG and 6j never factor an integer.  Each is a rational sum times the
square root of a factorial ratio, and SqrtRational.from_factorial_ratio
keeps the sum outside the root and canonicalizes from the factorial table's
prime masks by gcds.  The 3j core is an lru_cache bounded at 2**14 labels
holding each label's sign, exact square and canonical value: threej returns
the value, and the magnetic sums (the 6j oracle, the 9j) read sign and
square.  Those sums and the second 3j route still end in from_square.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import (SR_ZERO, SqrtRational, factorials, fact2, neg_one_pow,
                    sqrt_ratio_of_squares, triangle_ok, HalfInt)


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ThreeJLabel:
    two_j: tuple
    two_m: tuple

    def __post_init__(self):
        for tj, tm in zip(self.two_j, self.two_m):
            if (tj - tm) % 2:
                raise ValueError("two_m parity must match two_j")
            if abs(tm) > tj:
                raise ValueError("|m| <= j violated")


@dataclass(frozen=True)
class SixJLabel:
    two_j: tuple  # (j1, j2, j3, l1, l2, l3) doubled

    def __post_init__(self):
        tj1, tj2, tj3, tl1, tl2, tl3 = self.two_j
        for (a, b, c) in ((tj1, tj2, tj3), (tj1, tl2, tl3),
                          (tl1, tj2, tl3), (tl1, tl2, tj3)):
            if (a + b + c) % 2:
                raise ValueError("each 6j triad needs even doubled sum")


@dataclass(frozen=True)
class NineJLabel:
    two_j: tuple  # 3x3 nested tuple, doubled

    def __post_init__(self):
        rows = self.two_j
        for r in rows:
            if sum(r) % 2:
                raise ValueError("9j row triad parity")
        for c in range(3):
            if sum(rows[r][c] for r in range(3)) % 2:
                raise ValueError("9j column triad parity")


# ---------------------------------------------------------------------------
# 3j: Van der Waerden single sum (sign, square) core
# ---------------------------------------------------------------------------
# Bounded.  The largest repeated working set measured is 1,384 labels: every
# 3j with 2j <= 6 plus the 303 that the 9j with 2j <= 4 read.  An entry with
# 2j in 40..60 holds about 570 B, so the cap keeps the cache near 9 MB on a
# stream of distinct labels.
@lru_cache(maxsize=1 << 14)
def _threej_core(tj1, tj2, tj3, tm1, tm2, tm3):
    """(sign, square, value) of the 3j symbol, doubled arguments.

    The value is phase * S * sqrt(factorial ratio), with the single sum S
    kept outside the root, so its canonical form needs no factoring."""
    if tm1 + tm2 + tm3 != 0:
        return _ZERO_CORE
    if not triangle_ok(tj1, tj2, tj3):
        return _ZERO_CORE
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj - tm) % 2:
            return _ZERO_CORE
    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    s = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (factorials(k)
               * fact2(tj1 + tj2 - tj3 - 2 * k)
               * fact2(tj1 - tm1 - 2 * k)
               * fact2(tj2 + tm2 - 2 * k)
               * fact2(tj3 - tj2 + tm1 + 2 * k)
               * fact2(tj3 - tj1 - tm2 + 2 * k))
        s += Fraction((-1) ** k, den)
    if s == 0:
        return _ZERO_CORE
    J = (tj1 + tj2 + tj3) // 2
    value = SqrtRational.from_factorial_ratio(
        neg_one_pow((tj1 - tj2 - tm3) // 2) * s,
        ((tj1 + tj2 - tj3) // 2, (tj1 - tj2 + tj3) // 2, (-tj1 + tj2 + tj3) // 2,
         (tj1 + tm1) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2,
         (tj2 - tm2) // 2, (tj3 + tm3) // 2, (tj3 - tm3) // 2),
        (J + 1,))
    return (1 if value.coeff > 0 else -1), value.square(), value


_ZERO_CORE = (0, Fraction(0), SR_ZERO)


def threej(tj1, tj2, tj3, tm1, tm2, tm3) -> SqrtRational:
    """3j symbol with doubled integer arguments."""
    return _threej_core(tj1, tj2, tj3, tm1, tm2, tm3)[2]


def wigner_3j(label: ThreeJLabel) -> SqrtRational:
    return threej(*label.two_j, *label.two_m)


def threej_second_route_square(tj1, tj2, tj3, tm1, tm2, tm3) -> tuple[int, Fraction]:
    """Independent 3j evaluation as (sign, exact square): the defining
    factorial sum of the Clebsch-Gordan coefficient, summed in descending
    order with raw math.factorial, then converted through the 3j phase
    relation.

    Deliberately avoids the cached-factorial path of _threej_core.
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
    """<j1 m1, j2 m2 | j3 m3> in the Condon-Shortley convention."""
    tj1, tm1, tj2, tm2, tj3, tm3 = (
        x.two_j if isinstance(x, HalfInt) else 2 * x
        for x in (j1, m1, j2, m2, j3, m3))
    phase = neg_one_pow((tj1 - tj2 + tm3) // 2)
    val = threej(tj1, tj2, tj3, tm1, tm2, -tm3)
    # sqrt(2 j3 + 1) = sqrt((2 j3 + 1)! / (2 j3)!)
    return val * SqrtRational.from_factorial_ratio(phase, (tj3 + 1,), (tj3,))


# ---------------------------------------------------------------------------
# exact sums of same-radicand square roots (ratio trick, no factorization)
# ---------------------------------------------------------------------------
def _sum_signed_sqrts(terms) -> SqrtRational:
    """Sum of s_i*sqrt(q_i) where all q_i share one squarefree part."""
    ref = None
    acc = Fraction(0)
    for sign, sq in terms:
        if sign == 0 or sq == 0:
            continue
        if ref is None:
            ref = sq
        acc += sign * sqrt_ratio_of_squares(sq, ref)
    if ref is None or acc == 0:
        return SR_ZERO
    return SqrtRational.from_square(ref) * acc


# ---------------------------------------------------------------------------
# 6j definitional oracle: full magnetic contraction of four 3j symbols
# ---------------------------------------------------------------------------
def _sixj_triads(two_j):
    tj1, tj2, tj3, tl1, tl2, tl3 = two_j
    return ((tj1, tj2, tj3), (tj1, tl2, tl3), (tl1, tj2, tl3), (tl1, tl2, tj3))


def sixj_oracle(tj1, tj2, tj3, tl1, tl2, tl3) -> SqrtRational:
    two_j = (tj1, tj2, tj3, tl1, tl2, tl3)
    if any((a + b + c) % 2 or not triangle_ok(a, b, c) for a, b, c in _sixj_triads(two_j)):
        return SR_ZERO
    terms = []
    for tm1 in range(-tj1, tj1 + 1, 2):
        for tm2 in range(-tj2, tj2 + 1, 2):
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            s0, q0, _ = _threej_core(tj1, tj2, tj3, tm1, tm2, tm3)
            if s0 == 0:
                continue
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
                    terms.append((ph * s0 * s1 * s2 * s3, q0 * q1 * q2 * q3))
    return _sum_signed_sqrts(terms)


def wigner_6j_oracle(label: SixJLabel) -> SqrtRational:
    return sixj_oracle(*label.two_j)


# ---------------------------------------------------------------------------
# 6j via the generating function g(tau)^-2
# ---------------------------------------------------------------------------
# tau variable order, tau_{i nu} for the four-triad coupling scheme
_TAU_VARS = ("01", "02", "03", "10", "20", "30", "12", "21", "13", "31", "23", "32")
_TAU_IDX = {v: i for i, v in enumerate(_TAU_VARS)}


def _tau_monomial(*names):
    e = [0] * 12
    for nm in names:
        e[_TAU_IDX[nm]] += 1
    return tuple(e)


# g = 1 + a0+a1+a2+a3 + b1+b2+b3.  Each b_i pairs tau_{0i} tau_{i0} with the
# opposite column's product, completing the symmetric pattern; only this
# completion reproduces the definitional magnetic sum (tests enforce equality
# on every label).  gf_coefficient hard-codes which a and b hold each tau;
# the tests check it against the truncated series of this g.
_G_TERMS = [
    _tau_monomial("10", "20", "30"),
    _tau_monomial("01", "31", "21"),
    _tau_monomial("32", "02", "12"),
    _tau_monomial("23", "13", "03"),
    _tau_monomial("01", "10", "23", "32"),
    _tau_monomial("02", "20", "13", "31"),
    _tau_monomial("03", "30", "12", "21"),
]


def gf_coefficient(expo) -> int:
    """Exact coefficient of tau^expo in g(tau)^-2, expo in _TAU_VARS order.

    With g = 1 + sum_k t_k, the coefficient is sum_n (-1)^N (N+1)!/prod n_k!
    over n in N^7 with sum_k n_k t_k = tau^expo, N = sum n_k.  Every tau lies
    in exactly one a_i and one b_i, so z = n_b1 fixes the other six:
    a0..a3 = (e10, e01, e32, e23) - z and b2, b3 = (e20 - e10, e30 - e10) + z.
    The six remaining tau equations do not depend on z; when they hold, the
    sum is Racah's single sum over z.
    """
    e01, e02, e03, e10, e20, e30, e12, e21, e13, e31, e23, e32 = expo
    a0, a1, a2, a3 = e10, e01, e32, e23
    b2, b3 = e20 - e10, e30 - e10
    if (a2 + b2 != e02 or a3 + b3 != e03 or a3 + b2 != e13
            or a1 + b2 != e31 or a2 + b3 != e12 or a1 + b3 != e21):
        return 0
    n0 = a0 + a1 + a2 + a3 + b2 + b3  # N at z = 0; each step of z lowers N by 1
    total = 0
    for z in range(max(0, -b2, -b3), min(a0, a1, a2, a3) + 1):
        n = n0 - z
        term = factorials(n + 1) // (
            factorials(a0 - z) * factorials(a1 - z) * factorials(a2 - z)
            * factorials(a3 - z) * factorials(z) * factorials(b2 + z)
            * factorials(b3 + z))
        total += -term if n & 1 else term
    return total


def sixj_gf(tj1, tj2, tj3, tl1, tl2, tl3) -> SqrtRational:
    """6j as the g(tau)^-2 coefficient times the four triangle deltas."""
    two_j = (tj1, tj2, tj3, tl1, tl2, tl3)
    triads = _sixj_triads(two_j)
    for t in triads:
        if sum(t) % 2 or not triangle_ok(*t):
            return SR_ZERO
    # tau_{i nu} carries J_i - 2 j_{i nu}, J_i the sum of triad i's three j;
    # pair labels j_{01}=j1, j_{02}=j2, j_{03}=j3, j_{12}=l3, j_{13}=l2, j_{23}=l1
    s0, s1, s2, s3 = (sum(t) // 2 for t in triads)
    coeff = gf_coefficient((s0 - tj1, s0 - tj2, s0 - tj3,
                            s1 - tj1, s2 - tj2, s3 - tj3,
                            s1 - tl3, s2 - tl3, s1 - tl2,
                            s3 - tl2, s2 - tl1, s3 - tl1))
    if coeff == 0:
        return SR_ZERO
    # coeff times the four triangle deltas under one square root
    return SqrtRational.from_factorial_ratio(
        coeff,
        [x for a, b, c in triads for x in ((a + b - c) // 2, (a - b + c) // 2,
                                           (-a + b + c) // 2)],
        (s0 + 1, s1 + 1, s2 + 1, s3 + 1))


def wigner_6j_gf(label: SixJLabel) -> SqrtRational:
    return sixj_gf(*label.two_j)


# ---------------------------------------------------------------------------
# 9j: magnetic sum over six 3j symbols
# ---------------------------------------------------------------------------
def ninej(two_j_rows) -> SqrtRational:
    (a, b, c), (d, e, f), (g, h, i) = two_j_rows
    for tri in ((a, b, c), (d, e, f), (g, h, i), (a, d, g), (b, e, h), (c, f, i)):
        if sum(tri) % 2 or not triangle_ok(*tri):
            return SR_ZERO
    terms = []
    for ma in range(-a, a + 1, 2):
        for mb in range(-b, b + 1, 2):
            mc = -ma - mb
            if abs(mc) > c:
                continue
            s1, q1, _ = _threej_core(a, b, c, ma, mb, mc)
            if s1 == 0:
                continue
            for md in range(-d, d + 1, 2):
                for me in range(-e, e + 1, 2):
                    mf = -md - me
                    if abs(mf) > f:
                        continue
                    s2, q2, _ = _threej_core(d, e, f, md, me, mf)
                    if s2 == 0:
                        continue
                    mg = -ma - md
                    mh = -mb - me
                    mi = -mc - mf
                    if abs(mg) > g or abs(mh) > h or abs(mi) > i:
                        continue
                    s3, q3, _ = _threej_core(g, h, i, mg, mh, mi)
                    if s3 == 0:
                        continue
                    s4, q4, _ = _threej_core(a, d, g, ma, md, mg)
                    if s4 == 0:
                        continue
                    s5, q5, _ = _threej_core(b, e, h, mb, me, mh)
                    if s5 == 0:
                        continue
                    s6, q6, _ = _threej_core(c, f, i, mc, mf, mi)
                    if s6 == 0:
                        continue
                    terms.append((s1 * s2 * s3 * s4 * s5 * s6,
                                  q1 * q2 * q3 * q4 * q5 * q6))
    return _sum_signed_sqrts(terms)


def wigner_9j(label: NineJLabel) -> SqrtRational:
    return ninej(label.two_j)


# ---------------------------------------------------------------------------
# Regge symmetries: 72-element group on the magic square
# ---------------------------------------------------------------------------
_PERM3 = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_PARITY = {(0, 1, 2): 0, (1, 2, 0): 0, (2, 0, 1): 0,
           (0, 2, 1): 1, (1, 0, 2): 1, (2, 1, 0): 1}


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
    """
    two_j, two_m = label.two_j, label.two_m
    if not triangle_ok(*two_j):
        raise ValueError("regge_orbit needs a triangle-valid label")
    if sum(two_j) % 2:
        raise ValueError("J must be integral")
    J = sum(two_j) // 2
    sq0 = _magic_square(two_j, two_m)
    seen = {}
    for rp in _PERM3:
        for cp in _PERM3:
            for transpose in (False, True):
                sq = sq0
                if transpose:
                    sq = tuple(tuple(sq[r][c] for r in range(3)) for c in range(3))
                sq = tuple(sq[r] for r in rp)
                sq = tuple(tuple(row[c] for c in cp) for row in sq)
                phase = neg_one_pow(J * (_PARITY[rp] + _PARITY[cp]))
                lab = _label_from_square(sq)
                key = (lab.two_j, lab.two_m)
                if key not in seen:
                    seen[key] = phase
    return {(ThreeJLabel(*k), v) for k, v in seen.items()}


# ---------------------------------------------------------------------------
# Gaunt coefficient
# ---------------------------------------------------------------------------
def gaunt(l1, m1, l2, m2, l3, m3) -> float:
    """Integral of Y_{l1 m1} Y_{l2 m2} Y_{l3 m3} over the sphere."""
    if (l1 + l2 + l3) % 2 or m1 + m2 + m3 != 0:
        return 0.0
    a = threej(2 * l1, 2 * l2, 2 * l3, 0, 0, 0)
    b = threej(2 * l1, 2 * l2, 2 * l3, 2 * m1, 2 * m2, 2 * m3)
    if not a or not b:
        return 0.0
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4 * math.pi))
    return pref * float(a) * float(b)
