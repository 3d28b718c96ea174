"""SU(3): multiplicity-free couplings (lambda1,0) x (lambda2,0), isoscalar
factors, and the Euler-angle factorization of SU(3) matrices.

A Wigner coefficient is an isoscalar factor times an SU(2) 3j,
  w = iso * 3j(t1 t2 t3; t01 t02 -t03),
and each isoscalar factor is one SU(2) Clebsch-Gordan coefficient.  A
(lam,0) chain is (y, 2t) with 2t = p and y = 3p - 2 lam.  With p1 = 2t1,
p2 = 2t2 and Q = lam1 + lam2 - p1 - p2,
  iso = (-1)^(mu3+p1) sqrt((2t3+1) / dim(lam3,mu3))
        <t3, (p1-p2)/2; Q/2, (lam1-p1-lam2+p2)/2 | lam3/2, (lam1-lam2)/2>
where y3 = y1 + y2 and (y3, 2t3) is a chain of (lam3, mu3), and 0
elsewhere (Draayer and Akiyama, J. Math. Phys. 14, 1904 (1973)).

Why, in a sketch: by (U(3), U(2)) duality on the polynomials in two copies
z, z' of C^3, the coupled irrep (lam3, mu3) pairs with the copies' U(2) at
spin lam3/2 and weight (lam1 - lam2)/2.  Restricting U(3) to U(2) x U(1)
splits that spin into t3, carried by the first two coordinates, and Q/2,
carried by the third; the CG of that split is the isoscalar factor up to
the normalization sqrt((2t3+1)/dim) and the phase.

So a coupling table builds no polynomial and factors no integer: each
entry is one SqrtRational.from_exponents of the CG's integer times the
3j's Van der Waerden sum (wigner._van_der_waerden), and the table's
isoscalar factors are filled in the same pass.  The factorials under the
root are summed as prime-exponent vectors (exact.factorial_exponents),
each where it changes, as WIGXJPF reuses exponent vectors (Johansson and
Forssen, SIAM J. Sci. Comput. 38, A376 (2016)): the CG's, the dimension
factor's and the 3j's triangle part once per (p1, p2, q3) block, the two
(j1 +- m1)! once per 2t01 row, and only the other four (j +- m)! and the
sum's common denominator per entry.  Every coupling of the 18 pairs
(lam1,0) x (lam2,0) with lam <= 6 and lam1 + lam2 in 6..8 takes 55-94 ms,
where summing all 30 shared factorials again for every entry took
74-110 ms, and every table of (9,0) x (9,0) 0.41-0.60 s against
0.67-0.79 s (best of five passes, six alternating processes, Python
3.11.7, 2-vCPU VM).  Only half the entries are computed:
the 3j mirror 3j(j1 j2 j3; -m) = (-1)^(j1+j2+j3) 3j(j1 j2 j3; m) carries over
to w, since iso does not depend on the t0, so the entry with every 2t0
negated is (-1)^((p1+p2+2t3)/2) w, and negating a canonical value keeps it
canonical.  The invariant-polynomial contraction
in Fock-Bargmann space that the paper's generating function gives is the
tests' oracle (tests/oracles.py), beside a projection onto the quadratic
Casimir of the product space.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .exact import (SR_ZERO, SqrtRational, factorial_exponents, neg_one_pow,
                    triangle_ok)
from .wigner import _threej_sum, _van_der_waerden
# unused here; perfbench's --trace 1 patches these names on this module
from .polytools import bargmann_dot, poly_mul  # noqa: F401
from .wigner import threej  # noqa: F401


class Su3Label(namedtuple("Su3Label", "lam mu p q two_t two_t0 y")):
    """A state of the SU(3) irrep (lam, mu) in its SU(2)xU(1) basis; a
    validated named tuple, as ThreeJLabel: the frozen dataclass it replaces
    took about three times as long to build from a key, and loaded
    dataclasses."""

    __slots__ = ()

    def __new__(cls, lam, mu, p, q, two_t, two_t0, y):
        if not (0 <= p <= lam and 0 <= q <= mu):
            raise ValueError("p,q out of range")
        if two_t != mu + p - q:
            raise ValueError("t != mu/2 + (p-q)/2")
        if y != -(2 * lam + mu) + 3 * (p + q):
            raise ValueError("hypercharge inconsistent")
        if abs(two_t0) > two_t or (two_t - two_t0) % 2:
            raise ValueError("t0 out of range")
        return super().__new__(cls, lam, mu, p, q, two_t, two_t0, y)

    @staticmethod
    def from_key(lam, mu, key) -> "Su3Label":
        y, tt, tt0 = key
        psum3 = y + (2 * lam + mu)
        if psum3 % 3:
            raise ValueError("no such state")
        s = psum3 // 3
        p = (s + (tt - mu)) // 2
        q = s - p
        return Su3Label(lam, mu, p, q, tt, tt0, y)

    @property
    def key(self):
        return (self.y, self.two_t, self.two_t0)


def dim_su3(lam: int, mu: int) -> int:
    return (lam + 1) * (mu + 1) * (lam + mu + 2) // 2


def su3_state_keys(lam: int, mu: int):
    """(y, two_t, two_t0) keys of the SU(2)xU(1) basis of (lam, mu)."""
    out = []
    for p in range(lam + 1):
        for q in range(mu + 1):
            tt = mu + p - q
            y = -(2 * lam + mu) + 3 * (p + q)
            for tt0 in range(-tt, tt + 1, 2):
                out.append((y, tt, tt0))
    return out


def su3_decompose_multfree(lam1: int, lam2: int):
    """(lam1,0) x (lam2,0) -> [(lam3, mu3)], mu3 = 0..min(lam1,lam2).

    A negative lam1 or lam2 labels no irrep and raises ValueError, as in
    coupling_table."""
    if lam1 < 0 or lam2 < 0:
        raise ValueError("lam1 and lam2 must be >= 0")
    return [(lam1 + lam2 - 2 * mu3, mu3) for mu3 in range(min(lam1, lam2) + 1)]


def _in_decomposition(lam1, lam2, lam3, mu3) -> bool:
    """(lam3, mu3) in su3_decompose_multfree(lam1, lam2), without the list."""
    return lam3 == lam1 + lam2 - 2 * mu3 and 0 <= mu3 <= min(lam1, lam2)


class _CouplingTable(dict):
    """A coupling table, {(key1, key2, key3): SqrtRational}, holding in `iso`
    its nonzero isoscalar factors, keyed by the three (y, 2t) chains and
    filled with the table.  They live in the table's own cache entry, so
    coupling_table.cache_clear() drops them with it."""

    __slots__ = ("iso",)

    def __init__(self):
        super().__init__()
        self.iso = {}


@lru_cache(maxsize=64)
def coupling_table(lam1: int, lam2: int, mu3: int):
    """Exact Wigner table for (lam1,0) x (lam2,0) -> (lam3, mu3).

    Returns {(key1, key2, key3): SqrtRational}; keys are (y, 2t, 2t0).
    Normalized so sum over (key1,key2) of w^2 = 1/dim(lam3,mu3) per key3;
    the phase makes the highest-weight coefficient positive.  Each entry
    is iso * 3j from the closed form of the module docstring, canonicalized
    once from the CG's integer from _threej_sum and the 3j's Van der
    Waerden sum, over an exponent vector built from the block's shared one
    (the CG's, the dimension factor's and the 3j's triangle part), the
    2t01 row's (j1 +- m1)! and the entry's own four (j +- m)!, less twice
    the sum's common denominator.  The isoscalar factor reads the CG part
    of the block's vector.  Only the entries with 2t03 > 0, or 2t03 = 0
    and 2t01 >= 0, are computed, and |2t03| <= 2t3; each gives its mirror,
    the key with all three 2t0 negated, as (-1)^((p1+p2+2t3)/2) times its
    value, with nothing canonicalized again.
    """
    if lam1 < 0 or lam2 < 0 or not 0 <= mu3 <= min(lam1, lam2):
        raise ValueError("bad multiplicity-free coupling labels")
    lam3 = lam1 + lam2 - 2 * mu3
    # sqrt((2 t3 + 1) / dim) as factorial exponents, the lam3 + 1 of dim
    # left out: it cancels the CG's sqrt(2 j3 + 1) = sqrt(lam3 + 1)
    dim = (factorial_exponents((2, mu3, lam3 + mu3 + 1))
           - factorial_exponents((1, mu3 + 1, lam3 + mu3 + 2)))
    table = _CouplingTable()
    for p1 in range(lam1 + 1):
        y1 = 3 * p1 - 2 * lam1
        for p2 in range(lam2 + 1):
            y2 = 3 * p2 - 2 * lam2
            y3, big_q = y1 + y2, lam1 + lam2 - p1 - p2
            s = p1 + p2 - mu3   # p3 + q3 of the chains of (lam3, mu3) at y3
            for q3 in range(max(0, s - lam3), min(mu3, s) + 1):
                tt3 = p1 + p2 - 2 * q3
                # the CG is (-1)^(t3 - Q/2 + (lam1-lam2)/2) sqrt(lam3 + 1)
                # times this 3j, m3 negated; it vanishes off the t triangle,
                # as |p1 - p2| <= 2 t3 = p1 + p2 - 2 q3 is its |m1| <= j1
                cg = _threej_sum(tt3, big_q, lam3, p1 - p2,
                                 lam1 - p1 - lam2 + p2, lam2 - lam1)
                if cg is None:
                    continue
                pc, num_c, den_c = cg
                pc *= neg_one_pow(mu3 + p1 + (tt3 - big_q + lam1 - lam2) // 2)
                iso = (factorial_exponents((*num_c, tt3 + 1))
                       - factorial_exponents((*den_c, tt3)) + dim)
                table.iso[y1, p1, y2, p2, y3, tt3] = SqrtRational.from_exponents(pc, iso)
                # each entry's 3j(p1 p2 tt3; tt01 tt02 -tt03) has the
                # block's triangle part, q3! (p1-q3)! (p2-q3)! / (p1+p2-q3+1)!,
                # and a = q3 in its Van der Waerden sum
                block = (iso + factorial_exponents((q3, p1 - q3, p2 - q3))
                         - factorial_exponents((p1 + p2 - q3 + 1,)))
                mirror = neg_one_pow((p1 + p2 + tt3) // 2)
                for tt01 in range(-p1, p1 + 1, 2):
                    b = (p1 - tt01) // 2        # j1 - m1; j1 + m1 is p1 - b
                    row = block + factorial_exponents((p1 - b, b))
                    for tt02 in range(-p2, p2 + 1, 2):
                        tt03 = tt01 + tt02
                        if tt03 < 0 or tt03 == 0 and tt01 < 0:
                            continue    # the mirror of an entry computed here
                        if tt03 > tt3:
                            continue
                        c = (p2 + tt02) // 2    # j2 + m2; j2 - m2 is p2 - c
                        total, q_args = _van_der_waerden(q3, b, c, p1 - b - q3, p2 - c - q3)
                        if not total:
                            continue
                        w = SqrtRational.from_exponents(
                            neg_one_pow((p1 - p2 + tt03) // 2) * pc * total,
                            row + factorial_exponents(
                                (c, p2 - c, (tt3 + tt03) // 2, (tt3 - tt03) // 2))
                            - 2 * factorial_exponents(q_args))
                        table[(y1, p1, tt01), (y2, p2, tt02), (y3, tt3, tt03)] = w
                        if tt01 or tt02:
                            table[(y1, p1, -tt01), (y2, p2, -tt02), (y3, tt3, -tt03)] = (
                                w if mirror > 0 else -w)
    return table


def su3_wigner_multfree(lam1, lam2, lam3, mu3, a1: Su3Label, a2: Su3Label,
                        a3: Su3Label):
    """(wigner, isoscalar) for <(lam1,0) a1; (lam2,0) a2 | (lam3,mu3) a3>-type
    3j-normalized coefficients; exact zeros on selection-rule failure."""
    if (a1.lam, a1.mu, a2.lam, a2.mu, a3.lam, a3.mu) != (lam1, 0, lam2, 0, lam3, mu3):
        raise ValueError("labels must be states of (lam1,0), (lam2,0), (lam3,mu3)")
    if not _in_decomposition(lam1, lam2, lam3, mu3):
        return SR_ZERO, SR_ZERO
    table = coupling_table(lam1, lam2, mu3)
    y1, tt1, y2, tt2, y3, tt3 = a1.y, a1.two_t, a2.y, a2.two_t, a3.y, a3.two_t
    return (table.get(((y1, tt1, a1.two_t0), (y2, tt2, a2.two_t0), (y3, tt3, a3.two_t0)),
                      SR_ZERO),
            table.iso.get((y1, tt1, y2, tt2, y3, tt3), SR_ZERO))


def su3_isoscalar(lam1, lam2, lam3, mu3, chain1, chain2, chain3):
    """Isoscalar factor for the (y,t)-chains; wigner = isoscalar * 3j.

    Read from the coupling table, which holds every nonzero factor; a
    failed t triangle gives 0 before any table is built.  A negative lam1
    or lam2 labels no irrep and raises ValueError, as in coupling_table."""
    if lam1 < 0 or lam2 < 0:
        raise ValueError("lam1 and lam2 must be >= 0")
    if not _in_decomposition(lam1, lam2, lam3, mu3):
        return SR_ZERO
    (y1, tt1), (y2, tt2), (y3, tt3) = chain1, chain2, chain3
    if not triangle_ok(tt1, tt2, tt3):
        return SR_ZERO
    return coupling_table(lam1, lam2, mu3).iso.get((y1, tt1, y2, tt2, y3, tt3), SR_ZERO)


# ---------------------------------------------------------------------------
# SU(3) Euler factorization U3 = A2[B3 D3]A2
# ---------------------------------------------------------------------------
def su2_cayley_klein(psi, theta, phi):
    """Embedded SU(2) Cayley-Klein pair (a1, a2)."""
    import numpy as np
    a1 = math.cos(theta / 2) * np.exp(-1j * (psi + phi) / 2)
    a2 = math.sin(theta / 2) * np.exp(-1j * (psi - phi) / 2)
    return a1, a2


def su3_euler_matrix(a_params, nu3, beta3, b_params):
    """U3 = A2(a) [B3(nu3) D(beta3)] A2(b); unitary with unit determinant.

    a_params, b_params: SU(2) Euler triples (psi, theta, phi).
    """
    import numpy as np

    def embedded_su2(params):
        a1, a2 = su2_cayley_klein(*params)
        return np.array([[a1, a2, 0], [-np.conj(a2), np.conj(a1), 0],
                         [0, 0, 1.0]], dtype=complex)

    B = np.array([[1, 0, 0],
                  [0, math.cos(nu3 / 2), math.sin(nu3 / 2)],
                  [0, -math.sin(nu3 / 2), math.cos(nu3 / 2)]], dtype=complex)
    d3 = np.exp(1j * beta3)
    D = np.diag([d3, d3, np.conj(d3) ** 2])
    return embedded_su2(a_params) @ B @ D @ embedded_su2(b_params)
