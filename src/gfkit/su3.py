"""SU(3): multiplicity-free couplings (lambda1,0) x (lambda2,0), isoscalar
factors, and the Euler-angle factorization of SU(3) matrices.

Wigner coefficients come from the invariant polynomial
  h = N [z1.(z3 x z5)]^{mu3} (z3.z56)^{lam2-mu3} (z1.z56)^{lam1-mu3}
contracted against basis states in Fock-Bargmann space, z56 = z5 x z6.
The (lam,0) states are monomials, so a product state z1^a1 z3^a2 meets only
the slice of h with those (z1, z3) exponents.  The slices are indexed once,
each kept factored over the polynomials z5^f z56^nu, and each conjugated
third state is dotted against its slice only.  All of this is exact integer
arithmetic; the normalization, fixed by orthonormality (the per-state sum of
squared coefficients equals 1/dim), is the one rational step, and the values
factor exactly into isoscalar times SU(2) 3j.  An isoscalar factor is one
table entry, the stretched one, over its 3j, kept with the table once read.
The tests project the coupled states of the tables onto eigenvectors of the
quadratic Casimir built on the product space, an oracle kept beside them.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import SR_ZERO, SqrtRational, triangle_ok
from .polytools import bargmann_dot, poly_mul, poly_pow
from .wigner import threej


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
    """(lam1,0) x (lam2,0) -> [(lam3, mu3)], mu3 = 0..min(lam1,lam2)."""
    return [(lam1 + lam2 - 2 * mu3, mu3) for mu3 in range(min(lam1, lam2) + 1)]


# ---------------------------------------------------------------------------
# basis polynomials in Fock-Bargmann variables, integer coefficients
# ---------------------------------------------------------------------------
def _monomial_exponents(lam, key):
    """(a, b, c) of the (lam,0) basis state z_1^a z_2^b z_3^c / sqrt(a! b! c!)."""
    y, tt, tt0 = key
    return (tt + tt0) // 2, (tt - tt0) // 2, lam - (y + 2 * lam) // 3


def _compositions(n):
    """Exponent triples of total degree n."""
    return [(a, b, n - a - b) for a in range(n + 1) for b in range(n - a + 1)]


def _multinomial(n, parts):
    out = math.factorial(n)
    for x in parts:
        out //= math.factorial(x)
    return out


class _CrossBasis:
    """The polynomials z^f w^nu, w = z x z', on (z, z') = variables 0-2, 3-5,
    with integer coefficients, built once per (f, nu) and kept."""

    def __init__(self, max_power):
        self.wpow = []   # wpow[k][n] = w_k^n, n <= max_power
        for k in range(3):
            i1, i2 = (k + 1) % 3, (k + 2) % 3
            plus, minus = [0] * 6, [0] * 6
            plus[i1] = plus[3 + i2] = minus[i2] = minus[3 + i1] = 1
            wk = {tuple(plus): 1, tuple(minus): -1}
            pw = [{(0,) * 6: 1}]
            for _ in range(max_power):
                pw.append(poly_mul(pw[-1], wk))
            self.wpow.append(pw)
        self.w_nu = {}
        self.polys = {}

    def __call__(self, f, nu):
        out = self.polys.get((f, nu))
        if out is None:
            w = self.w_nu.get(nu)
            if w is None:
                w0, w1, w2 = self.wpow
                w = self.w_nu[nu] = poly_mul(poly_mul(w0[nu[0]], w1[nu[1]]), w2[nu[2]])
            out = self.polys[f, nu] = poly_mul({f + (0, 0, 0): 1}, w)
        return out


def _v_poly(lam, mu, p, q, tt0, basis):
    """Generating-function extraction of V^{(lam,mu)}_{p,q,t0} with w = z x z'
    substituted, as a polynomial on the variables of basis (a _CrossBasis).

    Integer numerators only: every term shares the denominator
    p! (lam-p)! (mu-q)! q!, which cancels in the normalized coefficients.
    The (-1)^q of the state normalization is carried separately."""
    tt = mu + p - q
    b = mu - q
    out = {}
    for i in range(p + 1):
        j = i + b - (tt + tt0) // 2
        if not 0 <= j <= b:
            continue
        c = math.comb(p, i) * math.comb(b, j) * (-1) ** (b - j)
        for e, x in basis((i, p - i, lam - p), (j, b - j, q)).items():
            out[e] = out.get(e, 0) + c * x
    return {e: c for e, c in out.items() if c}


def _invariant_slices(lam1, lam2, mu3):
    """The invariant h0 = [z1.(z3 x z5)]^k1 (z1.w)^k3 (z3.w)^k2, w = z5 x z6,
    indexed by its (z1, z3) exponents; each slice is kept factored, as
    {(z1, z3) exponents: {(f, nu): c}} with h0[a1, a2] = sum c z5^f w^nu and
    integer c.

    By the multinomial theorem the z1^g z3^d term of (z1.w)^k3 (z3.w)^k2 is
    multinom(k3; g) multinom(k2; d) w^(g+d), so each term z1^r z3^s z5^f of
    the determinant power adds to the slice at (r+g, s+d)."""
    k1, k2, k3 = mu3, lam2 - mu3, lam1 - mu3
    det = {}
    for perm in itertools.permutations(range(3)):
        sg = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        e = [0] * 9
        e[perm[0]] = e[3 + perm[1]] = e[6 + perm[2]] = 1
        det[tuple(e)] = sg
    gs = [(g, _multinomial(k3, g)) for g in _compositions(k3)]
    ds = [(d, _multinomial(k2, d)) for d in _compositions(k2)]
    slices = {}
    for e, c in poly_pow(det, k1, 9).items():
        f = e[6:]
        for g, cg in gs:
            a1 = (e[0] + g[0], e[1] + g[1], e[2] + g[2])
            for d, cd in ds:
                h = slices.setdefault(a1 + (e[3] + d[0], e[4] + d[1], e[5] + d[2]), {})
                fnu = (f, (g[0] + d[0], g[1] + d[1], g[2] + d[2]))
                h[fnu] = h.get(fnu, 0) + c * cg * cd
    return {a: {fnu: c for fnu, c in h.items() if c} for a, h in slices.items()}


class _CouplingTable(dict):
    """A coupling table, {(key1, key2, key3): SqrtRational}, holding in `iso`
    the isoscalar factors su3_isoscalar has read from it, keyed by the three
    (y, 2t) chains.  They live in the table's own cache entry, so
    coupling_table.cache_clear() drops them with it."""

    __slots__ = ("iso",)

    def __init__(self, *args):
        super().__init__(*args)
        self.iso = {}


@lru_cache(maxsize=64)
def coupling_table(lam1: int, lam2: int, mu3: int):
    """Exact Wigner table for (lam1,0) x (lam2,0) -> (lam3, mu3).

    Returns {(key1, key2, key3): SqrtRational}; keys are (y, 2t, 2t0).
    Normalized so sum over (key1,key2) of w^2 = 1/dim(lam3,mu3) per key3;
    overall sign makes the highest-weight coefficient positive.
    """
    if lam1 < 0 or lam2 < 0 or not 0 <= mu3 <= min(lam1, lam2):
        raise ValueError("bad multiplicity-free coupling labels")
    lam3 = lam1 + lam2 - 2 * mu3
    slices = _invariant_slices(lam1, lam2, mu3)
    basis = _CrossBasis(lam3)   # on (z5, z6); every w power is at most lam3
    # conjugated third-state polynomials on (z5, z6), grouped by (y, 2t0)
    v3 = {}
    n3sq = {}
    for p3 in range(lam3 + 1):
        for q3 in range(mu3 + 1):
            tt3 = mu3 + p3 - q3
            y3 = -(2 * lam3 + mu3) + 3 * (p3 + q3)
            pc, qc = mu3 - q3, lam3 - p3
            for tt03 in range(-tt3, tt3 + 1, 2):
                vc = _v_poly(mu3, lam3, pc, qc, -tt03, basis)
                # conjugation phase (-1)^{y_c/2 - t0_c} with y_c=-y3,
                # t0_c=-t03, plus the state's own (-1)^{q} convention
                expo = (tt03 - y3) // 2 + qc
                if expo % 2:
                    vc = {e: -c for e, c in vc.items()}
                key3 = (y3, tt3, tt03)
                v3.setdefault((y3, tt03), []).append((key3, vc))
                n3sq[key3] = bargmann_dot(vc, vc)
    dots = {}   # (key3, f, nu) -> <vc | z5^f w^nu>, shared by all slices
    # <m1 m2 vc | h0> with m1 m2 = z1^a1 z3^a2 is a1! a2! <vc | h0[a1, a2]>.
    # raw_vals holds t = <vc | h0[a1, a2]> and a1! a2! t^2, so the squared
    # coefficient before normalization, <m1 m2 vc | h0>^2 / (|m1|^2 |m2|^2
    # |vc|^2), is a1! a2! t^2 / |vc|^2.
    raw_vals = {}
    for key1 in su3_state_keys(lam1, 0):
        a1 = _monomial_exponents(lam1, key1)
        for key2 in su3_state_keys(lam2, 0):
            a2 = _monomial_exponents(lam2, key2)
            h = slices.get(a1 + a2)
            if h is None:
                continue
            n12 = math.prod(map(math.factorial, a1 + a2))
            for key3, vc in v3.get((key1[0] + key2[0], key1[2] + key2[2]), ()):
                t = 0
                for (f, nu), c in h.items():
                    x = dots.get((key3, f, nu))
                    if x is None:
                        x = dots[key3, f, nu] = bargmann_dot(basis(f, nu), vc)
                    t += c * x
                if t:
                    raw_vals[(key1, key2, key3)] = (t, n12 * t * t)
    if not raw_vals:
        return _CouplingTable()
    # Schur normalization: the sum of squares over each key3, sum3 / |vc|^2,
    # is one constant s0, and wigner^2 = a1! a2! t^2 / (|vc|^2 s0 dim3)
    # = a1! a2! t^2 / (sum3 dim3)
    sum3 = {}
    for (k1, k2, k3), (_, sq) in raw_vals.items():
        sum3[k3] = sum3.get(k3, 0) + sq
    if len({Fraction(s, n3sq[k3]) for k3, s in sum3.items()}) != 1:
        raise AssertionError("invariant tensor failed Schur constancy")
    dim3 = dim_su3(lam3, mu3)

    def sign(key, t):
        # conjugation metric phase, making wigner = isoscalar * 3j exact
        return (1 if t > 0 else -1) * (-1) ** ((key[2][1] - key[2][2]) // 2)

    # overall sign: highest key3, then highest (key1,key2), coefficient > 0
    top = max(raw_vals, key=lambda k: (k[2], k[0], k[1]))
    flip = sign(top, raw_vals[top][0])
    return _CouplingTable(
        (k, SqrtRational.from_square(Fraction(sq, sum3[k[2]] * dim3), flip * sign(k, t)))
        for k, (t, sq) in raw_vals.items())


def su3_wigner_multfree(lam1, lam2, lam3, mu3, a1: Su3Label, a2: Su3Label,
                        a3: Su3Label):
    """(wigner, isoscalar) for <(lam1,0) a1; (lam2,0) a2 | (lam3,mu3) a3>-type
    3j-normalized coefficients; exact zeros on selection-rule failure."""
    if a1.mu != 0 or a2.mu != 0:
        raise ValueError("multiplicity-free route needs mu1 = mu2 = 0")
    if (lam3, mu3) not in su3_decompose_multfree(lam1, lam2):
        return SR_ZERO, SR_ZERO
    table = coupling_table(lam1, lam2, mu3)
    w = table.get((a1.key, a2.key, a3.key), SR_ZERO)
    iso = su3_isoscalar(lam1, lam2, lam3, mu3,
                        (a1.y, a1.two_t), (a2.y, a2.two_t), (a3.y, a3.two_t))
    return w, iso


def su3_isoscalar(lam1, lam2, lam3, mu3, chain1, chain2, chain3):
    """Isoscalar factor for the (y,t)-chains; wigner = isoscalar * 3j.

    The factor does not depend on the t0 projections, so one magnetic
    triple gives it: the stretched one, t01 = t1 and t02 = -t2, whose 3j
    single sum has only the k = 0 term and so is nonzero exactly when the
    t triangle holds.  Each factor is computed once per table and kept in
    the table's cache entry."""
    if (lam3, mu3) not in su3_decompose_multfree(lam1, lam2):
        return SR_ZERO
    (y1, tt1), (y2, tt2), (y3, tt3) = chain1, chain2, chain3
    if not triangle_ok(tt1, tt2, tt3):
        return SR_ZERO
    table = coupling_table(lam1, lam2, mu3)
    key = (y1, tt1, y2, tt2, y3, tt3)
    iso = table.iso.get(key)
    if iso is None:
        w = table.get(((y1, tt1, tt1), (y2, tt2, -tt2), (y3, tt3, tt1 - tt2)))
        # two threads may both fill one key; they store equal values
        iso = table.iso[key] = (SR_ZERO if w is None
                                else w / threej(tt1, tt2, tt3, tt1, -tt2, tt2 - tt1))
    return iso


# ---------------------------------------------------------------------------
# SU(3) Euler factorization U3 = A2[B3 D3]A2
# ---------------------------------------------------------------------------
def su2_cayley_klein(psi, theta, phi):
    """Embedded SU(2) Cayley-Klein pair (a1, a2)."""
    a1 = math.cos(theta / 2) * np.exp(-1j * (psi + phi) / 2)
    a2 = math.sin(theta / 2) * np.exp(-1j * (psi - phi) / 2)
    return a1, a2


def su3_euler_matrix(a_params, nu3, beta3, b_params):
    """U3 = A2(a) [B3(nu3) D(beta3)] A2(b); unitary with unit determinant.

    a_params, b_params: SU(2) Euler triples (psi, theta, phi).
    """
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
