"""Sparse exact multivariate polynomials and truncated power series.

A polynomial is a dict mapping exponent tuples to Fraction (or int)
coefficients.  All operations are exact, and poly_mul, poly_pow and
bargmann_dot keep integer coefficients integer.  The U(n) boson polynomials
and the symbolic Hurwitz matrices are built from them, and the tests' exact
identity checks (the Hurwitz products, the Laplacian pullback, the
Gegenbauer-Gaussian determinants, the SU(3) invariant contraction) use them
too.
TruncatedSeries expands g(tau)^-2 term by term; it is the test oracle for
the closed-form 6j coefficient in wigner, not a production route.
"""
from __future__ import annotations

import math
from fractions import Fraction


def poly_const(c, nvars):
    if c == 0:
        return {}
    return {tuple([0] * nvars): Fraction(c)}


def poly_var(i, nvars, c=1):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(c)}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(a, c):
    if c == 0:
        return {}
    return {e: v * c for e, v in a.items()}


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_pow(a, n, nvars):
    if n < 0:
        # the squaring loop below would never end
        raise ValueError("poly_pow needs an exponent n >= 0")
    out = {tuple([0] * nvars): 1}
    base = a
    while n:
        if n & 1:
            out = poly_mul(out, base)
        n >>= 1
        if n:
            base = poly_mul(base, base)
    return out


def poly_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return out


def poly_laplacian(a, nvars):
    out = {}
    for i in range(nvars):
        out = poly_add(out, poly_diff(poly_diff(a, i), i))
    return out


def poly_eval(a, xs):
    tot = Fraction(0)
    for e, c in a.items():
        v = Fraction(c)
        for x, p in zip(xs, e):
            if p:
                v *= Fraction(x) ** p
        tot += v
    return tot


def poly_compose(a, subs, nvars_out):
    """Substitute variable i -> subs[i] (polynomials in the output space)."""
    out = {}
    cache = {}

    def spow(i, p):
        key = (i, p)
        if key not in cache:
            cache[key] = poly_pow(subs[i], p, nvars_out)
        return cache[key]

    for e, c in a.items():
        term = poly_const(c, nvars_out)
        for i, p in enumerate(e):
            if p:
                term = poly_mul(term, spow(i, p))
        out = poly_add(out, term)
    return out


def bargmann_dot(a, b):
    """Fock-Bargmann inner product of two real-coefficient polynomials:
    monomials are orthogonal with norm^2 = prod(e_i!).  Iterates over a, so
    pass the smaller polynomial first."""
    tot = 0
    for e, c in a.items():
        cb = b.get(e)
        if cb:
            tot += c * cb * math.prod(map(math.factorial, e))
    return tot


class TruncatedSeries:
    """Multivariate power series over exact integers/rationals, truncated by
    total degree.  Supports the inversion that expands g(tau)^-2 for the
    tests of the 6j coefficient (wigner._sixj_coefficient, and the oracle
    that reads it from the twelve tau exponents)."""

    def __init__(self, terms, nvars, max_degree):
        self.nvars = nvars
        self.max_degree = max_degree
        self.terms = {e: c for e, c in terms.items() if sum(e) <= max_degree and c}

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(poly_mul(self.terms, other.terms), self.nvars,
                               self.max_degree)

    def inverse(self) -> "TruncatedSeries":
        """1/self for series with unit constant term.

        Contraction iteration h <- 1 - (f-1) h; each pass extends the correct
        degrees by the minimal degree of (f-1), so ceil(D/mindeg) passes give
        the inverse truncated at D.
        """
        one = tuple([0] * self.nvars)
        if self.terms.get(one) != 1:
            raise ValueError("series inverse needs unit constant term")
        minus_f1 = TruncatedSeries({e: -c for e, c in self.terms.items() if e != one},
                                   self.nvars, self.max_degree)
        if not minus_f1.terms:
            return TruncatedSeries({one: 1}, self.nvars, self.max_degree)
        mindeg = min(sum(e) for e in minus_f1.terms)
        h = TruncatedSeries({one: 1}, self.nvars, self.max_degree)
        for _ in range(self.max_degree // mindeg + 1):
            new = TruncatedSeries(poly_add({one: 1}, minus_f1.mul(h).terms),
                                  self.nvars, self.max_degree)
            if new.terms == h.terms:
                break
            h = new
        return h

    def coefficient(self, expo) -> Fraction:
        return self.terms.get(tuple(expo), 0)
