"""Sparse exact multivariate polynomials and truncated power series.

A polynomial is a dict mapping exponent tuples to Fraction (or int)
coefficients.  All operations are exact; these are workhorses for the
symbolic identity checks (Hurwitz products, Laplacian pullback, boson
polynomials).  TruncatedSeries expands g(tau)^-2 term by term; it is the
test oracle for the closed-form 6j coefficient in wigner, not a production
route.
"""
from __future__ import annotations

import math
from fractions import Fraction


def poly_zero():
    return {}


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
    out = poly_const(1, nvars)
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
    monomials are orthogonal with norm^2 = prod(e_i!)."""
    tot = Fraction(0)
    for e, c in a.items():
        cb = b.get(e)
        if cb:
            f = 1
            for x in e:
                f *= math.factorial(x)
            tot += c * cb * f
    return tot


class TruncatedSeries:
    """Multivariate power series over exact integers/rationals, truncated by
    total degree.  Supports the inversion that expands g(tau)^-2 for the
    tests of wigner.gf_coefficient."""

    def __init__(self, terms, nvars, max_degree):
        self.nvars = nvars
        self.max_degree = max_degree
        self.terms = {e: c for e, c in terms.items() if sum(e) <= max_degree and c}

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = {}
        md = self.max_degree
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > md:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return TruncatedSeries(out, self.nvars, md)

    def inverse(self) -> "TruncatedSeries":
        """1/self for series with unit constant term.

        Contraction iteration h <- 1 - (f-1) h; each pass extends the correct
        degrees by the minimal degree of (f-1), so ceil(D/mindeg) passes give
        the inverse truncated at D.
        """
        one = tuple([0] * self.nvars)
        if self.terms.get(one) != 1:
            raise ValueError("series inverse needs unit constant term")
        f1 = {e: c for e, c in self.terms.items() if e != one}
        if not f1:
            return TruncatedSeries({one: 1}, self.nvars, self.max_degree)
        mindeg = min(sum(e) for e in f1)
        h = {one: 1}
        for _ in range(self.max_degree // mindeg + 1):
            new = {one: 1}
            for e1, c1 in f1.items():
                d1 = sum(e1)
                for e2, c2 in h.items():
                    if d1 + sum(e2) > self.max_degree:
                        continue
                    e = tuple(x + y for x, y in zip(e1, e2))
                    s = new.get(e, 0) - c1 * c2
                    if s:
                        new[e] = s
                    else:
                        new.pop(e, None)
            if new == h:
                break
            h = new
        return TruncatedSeries(h, self.nvars, self.max_degree)

    def coefficient(self, expo) -> Fraction:
        return self.terms.get(tuple(expo), 0)
