"""Sparse exact multivariate polynomials and truncated power series.

A polynomial is a dict mapping exponent tuples to int (or Fraction)
coefficients.  poly_add, poly_mul and bargmann_dot are exact, and the last
two keep integer coefficients integer.  No production route calls this
module: the U(n) boson polynomials have their own pruned product in
unitary.  It stays while the benchmark's trace hooks name poly_mul,
bargmann_dot and TruncatedSeries.inverse, and for the tests.  The rest of
the polynomial calculus (constants, variables, scaling, powers,
derivatives, the Laplacian, evaluation, composition) serves only the tests'
exact identity checks and lives in tests/oracles.py.
TruncatedSeries expands g(tau)^-2 term by term; it is the test oracle for
the closed-form 6j coefficient in wigner, not a production route.
"""
from __future__ import annotations

import math
from fractions import Fraction


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


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
