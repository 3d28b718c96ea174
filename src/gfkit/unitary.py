"""U(n) representation machinery: Gel'fand patterns, Weyl dimensions,
weights, the binary coding of fundamental-representation minors, the
P_n(1) combinatorial factors and the boson polynomials of every U(n).

The boson polynomials come from one product of the branching kernel's
brackets, pruned as it goes to the terms that can still reach the pattern's
U(n-1) parameter monomial.  The tests hold it against the full expansion,
and their P_n(1) oracle is that full expansion with every minor set to 1.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------
# The labels below are validated named tuples, as ThreeJLabel: frozen
# dataclasses would load dataclasses and inspect, about 10 ms of import.
class IrrepLabel(namedtuple("IrrepLabel", "h")):
    __slots__ = ()

    def __new__(cls, h):
        if any(h[i] < h[i + 1] for i in range(len(h) - 1)) or h[-1] < 0:
            raise ValueError(f"irrep label must be non-increasing, >= 0: {h}")
        return super().__new__(cls, h)

    @property
    def n(self):
        return len(self.h)


class GelfandPattern(namedtuple("GelfandPattern", "rows")):
    """rows top-to-bottom: rows[0] has n entries, rows[-1] has one."""

    __slots__ = ()

    def __new__(cls, rows):
        n = len(rows[0])
        if tuple(len(r) for r in rows) != tuple(range(n, 0, -1)):
            raise ValueError("pattern must be triangular")
        for k in range(len(rows) - 1):
            up, lo = rows[k], rows[k + 1]
            for i, v in enumerate(lo):
                if not (up[i] >= v >= up[i + 1]):
                    raise ValueError(f"betweenness violated at row {k + 1}")
        return super().__new__(cls, rows)

    @property
    def n(self):
        return len(self.rows[0])

    @property
    def top(self):
        return IrrepLabel(self.rows[0])

    def to_text(self) -> str:
        return " / ".join(" ".join(str(x) for x in row) for row in self.rows)

    @staticmethod
    def from_text(text: str) -> "GelfandPattern":
        rows = tuple(tuple(int(x) for x in part.split())
                     for part in text.split("/"))
        return GelfandPattern(rows)


def gelfand_enumerate(label: IrrepLabel):
    """All patterns with the given top row, lexicographic by row tuples."""
    def rec(row):
        if len(row) == 1:
            yield (row,)
            return
        for lower in itertools.product(
                *[range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]):
            for tail in rec(lower):
                yield (row,) + tail
    return [GelfandPattern(rows) for rows in rec(tuple(label.h))]


def weyl_dimension(label: IrrepLabel) -> int:
    h = label.h
    n = len(h)
    p = [h[i] + n - 1 - i for i in range(n)]
    num = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= p[i] - p[j]
    den = 1
    for k in range(1, n):
        den *= factorial(k)
    return num // den


def pattern_weight(pat: GelfandPattern):
    """w_i = (sum of row with i entries) - (sum of row with i-1 entries)."""
    n = pat.n
    sums = [sum(pat.rows[n - k]) for k in range(1, n + 1)]  # k entries
    return tuple(sums[i] - (sums[i - 1] if i else 0) for i in range(n))


# ---------------------------------------------------------------------------
# binary fundamental representation coding
# ---------------------------------------------------------------------------
class BfrTable(namedtuple("BfrTable", "bits")):
    __slots__ = ()

    def __new__(cls, bits):
        if not all(b in (0, 1) for b in bits) or sum(bits) < 1:
            raise ValueError("bits must be 0/1 with at least one 1")
        return super().__new__(cls, bits)

    @property
    def k(self):
        return sum(self.bits)

    @property
    def rows(self):
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)


class ParamMonomial(namedtuple("ParamMonomial", "factors")):
    """product of x(lam,mu) / y(lam,mu) tags, lam strictly increasing;
    factors is a tuple of ("x"|"y", lam, mu)."""

    __slots__ = ()

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(f"{t}({lam},{mu})" for t, lam, mu in self.factors)


def bfr_phi(table: BfrTable) -> ParamMonomial:
    """Parameter monomial attached to the minor encoded by the binary word.

    Rules chosen so the exponential form regenerates the U(2)..U(5)
    generating functions term for term:
    a zero at position lam after the first one gives y(lam, #ones before it);
    a one at position lam after the first zero gives x(lam, #ones before + 1);
    the all-ones word of length n gives y(n, n).
    """
    bits = table.bits
    n = len(bits)
    if all(bits):
        return ParamMonomial((("y", n, n),))
    factors = []
    ones_before = 0
    seen_one = False
    seen_zero = False
    for pos, b in enumerate(bits, start=1):
        if b:
            if seen_zero:
                factors.append(("x", pos, ones_before + 1))
            ones_before += 1
            seen_one = True
        else:
            if seen_one:
                factors.append(("y", pos, ones_before))
            seen_zero = True
    return ParamMonomial(tuple(factors))


# ---------------------------------------------------------------------------
# L/R hooks and P_n(1)
# ---------------------------------------------------------------------------
def _row(pat: GelfandPattern, lam: int):
    """row with lam entries (1-indexed level)."""
    return pat.rows[pat.n - lam]


def L_hook(pat: GelfandPattern, lam: int, mu: int) -> int:
    """L(lam,mu) = h_{mu,lam} - h_{mu,lam-1}."""
    return _row(pat, lam)[mu - 1] - _row(pat, lam - 1)[mu - 1]


def R_hook(pat: GelfandPattern, lam: int, mu: int) -> int:
    """R(lam,mu) = h_{mu,lam-1} - h_{mu+1,lam}."""
    return _row(pat, lam - 1)[mu - 1] - _row(pat, lam)[mu]


def pn1(pat: GelfandPattern) -> Fraction:
    """The P_n(1) factor of the recurrence normalization, n = pat.n in {2..5}.

    Closed binomial products; each level lam contributes
    C(L(lam,k)+R(lam,k), split) with split = L for k = lam-1 and R otherwise.
    """
    n = pat.n
    if n == 2:
        return Fraction(1)
    if n not in (3, 4, 5):
        raise ValueError("P_n(1) closed forms are available only for n <= 5")
    val = 1
    for lam in range(2, n):
        for k in range(1, lam):
            tot = L_hook(pat, lam, k) + R_hook(pat, lam, k)
            split = L_hook(pat, lam, k) if k == lam - 1 else R_hook(pat, lam, k)
            val *= comb(tot, split)
    return Fraction(val)


# ---------------------------------------------------------------------------
# boson polynomials from the branching kernel
# ---------------------------------------------------------------------------
def _phi_exponents(pat: GelfandPattern):
    """exponents of the parameter monomial phi^{n}(h,(x,y)) for a pattern."""
    n = pat.n
    out = []
    for lam in range(2, n + 1):
        for mu in range(1, lam):
            out.append(("x", lam, mu, L_hook(pat, lam, mu)))
            out.append(("y", lam, mu, R_hook(pat, lam, mu)))
    return tuple(out)


def _minor_names(n):
    names = []
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), k):
            names.append(rows)
    return names


def bfr_generating_terms(n: int):
    """[(minor rows tuple, ParamMonomial)] for every minor of U(n)."""
    out = []
    for rows in _minor_names(n):
        bits = tuple(1 if i in rows else 0 for i in range(1, n + 1))
        out.append((rows, bfr_phi(BfrTable(bits))))
    return out


def _kernel_terms(pat: GelfandPattern):
    """Expand the U(n)->U(n-1) branching kernel for the given pattern.

    Returns {minor exponents: integer coefficient}, the exponents indexing
    _minor_names(n).  The kernel is a product of brackets, one per level-n
    hook: the sub-sum of the generating function holding the minors that
    carry that hook's parameter, raised to the hook.  Its coefficient of the
    U(n-1) parameter monomial of the pattern is the boson polynomial.

    The product picks the exponent k of one minor at a time, with the
    binomial coefficient C(power left to its bracket, k).  A partial term
    keeps, beside its minor exponents, one budget per parameter: the power
    left to each level-n bracket, and the slack left below each U(n-1)
    parameter exponent of the target.  A minor draws k from the budget of
    every parameter it carries.  Every bracket coefficient is +1 and
    exponents only grow, so a term that would overdraw a budget can never
    reach the target and is dropped at once.  The last minor to draw on a
    budget must spend all of it, so every term left is one of the
    polynomial.
    """
    n = pat.n
    # betweenness makes every hook >= 0, and every entry >= h_nn
    if n < 2 or pat.rows[0][-1] < 0:
        raise ValueError("need n >= 2 and every entry >= 0")
    minors = bfr_generating_terms(n)
    nm = len(minors)
    # the budgets are the pattern's hooks: L(lam,mu) for x(lam,mu) and
    # R(lam,mu) for y(lam,mu), level by level, then h_nn for y(n,n)
    budgets = _phi_exponents(pat) + (("y", n, n, pat.rows[0][-1]),)
    index = {(t, lam, mu): nm + b for b, (t, lam, mu, _e) in enumerate(budgets)}
    # each minor as (the budgets it draws on, its index): its one level-n
    # parameter has its last budget, so the reverse sort puts its bracket
    # first, and the sort of the minors keeps each bracket's together
    plan = sorted((sorted((index[f] for f in mono.factors), reverse=True), i)
                  for i, (_rows, mono) in enumerate(minors))
    last = {b: j for j, (draws, _i) in enumerate(plan) for b in draws}

    terms = [((0,) * nm + tuple(e for *_f, e in budgets), 1)]
    for j, (draws, i) in enumerate(plan):
        shut = [b for b in draws if last[b] == j]
        out = []
        for e, c in terms:
            # a budget drawn on for the last time is spent whole, so a step
            # that closes budgets has at most one choice of k
            lo = max((e[b] for b in shut), default=0)
            hi = min(e[b] for b in draws)
            if lo > hi:
                continue
            power = e[draws[0]]
            c *= comb(power, lo)
            for k in range(lo, hi + 1):
                f = list(e)
                f[i] = k
                for b in draws:
                    f[b] -= k
                out.append((tuple(f), c))
                c = c * (power - k) // (k + 1)   # the binomial of the next k
        terms = out
    return {e[:nm]: c for e, c in terms}


def boson_polynomial(pat: GelfandPattern):
    """Boson polynomial of a U(n) Gel'fand state as a list of terms
    (coefficient, {minor rows tuple: exponent}); any n >= 2, entries >= 0.

    Unnormalized: the overall constant sqrt(A_{n-1}/A_n)-type factors are
    dropped; substituting 1 for every minor gives P_n(1).
    """
    minors = _minor_names(pat.n)
    terms = []
    for me, c in _kernel_terms(pat).items():
        expo = {minors[i]: e for i, e in enumerate(me) if e}
        terms.append((c, expo))
    terms.sort(key=lambda t: sorted(t[1].items()))
    return terms
