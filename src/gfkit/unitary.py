"""U(n) representation machinery: Gel'fand patterns, Weyl dimensions,
weights, the binary coding of fundamental-representation minors, the
P_n(1) combinatorial factors and the U(3)/U(4) boson polynomials.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IrrepLabel:
    h: tuple

    def __post_init__(self):
        hs = self.h
        if any(hs[i] < hs[i + 1] for i in range(len(hs) - 1)) or hs[-1] < 0:
            raise ValueError(f"irrep label must be non-increasing, >= 0: {hs}")

    @property
    def n(self):
        return len(self.h)


@dataclass(frozen=True)
class GelfandPattern:
    """rows top-to-bottom: rows[0] has n entries, rows[-1] has one."""
    rows: tuple

    def __post_init__(self):
        rows = self.rows
        n = len(rows[0])
        if tuple(len(r) for r in rows) != tuple(range(n, 0, -1)):
            raise ValueError("pattern must be triangular")
        for k in range(len(rows) - 1):
            up, lo = rows[k], rows[k + 1]
            for i, v in enumerate(lo):
                if not (up[i] >= v >= up[i + 1]):
                    raise ValueError(f"betweenness violated at row {k + 1}")

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
    pats = [GelfandPattern(rows) for rows in rec(tuple(label.h))]
    pats.sort(key=lambda p: p.rows)
    return pats


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


def highest_pattern(label: IrrepLabel) -> GelfandPattern:
    rows = [tuple(label.h[:k]) for k in range(label.n, 0, -1)]
    return GelfandPattern(tuple(rows))


# ---------------------------------------------------------------------------
# binary fundamental representation coding
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BfrTable:
    bits: tuple

    def __post_init__(self):
        if not all(b in (0, 1) for b in self.bits) or sum(self.bits) < 1:
            raise ValueError("bits must be 0/1 with at least one 1")

    @property
    def k(self):
        return sum(self.bits)

    @property
    def rows(self):
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)


@dataclass(frozen=True)
class ParamMonomial:
    """product of x(lam,mu) / y(lam,mu) tags, lam strictly increasing."""
    factors: tuple  # of ("x"|"y", lam, mu)

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


def pn1(n: int, pat: GelfandPattern) -> Fraction:
    """The P_n(1) factor of the recurrence normalization, n in {2..5}.

    Closed binomial products; each level lam contributes
    C(L(lam,k)+R(lam,k), split) with split = L for k = lam-1 and R otherwise.
    """
    if pat.n != n:
        raise ValueError("pattern size does not match n")
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


def pn1_oracle(n: int, pat: GelfandPattern) -> int:
    """Independent P_n(1): expand the branching-kernel product at unit minors
    and pick the coefficient of the parameter monomial (polynomial
    identification, no closed form)."""
    if pat.n != n:
        raise ValueError("pattern size does not match n")
    if n == 2:
        return 1
    return sum(_kernel_terms(pat, unit_minors=True).values())


# ---------------------------------------------------------------------------
# boson polynomials from the branching kernel
# ---------------------------------------------------------------------------
# parameter variables for the U(n-1) monomial: pairs (l, m) -> x(l,m), y(l,m)
def _param_vars(n):
    out = []
    for lam in range(2, n):
        for mu in range(1, lam):
            out.append(("x", lam, mu))
            out.append(("y", lam, mu))
    return out


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


def _kernel_terms(pat: GelfandPattern, unit_minors=False):
    """Expand the U(n)->U(n-1) branching kernel for the given pattern.

    Returns {(minor_exponents, param_exponents): integer coefficient} where
    minor_exponents indexes _minor_names(n) and param_exponents is a tuple of
    ("x"/"y", lam, mu, exponent) over the U(n-1) parameter set.

    The bracket for each level-n hook is the sub-sum of the full generating
    function holding the minors that carry that hook's parameter.
    """
    n = pat.n
    if n < 2:
        raise ValueError("need n >= 2")
    minors = _minor_names(n)
    midx = {m: i for i, m in enumerate(minors)}
    pvars = _param_vars(n)
    pidx = {v: i for i, v in enumerate(pvars)}
    nm, np_ = len(minors), len(pvars)

    # bucket the generating-function terms of U(n) by their level-n tag
    buckets = {}
    for rows, mono in bfr_generating_terms(n):
        tag = None
        rest = []
        for t, lam, mu in mono.factors:
            if lam == n:
                tag = (t, mu)
            else:
                rest.append((t, lam, mu))
        if tag is None:
            # minors with no level-n parameter do not appear for n >= 2
            # except via the all-ones y(n,n) special case handled above
            raise AssertionError("every minor carries a level-n parameter")
        buckets.setdefault(tag, []).append((rows, tuple(rest)))

    def bracket_poly(tag):
        out = {}
        for rows, rest in buckets[tag]:
            me = [0] * nm
            me[midx[rows]] = 1
            pe = [0] * np_
            for t, lam, mu in rest:
                pe[pidx[(t, lam, mu)]] += 1
            key = (tuple(me), tuple(pe))
            out[key] = out.get(key, 0) + 1
        return out

    def mulpoly(a, b):
        out = {}
        for (m1, p1), c1 in a.items():
            for (m2, p2), c2 in b.items():
                key = (tuple(x + y for x, y in zip(m1, m2)),
                       tuple(x + y for x, y in zip(p1, p2)))
                out[key] = out.get(key, 0) + c1 * c2
        return out

    def powpoly(a, k):
        out = {((0,) * nm, (0,) * np_): 1}
        for _ in range(k):
            out = mulpoly(out, a)
        return out

    poly = {((0,) * nm, (0,) * np_): 1}
    # hooks at level n: x(n,mu) carries exponent L(n,mu), y(n,mu) -> R(n,mu);
    # mu = n uses y(n,n) with exponent h_{n,n}
    for mu in range(1, n):
        poly = mulpoly(poly, powpoly(bracket_poly(("y", mu)), R_hook(pat, n, mu)))
        poly = mulpoly(poly, powpoly(bracket_poly(("x", mu)), L_hook(pat, n, mu)))
    hnn = pat.rows[0][n - 1]
    poly = mulpoly(poly, powpoly(bracket_poly(("y", n)), hnn))

    # collect the coefficient of the U(n-1) parameter monomial
    sub = GelfandPattern(pat.rows[1:]) if n > 1 else None
    target = [0] * np_
    for t, lam, mu, e in _phi_exponents(sub):
        target[pidx[(t, lam, mu)]] = e
    target = tuple(target)
    out = {}
    for (me, pe), c in poly.items():
        if pe != target:
            continue
        key = ((0,) * nm, pe) if unit_minors else (me, pe)
        out[key] = out.get(key, 0) + c
    return out


def boson_polynomial(pat: GelfandPattern):
    """Boson polynomial of a U(n) Gel'fand state as a list of terms
    (coefficient, {minor rows tuple: exponent}); n = 3 or 4.

    Unnormalized: the overall constant sqrt(A_{n-1}/A_n)-type factors are
    dropped; substituting 1 for every minor gives P_n(1).
    """
    n = pat.n
    if n not in (3, 4):
        raise ValueError("boson polynomials implemented for U(3) and U(4)")
    minors = _minor_names(n)
    terms = []
    for (me, _pe), c in _kernel_terms(pat).items():
        expo = {minors[i]: e for i, e in enumerate(me) if e}
        terms.append((c, expo))
    terms.sort(key=lambda t: sorted(t[1].items()))
    return terms


def u3_boson_polynomial(pat: GelfandPattern):
    if pat.n != 3:
        raise ValueError("u3_boson_polynomial needs an n=3 pattern")
    return boson_polynomial(pat)


def u4_boson_polynomial(pat: GelfandPattern):
    if pat.n != 4:
        raise ValueError("u4_boson_polynomial needs an n=4 pattern")
    return boson_polynomial(pat)


def u3_hypergeometric_terms(pat: GelfandPattern):
    """Term list of the 2F1 form of the U(3) basis (series expansion of the
    hypergeometric factor), same exponent keys as u3_boson_polynomial but
    with its own (unnormalized) coefficient scale."""
    (h13, h23, h33), (h12, h22), (h11,) = pat.rows
    # base exponents (k = 0 term): D12^{h22-h33} D13^{h23-h22} D1^{h11-h23}
    #   D2^{h12-h11} D3^{h13-h12} D123^{h33}; each k shifts D1,D23 up and
    #   D2,D13 down.   Pochhammer ratio of 2F1(a, b; c; x), a=h22-h23 etc.
    a = h22 - h23
    b = h11 - h12
    c = h11 - h23 + 1
    # regularized start: the base term needs h11 >= h23; otherwise the
    # series begins at the first k with non-negative exponents.  It ends
    # where a + k or b + k reaches 0; betweenness keeps every exponent
    # non-negative in between.
    coef = Fraction(1)
    terms = []
    for k in range(max(0, h23 - h11), min(h23 - h22, h12 - h11) + 1):
        expo = {(1,): h11 - h23 + k, (2,): h12 - h11 - k, (3,): h13 - h12,
                (1, 2): h22 - h33, (1, 3): h23 - h22 - k, (2, 3): k,
                (1, 2, 3): h33}
        terms.append((coef, {kk: v for kk, v in expo.items() if v}))
        coef *= Fraction((a + k) * (b + k), (c + k) * (k + 1))
    return terms
