"""Exact arithmetic substrate: square roots of rationals, doubled-integer
angular momenta, cached factorials.

Values of the form (p/q)*sqrt(r/s) are closed under the products and
same-radicand sums that recoupling coefficients require, so every 3j/6j/9j
and isoscalar factor in this package is held exactly.

The canonical form puts the square-free part of the squared value under the
root.  Arbitrary input (from_square, and through it the general
constructor) finds it by factoring: trial division, then Pollard rho.  The
recoupling kernels never factor.  Their values are an integer sum times the
square root of a factorial ratio, whose primes are known: the factorial
table keeps, beside each n!, the exponents of the primes in n! packed into
one int, 32 bits a prime, as WIGXJPF does (Johansson and Forssen, SIAM J.
Sci. Comput. 38, A376 (2016)).  A ratio's exponents are then a few big-int
additions, unpacked once, and from_factorial_ratio builds the coefficient
and the square-free radicand prime by prime, with no factorial product, no
integer square root and only two gcds against the integer sum in front.
A 3j cache miss at 2j 300-400 takes about 0.09 ms and at 2j 40-60 about
15 us (best of five passes over seeded labels, 2-vCPU VM, Python 3.11),
where multiplying the ratio out took 0.25-0.32 ms and 19 us.  Products, quotients and sums on one ray of canonical
values place their primes by the same kind of gcd step (_place).

The parser of str() and the bare triangle delta check this module from
tests/oracles.py; the kernels read the triangle delta's factorial
arguments from _triad_args.
"""
from __future__ import annotations

import bisect
import math
import sys
import threading
from collections import namedtuple
from fractions import Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_BOUND = 10 ** 6

# the bias of one 32-bit field of packed prime exponents: a field holds
# _HALF + e for an exponent e of a factorial ratio
_HALF = 1 << 31


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def square_free_split(n: int) -> tuple[int, int]:
    """n = square * free with free squarefree; returns (sqrt(square), free).

    Trial division up to _TRIAL_BOUND, Pollard rho beyond; n >= 1.
    """
    if n < 1:
        raise ValueError("square_free_split needs n >= 1")
    root, free = 1, 1
    count = {}

    def add(p, e):
        count[p] = count.get(p, 0) + e

    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        # cheap perfect-square peel
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        p = 2
        found = False
        while p * p <= m and p <= _TRIAL_BOUND:
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                add(p, e)
                found = True
                r = math.isqrt(m)
                if r * r == m:
                    stack.extend((r, r))
                    m = 1
                    break
            p += 1 if p == 2 else 2
        if m == 1:
            continue
        if not found and p * p > m:
            add(m, 1)
            continue
        if _is_probable_prime(m):
            add(m, 1)
        else:
            d = _pollard_rho(m)
            stack.extend((d, m // d))
    for p, e in count.items():
        root *= p ** (e // 2)
        if e % 2:
            free *= p
    return root, free


class SqrtRational:
    """Exact value coeff * sqrt(radicand), canonical squarefree radicand.

    Zero is coeff=0, radicand=1.  The sign lives in coeff; radicand >= 0.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1, _canonical=False):
        if _canonical:
            # callers pass the two Fractions of a form already canonical
            self.coeff = coeff
            self.radicand = radicand
            return
        coeff, radicand = Fraction(coeff), Fraction(radicand)
        if radicand < 0:
            raise ValueError("negative radicand")
        # unique form: radicand = squarefree part of the squared value, so
        # equal values always canonicalize to identical components
        value = SqrtRational.from_square(coeff * coeff * radicand,
                                         1 if coeff > 0 else -1)
        self.coeff, self.radicand = value.coeff, value.radicand

    @staticmethod
    def from_square(sq, sign=1) -> "SqrtRational":
        """sign * sqrt(sq) for a non-negative Fraction sq; factors sq."""
        if not isinstance(sq, Fraction):
            sq = Fraction(sq)
        if sq < 0:
            raise ValueError("negative square")
        if sq == 0 or sign == 0:
            return SR_ZERO
        rootn, freen = square_free_split(sq.numerator)
        rootd, freed = square_free_split(sq.denominator)
        return SqrtRational(Fraction(sign * rootn, rootd), Fraction(freen, freed),
                            _canonical=True)

    @staticmethod
    def from_factorial_ratio(p, num_args, den_args) -> "SqrtRational":
        """p * sqrt(prod n! over num_args / prod n! over den_args) for an int
        p and arguments n >= 0, which the kernels' label checks ensure; a
        rational factor of factorials enters den_args twice.

        No factoring and no factorial products: the ratio's prime exponents
        are one sum of the factorial table's packed exponent ints, with 2^31
        added to each field so that no field borrows, unpacked once.  Prime
        by prime, half of each exponent goes to the coefficient and its
        parity under the root.  One gcd then reduces p against the
        coefficient's denominator, and a second moves the primes under the
        root's denominator that divide p to its numerator."""
        if not p:
            return SR_ZERO
        packed = factorials._packed
        try:
            up = sum(map(packed.__getitem__, num_args))
            down = sum(map(packed.__getitem__, den_args))
        except IndexError:
            factorials.grow(max((*num_args, *den_args)))
            return SqrtRational.from_factorial_ratio(p, num_args, den_args)
        k = (max(up.bit_length(), down.bit_length()) + 31) >> 5
        fields = memoryview((up - down + factorials._bias[k]).to_bytes(
            4 * k, sys.byteorder)).cast("I")
        half = _HALF
        num = den = rn = rd = 1
        for prime, v in zip(factorials.primes, fields):
            e = v - half
            if e > 0:
                if e & 1:
                    rn *= prime
                if e > 1:
                    num *= prime ** (e >> 1)
            elif e:
                if e & 1:
                    rd *= prime
                if e < -1:
                    den *= prime ** (-e >> 1)
        g = math.gcd(p, den)
        if g != 1:
            p, den = p // g, den // g
        g = math.gcd(p, rd)      # sqrt(1/P) = sqrt(P) / P for a prime P of p
        if g != 1:
            p, rn, rd = p // g, rn * g, rd // g
        return SqrtRational(Fraction(p * num, den), Fraction(rn, rd), _canonical=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _place(self.coeff * other, *_parts(self.radicand))
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return _product(self.coeff * other.coeff, *_parts(self.radicand),
                        *_parts(other.radicand))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return _place(self.coeff / other, *_parts(self.radicand))
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero SqrtRational")
        n2, d2 = _parts(other.radicand)
        return _product(self.coeff / other.coeff, *_parts(self.radicand), d2, n2)

    def __add__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        # canonical n/d has n, d square-free and coprime, so
        # c sqrt(n/d) = (c/d) sqrt(n d): one ray exactly when n1 d1 = n2 d2,
        # and then c2 sqrt(n2/d2) = c2 (d1/d2) sqrt(n1/d1)
        n1, d1 = _parts(self.radicand)
        n2, d2 = _parts(other.radicand)
        if n1 * d1 != n2 * d2:
            raise ValueError(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand})")
        return _place(self.coeff + other.coeff * Fraction(d1, d2), n1, d1)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SqrtRational(-self.coeff, self.radicand, _canonical=True)

    def __eq__(self, other):
        # canonical forms are unique, and a rational has radicand 1
        if isinstance(other, (int, Fraction)):
            return self.radicand == 1 and self.coeff == other
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return self.coeff == other.coeff and self.radicand == other.radicand

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        if self.radicand == 1:
            return hash(self.coeff)
        return hash((self.coeff, self.radicand))

    def __bool__(self):
        return self.coeff != 0

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self):
        # documented rule: float numerator/denominator separately, one divide,
        # one sqrt; falls back to correctly rounded Fraction division when the
        # integers overflow a double.  Where a part is no normal double (a
        # 1000-bit denominator underflows to 0, a radicand may overflow) the
        # rule would lose the value, so the exact square is rooted instead.
        def fdiv(fr: Fraction) -> float:
            try:
                return float(fr.numerator) / float(fr.denominator)
            except OverflowError:
                return float(fr)
        lo, hi = sys.float_info.min, sys.float_info.max
        try:
            c, r = fdiv(self.coeff), fdiv(self.radicand)
            if lo <= abs(c) <= hi and lo <= abs(r) <= hi:
                return c * math.sqrt(r)
        except OverflowError:
            pass
        root = _sqrt_fraction(self.square())
        return -root if self.coeff < 0 else root

    def __repr__(self):
        return f"SqrtRational({self.coeff!s}, {self.radicand!s})"

    def __str__(self):
        c = f"{self.coeff.numerator}/{self.coeff.denominator}"
        if self.radicand == 1:
            return c
        return f"{c}*sqrt({self.radicand.numerator}/{self.radicand.denominator})"


SR_ZERO = SqrtRational(Fraction(0), Fraction(1), _canonical=True)


def _sqrt_fraction(q: Fraction) -> float:
    """sqrt(q) for a non-negative Fraction of any size: the integer square root
    of q 4^s, s chosen so that it has about 64 bits, scaled back by 2^-s.
    Raises OverflowError above the double range."""
    n, d = q.numerator, q.denominator
    s = (128 - n.bit_length() + d.bit_length()) // 2
    root = math.isqrt((n << 2 * s) // d if s >= 0 else n // (d << -2 * s))
    return math.ldexp(float(root), -s)


def _parts(radicand: Fraction) -> tuple[int, int]:
    return radicand.numerator, radicand.denominator


def _place(c: Fraction, n: int, d: int) -> SqrtRational:
    """Canonical c * sqrt(n/d) for square-free coprime n, d, by two gcds.

    The canonical radicand is the square-free part of c^2 n/d, so a prime of
    n that divides den(c) belongs under the root's denominator, and a prime
    of d that divides num(c) under its numerator; every other prime of n or d
    already sits where it belongs."""
    if c == 0:
        return SR_ZERO
    up = math.gcd(n, c.denominator)      # sqrt(n/d) = up * sqrt((n/up)/(d up))
    down = math.gcd(d, c.numerator)      # sqrt(n/d) = sqrt((n down)/(d/down)) / down
    if up != 1 or down != 1:
        c = c * up / down
        n, d = n // up * down, d // down * up
    return SqrtRational(c, Fraction(n, d), _canonical=True)


def _product(c: Fraction, n1: int, d1: int, n2: int, d2: int) -> SqrtRational:
    """Canonical c * sqrt(n1 n2 / (d1 d2)) for square-free coprime pairs
    (n1, d1) and (n2, d2): shared primes leave the root by gcds."""
    g, h = math.gcd(n1, n2), math.gcd(d1, d2)
    n, d = (n1 // g) * (n2 // g), (d1 // h) * (d2 // h)
    e = math.gcd(n, d)
    return _place(c * g / h, n // e, d // e)


class HalfInt(namedtuple("HalfInt", "two_j")):
    """Angular momentum stored as a doubled integer, value = two_j/2."""

    # a named tuple, not a dataclass: importing dataclasses loads inspect,
    # about 0.7 MB in every process that imports gfkit
    __slots__ = ()


class FactorialCache:
    """Monotonically growing table of factorials; thread-safe growth.

    Alongside n! it keeps, for each n, the exponents of the primes in n!
    (Legendre's formula) packed into one int: the exponent of primes[i]
    fills the 32-bit field at bit 32 i.  Adding these ints adds the exponent
    vectors, so a factorial ratio's exponents are a few big-int additions
    (SqrtRational.from_factorial_ratio)."""

    def __init__(self, n_max: int = 0):
        self._table = [1]
        self._packed = [0]
        self.primes = []
        # _bias[k] holds _HALF in each of the k lowest fields
        self._bias = [0]
        self._lock = threading.Lock()
        self.grow(n_max)

    def grow(self, n: int) -> None:
        if n < len(self._table):
            return
        with self._lock:
            t, packed, primes, bias = self._table, self._packed, self.primes, self._bias
            while len(t) <= n:
                m = r = len(t)
                step = 0              # the packed exponents of m itself
                for i, p in enumerate(primes):
                    if p * p > r:
                        break
                    while r % p == 0:
                        r //= p
                        step += 1 << 32 * i
                if r > 1:                  # the prime left after trial division
                    if r == m:
                        bias.append(bias[-1] | _HALF << 32 * len(primes))
                        primes.append(m)
                    step += 1 << 32 * bisect.bisect_left(primes, r)
                # readers take primes and _bias for the fields of _packed[n]:
                # append _packed after them
                packed.append(packed[-1] + step)
                t.append(t[-1] * m)

    def upto(self, n: int) -> list:
        """The table itself, grown to hold n!: index it for k! with k <= n."""
        self.grow(n)
        return self._table

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("factorial of negative argument")
        if n >= len(self._table):
            self.grow(n)
        return self._table[n]


factorials = FactorialCache()


def neg_one_pow(k: int) -> int:
    """(-1)**k as an exact int for any integer k (negative included)."""
    return -1 if k & 1 else 1


def triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def _triad_args(a, b, c):
    """The factorial arguments of the triangle delta of doubled (a, b, c):
    Delta^2 = prod n! over these three / (s + 1)!, s = (a + b + c)/2."""
    return (a + b - c) // 2, (a - b + c) // 2, (-a + b + c) // 2
