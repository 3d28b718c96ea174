"""Exact arithmetic substrate: square roots of rationals, half-integers,
cached factorials.

Values of the form (p/q)*sqrt(r/s) are closed under the products and
same-radicand sums that recoupling coefficients require, so every 3j/6j/9j
and isoscalar factor in this package is held exactly.
"""
from __future__ import annotations

import math
import os
import re
import threading
from fractions import Fraction

Rational = Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

DEFAULT_TRIAL_BOUND = 10 ** 6


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


def square_free_split(n: int, trial_bound: int = DEFAULT_TRIAL_BOUND) -> tuple[int, int]:
    """n = square * free with free squarefree; returns (sqrt(square), free).

    Trial division up to trial_bound, Pollard rho beyond; n >= 1.
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
        while p * p <= m and p <= trial_bound:
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
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError("negative radicand")
        if _canonical:
            self.coeff = coeff
            self.radicand = radicand
            return
        if coeff == 0 or radicand == 0:
            self.coeff = Fraction(0)
            self.radicand = Fraction(1)
            return
        # unique form: radicand = squarefree part of the squared value, so
        # equal values always canonicalize to identical components
        sq = coeff * coeff * radicand
        sign = 1 if coeff > 0 else -1
        rootn, freen = square_free_split(sq.numerator)
        rootd, freed = square_free_split(sq.denominator)
        self.coeff = sign * Fraction(rootn, rootd)
        self.radicand = Fraction(freen, freed)

    @staticmethod
    def from_square(sq, sign=1) -> "SqrtRational":
        """sign * sqrt(sq) for a non-negative Fraction sq."""
        sq = Fraction(sq)
        if sq < 0:
            raise ValueError("negative square")
        if sq == 0 or sign == 0:
            return SR_ZERO
        rootn, freen = square_free_split(sq.numerator)
        rootd, freed = square_free_split(sq.denominator)
        return SqrtRational(sign * Fraction(rootn, rootd),
                            Fraction(freen, freed), _canonical=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SqrtRational(self.coeff * other, self.radicand)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.coeff == 0 or other.coeff == 0:
            return SR_ZERO
        if self.radicand == other.radicand:
            return SqrtRational(self.coeff * other.coeff * self.radicand,
                                Fraction(1), _canonical=True)  # rational: exact
        sq = (self.coeff * other.coeff) ** 2 * self.radicand * other.radicand
        sign = 1 if (self.coeff > 0) == (other.coeff > 0) else -1
        return SqrtRational.from_square(sq, sign)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return SqrtRational(self.coeff / other, self.radicand)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if other.coeff == 0:
            raise ZeroDivisionError("division by zero SqrtRational")
        inv = SqrtRational(1 / (other.coeff * other.radicand), other.radicand,
                           _canonical=True)
        return self * inv

    def __add__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.radicand == other.radicand:
            return SqrtRational(self.coeff + other.coeff, self.radicand)
        # fractional radicands admit several squarefree num/den splits of one
        # radical ray (sqrt(2/5) = 2 sqrt(1/10)); rescale when the ratio is a
        # perfect rational square, otherwise the sum leaves the value type
        try:
            rho = sqrt_ratio_of_squares(other.radicand, self.radicand)
        except ValueError:
            raise ValueError(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand})")
        return SqrtRational(self.coeff + other.coeff * rho, self.radicand)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SqrtRational(-self.coeff, self.radicand, _canonical=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SqrtRational(other)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return self.coeff == other.coeff and self.radicand == other.radicand

    def __hash__(self):
        return hash((self.coeff, self.radicand))

    def __bool__(self):
        return self.coeff != 0

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __float__(self):
        # documented rule: float numerator/denominator separately, one divide,
        # one sqrt; falls back to correctly rounded Fraction division when the
        # integers overflow a double
        def fdiv(fr: Fraction) -> float:
            try:
                return float(fr.numerator) / float(fr.denominator)
            except OverflowError:
                return float(fr)
        return fdiv(self.coeff) * math.sqrt(fdiv(self.radicand))

    def __repr__(self):
        return f"SqrtRational({self.coeff!s}, {self.radicand!s})"

    def __str__(self):
        c = f"{self.coeff.numerator}/{self.coeff.denominator}"
        if self.radicand == 1:
            return c
        return f"{c}*sqrt({self.radicand.numerator}/{self.radicand.denominator})"


SR_ZERO = SqrtRational(0, 1, _canonical=True)
SR_ONE = SqrtRational(1, 1, _canonical=True)

_SR_RE = re.compile(
    r"^\s*(-?\d+)/(\d+)\s*(?:\*\s*sqrt\(\s*(-?\d+)/(\d+)\s*\))?\s*$")


def parse_sqrt_rational(text: str) -> SqrtRational:
    """Inverse of str(); accepts 'p/q' and 'p/q*sqrt(r/s)'."""
    m = _SR_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse SqrtRational: {text!r}")
    coeff = Fraction(int(m.group(1)), int(m.group(2)))
    if m.group(3) is None:
        return SqrtRational(coeff)
    return SqrtRational(coeff, Fraction(int(m.group(3)), int(m.group(4))))


def canonicalize(value: SqrtRational) -> SqrtRational:
    """Re-canonicalize (idempotent on already-canonical values)."""
    return SqrtRational(value.coeff, value.radicand)


class HalfInt:
    """Angular momentum stored as a doubled integer, value = two_j/2."""

    __slots__ = ("two_j",)

    def __init__(self, two_j: int):
        self.two_j = int(two_j)

    @staticmethod
    def from_value(v) -> "HalfInt":
        fr = Fraction(v)
        if fr.denominator not in (1, 2):
            raise ValueError(f"{v} is not a half-integer")
        return HalfInt(fr.numerator * (2 // fr.denominator))

    def __add__(self, other):
        return HalfInt(self.two_j + _two(other))

    def __sub__(self, other):
        return HalfInt(self.two_j - _two(other))

    def __neg__(self):
        return HalfInt(-self.two_j)

    def __eq__(self, other):
        if not isinstance(other, (HalfInt, int)):
            return NotImplemented
        return self.two_j == _two(other)

    def __lt__(self, other):
        return self.two_j < _two(other)

    def __le__(self, other):
        return self.two_j <= _two(other)

    def __hash__(self):
        return hash(("HalfInt", self.two_j))

    def __abs__(self):
        return HalfInt(abs(self.two_j))

    def is_integer(self) -> bool:
        return self.two_j % 2 == 0

    def __float__(self):
        return self.two_j / 2.0

    def __str__(self):
        if self.two_j % 2 == 0:
            return str(self.two_j // 2)
        return f"{self.two_j}/2"

    __repr__ = __str__


def _two(x) -> int:
    if isinstance(x, HalfInt):
        return x.two_j
    if isinstance(x, int):
        return 2 * x
    raise TypeError(f"cannot combine HalfInt with {type(x)}")


class FactorialCache:
    """Monotonically growing table of factorials; thread-safe growth."""

    def __init__(self, n_max: int | None = None):
        if n_max is None:
            n_max = int(os.environ.get("GFKIT_FACT_MAX", "512"))
        self._table = [1]
        self._lock = threading.Lock()
        self.grow(n_max)

    def grow(self, n: int) -> None:
        if n < len(self._table):
            return
        with self._lock:
            t = self._table
            while len(t) <= n:
                t.append(t[-1] * len(t))

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("factorial of negative argument")
        if n >= len(self._table):
            self.grow(n)
        return self._table[n]

    def binomial(self, n: int, k: int) -> int:
        if k < 0 or k > n:
            return 0
        return self(n) // (self(k) * self(n - k))


factorials = FactorialCache()


def fact2(two_n: int) -> int:
    """factorial of a doubled-integer argument that must be even and >= 0."""
    if two_n < 0 or two_n % 2:
        raise ValueError(f"factorial of {two_n}/2")
    return factorials(two_n // 2)


def neg_one_pow(k: int) -> int:
    """(-1)**k as an exact int for any integer k (negative included)."""
    return -1 if k & 1 else 1


def triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


class TriangleError(ValueError):
    pass


def triangle_delta(a, b, c) -> SqrtRational:
    """sqrt[(J-2a)!(J-2b)!(J-2c)!/(J+1)!] with J = a+b+c.

    Arguments are HalfInt instances, or plain ints meaning integer j.
    """
    ta, tb, tc = (x.two_j if isinstance(x, HalfInt) else 2 * x for x in (a, b, c))
    if (ta + tb + tc) % 2:
        raise ValueError("a+b+c must be integral")
    if not triangle_ok(ta, tb, tc):
        raise TriangleError(f"triangle violated: ({a},{b},{c})")
    J2 = ta + tb + tc
    sq = Fraction(fact2(J2 - 2 * ta) * fact2(J2 - 2 * tb) * fact2(J2 - 2 * tc),
                  factorials(J2 // 2 + 1))
    return SqrtRational.from_square(sq)


def sqrt_ratio_of_squares(q_num: Fraction, q_den: Fraction) -> Fraction:
    """Exact sqrt(q_num/q_den) when the ratio is a perfect rational square."""
    r = q_num / q_den
    n, d = r.numerator, r.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError("ratio is not a perfect square")
    return Fraction(rn, rd)
