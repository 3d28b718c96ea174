"""Exact arithmetic substrate: square roots of rationals, half-integers,
cached factorials.

Values of the form (p/q)*sqrt(r/s) are closed under the products and
same-radicand sums that recoupling coefficients require, so every 3j/6j/9j
and isoscalar factor in this package is held exactly.

The canonical form puts the square-free part of the squared value under the
root.  Arbitrary input (the general constructor, from_square, parse) finds
it by factoring: trial division, then Pollard rho.  The recoupling kernels
never factor.  Their square roots are of factorial ratios, whose primes are
known: the factorial table keeps, for each n, a bitmask of the primes with
odd exponent in n!, so the ratio's square-free part is an XOR of masks
(sqrt_factorial_ratio), and the rational sum in front stays outside the
root.  Two gcds then move each prime of the square-free part to the side of
the radicand the canonical form wants (_place); products, quotients and
sums on one ray of canonical values use the same gcd step.
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
        if _canonical:
            # callers pass the two Fractions of a form already canonical
            self.coeff = coeff
            self.radicand = radicand
            return
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError("negative radicand")
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
        self.coeff = Fraction(sign * rootn, rootd)
        self.radicand = Fraction(freen, freed)

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
    def from_factorial_ratio(c, num_args, den_args) -> "SqrtRational":
        """c * sqrt(prod n! over num_args / prod n! over den_args), c rational.

        No factoring: the ratio's square-free part comes from the factorial
        table's odd-prime masks (sqrt_factorial_ratio), then two gcds place
        it (_place)."""
        root, free = sqrt_factorial_ratio(num_args, den_args)
        return _place(c * root, free, 1)

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
        if self.radicand == other.radicand:
            return _place(self.coeff + other.coeff, *_parts(self.radicand))
        # fractional radicands admit several squarefree num/den splits of one
        # radical ray (sqrt(2/5) = 2 sqrt(1/10)); rescale when the ratio is a
        # perfect rational square, otherwise the sum leaves the value type
        try:
            rho = sqrt_ratio_of_squares(other.radicand, self.radicand)
        except ValueError:
            raise ValueError(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand})")
        return _place(self.coeff + other.coeff * rho, *_parts(self.radicand))

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


SR_ZERO = SqrtRational(Fraction(0), Fraction(1), _canonical=True)


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
    """Monotonically growing table of factorials; thread-safe growth.

    Alongside n! it keeps, for each n, the set of primes with odd exponent
    in n! as a bitmask over `primes` (bit i stands for primes[i]), so the
    square-free part of a factorial ratio is an XOR of masks."""

    def __init__(self, n_max: int | None = None):
        if n_max is None:
            n_max = int(os.environ.get("GFKIT_FACT_MAX", "512"))
        self._table = [1]
        self._odd = [0]
        self.primes = []
        self._prime_bit = {}
        self._lock = threading.Lock()
        self.grow(n_max)

    def grow(self, n: int) -> None:
        if n < len(self._table):
            return
        with self._lock:
            t, odd, primes, bit = self._table, self._odd, self.primes, self._prime_bit
            while len(t) <= n:
                m = r = len(t)
                mask = odd[-1]
                for i, p in enumerate(primes):
                    if p * p > r:
                        break
                    while r % p == 0:
                        r //= p
                        mask ^= 1 << i
                if r > 1:                  # the prime left after trial division
                    if r == m:
                        bit[m] = len(primes)
                        primes.append(m)
                    mask ^= 1 << bit[r]
                # readers index _odd[n] once n < len(_table): append _odd first
                odd.append(mask)
                t.append(t[-1] * m)

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


def sqrt_factorial_ratio(num_args, den_args) -> tuple[Fraction, int]:
    """(R, k) with prod n! over num_args / prod n! over den_args = R^2 k,
    R a positive Fraction and k a square-free int.

    k is the product of the primes whose masks XOR to one; every prime of a
    factorial ratio is at most its largest argument, so nothing is factored.
    The ratio divided by k is a rational square, and R is the isqrt of its
    numerator over the isqrt of its denominator."""
    args = (*num_args, *den_args)
    if min(args, default=0) < 0:
        raise ValueError("factorial of negative argument")
    factorials.grow(max(args, default=0))
    t, odd, primes = factorials._table, factorials._odd, factorials.primes
    num = den = 1
    mask = 0
    for n in num_args:
        num *= t[n]
        mask ^= odd[n]
    for n in den_args:
        den *= t[n]
        mask ^= odd[n]
    k = 1
    while mask:
        low = mask & -mask
        k *= primes[low.bit_length() - 1]
        mask ^= low
    q = Fraction(num, den * k)
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator)), k


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
    J = (ta + tb + tc) // 2
    return SqrtRational.from_factorial_ratio(
        1, ((tb + tc - ta) // 2, (ta + tc - tb) // 2, (ta + tb - tc) // 2), (J + 1,))


def sqrt_ratio_of_squares(q_num: Fraction, q_den: Fraction) -> Fraction:
    """Exact sqrt(q_num/q_den) when the ratio is a perfect rational square."""
    r = q_num / q_den
    n, d = r.numerator, r.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError("ratio is not a perfect square")
    return Fraction(rn, rd)
