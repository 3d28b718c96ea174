"""Exact arithmetic substrate: square roots of rationals, doubled-integer
angular momenta, the cached prime exponents of factorials.

Values (num/den) sqrt(r), held as three ints (num carrying the sign, den
>= 1 coprime to it, r square-free >= 1), are closed under the products and
same-radicand sums that recoupling coefficients require, so every
3j/6j/9j and isoscalar factor in this package is held exactly.  Every such
triple is canonical, and zero is (0, 1, 1): two values are equal exactly
when their triples are, and nonzero values lie on one ray exactly when
their radicands are.  Arithmetic stays in ints: a product takes one gcd of
its two radicands and one to reduce num/den, a quotient by a value
multiplies by 1/(c sqrt(r)) = sqrt(r)/(c r), a sum checks that the
radicands are equal and takes one gcd, and a negation takes none.  No
Fraction is built by from_exponents, nor by a product, quotient, sum,
negation or comparison of two values; the coeff property and square()
return one for readers, and the general constructor, from_square and
division by an int or Fraction go through Fraction.

The radicand is the square-free part of the squared value's numerator
times its denominator.  Arbitrary input (from_square, and through it the
general constructor) finds it by factoring: trial division, then Pollard
rho.  A perfect-square part is never factored: once what is left is r*r, r goes
into the coefficient whole, so the square of a 3j's large integer sum
costs one integer square root.  The recoupling kernels never factor.
Their values are an integer sum times the square root of a factorial
ratio, whose primes are known: the factorial table keeps, for each n, the
exponents of the primes in n! packed into one int, 32 bits a prime, and
not n! itself, as WIGXJPF does (Johansson and Forssen, SIAM J. Sci.
Comput. 38, A376 (2016)).  Canonicalizing takes two
steps.  factorial_exponents(args), the table's one reader, sums the
packed ints of prod n! over args into one opaque exponent vector, which
callers may add, subtract and double; SqrtRational.from_exponents(p, e)
reads a signed vector once as signed 32-bit fields and builds num, den
and the radicand prime by prime: a prime of odd exponent goes under the
root, with one more power of it in den where the exponent is negative, as
sqrt(1/P) = sqrt(P)/P.  The primes of num and den are then disjoint but
for those of the integer p in front, so one gcd of p and den puts the
coefficient in lowest terms; there is no factorial product and no integer
square root.  from_factorial_ratio(p, num, den) is the two steps in one,
and a kernel whose values share factorials, such as su3's coupling table,
sums the shared vector once and reuses it.  The kernels take the
factorial quotients of their sums from math.perm, math.comb and
math.factorial, or build them one factor at a time, so only this module
knows how the exponents are packed.  A 3j cache miss at 2j 40-60 takes
about 16 us, 6 us of it in from_exponents, and at 2j 300-400 about 67 us
(best of five passes over seeded labels, 2-vCPU VM, Python 3.11.7), where
building the coefficient as a Fraction (8 us in from_exponents) and
dividing out each term ratio of the 3j sum took 19 us and 104 us.
str() and float() read the value as (a/b)*sqrt(n/d), both
fractions in lowest terms, from one gcd d = gcd(r, den):
(num/den) sqrt(r) = (num/(den/d)) sqrt((r/d)/d).

The parser of str() and the bare triangle delta check this module from
tests/oracles.py; the kernels read the triangle delta's factorial
arguments from _triad_args.
"""
from __future__ import annotations

import bisect
import math
import sys
import threading
from collections import Counter, namedtuple
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

    A part that is a perfect square r*r, whole or once a prime is divided
    out, puts r into the root unfactored: sqfree(r*r*m) = sqfree(m).  The
    rest is factored by trial division up to _TRIAL_BOUND, which resumes at
    the last divisor tried, and Pollard rho beyond; n >= 1.
    """
    if n < 1:
        raise ValueError("square_free_split needs n >= 1")
    root, free, count = 1, 1, Counter()
    stack, p = [n], 2
    while stack:
        m = stack.pop()
        r = math.isqrt(m)
        if r * r == m:
            root *= r
            continue
        # no prime below p divides m
        while p * p <= m and p <= _TRIAL_BOUND and m % p:
            p += 1 if p == 2 else 2
        if p * p > m or (p > _TRIAL_BOUND and _is_probable_prime(m)):
            count[m] += 1
        elif p <= _TRIAL_BOUND:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            count[p] += e
            stack.append(m)
        else:
            d = _pollard_rho(m)
            stack.extend((d, m // d))
    for q, e in count.items():
        root *= q ** (e // 2)
        free *= q ** (e % 2)
    return root, free


class SqrtRational:
    """Exact value (num/den) * sqrt(radicand) in three ints: num carries the
    sign, den >= 1 is coprime to num, and radicand is square-free >= 1.

    Every such triple is canonical, so equal values have equal components;
    zero is (0, 1, 1).  Values built from parts that are already canonical
    come from _sqrt_rational; this constructor takes any rational
    coefficient and radicand and factors them.
    """

    __slots__ = ("num", "den", "radicand")

    def __init__(self, coeff, radicand=1):
        coeff, radicand = Fraction(coeff), Fraction(radicand)
        if radicand < 0:
            raise ValueError("negative radicand")
        value = SqrtRational.from_square(coeff * coeff * radicand,
                                         1 if coeff > 0 else -1)
        self.num, self.den, self.radicand = value.num, value.den, value.radicand

    @property
    def coeff(self) -> Fraction:
        """The rational num/den in front of the root."""
        return Fraction(self.num, self.den)

    @staticmethod
    def from_square(sq, sign=1) -> "SqrtRational":
        """sign * sqrt(sq) for a non-negative Fraction sq and sign +-1;
        factors sq."""
        if not isinstance(sq, Fraction):
            sq = Fraction(sq)
        if sq < 0:
            raise ValueError("negative square")
        if sq == 0 or sign == 0:
            return SR_ZERO
        rootn, freen = square_free_split(sq.numerator)
        rootd, freed = square_free_split(sq.denominator)
        # sqrt(freen / freed) = sqrt(freen freed) / freed; sq is in lowest
        # terms, so rootn is coprime to rootd freed
        return _sqrt_rational(sign * rootn, rootd * freed, freen * freed)

    @staticmethod
    def from_factorial_ratio(p, num_args, den_args) -> "SqrtRational":
        """p * sqrt(prod n! over num_args / prod n! over den_args) for an int
        p and arguments n >= 0, which the kernels' label checks ensure; a
        rational factor of factorials enters den_args twice."""
        return SqrtRational.from_exponents(
            p, factorial_exponents(num_args) - factorial_exponents(den_args))

    @staticmethod
    def from_exponents(p, e) -> "SqrtRational":
        """p * sqrt(the ratio whose prime exponents are e) for an int p and a
        signed exponent vector e, a sum and difference of
        factorial_exponents vectors whose fields stay below 2^31 in
        magnitude.

        No factoring and no factorial products.  With every field below
        2^31 in magnitude, |e| has between 32 k - 32 and 32 k - 1 bits when
        its highest nonzero field is the k-th, so |e| gives the number of
        fields.  2^31 added to each field makes every field non-negative, so
        no field borrows, and the same bit flipped back by xor leaves each
        field's two's complement: the vector is read once as signed 32-bit
        ints.  Prime by prime, half of each exponent goes to num and its
        parity under the root; a prime P of odd negative exponent -x goes
        under the root with P^((x + 1)/2) in den, as
        sqrt(P^-x) = sqrt(P) / P^((x + 1)/2).  The primes of num's product
        and of den are disjoint, so one gcd of p and den reduces the
        coefficient."""
        if not p:
            return SR_ZERO
        if not e:       # the ratio 1; the table may hold no prime yet
            return _sqrt_rational(p, 1, 1)
        k = (abs(e).bit_length() >> 5) + 1
        bias = factorials._bias[k]
        fields = memoryview(((e + bias) ^ bias).to_bytes(
            4 * k, sys.byteorder)).cast("i")
        num, den, r = p, 1, 1
        for prime, x in zip(factorials.primes, fields):
            if x:
                if x & 1:
                    r *= prime
                if x > 1:
                    num *= prime ** (x >> 1)
                elif x < 0:
                    den *= prime ** ((1 - x) >> 1)
        if den > 1:
            g = math.gcd(p, den)
            if g > 1:
                num //= g
                den //= g
        return _sqrt_rational(num, den, r)

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            # sqrt(r1 r2) = g sqrt((r1/g) (r2/g)) for g = gcd(r1, r2)
            r1, r2 = self.radicand, other.radicand
            g = math.gcd(r1, r2)
            return _reduced(self.num * other.num * g, self.den * other.den,
                            (r1 // g) * (r2 // g))
        if isinstance(other, int):
            return _reduced(self.num * other, self.den, self.radicand)
        if isinstance(other, Fraction):
            return _reduced(self.num * other.numerator,
                            self.den * other.denominator, self.radicand)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SqrtRational):
            n, r = other.num, other.radicand
            if not n:
                raise ZeroDivisionError("division by zero SqrtRational")
            # 1 / ((n/d) sqrt(r)) = (d / (n r)) sqrt(r), the sign moved to
            # the numerator
            other = _reduced(other.den if n > 0 else -other.den, abs(n) * r, r)
        elif isinstance(other, (int, Fraction)):
            other = 1 / Fraction(other)
        else:
            return NotImplemented
        return self * other

    def __add__(self, other):
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        if self.radicand != other.radicand:
            raise ValueError(
                f"cannot add sqrt({self.radicand}) and sqrt({other.radicand})")
        d1, d2 = self.den, other.den
        return _reduced(self.num * d2 + other.num * d1, d1 * d2, self.radicand)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _sqrt_rational(-self.num, self.den, self.radicand)

    def __eq__(self, other):
        # canonical forms are unique, and a rational has radicand 1
        if isinstance(other, SqrtRational):
            return (self.num == other.num and self.den == other.den
                    and self.radicand == other.radicand)
        if isinstance(other, int):
            return self.radicand == 1 and self.den == 1 and self.num == other
        if isinstance(other, Fraction):
            return (self.radicand == 1 and self.num == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        if self.radicand == 1:
            return hash(self.coeff)
        return hash((self.num, self.den, self.radicand))

    def __bool__(self):
        return self.num != 0

    def __reduce__(self):
        return _sqrt_rational, (self.num, self.den, self.radicand)

    def square(self) -> Fraction:
        return Fraction(self.num * self.num * self.radicand, self.den * self.den)

    def _split(self) -> tuple[int, int, int, int]:
        """(a, b, n, d) with the value (a/b) * sqrt(n/d), both fractions in
        lowest terms: d = gcd(r, den), as (num/den) sqrt(r) =
        (num/(den/d)) sqrt((r/d)/d)."""
        r = self.radicand
        d = math.gcd(r, self.den)
        return self.num, self.den // d, r // d, d

    def __float__(self):
        # documented rule: float numerator/denominator of (a/b) sqrt(n/d)
        # separately, one divide, one sqrt; falls back to correctly rounded
        # integer division when the integers overflow a double.  Where a part
        # is no normal double (a 1000-bit denominator underflows to 0, a
        # radicand may overflow) the rule would lose the value, so the exact
        # square is rooted instead.
        def fdiv(num: int, den: int) -> float:
            try:
                return float(num) / float(den)
            except OverflowError:
                return num / den
        lo, hi = sys.float_info.min, sys.float_info.max
        a, b, n, d = self._split()
        try:
            c, r = fdiv(a, b), fdiv(n, d)
            if lo <= abs(c) <= hi and lo <= abs(r) <= hi:
                return c * math.sqrt(r)
        except OverflowError:
            pass
        root = _sqrt_fraction(self.square())
        return -root if self.num < 0 else root

    def __repr__(self):
        return f"SqrtRational({self.coeff!s}, {self.radicand!s})"

    def __str__(self):
        a, b, n, d = self._split()
        if self.radicand == 1:
            return f"{a}/{b}"
        return f"{a}/{b}*sqrt({n}/{d})"


def _sqrt_rational(num, den, radicand) -> SqrtRational:
    """(num/den) * sqrt(radicand) from parts that are already canonical, as
    SqrtRational holds them; pickle rebuilds values through it."""
    v = object.__new__(SqrtRational)
    v.num, v.den, v.radicand = num, den, radicand
    return v


def _reduced(num, den, radicand) -> SqrtRational:
    """(num/den) * sqrt(radicand) for den >= 1 and a square-free radicand:
    one gcd puts num/den in lowest terms."""
    if not num:
        return SR_ZERO
    g = math.gcd(num, den)
    return _sqrt_rational(num // g, den // g, radicand)


SR_ZERO = _sqrt_rational(0, 1, 1)


def _sqrt_fraction(q: Fraction) -> float:
    """sqrt(q) for a non-negative Fraction of any size: the integer square root
    of q 4^s, s chosen so that it has about 64 bits, scaled back by 2^-s.
    Raises OverflowError above the double range."""
    n, d = q.numerator, q.denominator
    s = (128 - n.bit_length() + d.bit_length()) // 2
    root = math.isqrt((n << 2 * s) // d if s >= 0 else n // (d << -2 * s))
    return math.ldexp(float(root), -s)


class HalfInt(namedtuple("HalfInt", "two_j")):
    """Angular momentum stored as a doubled integer, value = two_j/2."""

    # a named tuple, not a dataclass: importing dataclasses loads inspect,
    # about 0.7 MB in every process that imports gfkit
    __slots__ = ()


class FactorialCache:
    """Monotonically growing table of the prime exponents of n!; thread-safe
    growth.

    It holds no n! itself.  For each n it keeps the exponents of the primes
    in n! (Legendre's formula) packed into one int: the exponent of
    primes[i] fills the 32-bit field at bit 32 i.  Adding these ints adds the
    exponent vectors, so a factorial ratio's exponents are a few big-int
    additions (factorial_exponents, the table's one reader)."""

    def __init__(self, n_max: int = 0):
        self._packed = [0]
        self.primes = []
        # _bias[k] holds _HALF in each of the k lowest fields
        self._bias = [0]
        self._lock = threading.Lock()
        self.grow(n_max)

    def grow(self, n: int) -> None:
        if n < len(self._packed):
            return
        with self._lock:
            packed, primes, bias = self._packed, self.primes, self._bias
            while len(packed) <= n:
                m = r = len(packed)
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


factorials = FactorialCache()


def factorial_exponents(args) -> int:
    """The prime exponents of prod n! over args (each n >= 0) as one opaque
    int, the vector SqrtRational.from_exponents reads.  Vectors may be
    added, subtracted and doubled; the table grows to max(args) on first
    use."""
    packed = factorials._packed
    try:
        return sum(map(packed.__getitem__, args))
    except IndexError:
        factorials.grow(max(args))     # grows packed in place
        return sum(map(packed.__getitem__, args))


def neg_one_pow(k: int) -> int:
    """(-1)**k as an exact int for any integer k (negative included)."""
    return -1 if k & 1 else 1


def triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def _triad_args(a, b, c):
    """The factorial arguments of the triangle delta of doubled (a, b, c):
    Delta^2 = prod n! over these three / (s + 1)!, s = (a + b + c)/2."""
    return (a + b - c) // 2, (a - b + c) // 2, (-a + b + c) // 2
