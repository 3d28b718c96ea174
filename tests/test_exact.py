import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gfkit.exact import (FactorialCache, HalfInt, SqrtRational, TriangleError,
                         canonicalize, parse_sqrt_rational, square_free_split,
                         sqrt_factorial_ratio, triangle_delta, _place)


def sr(c, r=1):
    return SqrtRational(Fraction(c), Fraction(r))


def test_canonicalize_examples():
    v = SqrtRational(Fraction(2, 3), 18)
    assert (v.coeff, v.radicand) == (Fraction(2), Fraction(2))
    v = SqrtRational(0, 7)
    assert (v.coeff, v.radicand) == (Fraction(0), Fraction(1))
    v = SqrtRational(Fraction(-1, 2), 9)
    assert (v.coeff, v.radicand) == (Fraction(-3, 2), Fraction(1))


def test_canonicalize_idempotent_and_unique():
    random.seed(4)
    for _ in range(300):
        c = Fraction(random.randint(-60, 60), random.randint(1, 40))
        r = Fraction(random.randint(0, 99), random.randint(1, 99))
        v = SqrtRational(c, r)
        assert canonicalize(v) == v
        if c != 0 and r != 0:
            # same value presented differently must canonicalize identically
            w = SqrtRational(c * r, 1 / r)
            assert w == v


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        SqrtRational(1, -2)


def test_mul_examples():
    assert sr(1, 2) * sr(1, 2) == sr(2, 1)
    assert sr(Fraction(1, 2), 3) * sr(2, 3) == sr(3, 1)
    assert sr(1, 2) * sr(1, 3) == sr(1, 6)


def test_mul_float_property():
    random.seed(11)
    for _ in range(400):
        a = SqrtRational(Fraction(random.randint(-999, 999), random.randint(1, 999)),
                         Fraction(random.randint(0, 10 ** 6), random.randint(1, 10 ** 6)))
        b = SqrtRational(Fraction(random.randint(-999, 999), random.randint(1, 999)),
                         Fraction(random.randint(1, 10 ** 6), random.randint(1, 10 ** 6)))
        fa, fb = float(a), float(b)
        assert float(a * b) == pytest.approx(fa * fb, rel=1e-12, abs=1e-300)


def test_add_same_radicand():
    assert sr(1, 6) + sr(1, 6) == sr(2, 6)
    assert sr(1, 2) + sr(-1, 2) == sr(0, 1)
    with pytest.raises(ValueError):
        sr(1, 2) + sr(1, 3)
    # adding zero works regardless of radicand
    assert sr(0) + sr(1, 3) == sr(1, 3)


def test_float_monotone_in_coeff():
    vals = [float(SqrtRational(Fraction(k, 7), Fraction(5, 3))) for k in range(-20, 21)]
    assert vals == sorted(vals)


def test_parse_roundtrip():
    random.seed(5)
    for _ in range(200):
        v = SqrtRational(Fraction(random.randint(-99, 99), random.randint(1, 99)),
                         Fraction(random.randint(0, 99), random.randint(1, 99)))
        assert parse_sqrt_rational(str(v)) == v
    assert parse_sqrt_rational("1/1*sqrt(1/6)") == SqrtRational(1, Fraction(1, 6))
    assert parse_sqrt_rational("-3/2") == sr(Fraction(-3, 2))


def test_square_free_split():
    assert square_free_split(18) == (3, 2)
    assert square_free_split(1) == (1, 1)
    # large semiprime square exercises the rho path
    p, q = 1000003, 1000033
    root, free = square_free_split(p * p * q)
    assert root == p and free == q


def test_triangle_delta():
    one = triangle_delta(HalfInt(0), HalfInt(0), HalfInt(0))
    assert one == sr(1)
    v = triangle_delta(HalfInt(2), HalfInt(2), HalfInt(2))
    assert v.square() == Fraction(1, 24)
    with pytest.raises(TriangleError):
        triangle_delta(HalfInt(4), HalfInt(2), HalfInt(0))
    with pytest.raises(ValueError):
        triangle_delta(HalfInt(1), HalfInt(0), HalfInt(0))


def test_triangle_delta_symmetric():
    import itertools
    args = (HalfInt(3), HalfInt(5), HalfInt(4))
    vals = {triangle_delta(*p) for p in itertools.permutations(args)}
    assert len(vals) == 1


def test_halfint():
    h = HalfInt(3)
    assert str(h) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert h + HalfInt(1) == HalfInt(4)
    assert -h == HalfInt(-3)
    assert abs(HalfInt(-5)) == HalfInt(5)
    assert not h.is_integer()
    assert float(h) == 1.5
    assert HalfInt.from_value(Fraction(3, 2)) == h
    with pytest.raises(ValueError):
        HalfInt.from_value(Fraction(1, 3))


def test_factorial_cache_growth_and_threads():
    fc = FactorialCache(10)
    assert fc(10) == math.factorial(10)
    assert fc(600) == math.factorial(600)  # grows past the bound, no error
    results = []

    def worker(n):
        results.append(fc(n) == math.factorial(n))

    threads = [threading.Thread(target=worker, args=(200 + i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(results)
    assert fc.binomial(10, 3) == 120


def odd_primes_of_factorial(n):
    """Primes with odd exponent in n!, by Legendre's formula."""
    out = set()
    for p in range(2, n + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            e, q = 0, p
            while q <= n:
                e += n // q
                q *= p
            if e % 2:
                out.add(p)
    return out


def test_factorial_masks_follow_legendre():
    fc = FactorialCache(150)
    for n in range(151):
        assert fc._table[n] == math.factorial(n)
        assert {p for i, p in enumerate(fc.primes) if fc._odd[n] >> i & 1} == \
            odd_primes_of_factorial(n)


def test_factorial_masks_grown_from_threads():
    serial = FactorialCache(2000)
    fc = FactorialCache(0)
    targets = list(range(1, 2001, 7)) + [2000]
    random.Random(6).shuffle(targets)
    n_threads = 4

    def work(first):
        for n in targets[first::n_threads]:
            fc(n)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert fc._table == serial._table
    assert fc._odd == serial._odd
    assert fc.primes == serial.primes


fractions = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))
nonzero_fractions = fractions.filter(bool)
factorial_args = st.lists(st.integers(0, 80), max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonzero_fractions, factorial_args, factorial_args)
def test_factorial_ratio_placement_matches_from_square(s, num, den):
    ratio = Fraction(math.prod(map(math.factorial, num)),
                     math.prod(map(math.factorial, den)))
    root, free = sqrt_factorial_ratio(num, den)
    assert root > 0 and root * root * free == ratio
    assert square_free_split(free) == (1, free)
    got = SqrtRational.from_factorial_ratio(s, num, den)
    want = SqrtRational.from_square(s * s * ratio, 1 if s > 0 else -1)
    assert (got.coeff, got.radicand) == (want.coeff, want.radicand)


square_free = st.integers(1, 3000).map(lambda n: square_free_split(n)[1])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fractions, square_free, square_free)
def test_place_matches_general_constructor(c, n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    got = _place(c, n, d)
    want = SqrtRational(c, Fraction(n, d))
    assert (got.coeff, got.radicand) == (want.coeff, want.radicand)


small_fractions = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 4))
canonical = st.builds(SqrtRational, small_fractions,
                      st.builds(Fraction, st.integers(0, 10 ** 4), st.integers(1, 10 ** 4)))


def parts(v):
    return v.coeff, v.radicand


@settings(derandomize=True, max_examples=300, deadline=None)
@given(canonical, canonical, small_fractions.filter(bool))
def test_arithmetic_matches_general_constructor(a, b, q):
    assert parts(a * b) == parts(SqrtRational(a.coeff * b.coeff, a.radicand * b.radicand))
    assert parts(a * q) == parts(q * a) == parts(SqrtRational(a.coeff * q, a.radicand))
    assert parts(a / q) == parts(SqrtRational(a.coeff / q, a.radicand))
    if b:
        assert parts(a / b) == parts(SqrtRational(a.coeff / b.coeff,
                                                  a.radicand / b.radicand))
    # sums on a's ray: the same radicand, or one rescaled by a rational square
    assert parts(a + a) == parts(SqrtRational(2 * a.coeff, a.radicand))
    assert not a - a
    assert parts(a + SqrtRational(q, a.radicand)) == \
        parts(SqrtRational(a.coeff + q, a.radicand))
