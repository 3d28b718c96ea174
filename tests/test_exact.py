import ast
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gfkit.exact import (SR_ZERO, FactorialCache, HalfInt, SqrtRational,
                         factorial_exponents, square_free_split, _place)
from gfkit.wigner import gaunt, threej
from oracles import TriangleError, parse_sqrt_rational, triangle_delta


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
        assert SqrtRational(v.coeff, v.radicand) == v
        if c != 0 and r != 0:
            # same value presented differently must canonicalize identically
            w = SqrtRational(c * r, 1 / r)
            assert w == v


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        SqrtRational(1, -2)


def test_rational_equality_and_hash():
    # a value with radicand 1 equals, and hashes as, the int or Fraction it
    # is; an irrational value equals no rational
    assert SqrtRational(2) == 2 and SqrtRational(1, 4) == 2
    assert len({SqrtRational(2), 2, Fraction(2)}) == 1
    assert len({SqrtRational(Fraction(-3, 2)), Fraction(-3, 2)}) == 1
    assert hash(SR_ZERO) == hash(0) and SR_ZERO == 0 and SR_ZERO == Fraction(0)
    assert SqrtRational(1, 2) != Fraction(1, 2) and SqrtRational(2, 2) != 2
    assert 2 == SqrtRational(2) and SqrtRational(3) != 2


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
    # adding zero works regardless of radicand, and returns the other operand
    assert sr(0) + sr(1, 3) == sr(1, 3)
    v = sr(1, 3)
    assert SR_ZERO + v is v and v + SR_ZERO is v
    # one ray, two canonical radicands: c sqrt(n/d) = (c/d) sqrt(n d)
    assert sr(1, Fraction(2, 5)) + sr(1, 10) == sr(6, Fraction(2, 5))
    assert sr(1, Fraction(1, 2)) + sr(1, 2) == sr(Fraction(3, 2), 2)
    assert sr(1, 10) + sr(1, Fraction(2, 5)) == sr(6, Fraction(2, 5))


def test_float_monotone_in_coeff():
    vals = [float(SqrtRational(Fraction(k, 7), Fraction(5, 3))) for k in range(-20, 21)]
    assert vals == sorted(vals)


def test_float_from_the_square_when_a_part_is_no_normal_double():
    # at 2j = 1200 and 1600 the radicand's denominator has over 1000 bits,
    # so the float of the radicand underflows; the value comes from the
    # exact square instead of reading 0
    for tj in (1200, 1600):
        v = threej(tj, tj, tj, 2, -2, 0)
        assert v.radicand.denominator.bit_length() > 1024
        ref = math.copysign(math.sqrt(float(v.square())), v.coeff)
        assert float(v) == pytest.approx(ref, rel=1e-15) and float(v) != 0
    # a radicand above the double range no longer overflows the Gaunt
    a = threej(3200, 3200, 3200, 0, 0, 0)
    b = threej(3200, 3200, 3200, 2, -2, 0)
    ref = (math.sqrt(3201 ** 3 / (4 * math.pi)) * math.sqrt(float(a.square() * b.square()))
           * (1 if (a.coeff > 0) == (b.coeff > 0) else -1))
    assert gaunt(1600, 1, 1600, -1, 1600, 0) == pytest.approx(ref, rel=1e-14)


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
    assert h.two_j == 3
    assert h == HalfInt(3) and h != HalfInt(-3)
    assert hash(h) == hash(HalfInt(3))
    assert len({HalfInt(3), HalfInt(3), HalfInt(4)}) == 2


def test_import_loads_no_dataclasses():
    # HalfInt, ThreeJLabel, Su3Label and the gfkit.unitary labels are named
    # tuples and ResultEnvelope a plain class, so a fresh `import gfkit`,
    # `import gfkit.cli`, `import gfkit.su3` or `import gfkit.unitary` loads
    # neither dataclasses nor the inspect module it would pull in; gfkit.su3
    # imports numpy only inside its Euler-matrix functions, so it loads no
    # numpy either (numpy would load inspect itself); HydrogenState and the
    # gfkit.manybody records are named tuples too, so gfkit.special,
    # gfkit.oscillator and gfkit.manybody load no dataclasses, though numpy
    # loads inspect; gfkit.hurwitz imports numpy alone, so it loads neither
    # scipy nor the exact polynomials
    src = Path(__file__).resolve().parents[1] / "src"
    for module, banned in (("gfkit", ("dataclasses", "inspect")),
                           ("gfkit.cli", ("dataclasses", "inspect")),
                           ("gfkit.su3", ("dataclasses", "inspect", "numpy")),
                           ("gfkit.unitary", ("dataclasses", "inspect")),
                           ("gfkit.special", ("dataclasses",)),
                           ("gfkit.oscillator", ("dataclasses",)),
                           ("gfkit.manybody", ("dataclasses",)),
                           ("gfkit.hurwitz", ("scipy", "gfkit.polytools", "fractions"))):
        script = (f"import sys, {module}\n"
                  f"print([m for m in {banned!r} if m in sys.modules])")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=str(src)))
        assert res.stdout.splitlines() == ["[]"], module


SRC = Path(__file__).resolve().parents[1] / "src" / "gfkit"


def _importers(package):
    """Stems of the modules under src/gfkit that import `package`."""
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == package for m in modules):
                importers.add(path.stem)
    return importers


def test_only_special_imports_scipy():
    assert _importers("scipy") == {"special"}


def test_only_exact_names_the_factorial_table():
    # the kernels take factorial quotients from math; how the table stores
    # factorials is known to exact alone
    names = {"factorials", "FactorialCache"}
    namers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.alias) and node.name in names):
                namers.add(path.stem)
    assert namers == {"exact"}


def test_no_module_imports_dataclasses():
    # every record is a validated named tuple or a plain class
    assert _importers("dataclasses") == set()


# Verification helpers that live in tests/oracles.py, or were deleted for an
# exact check, as (module they left, name)
_TEST_ONLY = (
    ("su3", "product_states"), ("su3", "_gell_mann_action"),
    ("su3", "casimir_matrix"), ("su3", "casimir_eigenvalue"),
    ("su3", "coupled_vectors"), ("hurwitz", "laplacian_pullback_difference"),
    ("hurwitz", "gegenbauer_gaussian_identity"), ("hurwitz", "_a_matrix"),
    ("manybody", "lowdin_two_body_fock"), ("manybody", "thouless_term_count"),
    ("manybody", "boson_recurrence_residual"), ("unitary", "pn1_oracle"),
    ("unitary", "u3_hypergeometric_terms"), ("special", "genfunc_residual"),
    ("special", "gaussian_hankel_selftransform"),
    ("oscillator", "mehler_eigensum"), ("oscillator", "fock_measure_residual"),
    ("su3", "coupling_table_contraction"), ("su3", "_invariant_slices"),
    ("su3", "_CrossBasis"), ("su3", "_v_poly"), ("su3", "_compositions"),
    ("su3", "_multinomial"), ("su3", "_monomial_exponents"),
    ("wigner", "gf_coefficient"),
    ("exact", "parse_sqrt_rational"), ("exact", "_SR_RE"),
    ("exact", "triangle_delta"), ("exact", "TriangleError"),
    ("hurwitz", "hurwitz_symbolic"), ("hurwitz", "cayley_dickson_matrix"),
    ("hurwitz", "_conj"), ("hurwitz", "_cd_mul"),
    ("hurwitz", "quad_map_polynomials"), ("hurwitz", "v_matrix_properties"),
    ("hurwitz", "cayley_rotation_closed3"),
    ("polytools", "poly_var"), ("polytools", "poly_const"),
    ("polytools", "poly_scale"), ("polytools", "poly_diff"),
    ("polytools", "poly_laplacian"), ("polytools", "poly_eval"),
    ("polytools", "poly_compose"), ("polytools", "poly_pow"),
    ("special", "legendre"), ("special", "laguerre_coeffs"),
    ("special", "tanhsinh_halfline"), ("unitary", "highest_pattern"),
)


def test_package_defines_no_test_only_helper():
    import importlib
    import pkgutil

    import gfkit
    modules = [importlib.import_module(f"gfkit.{m.name}")
               for m in pkgutil.iter_modules(gfkit.__path__)]
    assert {f"gfkit.{mod}" for mod, _ in _TEST_ONLY} <= {m.__name__ for m in modules}
    assert [(m.__name__, name) for _, name in _TEST_ONLY
            for m in (gfkit, *modules) if name in vars(m)] == []


# Top-level names of src/gfkit that no production route reaches yet, each
# with the reason it stays
_UNREACHED = {
    "polytools.TruncatedSeries": "the benchmark traces TruncatedSeries.inverse",
    "su3.su3_state_keys": "the benchmark builds its su3-table queries from it",
    "wigner.threej_second_route": "the benchmark checks su3-table entries with it",
    "hurwitz.QUAD_MAPS": "the (n, N) quadratic maps by pair; awaits a CLI route",
    "hurwitz.gegenbauer_gaussian_closed": "Gegenbauer-Gaussian closed forms; awaits a CLI route",
    "manybody.lowdin_two_body": "Lowdin two-body matrix element; awaits a CLI route",
    "manybody.lipkin_boson_spectrum": "quasi-boson Lipkin spectrum; awaits a CLI route",
    "oscillator.magnetic_energy": "Landau levels of the magnetic oscillator; awaits a CLI route",
    "oscillator.cylindrical_wavefunction": "cylindrical oscillator states; awaits a CLI route",
    "oscillator.cylindrical_cartesian_overlap": "cylindrical-Cartesian overlaps; awaits a CLI route",
    "special.hydrogen_position_wf": "full hydrogen position states; awaits a CLI route",
    "special.hydrogen_momentum_wf": "full hydrogen momentum states; awaits a CLI route",
    "unitary.pn1": "the P_n(1) factor of the U(n) normalization; awaits a CLI route",
}


def _top_level(stmt):
    """(names the top-level statement defines, names it mentions).  A
    function that @_command registers counts as reached, so it defines no
    name that must be reached; docstrings mention nothing."""
    defines = set()
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        if not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_command"
                   for d in stmt.decorator_list):
            defines = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        defines = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    mentions = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            mentions.add(node.id)
        elif isinstance(node, ast.Attribute):
            mentions.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            mentions.update(alias.name for alias in node.names)
    return defines, mentions


def test_every_package_name_is_reached():
    # a top-level function, class or assignment is reached when another
    # top-level statement of the package names it, when @_command registers
    # it, or when it is a dunder; every other name is on _UNREACHED, and an
    # entry there that a route now reaches is stale
    stmts = [(path.stem, *_top_level(stmt)) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    unreached = {f"{module}.{name}" for i, (module, defines, _) in enumerate(stmts)
                 for name in defines
                 if not (name.startswith("__") and name.endswith("__"))
                 and not any(name in mentions
                             for j, (_, _, mentions) in enumerate(stmts) if j != i)}
    assert sorted(unreached - _UNREACHED.keys()) == []
    assert sorted(_UNREACHED.keys() - unreached) == []


def test_factorial_cache_growth_and_threads():
    fc = FactorialCache(10)
    assert len(fc._packed) == 11
    fc.grow(600)  # grows past the bound, no error
    assert len(fc._packed) == 601
    threads = [threading.Thread(target=fc.grow, args=(700 + i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert fc._packed == FactorialCache(707)._packed


def legendre_exponents(n):
    """{p: exponent of p in n!} over the primes p <= n, by Legendre's formula."""
    out = {}
    for p in range(2, n + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            e, q = 0, p
            while q <= n:
                e += n // q
                q *= p
            out[p] = e
    return out


def unpacked(fc, n):
    """{p: exponent} read from the 32-bit fields of the packed table entry."""
    packed = fc._packed[n]
    assert packed >> 32 * len(fc.primes) == 0
    return {p: packed >> 32 * i & 0xFFFFFFFF for i, p in enumerate(fc.primes)
            if packed >> 32 * i & 0xFFFFFFFF}


def test_factorial_masks_follow_legendre():
    fc = FactorialCache(150)
    assert fc.primes == sorted(legendre_exponents(150))
    for n in range(151):
        assert unpacked(fc, n) == legendre_exponents(n)
    for k in range(len(fc.primes) + 1):
        assert fc._bias[k] == sum(1 << 32 * i + 31 for i in range(k))


def test_factorial_masks_grown_from_threads():
    serial = FactorialCache(2000)
    fc = FactorialCache(0)
    targets = list(range(1, 2001, 7)) + [2000]
    random.Random(6).shuffle(targets)
    n_threads = 4

    def work(first):
        for n in targets[first::n_threads]:
            fc.grow(n)

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
    assert fc._packed == serial._packed
    assert fc._bias == serial._bias
    assert fc.primes == serial.primes


class _Bounded:
    """A packed exponent vector with a bound on the magnitude of its fields,
    kept through the sums, differences and doublings the kernels make."""

    def __init__(self, packed, bound):
        self.packed, self.bound = packed, bound

    def __add__(self, other):
        return _Bounded(self.packed + other.packed, self.bound + other.bound)

    def __sub__(self, other):
        return _Bounded(self.packed - other.packed, self.bound + other.bound)

    def __rmul__(self, k):
        return _Bounded(k * self.packed, abs(k) * self.bound)


def signed_fields(e):
    """The fields of a packed signed exponent vector, each in -2^31..2^31-1."""
    out = []
    while e:
        f = (e + (1 << 31)) % (1 << 32) - (1 << 31)
        out.append(f)
        e = (e - f) >> 32
    return out


def test_packed_fields_cannot_overflow_at_the_cap(monkeypatch):
    # A field holds the exponent of one prime, and from_exponents adds 2^31
    # to every field of a signed vector, so each field must stay below 2^31
    # in magnitude through every sum, difference and doubling of the
    # vectors.  The exponent of a prime in n! is below n, so a vector of
    # factorial_exponents(args) has fields below sum(args).  Each vector the
    # kernels build carries that bound through their arithmetic here, and
    # every vector from_exponents reads, su3's block, row and entry vectors
    # included, is checked at the largest labels the caps admit.
    from gfkit import exact, su3, wigner
    from gfkit.cli import (SU3_MAX_LAM_SUM, WIGNER_9J_MAX_TWO_J_SUM,
                           WIGNER_MAX_TWO_J_SUM)
    args_seen, bounds = [], []
    exponents, canonical = exact.factorial_exponents, SqrtRational.from_exponents

    def record_args(args):
        args_seen.append(tuple(args))
        return _Bounded(exponents(args), sum(args))

    def record_vector(p, e):
        bounds.append(e.bound)
        assert max(map(abs, signed_fields(e.packed)), default=0) <= e.bound
        return canonical(p, e.packed)

    for module in (exact, su3):
        monkeypatch.setattr(module, "factorial_exponents", record_args)
    monkeypatch.setattr(SqrtRational, "from_exponents", staticmethod(record_vector))
    wigner._threej_core.cache_clear()
    try:
        third = WIGNER_MAX_TWO_J_SUM // 3
        assert wigner.threej(third, third, third, 0, 0, 0)
        assert wigner.clebsch_gordan(*(HalfInt(x) for x in (third, 0, third, 0, third, 0)))
        # a 3j whose J + 1, its largest argument, is as large as the cap allows
        half = WIGNER_MAX_TWO_J_SUM // 2
        assert wigner.threej(half, half // 2, half // 2, 0, 0, 0)
        assert wigner.sixj_gf(*[WIGNER_MAX_TWO_J_SUM // 6] * 6)
        assert wigner.ninej(((WIGNER_9J_MAX_TWO_J_SUM // 9,) * 3,) * 3)
        before = len(bounds)
        su3.coupling_table.cache_clear()
        su3.coupling_table(SU3_MAX_LAM_SUM // 2, SU3_MAX_LAM_SUM // 2, 0)
        assert len(bounds) > before
    finally:
        wigner._threej_core.cache_clear()
        su3.coupling_table.cache_clear()
    assert max(map(max, args_seen)) == WIGNER_MAX_TWO_J_SUM // 2 + 1
    assert max(bounds) < 1 << 31


fractions = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))
factorial_args = st.lists(st.integers(0, 300), max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12).filter(bool), factorial_args, factorial_args,
       factorial_args)
def test_factorial_ratio_placement_matches_from_square(p, num, den, twice):
    # twice enters den_args two times, a rational factor of factorials in
    # front of the root, so p and the coefficient's denominator share primes
    ratio = Fraction(math.prod(map(math.factorial, num)),
                     math.prod(map(math.factorial, den)))
    q = math.prod(map(math.factorial, twice))
    got = SqrtRational.from_factorial_ratio(p, num, (*den, *twice, *twice))
    want = SqrtRational.from_square(Fraction(p, q) ** 2 * ratio, 1 if p > 0 else -1)
    assert (got.coeff, got.radicand) == (want.coeff, want.radicand)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12).filter(bool), factorial_args, factorial_args,
       factorial_args, factorial_args)
# the highest prime's field negative above negative and above positive
# fields, and the ratio 1
@example(p=3, num=[5], den=[7], extra=[], twice=[])
@example(p=-10, num=[6, 6], den=[7], extra=[], twice=[])
@example(p=4, num=[], den=[], extra=[1], twice=[0])
def test_signed_exponent_vectors(p, num, den, extra, twice):
    # sums, differences and doublings of exponent vectors, as su3's blocks
    # make them, give the factorial ratio's canonical value
    fe = factorial_exponents
    got = SqrtRational.from_exponents(p, fe(num) - fe(den) + fe(extra) - 2 * fe(twice))
    want = SqrtRational.from_factorial_ratio(p, (*num, *extra), (*den, *twice, *twice))
    assert (got.coeff, got.radicand) == (want.coeff, want.radicand)
    ratio = Fraction(math.prod(map(math.factorial, (*num, *extra))),
                     math.prod(map(math.factorial, den)))
    square = Fraction(p, math.prod(map(math.factorial, twice))) ** 2 * ratio
    assert want == SqrtRational.from_square(square, 1 if p > 0 else -1)


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
