import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gfkit.hurwitz import (QUAD_MAPS, cayley_rotation, cross_product,
                           gegenbauer_gaussian_closed, hurwitz_matrix,
                           ks_transform, levi_civita, r8_to_r5, v_matrix)
from gfkit.polytools import poly_add, poly_mul
from oracles import (cayley_dickson_matrix, cayley_rotation_closed3,
                     hurwitz_symbolic, laplacian_pullback_difference,
                     poly_const, poly_eval, poly_pow, poly_scale, poly_var,
                     quad_map_polynomials, v_matrix_properties)


def test_hurwitz_symbolic_identity():
    for n in (2, 4, 8):
        H = hurwitz_symbolic(n)
        u2 = poly_const(0, n)
        for i in range(n):
            u2 = poly_add(u2, poly_mul(poly_var(i, n), poly_var(i, n)))
        for i in range(n):
            for j in range(n):
                acc = poly_const(0, n)
                for k in range(n):
                    acc = poly_add(acc, poly_mul(H[k][i], H[k][j]))
                assert acc == (u2 if i == j else {})


def test_hurwitz_matrix_layout():
    H = hurwitz_matrix(2, (1.0, 2.0))
    assert np.allclose(H, [[1, -2], [2, 1]])
    assert np.allclose(hurwitz_matrix(4, (1, 0, 0, 0)), np.eye(4))
    rng = np.random.default_rng(0)
    u = rng.normal(size=8)
    H = hurwitz_matrix(8, u)
    assert np.linalg.norm(H.T @ H - (u @ u) * np.eye(8)) < 1e-12
    with pytest.raises(ValueError):
        hurwitz_matrix(3, (1, 2, 3))


def test_recursive_generator_matches_layout():
    # Cayley-Dickson left-multiplication reproduces the tabulated layouts up
    # to row signs (n = 8 after transposition)
    rng = np.random.default_rng(1)
    for n in (2, 4, 8):
        u = rng.normal(size=n)
        Hcd = cayley_dickson_matrix(n, u)
        assert np.linalg.norm(Hcd.T @ Hcd - (u @ u) * np.eye(n)) < 1e-12
        Hp = hurwitz_matrix(n, u)
        M = Hcd if n < 8 else Hcd.T
        for i in range(n):
            assert np.allclose(M[i], Hp[i]) or np.allclose(M[i], -Hp[i])


def test_ks_examples():
    assert ks_transform((1, 0, 0, 0)) == (0, 0, 1)
    assert ks_transform((1, 0, 1, 0)) == (2, 0, 0)
    u = (Fraction(3, 2), Fraction(-1, 3), Fraction(2, 7), Fraction(5, 4))
    x = ks_transform(u)
    assert sum(v * v for v in x) == (sum(v * v for v in u)) ** 2


def test_quad_maps_norm_identity():
    rng = np.random.default_rng(2)
    u2 = rng.normal(size=2)
    x = levi_civita(u2)
    assert sum(v * v for v in x) == pytest.approx((u2 @ u2) ** 2, rel=1e-12)
    u8 = [Fraction(k, 7) for k in (3, -2, 5, 1, -4, 2, 6, -1)]
    x5 = r8_to_r5(u8)
    assert sum(v * v for v in x5) == (sum(v * v for v in u8)) ** 2


def test_quad_map_polynomials_evaluate_to_the_maps():
    # each component polynomial, evaluated at seeded random rational points,
    # equals the map it was derived from
    rng = np.random.default_rng(11)
    for pair, fn in QUAD_MAPS.items():
        comps = quad_map_polynomials(pair)
        assert len(comps) == pair[0]
        for _ in range(20):
            u = [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 30)))
                 for _ in range(pair[1])]
            assert [poly_eval(c, u) for c in comps] == list(fn(u))


def test_cayley_rotation3():
    assert np.allclose(cayley_rotation(3, (1.0, 0, 0, 0)), np.eye(3))
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.normal(size=4)
        O = cayley_rotation(3, u)
        assert np.linalg.norm(O - cayley_rotation_closed3(u)) < 1e-12
        r2 = u @ u
        assert np.linalg.norm(O.T @ O - r2 * r2 * np.eye(3)) < 1e-10
        assert np.linalg.det(O) == pytest.approx(r2 ** 3, rel=1e-10)


def test_cayley_rotation7():
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = rng.normal(size=8)
        O = cayley_rotation(7, u)
        r2 = u @ u
        assert np.linalg.norm(O.T @ O - r2 * r2 * np.eye(7)) < 1e-10
    with pytest.raises(ArithmeticError):
        cayley_rotation(3, (0.0, 1.0, 0.0, 0.0))


def test_cross_products():
    e = np.eye(7)
    assert np.allclose(cross_product(3, [1, 0, 0], [0, 1, 0]), [0, 0, 1])
    assert np.allclose(cross_product(7, e[0], e[1]), -e[6])
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a, b = rng.normal(size=7), rng.normal(size=7)
        c = cross_product(7, a, b)
        lag = (a @ a) * (b @ b) - (a @ b) ** 2
        assert abs(c @ c - lag) < 1e-12 * max(1.0, abs(lag))
        assert abs(a @ c) < 1e-12 * np.linalg.norm(a) * np.linalg.norm(c) + 1e-12
        assert np.allclose(cross_product(7, b, a), -c)
    # bilinearity
    a, b, c = rng.normal(size=7), rng.normal(size=7), rng.normal(size=7)
    lhs = cross_product(7, a, 2.0 * b + c)
    rhs = 2.0 * cross_product(7, a, b) + cross_product(7, a, c)
    assert np.allclose(lhs, rhs)


def test_v_matrix_properties():
    rng = np.random.default_rng(6)
    rep = v_matrix_properties(7, rng.normal(size=7))
    assert rep["cube_residual"] < 1e-10
    assert rep["exp_residual"] < 1e-10
    rep = v_matrix_properties(3, rng.normal(size=3))
    assert rep["cube_residual"] < 1e-12 and rep["exp_residual"] < 1e-12
    rep0 = v_matrix_properties(3, [0.0, 0.0, 0.0])
    assert rep0["cube_residual"] == 0.0 and rep0["exp_residual"] == 0.0
    # n=3, x=e3, theta=pi/2: the exponential is the classic rotation about z
    import scipy.linalg
    V = v_matrix(3, [0, 0, 1.0])
    R = scipy.linalg.expm(math.pi / 2 * V)
    classic = np.array([[0.0, -1.0, 0], [1.0, 0, 0], [0, 0, 1.0]])
    assert np.linalg.norm(R - classic) < 1e-12


def test_laplacian_pullback():
    # (3,4), f = z: both sides vanish
    f = {(0, 0, 1): Fraction(1)}
    assert laplacian_pullback_difference((3, 4), f) == {}
    f = {(2, 0, 0): Fraction(1)}
    assert laplacian_pullback_difference((3, 4), f) == {}
    f = {(1, 1, 0, 0, 0): Fraction(1)}
    assert laplacian_pullback_difference((5, 8), f) == {}
    with pytest.raises(ValueError):
        quad_map_polynomials((4, 6))


def test_laplacian_pullback_random_polys():
    rng = np.random.default_rng(8)
    for (n, N) in ((2, 2), (3, 4), (5, 8)):
        for _ in range(10):
            f = {}
            for _ in range(4):
                e = tuple(int(x) for x in rng.integers(0, 3, size=n))
                if sum(e) <= 6:
                    f[e] = Fraction(int(rng.integers(-5, 6)))
            if not f:
                continue
            rng.normal(size=N)   # one point per polynomial stays in the seeded stream
            assert laplacian_pullback_difference((n, N), f) == {}


# A(x) of the three Gegenbauer-Gaussian cases: each entry a sum of
# (Gaussian integer, k) terms meaning that integer times x_k, k = 1..n
_GG_CASES = {
    1: (3, [[((1, 3), (1j, 2)), ((1j, 1),)],
            [((1j, 1),), ((1, 3), (-1j, 2))]]),
    2: (4, [[((1, 4), (1j, 3)), ((1, 2), (1j, 1))],
            [((-1, 2), (1j, 1)), ((1, 4), (-1j, 3))]]),
    3: (6, [[((1, 6), (1j, 5)), (), ((-1, 1), (1j, 2)), ((-1, 4), (1j, 3))],
            [(), ((1, 6), (1j, 5)), ((-1, 4), (-1j, 3)), ((1, 1), (1j, 2))],
            [((1, 1), (1j, 2)), ((1, 4), (-1j, 3)), ((1, 6), (-1j, 5)), ()],
            [((1, 4), (1j, 3)), ((-1, 1), (1j, 2)), (), ((1, 6), (-1j, 5))]]),
}


def _gg_determinant(n_case):
    """det(I - alpha A(x)) as (real part, imaginary part), two exact
    polynomials in x_1..x_n and alpha (variable n)."""
    n, A = _GG_CASES[n_case]
    nv = n + 1
    one = poly_const(1, nv)

    def alpha_x(c, k):
        """-c alpha x_k"""
        e = [0] * nv
        e[k - 1] = e[n] = 1
        return {tuple(e): -c}

    M = []
    for i, row in enumerate(A):
        M.append([])
        for j, entry in enumerate(row):
            mr, mi = (one if i == j else {}), {}
            for c, k in entry:
                mr = poly_add(mr, alpha_x(int(c.real), k))
                mi = poly_add(mi, alpha_x(int(c.imag), k))
            M[-1].append((mr, mi))
    re, im = {}, {}
    for perm in itertools.permutations(range(len(A))):
        inv = sum(perm[a] > perm[b] for a in range(len(perm))
                  for b in range(a + 1, len(perm)))
        pr, pi = one, {}
        for i, j in enumerate(perm):
            mr, mi = M[i][j]
            pr, pi = (poly_add(poly_mul(pr, mr), poly_scale(poly_mul(pi, mi), -1)),
                      poly_add(poly_mul(pr, mi), poly_mul(pi, mr)))
        sg = (-1) ** inv
        re, im = poly_add(re, poly_scale(pr, sg)), poly_add(im, poly_scale(pi, sg))
    return re, im


def test_gegenbauer_gaussian_identities():
    # The Gaussian integral of exp(alpha z^dag A z) is det(I - alpha A)^(-1/2)
    # over the real 2-vector of case 1 and det(I - alpha A)^(-1) over the
    # complex vectors of cases 2 and 3.  The identities are therefore the
    # polynomial identity det(I - alpha A(x)) = (1 - 2 alpha x_last +
    # alpha^2 |x|^2)^k, k = 1, 1, 2, which holds exactly for all x and alpha.
    for n_case, k, power in ((1, 1, 0.5), (2, 1, 1.0), (3, 2, 1.0)):
        n = _GG_CASES[n_case][0]
        nv = n + 1
        alpha = poly_var(n, nv)
        base = poly_add(poly_const(1, nv),
                        poly_scale(poly_mul(alpha, poly_var(n - 1, nv)), -2))
        for i in range(n):
            ax = poly_mul(alpha, poly_var(i, nv))
            base = poly_add(base, poly_mul(ax, ax))
        re, im = _gg_determinant(n_case)
        assert im == {}
        assert re == poly_pow(base, k, nv)
        # the closed form is that determinant to the measure's power
        x = [Fraction(j + 1, 7 * n) for j in range(n)]
        a = Fraction(1, 5)
        det = float(poly_eval(re, x + [a]))
        assert gegenbauer_gaussian_closed(n_case, float(a), [float(v) for v in x]) \
            == pytest.approx(det ** -power, rel=1e-12)
    # A1 at x3 = 0.5, r = 1: closed form 1/sqrt(1 - 2*0.5*0.3 + 0.09)
    x = (math.sqrt(0.75), 0.0, 0.5)
    closed = gegenbauer_gaussian_closed(1, 0.3, x)
    assert closed == pytest.approx(1 / math.sqrt(1 - 2 * 0.5 * 0.3 + 0.09), rel=1e-12)
