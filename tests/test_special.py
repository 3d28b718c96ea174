import math
from fractions import Fraction

import numpy as np
import pytest

from gfkit.special import (HydrogenState, fourier_momentum_oracle,
                           gegenbauer, hermite, hydrogen_momentum_radial,
                           hydrogen_momentum_wf, hydrogen_position_wf,
                           hydrogen_radial, hyperspherical_harmonic,
                           laguerre, spherical_harmonic)
from oracles import (gaussian_hankel_selftransform, genfunc_residual,
                     laguerre_coeffs, legendre, tanhsinh_halfline)


def test_poly_eval_examples():
    assert laguerre(0, 2.5, 3.0) == 1.0
    q = 1.3
    assert hermite(2, q) == pytest.approx(4 * q * q - 2)
    x = 0.4
    assert gegenbauer(2, 1.0, x) == pytest.approx(4 * x * x - 1)
    assert legendre(2, x) == pytest.approx(1.5 * x * x - 0.5)
    with pytest.raises(ValueError):
        laguerre(2, -1.5, x)
    with pytest.raises(ValueError):
        gegenbauer(2, -0.7, x)
    # every family refuses a negative degree
    for fn in (lambda n: laguerre(n, 0.5, x), lambda n: gegenbauer(n, 1.0, x),
               lambda n: hermite(n, x), lambda n: legendre(n, x)):
        with pytest.raises(ValueError):
            fn(-1)


def test_laguerre_orthogonality_quadrature():
    from scipy.special import roots_genlaguerre
    alpha = 1.5
    xs, ws = roots_genlaguerre(60, alpha)
    for n in range(9):
        for npr in range(9):
            val = float(np.sum(ws * laguerre(n, alpha, xs)
                               * laguerre(npr, alpha, xs)))
            expect = math.gamma(alpha + n + 1) / math.factorial(n) if n == npr else 0.0
            assert val == pytest.approx(expect, abs=1e-9 * math.gamma(alpha + n + 1))


def test_laguerre_derivative_identity_exact():
    # d/dx L_n^a = -L_{n-1}^{a+1} on exact coefficient vectors
    for n in range(1, 7):
        for a in (Fraction(0), Fraction(1), Fraction(5, 2)):
            cs = laguerre_coeffs(n, a)
            deriv = [cs[k] * k for k in range(1, n + 1)]
            rhs = [-c for c in laguerre_coeffs(n - 1, a + 1)]
            assert deriv == rhs


def test_spherical_harmonics():
    assert spherical_harmonic(0, 0, 0.4, 1.0) == pytest.approx(1 / math.sqrt(4 * math.pi))
    th = 0.8
    assert spherical_harmonic(1, 0, th, 0.0).real == pytest.approx(
        math.sqrt(3 / (4 * math.pi)) * math.cos(th))
    # quadrature normalization of Y_10
    ct, w = np.polynomial.legendre.leggauss(50)
    theta = np.arccos(ct)
    val = 2 * math.pi * np.sum(w * np.abs(spherical_harmonic(1, 0, theta, 0.0)) ** 2)
    assert val == pytest.approx(1.0, abs=1e-12)
    # addition theorem at random angles
    rng = np.random.default_rng(0)
    for _ in range(5):
        th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        for l in (1, 2, 4):
            s = sum(abs(spherical_harmonic(l, m, th, ph)) ** 2
                    for m in range(-l, l + 1))
            assert s == pytest.approx((2 * l + 1) / (4 * math.pi), rel=1e-12)


def test_hydrogen_state_invariants():
    s = HydrogenState(3, 2, 1, (0,))
    assert s.delta == 0.5
    with pytest.raises(ValueError):
        HydrogenState(3, 1, 1, (0,))
    with pytest.raises(ValueError):
        HydrogenState(1, 1, 0)
    # mus is empty or the whole chain mu_2..mu_{N-1}
    assert HydrogenState(4, 2, 1).mus == () and HydrogenState(4, 3, 1, (1, 0)).mus
    for N, mus in ((4, (0,)), (3, (0, 0)), (2, (1,))):
        with pytest.raises(ValueError):
            HydrogenState(N, 2, 1, mus)
    for l in (-1, -3):   # l < 0 with and without a hyperspherical chain
        with pytest.raises(ValueError):
            HydrogenState(3, 2, l)
        with pytest.raises(ValueError):
            HydrogenState(3, 2, l, (0,))
    # the radial functions keep the same rule, 0 <= l < n
    r = np.linspace(1e-6, 8.0, 5)
    for n, l in ((1, 1), (1, 2), (2, -1)):
        with pytest.raises(ValueError):
            hydrogen_radial(3, n, l, r)
        with pytest.raises(ValueError):
            hydrogen_momentum_radial(3, n, l, r)


def test_position_wavefunctions():
    # ground state proportional to e^{-r}, zero radial nodes
    r = np.linspace(0.1, 8, 50)
    vals = hydrogen_radial(3, 1, 0, r)
    ratio = vals / np.exp(-r)
    assert np.allclose(ratio, ratio[0], rtol=1e-12)
    assert np.all(vals > 0)
    # node counts n - l - 1
    for (n, l, nodes) in ((2, 0, 1), (3, 1, 1), (4, 1, 2)):
        vals = hydrogen_radial(3, n, l, np.linspace(0.05, 60, 4000))
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(vals))) > 1))
        assert sign_changes == nodes
    # quadrature norms
    for (N, n, l, tol) in ((3, 2, 1, 1e-8), (5, 2, 1, 1e-7)):
        nrm = tanhsinh_halfline(lambda r: hydrogen_radial(N, n, l, r) ** 2
                                * r ** (N - 1))
        assert abs(nrm - 1) < tol
    # full wavefunction including angular factor
    s = HydrogenState(3, 2, 1, (0,))
    v = hydrogen_position_wf(s, 1.0, (0.5, 0.2))
    assert v == pytest.approx(hydrogen_radial(3, 2, 1, 1.0)
                              * spherical_harmonic(1, 0, 0.5, 0.2))


def test_momentum_closed_form_vs_oracle():
    for (N, n, l, tol) in ((3, 1, 0, 1e-6), (3, 2, 1, 1e-6), (4, 2, 0, 1e-5),
                           (3, 3, 2, 1e-5)):
        d = 1.0 / (n + (N - 3) / 2.0)
        p = np.linspace(0.05 * d, 5 * d, 25)
        closed = np.abs(hydrogen_momentum_radial(N, n, l, p))
        oracle = fourier_momentum_oracle(N, n, l, p)
        scale = oracle.max()
        rel = np.max(np.abs(closed - oracle) / np.maximum(oracle, 1e-3 * scale))
        assert rel < tol
    # momentum norm
    nrm = tanhsinh_halfline(lambda q: hydrogen_momentum_radial(3, 2, 1, q) ** 2 * q * q)
    assert abs(nrm - 1) < 1e-6


def test_tanhsinh_returns_a_non_finite_estimate_at_once():
    # a NaN or infinite estimate never settles, so the rule stops after one
    # level instead of refining it to the last
    for bad in (np.nan, np.inf):
        levels = []

        def f(r):
            levels.append(len(r))
            return np.where(r > 1e10, bad, np.exp(-r))

        assert not np.isfinite(tanhsinh_halfline(f)) and len(levels) == 1


def test_hankel_oracle_memory_does_not_grow_with_the_grid():
    # the integrand is evaluated _HANKEL_ROWS points at a time, so the
    # oracle's peak allocation on four blocks of points is that on one
    import tracemalloc

    from gfkit.special import _HANKEL_ROWS
    d = 1 / 9
    fourier_momentum_oracle(3, 9, 0, np.array([d]))    # scipy.special loaded
    peaks = []
    for points in (_HANKEL_ROWS, 4 * _HANKEL_ROWS):
        p = np.linspace(0.05 * d, 5.0 * d, points)
        tracemalloc.start()
        try:
            fourier_momentum_oracle(3, 9, 0, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_oracle_gaussian_selftransform():
    p = np.linspace(0.05, 4.0, 9)
    g = gaussian_hankel_selftransform(p)
    assert np.max(np.abs(g - np.exp(-p * p / 2))) < 1e-8


def test_oracle_p_to_zero_limit():
    closed0 = float(hydrogen_momentum_radial(3, 1, 0, 1e-6))
    oracle0 = float(fourier_momentum_oracle(3, 1, 0, np.array([1e-6]))[0])
    assert closed0 == pytest.approx(oracle0, rel=1e-6)


def test_radial_only_state_refused_before_radial_work(monkeypatch):
    # empty mus is a radial-only state; with N = 2 it is already whole
    s = HydrogenState(2, 2, 1)
    assert hydrogen_position_wf(s, 1.0, (0.3,)) == pytest.approx(
        hydrogen_radial(2, 2, 1, 1.0) * hyperspherical_harmonic(2, 1, (), (0.3,)))
    import gfkit.special as special

    def radial_work(*args):
        raise AssertionError("radial work started")

    monkeypatch.setattr(special, "hydrogen_radial", radial_work)
    monkeypatch.setattr(special, "hydrogen_momentum_radial", radial_work)
    for N, angles in ((3, (0.5, 0.2)), (4, (0.5, 0.4, 0.2))):
        for wf in (hydrogen_position_wf, hydrogen_momentum_wf):
            with pytest.raises(ValueError, match=r"HydrogenState\.mus"):
                wf(HydrogenState(N, 2, 1), 1.0, angles)


def test_momentum_parity_and_phase():
    # psi(-p) = (-1)^l psi(p) for N = 3 via the angular factor
    s = HydrogenState(3, 2, 1, (0,))
    p, th, ph = 0.7, 0.6, 1.1
    v1 = hydrogen_momentum_wf(s, p, (th, ph))
    v2 = hydrogen_momentum_wf(s, p, (math.pi - th, ph + math.pi))
    assert v2 == pytest.approx(-v1)
    # i^l phase present: with l = 1 and a real m = 0 harmonic the value is
    # purely imaginary
    assert v1.real == 0 and v1.imag != 0


def test_hyperspherical_normalized():
    # product-quadrature norm on S^{N-1}
    def norm(N, l, mus, ngrid=40):
        xs = []
        for j in range(1, N - 1):
            x, w = np.polynomial.legendre.leggauss(ngrid)
            xs.append((math.pi / 2 + math.pi / 2 * x, math.pi / 2 * w))
        phi = np.linspace(0, 2 * math.pi, 48, endpoint=False)
        mesh = np.meshgrid(*[t[0] for t in xs], phi, indexing="ij")
        vals = np.abs(hyperspherical_harmonic(N, l, mus, tuple(mesh))) ** 2
        meas = np.ones_like(vals)
        for j in range(1, N - 1):
            meas = meas * np.sin(mesh[j - 1]) ** (N - 1 - j)
        for j, (x, w) in enumerate(xs):
            shape = [1] * (N - 1)
            shape[j] = len(w)
            meas = meas * w.reshape(shape)
        return float(np.sum(vals * meas) * 2 * math.pi / 48)

    assert norm(3, 2, (1,)) == pytest.approx(1.0, abs=1e-10)
    assert norm(4, 2, (1, 0)) == pytest.approx(1.0, abs=1e-9)
    assert norm(5, 2, (2, 1, 1)) == pytest.approx(1.0, abs=1e-9)
    # N = 2 circle
    phi = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    v = hyperspherical_harmonic(2, 3, (), (phi,))
    assert np.sum(np.abs(v) ** 2) * 2 * math.pi / 64 == pytest.approx(1.0)
    # exactly N - 1 angles, for every N
    for N, mus, angles in ((2, (), (0.3, 0.4)), (3, (1,), (0.3, 0.4, 0.5)),
                           (4, (1, 0), (0.3, 0.4))):
        with pytest.raises(ValueError):
            hyperspherical_harmonic(N, 2, mus, angles)


def test_genfunc_residuals():
    assert genfunc_residual("legendre", 0.5, 0.3) < 1e-10
    assert genfunc_residual("gegenbauer", 0.4, 0.1, alpha=2.0) < 1e-10
    assert genfunc_residual("legendre", 0.0, 0.3) == 0.0
    # character sum: ratio-of-sines representation agrees
    r, half_angle = 0.35, 0.8
    t = math.cos(half_angle)
    series = sum(r ** k * math.sin((k + 1) * half_angle) / math.sin(half_angle)
                 for k in range(120))
    closed = 1.0 / (1 - 2 * r * t + r * r)
    assert genfunc_residual("character", r, t) < 1e-10
    assert series == pytest.approx(closed, rel=1e-10)
    with pytest.raises(ValueError):
        genfunc_residual("legendre", 1.1, 0.0)
