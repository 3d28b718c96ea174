import cmath
import math

import numpy as np
import pytest

from gfkit.oscillator import (CausticError, OscillatorParams,
                              cylindrical_cartesian_overlap,
                              cylindrical_wavefunction,
                              ho_generating_function, ho_propagator,
                              ho_wavefunction, magnetic_energy,
                              magnetic_propagator)
from oracles import fock_measure_residual, mehler_eigensum

PARAMS = OscillatorParams()


def test_wavefunction_examples():
    assert float(ho_wavefunction(0, 0.0)) == pytest.approx(math.pi ** -0.25)
    for n in (1, 2, 5):
        q = 1.3
        assert float(ho_wavefunction(n, -q)) == pytest.approx(
            (-1) ** n * float(ho_wavefunction(n, q)))
    xs, ws = np.polynomial.hermite.hermgauss(60)
    # orthogonality with the Gaussian absorbed into the functions
    val = np.sum(ws * np.exp(xs ** 2) * ho_wavefunction(3, xs) * ho_wavefunction(5, xs))
    assert abs(val) < 1e-10
    with pytest.raises(ValueError):
        ho_wavefunction(-1, 0.0)
    with pytest.raises(ValueError):
        OscillatorParams(mass=-1.0)


def test_generating_function():
    q = 1.0
    assert complex(ho_generating_function(0.0, q)) == pytest.approx(
        float(ho_wavefunction(0, q)))
    z = 0.5 + 0.2j
    series = sum(z ** n / math.sqrt(math.factorial(n)) * float(ho_wavefunction(n, q))
                 for n in range(61))
    assert complex(ho_generating_function(z, q)) == pytest.approx(series, abs=1e-10)
    # dG/dq = (sqrt(2) z - q) G by central differences
    h = 1e-5
    lhs = (complex(ho_generating_function(z, q + h))
           - complex(ho_generating_function(z, q - h))) / (2 * h)
    rhs = (math.sqrt(2) * z - q) * complex(ho_generating_function(z, q))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_propagator_closed_form_point():
    k = ho_propagator(PARAMS, 0.0, 0.0, -1j * 1.0)
    assert k.real == pytest.approx(1 / math.sqrt(2 * math.pi * math.sinh(1.0)), rel=1e-12)
    assert abs(k.imag) < 1e-15


def test_propagator_eigen_expansion():
    for (x, xp) in ((0.5, -0.3), (0.0, 1.2)):
        k = ho_propagator(PARAMS, x, xp, -1j * 1.0)
        s = mehler_eigensum(x, xp, 1.0, nmax=80)
        assert abs(k - s) < 1e-9


def test_propagator_semigroup():
    xs, ws = np.polynomial.legendre.leggauss(240)
    L = 9.0
    ys, wy = L * xs, L * ws
    for (b1, b2) in ((0.4, 0.7), (1.0, 0.25)):
        vals = np.array([ho_propagator(PARAMS, 0.3, y, -1j * b1)
                         * ho_propagator(PARAMS, y, -0.2, -1j * b2) for y in ys])
        lhs = np.sum(vals * wy)
        rhs = ho_propagator(PARAMS, 0.3, -0.2, -1j * (b1 + b2))
        assert abs(lhs - rhs) < 1e-8


def test_propagator_caustic():
    with pytest.raises(CausticError):
        ho_propagator(PARAMS, 0.1, 0.2, math.pi, eps=0.0)
    with pytest.raises(CausticError):
        ho_propagator(PARAMS, 0.1, 0.2, 0.0)
    # the default epsilon tilt dodges the caustic on the real axis
    k = ho_propagator(PARAMS, 0.1, 0.2, math.pi)
    assert np.isfinite(k.real) and np.isfinite(k.imag)


def test_delta_sequence():
    # int K(x, x'; -i b) f(x') dx' -> f(x), error decreasing over b
    xs, ws = np.polynomial.legendre.leggauss(400)
    L = 10.0
    ys, wy = L * xs, L * ws
    f = lambda y: np.exp(-0.5 * (y - 0.3) ** 2) * np.cos(y)
    x0 = 0.2
    errs = []
    for b in (0.2, 0.1, 0.05):
        vals = np.array([ho_propagator(PARAMS, x0, y, -1j * b) for y in ys])
        est = np.sum(vals * f(ys) * wy).real
        errs.append(abs(est - f(np.array([x0]))[0] if hasattr(f(x0), '__len__') else abs(est - f(x0))))
    errs = [float(e) for e in errs]
    assert errs[0] > errs[1] > errs[2]


def test_imaginary_time_heat_equation():
    # d_beta K = -H K with H = (-1/2 d^2/dx^2 + x^2/2), finite differences
    x, xp, b = 0.4, -0.1, 0.8
    h = 1e-4
    dbeta = (ho_propagator(PARAMS, x, xp, -1j * (b + h))
             - ho_propagator(PARAMS, x, xp, -1j * (b - h))) / (2 * h)
    hx = 1e-3
    d2x = (ho_propagator(PARAMS, x + hx, xp, -1j * b)
           - 2 * ho_propagator(PARAMS, x, xp, -1j * b)
           + ho_propagator(PARAMS, x - hx, xp, -1j * b)) / hx ** 2
    rhs = 0.5 * d2x - 0.5 * x * x * ho_propagator(PARAMS, x, xp, -1j * b)
    assert abs(dbeta - rhs) < 1e-6


def test_magnetic_heat_equation():
    # d_beta K = -H K, H = -grad^2/2 + w^2 r^2/2 - wc Lz, finite differences
    wc = 0.4
    w2 = 1.0 + wc * wc
    r1 = (0.3, -0.2)
    r2 = (0.1, 0.4)
    b = 0.8
    h = 1e-4

    def K(x, y, beta):
        return magnetic_propagator(PARAMS, wc, (x, y), r2, -1j * beta)

    x, y = r1
    dbeta = (K(x, y, b + h) - K(x, y, b - h)) / (2 * h)
    hx = 1e-3
    lap = ((K(x + hx, y, b) - 2 * K(x, y, b) + K(x - hx, y, b)) / hx ** 2
           + (K(x, y + hx, b) - 2 * K(x, y, b) + K(x, y - hx, b)) / hx ** 2)
    dx = (K(x + hx, y, b) - K(x - hx, y, b)) / (2 * hx)
    dy = (K(x, y + hx, b) - K(x, y - hx, b)) / (2 * hx)
    lz = -1j * (x * dy - y * dx)
    rhs = 0.5 * lap - 0.5 * w2 * (x * x + y * y) * K(x, y, b) + wc * lz
    assert abs(dbeta - rhs) < 1e-6


def test_magnetic_factorization_and_antisymmetry():
    r1, r2 = (0.3, -0.4), (-0.2, 0.5)
    tau = -1j * 0.7
    k2 = magnetic_propagator(PARAMS, 0.0, r1, r2, tau)
    k11 = (ho_propagator(PARAMS, r1[0], r2[0], tau)
           * ho_propagator(PARAMS, r1[1], r2[1], tau))
    assert abs(k2 - k11) < 1e-10
    # antisymmetric term flips under r1 <-> r2
    wc = 0.6
    ka = magnetic_propagator(PARAMS, wc, r1, r2, tau)
    kb = magnetic_propagator(PARAMS, wc, r2, r1, tau)
    # the symmetric part of the exponent is shared; check the ratio equals
    # exp of twice the antisymmetric term
    w = math.sqrt(1 + wc * wc)
    s = cmath.sin(w * tau)
    anti = (1j * w / 1.0) * (-cmath.sin(wc * tau) / s) * (r1[0] * r2[1] - r1[1] * r2[0])
    assert ka / kb == pytest.approx(cmath.exp(2 * anti), rel=1e-10)


def test_magnetic_spectral_trace():
    wc, w0, beta = 0.4, 1.0, 1.3
    w = math.sqrt(w0 ** 2 + wc ** 2)
    n = 160
    L = 8.0
    xs = np.linspace(-L, L, n)
    X, Y = np.meshgrid(xs, xs)
    K = np.empty_like(X, dtype=complex)
    for i in range(n):
        for j in range(n):
            K[i, j] = magnetic_propagator(PARAMS, wc, (X[i, j], Y[i, j]),
                                          (X[i, j], Y[i, j]), -1j * beta)
    tr = np.trapezoid(np.trapezoid(K, xs, axis=1), xs).real
    s = 0.0
    for n1 in range(200):
        for n2 in range(200):
            E = magnetic_energy(n1, n2, w, wc)
            if beta * E < 60:
                s += math.exp(-beta * E)
    assert abs(tr - s) < 1e-4


def test_cylindrical_wavefunction():
    # ground state is the Gaussian lam e^{-lam^2 rho^2/2}/sqrt(pi)
    lam = 1.3
    rho = np.linspace(0, 3, 7)
    vals = cylindrical_wavefunction(0, 0, lam, rho, 0.0)
    expect = lam * np.exp(-lam ** 2 * rho ** 2 / 2) / math.sqrt(math.pi)
    assert np.allclose(vals, expect, rtol=1e-12)
    # norms on the plane for (j,m) = (1,0) and (3/2, 1/2)
    from gfkit.special import tanhsinh_halfline
    for (tj, tm) in ((2, 0), (3, 1)):
        nrm = tanhsinh_halfline(
            lambda r: np.abs(cylindrical_wavefunction(tj, tm, 1.0, r, 0.0)) ** 2
            * 2 * math.pi * r)
        assert abs(nrm - 1) < 1e-10
    with pytest.raises(ValueError):
        cylindrical_wavefunction(1, 0, 1.0, 1.0, 0.0)


def test_cylindrical_cartesian_overlap():
    n, L = 240, 7.0
    xs = np.linspace(-L, L, n)
    X, Y = np.meshgrid(xs, xs)
    R, PH = np.hypot(X, Y), np.arctan2(Y, X)
    for (tj, tm) in ((2, 0), (1, 1), (3, -1), (4, 2)):
        W = cylindrical_wavefunction(tj, tm, 1.0, R, PH)
        for nx in range(tj + 1):
            ny = tj - nx
            quad = np.trapezoid(np.trapezoid(
                ho_wavefunction(nx, X) * ho_wavefunction(ny, Y) * W, xs, axis=1), xs)
            assert abs(quad - cylindrical_cartesian_overlap(nx, ny, tj, tm)) < 1e-9


def test_fock_measure_identity():
    for (a, b) in ((0.7 + 0.2j, -0.4 + 0.5j), (1.0, 1.0), (0.3j, -0.8)):
        assert fock_measure_residual(a, b) < 1e-8
