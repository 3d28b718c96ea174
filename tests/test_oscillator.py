import cmath
import math

import numpy as np
import pytest

from gfkit.oscillator import (CausticError, cylindrical_cartesian_overlap,
                              cylindrical_wavefunction,
                              ho_generating_function, ho_propagator,
                              ho_wavefunction, magnetic_energy,
                              magnetic_propagator)
from oracles import fock_measure_residual, mehler_eigensum, tanhsinh_halfline


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
    k = ho_propagator(0.0, 0.0, -1j * 1.0)
    assert k.real == pytest.approx(1 / math.sqrt(2 * math.pi * math.sinh(1.0)), rel=1e-12)
    assert abs(k.imag) < 1e-15


def test_propagator_eigen_expansion():
    for (x, xp) in ((0.5, -0.3), (0.0, 1.2)):
        k = ho_propagator(x, xp, -1j * 1.0)
        s = mehler_eigensum(x, xp, 1.0, nmax=80)
        assert abs(k - s) < 1e-9


def test_propagator_semigroup():
    xs, ws = np.polynomial.legendre.leggauss(240)
    L = 9.0
    ys, wy = L * xs, L * ws
    for (b1, b2) in ((0.4, 0.7), (1.0, 0.25)):
        vals = np.array([ho_propagator(0.3, y, -1j * b1)
                         * ho_propagator(y, -0.2, -1j * b2) for y in ys])
        lhs = np.sum(vals * wy)
        rhs = ho_propagator(0.3, -0.2, -1j * (b1 + b2))
        assert abs(lhs - rhs) < 1e-8


def test_propagator_caustic():
    with pytest.raises(CausticError):
        ho_propagator(0.1, 0.2, math.pi, eps=0.0)
    with pytest.raises(CausticError):
        ho_propagator(0.1, 0.2, 0.0)
    # the default epsilon tilt dodges the caustic on the real axis
    k = ho_propagator(0.1, 0.2, math.pi)
    assert np.isfinite(k.real) and np.isfinite(k.imag)



def test_kernels_refuse_backward_imaginary_time():
    # Im t > 0 is imaginary time run backwards (beta < 0), where the sum
    # over e^{-beta E_n} u_n(x) u_n(x') diverges: both kernels refuse it
    r1, r2 = (0.3, -0.4), (-0.2, 0.5)
    for t in (1j, 0.5 + 0.7j, -2.0 + 1e-300j):
        with pytest.raises(ValueError, match="backward imaginary time"):
            ho_propagator(0.1, 0.2, t)
        with pytest.raises(ValueError, match="backward imaginary time"):
            magnetic_propagator(0.4, r1, r2, t)
    # a negative real t is checked before its tilt, which would move it
    # above the axis, and evaluates: time reversal conjugates the kernel
    # (and flips omega_c), up to the tilt's O(eps)
    for t in (1.0, 2.5):
        assert abs(ho_propagator(0.1, 0.2, -t)
                   - ho_propagator(0.1, 0.2, t).conjugate()) < 1e-6
        assert abs(magnetic_propagator(0.4, r1, r2, -t)
                   - magnetic_propagator(-0.4, r1, r2, t).conjugate()) < 1e-6

def test_delta_sequence():
    # int K(x, x'; -i b) f(x') dx' -> f(x), error decreasing over b
    xs, ws = np.polynomial.legendre.leggauss(400)
    L = 10.0
    ys, wy = L * xs, L * ws
    f = lambda y: np.exp(-0.5 * (y - 0.3) ** 2) * np.cos(y)
    x0 = 0.2
    errs = []
    for b in (0.2, 0.1, 0.05):
        vals = np.array([ho_propagator(x0, y, -1j * b) for y in ys])
        est = np.sum(vals * f(ys) * wy).real
        errs.append(abs(est - f(np.array([x0]))[0] if hasattr(f(x0), '__len__') else abs(est - f(x0))))
    errs = [float(e) for e in errs]
    assert errs[0] > errs[1] > errs[2]


def test_imaginary_time_heat_equation():
    # d_beta K = -H K with H = (-1/2 d^2/dx^2 + x^2/2), finite differences
    x, xp, b = 0.4, -0.1, 0.8
    h = 1e-4
    dbeta = (ho_propagator(x, xp, -1j * (b + h))
             - ho_propagator(x, xp, -1j * (b - h))) / (2 * h)
    hx = 1e-3
    d2x = (ho_propagator(x + hx, xp, -1j * b)
           - 2 * ho_propagator(x, xp, -1j * b)
           + ho_propagator(x - hx, xp, -1j * b)) / hx ** 2
    rhs = 0.5 * d2x - 0.5 * x * x * ho_propagator(x, xp, -1j * b)
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
        return magnetic_propagator(wc, (x, y), r2, -1j * beta)

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


# (m, omega, hbar) away from 1 for the module docstring's unit rule; omega
# is omega0 in the field
M, OMEGA, HBAR = 1.7, 0.6, 0.8
LAM = math.sqrt(M * OMEGA / HBAR)


def scaled_ho_propagator(x, xp, t):
    """lam K_1(lam x, lam x'; omega t), lam = sqrt(m omega / hbar)."""
    return LAM * ho_propagator(LAM * x, LAM * xp, OMEGA * t)


def scaled_magnetic_propagator(omega_c, r1, r2, t):
    """lam^2 K_1(lam r1, lam r2; omega_c / omega0, omega0 t)."""
    return LAM * LAM * magnetic_propagator(
        omega_c / OMEGA, (LAM * r1[0], LAM * r1[1]), (LAM * r2[0], LAM * r2[1]),
        OMEGA * t)


def test_unit_scaling_rule():
    # hbar d_beta K = -H K at t = -i beta, finite differences, with
    # H = -hbar^2/(2m) d^2 + m omega^2 x^2/2 in one dimension and
    # H = -hbar^2/(2m) grad^2 + m (omega0^2 + omega_c^2) r^2/2 - omega_c Lz,
    # Lz = -i hbar (x d_y - y d_x), in the field
    b, h, hx = 0.8, 1e-4, 1e-3
    x, xp = 0.4, -0.1

    def K1(x, beta):
        return scaled_ho_propagator(x, xp, -1j * beta)

    lhs = HBAR * (K1(x, b + h) - K1(x, b - h)) / (2 * h)
    d2x = (K1(x + hx, b) - 2 * K1(x, b) + K1(x - hx, b)) / hx ** 2
    rhs = HBAR ** 2 / (2 * M) * d2x - M * OMEGA ** 2 * x * x / 2 * K1(x, b)
    assert abs(lhs - rhs) < 1e-6

    wc, r2 = 0.4, (0.1, 0.4)

    def K(x, y, beta):
        return scaled_magnetic_propagator(wc, (x, y), r2, -1j * beta)

    x, y = 0.3, -0.2
    lhs = HBAR * (K(x, y, b + h) - K(x, y, b - h)) / (2 * h)
    lap = ((K(x + hx, y, b) - 2 * K(x, y, b) + K(x - hx, y, b)) / hx ** 2
           + (K(x, y + hx, b) - 2 * K(x, y, b) + K(x, y - hx, b)) / hx ** 2)
    dx = (K(x + hx, y, b) - K(x - hx, y, b)) / (2 * hx)
    dy = (K(x, y + hx, b) - K(x, y - hx, b)) / (2 * hx)
    lz = -1j * HBAR * (x * dy - y * dx)
    rhs = (HBAR ** 2 / (2 * M) * lap
           - M * (OMEGA ** 2 + wc * wc) * (x * x + y * y) / 2 * K(x, y, b) + wc * lz)
    assert abs(lhs - rhs) < 1e-6

    # the equation fixes K up to a constant factor c; the semigroup law
    # int K(.., r; b1) K(r, ..; b2) dr = K(b1 + b2) would read c^2 = c
    g, gw = np.polynomial.legendre.leggauss(80)
    g, gw = 7.0 * g, 7.0 * gw
    b1, b2 = 0.4, 0.7
    lhs = sum(wy * scaled_ho_propagator(0.3, y, -1j * b1)
              * scaled_ho_propagator(y, -0.2, -1j * b2) for y, wy in zip(g, gw))
    assert abs(lhs - scaled_ho_propagator(0.3, -0.2, -1j * (b1 + b2))) < 1e-10
    r1, r2 = (0.3, -0.2), (0.1, 0.4)
    lhs = sum(wx * wy * scaled_magnetic_propagator(wc, r1, (u, v), -1j * b1)
              * scaled_magnetic_propagator(wc, (u, v), r2, -1j * b2)
              for u, wx in zip(g, gw) for v, wy in zip(g, gw))
    assert abs(lhs - scaled_magnetic_propagator(wc, r1, r2, -1j * (b1 + b2))) < 1e-10


def test_magnetic_factorization_and_antisymmetry():
    r1, r2 = (0.3, -0.4), (-0.2, 0.5)
    tau = -1j * 0.7
    k2 = magnetic_propagator(0.0, r1, r2, tau)
    k11 = (ho_propagator(r1[0], r2[0], tau)
           * ho_propagator(r1[1], r2[1], tau))
    assert abs(k2 - k11) < 1e-10
    # antisymmetric term flips under r1 <-> r2
    wc = 0.6
    ka = magnetic_propagator(wc, r1, r2, tau)
    kb = magnetic_propagator(wc, r2, r1, tau)
    # the symmetric part of the exponent is shared; check the ratio equals
    # exp of twice the antisymmetric term
    w = math.sqrt(1 + wc * wc)
    s = cmath.sin(w * tau)
    anti = (1j * w / 1.0) * (-cmath.sin(wc * tau) / s) * (r1[0] * r2[1] - r1[1] * r2[0])
    assert ka / kb == pytest.approx(cmath.exp(2 * anti), rel=1e-10)


def test_magnetic_spectral_trace():
    wc, beta = 0.4, 1.3
    n = 160
    L = 8.0
    xs = np.linspace(-L, L, n)
    X, Y = np.meshgrid(xs, xs)
    K = np.empty_like(X, dtype=complex)
    for i in range(n):
        for j in range(n):
            K[i, j] = magnetic_propagator(wc, (X[i, j], Y[i, j]),
                                          (X[i, j], Y[i, j]), -1j * beta)
    tr = np.trapezoid(np.trapezoid(K, xs, axis=1), xs).real
    s = 0.0
    for n1 in range(200):
        for n2 in range(200):
            E = magnetic_energy(n1, n2, wc)
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



def test_cylindrical_cartesian_overlap_vanishes_off_its_shell():
    # the Cartesian state |nx ny> lies in the shell nx + ny = 2j: off it
    # the overlap is exactly 0, and on it (here j = 1, m = 0) it need not be
    for nx, ny in ((1, 0), (0, 0), (2, 1), (3, 0)):
        assert cylindrical_cartesian_overlap(nx, ny, 2, 0) == 0
    assert cylindrical_cartesian_overlap(2, 0, 2, 0) == pytest.approx(-math.sqrt(0.5))

def test_cylindrical_cartesian_overlap_refuses_invalid_labels():
    # the labels cylindrical_wavefunction refuses name no state: j - m not
    # integral (j = 1, m = 1/2) or j < |m|
    for nx, ny, tj, tm in ((1, 0, 2, 1), (0, 1, 1, 0), (1, 0, 1, 3), (0, 0, 0, -2)):
        with pytest.raises(ValueError):
            cylindrical_wavefunction(tj, tm, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            cylindrical_cartesian_overlap(nx, ny, tj, tm)


def test_fock_measure_identity():
    for (a, b) in ((0.7 + 0.2j, -0.4 + 0.5j), (1.0, 1.0), (0.3j, -0.8)):
        assert fock_measure_residual(a, b) < 1e-8
