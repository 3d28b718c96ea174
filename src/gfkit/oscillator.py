"""Harmonic oscillator: eigenfunctions, the closed generating function,
Feynman propagators (1-D and the charged 2-D oscillator in a magnetic
field) and the cylindrical basis.

Units are m = omega = hbar = 1 (omega0 = 1 in the magnetic field), as
hydrogen uses atomic units.  Other units follow by scaling:
  one dimension:  K(x, x'; t) = lam K_1(lam x, lam x'; omega t),
                  lam = sqrt(m omega / hbar);
  magnetic field: K(r1, r2; t) = lam^2 K_1(lam r1, lam r2; omega_c / omega0,
                  omega0 t), lam^2 = m omega0 / hbar;
with K_1 the kernel computed here (the tests check both rules against the
Schroedinger equation).

Real-time kernels are evaluated at complex time; imaginary time t = -i beta
gives the Mehler kernel (real, positive).  Time with Im t > 0, beta < 0 in
imaginary time, is refused with ValueError: there the eigenfunction sum
sum_n e^{-beta E_n} u_n(x) u_n(x') diverges, so no kernel exists.  The
square-root branch of the prefactor is fixed by continuity from Euclidean
time.  Both propagators share one real-time tilt, caustic check and Im t
check; the 1-D kernel takes the tilt eps as an argument (eps = 0 evaluates
on the real axis), the magnetic kernel always uses the default 1e-8.  The
cylindrical wavefunction and its Cartesian overlap refuse the same labels:
j < |m| or j - m not integral.  Only the functions that build arrays import
numpy (and the Hermite or Laguerre recurrence), after their label checks:
the propagators, the magnetic energy, the Cartesian overlap and every
refusal load nothing but this module.
"""
from __future__ import annotations

import cmath
import math


class CausticError(ArithmeticError):
    pass


def ho_wavefunction(n: int, q) -> np.ndarray:
    """u_n(q) = (sqrt(pi) 2^n n!)^{-1/2} e^{-q^2/2} H_n(q)."""
    if n < 0:
        raise ValueError("n >= 0")
    import numpy as np
    from .special import hermite
    q = np.asarray(q, dtype=float)
    lognorm = -0.5 * (0.5 * math.log(math.pi) + n * math.log(2)
                      + math.lgamma(n + 1))
    return math.exp(lognorm) * np.exp(-q * q / 2) * hermite(n, q)


def ho_generating_function(z, q):
    """G(z,q) = pi^{-1/4} exp(sqrt(2) q z - q^2/2 - z^2/2)
             = sum_n z^n/sqrt(n!) u_n(q)."""
    import numpy as np
    z = np.asarray(z, dtype=complex)
    q = np.asarray(q, dtype=float)
    return math.pi ** -0.25 * np.exp(math.sqrt(2) * q * z - q * q / 2 - z * z / 2)


def _tilted_time(t, omega, eps=None):
    """(t, omega t, sin(omega t)) after the real-time tilt
    t -> t(1 - i eps), eps = 1e-8 by default on the real axis; raises
    CausticError where sin(omega t) = 0 on the real axis, and ValueError
    for Im t > 0 (backward imaginary time), checked before the tilt, which
    would give a negative real t an Im t > 0."""
    t = complex(t)
    if t.imag > 0:
        raise ValueError(f"backward imaginary time (Im t = {t.imag!r} > 0) has no kernel")
    if eps is None:
        eps = 1e-8 if (t.imag == 0 and t.real != 0) else 0.0
    if eps:
        t = t * (1 - 1j * eps)
    alpha = omega * t
    s = cmath.sin(alpha)
    if s == 0 or (t.imag == 0 and abs(s) < 1e-9):
        raise CausticError("sin(omega t) = 0")
    return t, alpha, s


def ho_propagator(x, xp, t, eps=None):
    """K(x, t; x', 0) of the oscillator; t complex with Im t <= 0 (use
    t = -1j*beta, beta >= 0, for imaginary time).  Real time is tilted
    t -> t(1 - i eps) with eps = 1e-8 by default to dodge caustics; pass
    eps=0 to evaluate on the real axis, where sin(t) = 0 raises
    CausticError."""
    # omega t formed with omega = 1.0, as in the magnetic kernel: the complex
    # product decides what a non-finite t turns into
    _, alpha, s = _tilted_time(t, 1.0, eps)
    pref = cmath.sqrt(1 / (2j * math.pi * s))
    return pref * cmath.exp(1j / (2 * s) * ((x * x + xp * xp) * cmath.cos(alpha)
                                            - 2 * x * xp))


def magnetic_propagator(omega_c, r1, r2, t):
    """Kernel of the charged 2-D oscillator in a uniform magnetic field;
    omega = sqrt(1 + omega_c^2).  Factorizes into two 1-D kernels at
    omega_c = 0.  The (x1 y2 - y1 x2) term is odd under r1 <-> r2.
    Real time is always tilted by eps = 1e-8, the 1-D kernel's default."""
    w = math.sqrt(1.0 + omega_c * omega_c)
    t, alpha, s = _tilted_time(t, w)
    beta = omega_c * t
    x1, y1 = r1
    x2, y2 = r2
    pref = w / (2j * math.pi * s)
    expo = (1j * w) * (
        cmath.cos(alpha) / (2 * s) * (x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2)
        - cmath.cos(beta) / s * (x1 * x2 + y1 * y2)
        - cmath.sin(beta) / s * (x1 * y2 - y1 * x2))
    return pref * cmath.exp(expo)


def magnetic_energy(n1: int, n2: int, omega_c):
    """E = omega (n1 + n2 + 1) - omega_c (n1 - n2), omega = sqrt(1 + omega_c^2);
    circular basis."""
    omega = math.sqrt(1.0 + omega_c * omega_c)
    return omega * (n1 + n2 + 1) - omega_c * (n1 - n2)


def _check_jm(two_j, two_m):
    if (two_j - two_m) % 2 or two_j < abs(two_m):
        raise ValueError("need j >= |m| with j - m integral")


def cylindrical_wavefunction(two_j: int, two_m: int, lam: float, rho, phi):
    """Phi_{jm}(lam rho, phi): Laguerre x (lam rho)^{2|m|} x e^{-2 i m phi},
    normalized on the plane.  j, m are half-integers passed doubled;
    j - |m| must be a non-negative integer."""
    _check_jm(two_j, two_m)
    import numpy as np
    from .special import laguerre
    rho = np.asarray(rho, dtype=float)
    nr = (two_j - abs(two_m)) // 2
    two_am = abs(two_m)
    lognorm = 0.5 * (math.lgamma(nr + 1)
                     - math.lgamma((two_j + two_am) // 2 + 1))
    pref = lam / math.sqrt(math.pi) * math.exp(lognorm)
    x = (lam * rho) ** 2
    return (pref * np.exp(-x / 2) * laguerre(nr, two_am, x)
            * (lam * rho) ** two_am * np.exp(-1j * two_m * np.asarray(phi)))


def cylindrical_cartesian_overlap(nx: int, ny: int, two_j: int, two_m: int):
    """<u_nx u_ny | Phi_{jm}>: the SU(2)-type coupling coefficient from the
    circular-ladder expansion A1+ = (ax+ - i ay+)/sqrt(2),
    A2+ = (ax+ + i ay+)/sqrt(2), times the (-1)^{j-m} of the cylindrical
    generating function.  Refuses the labels cylindrical_wavefunction
    refuses, which name no state."""
    _check_jm(two_j, two_m)
    p = (two_j + two_m) // 2
    q = (two_j - two_m) // 2
    if nx + ny != p + q:
        return 0j
    amp = 0j
    for k in range(max(0, nx - q), min(p, nx) + 1):    # l = nx - k in 0..q
        l = nx - k
        amp += (math.comb(p, k) * math.comb(q, l)
                * (-1j) ** (p - k) * (1j) ** (q - l))
    amp *= (0.5) ** ((p + q) / 2)
    amp *= math.sqrt(math.factorial(nx) * math.factorial(ny)
                     / (math.factorial(p) * math.factorial(q)))
    # (-1)^{j-m} from the generating function, (-1)^{|m|-m} from the
    # negative-m reflection of the e^{-2 i m phi} convention
    return (-1) ** (q + (abs(two_m) - two_m) // 2) * amp
