"""Classical orthogonal polynomials (Laguerre, Gegenbauer, Hermite),
spherical and hyperspherical harmonics, hydrogen wavefunctions in position
and momentum space (3-D and N-D) and the numeric Hankel/Fourier oracle
(with its tanh-sinh rule on (0, inf)).

Atomic units, Z = 1.  N-dimensional states use delta_n = 1/(n + (N-3)/2);
the momentum-space closed form is the Gegenbauer expression
  ~ (delta p)^l C_{n-l-1}^{l+(N-1)/2}((p^2-d^2)/(p^2+d^2)) / (p^2+d^2)^{l+(N+1)/2}
validated pointwise against the Hankel-transform oracle, which hydrogen
verify reports against; the tests check the oracle's transform on a Gaussian,
which maps to itself.  The oracle evaluates its integrand a block of p rows
at a time, so its memory is bounded by the block, not by the grid, and its
quadrature raises ArithmeticError when its last two levels disagree.
Hyperspherical harmonics are normalized link by link with the closed-form
Gegenbauer norm, and the 3-D spherical harmonic is the N = 3 case with the
Condon-Shortley phase: every polynomial comes from the one three-term
recurrence.  HydrogenState is a validated named tuple that always holds its
whole hyperspherical chain.  The Legendre polynomials and the exact
Laguerre coefficients serve only the tests and live in tests/oracles.py.

The hydrogen normalizations take lnGamma and Gamma from ports of the
Cephes routines that scipy.special runs, repeated operation for operation,
so they give scipy's floats without importing it.  scipy.special is imported
only inside the Hankel oracle, for the Bessel function, so the sampled
hydrogen commands and gfkit.oscillator load numpy but not scipy; only
hydrogen verify loads scipy.  This is the only module of gfkit that imports
scipy.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np


# ---------------------------------------------------------------------------
# polynomial families by three-term recurrence
# ---------------------------------------------------------------------------
def _three_term(n, x, first, step):
    """p_n(x) by the upward recurrence from p_0 = 1 and p_1 = first(x), where
    step(k, x, p_{k-1}, p_k) gives p_{k+1}; vectorized in x."""
    if n < 0:
        raise ValueError("polynomial degree n >= 0")
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = first(x)
    for k in range(1, n):
        p0, p1 = p1, step(k, x, p0, p1)
    return p1


def laguerre(n, alpha, x):
    """L_n^{(alpha)}(x), stable upward recurrence; vectorized in x."""
    if alpha <= -1:
        raise ValueError("laguerre needs alpha > -1")
    return _three_term(
        n, x, lambda x: 1 + alpha - x,
        lambda k, x, p0, p1: ((2 * k + 1 + alpha - x) * p1 - (k + alpha) * p0) / (k + 1))


def gegenbauer(n, alpha, x):
    """C_n^{(alpha)}(x); alpha > -1/2."""
    if alpha <= -0.5:
        raise ValueError("gegenbauer needs alpha > -1/2")
    return _three_term(
        n, x, lambda x: 2 * alpha * x,
        lambda k, x, p0, p1: (2 * (k + alpha) * x * p1 - (k + 2 * alpha - 1) * p0) / (k + 1))


def hermite(n, x):
    """Physicists' H_n(x)."""
    return _three_term(n, x, lambda x: 2 * x,
                       lambda k, x, p0, p1: 2 * x * p1 - 2 * k * p0)


# ---------------------------------------------------------------------------
# spherical harmonics (3-D) and hyperspherical chains
# ---------------------------------------------------------------------------
def hyperspherical_harmonic(N, l, mus, angles):
    """Y_{l,{mu}} on S^{N-1}; chain l = mu_1 >= mu_2 >= ... >= |mu_{N-1}|.

    angles = (theta_1..theta_{N-2}, phi).  Link j of the chain is
    C_n^a(cos theta_j) sin^{mu_{j+1}} theta_j with n = mu_j - |mu_{j+1}| and
    a = (N-j-1)/2 + |mu_{j+1}|, normalized by the closed-form Gegenbauer norm
    int_0^pi (C_n^a)^2 sin^{2a} = pi 2^{1-2a} Gamma(n+2a) / (n! (n+a) Gamma(a)^2).
    N = 2 has no link: e^{i l phi}/sqrt(2 pi).
    """
    chain = (l,) + tuple(mus)
    if len(chain) != N - 1:
        raise ValueError("need mu_2..mu_{N-1}")
    if len(angles) != N - 1:
        raise ValueError("need theta_1..theta_{N-2}, phi")
    m = chain[-1]
    thetas = angles[:N - 2]
    phi = angles[N - 2]
    val = np.exp(1j * m * np.asarray(phi)) / math.sqrt(2 * math.pi)
    for j in range(1, N - 1):          # theta_j, j = 1..N-2
        mu_j1 = abs(chain[j])
        deg = chain[j - 1] - mu_j1
        a = (N - j - 1) / 2.0 + mu_j1
        log_norm = (math.log(math.pi) + (1 - 2 * a) * math.log(2)
                    + math.lgamma(deg + 2 * a) - math.lgamma(deg + 1)
                    - math.log(deg + a) - 2 * math.lgamma(a))
        val = val * (gegenbauer(deg, a, np.cos(thetas[j - 1]))
                     * np.sin(thetas[j - 1]) ** mu_j1 * math.exp(-0.5 * log_norm))
    return val


def spherical_harmonic(l, m, theta, phi):
    """Y_{lm}(theta, phi), orthonormal on the sphere, Condon-Shortley: the
    N = 3 hyperspherical harmonic, which has no Condon-Shortley phase, times
    (-1)^m for m > 0."""
    if abs(m) > l:
        raise ValueError("|m| <= l")
    return (-1) ** max(m, 0) * hyperspherical_harmonic(3, l, (m,), (theta, phi))


# ---------------------------------------------------------------------------
# lnGamma and Gamma: the Cephes routines lgam and Gamma (S. L. Moshier,
# Methods and Programs for Mathematical Functions, 1989) that scipy.special
# runs, repeated operation for operation, so every float is scipy's
# ---------------------------------------------------------------------------
_LS2PI = 0.91893853320467274178          # log(sqrt(2 pi))
_MAXGAM = 171.624376956302725            # Gamma overflows from here
_MAXSTIR = 143.01608                     # x^(x - 1/2) overflows from here
_SQTPI = 2.50662827463100050242E0        # sqrt(2 pi)
# Stirling correction of lnGamma in 1/x^2, 13 <= x < 1000
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
# Gamma(x + 2) = P(x) / Q(x) on 0 <= x < 1
_GAMMA_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3,
            1.04213797561761569935E-2, 4.76367800457137231464E-2,
            2.07448227648435975150E-1, 4.94214826801497100753E-1,
            9.99999999999999996796E-1)
_GAMMA_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4,
            -4.45641913851797240494E-3, 1.18139785222060435552E-2,
            3.58236398605498653373E-2, -2.34591795718243348568E-1,
            7.14304917030273074085E-2, 1.00000000000000000320E0)
# Stirling correction of Gamma in 1/x, x > 33
_STIR = (7.87311395793093628397E-4, -2.29549961613378126380E-4,
         -2.68132617805781232825E-3, 3.47222221605458667310E-3,
         8.33333333333482257126E-2)


def _polevl(x, coef):
    """The polynomial with coefficients coef, highest degree first, at x by
    Horner's rule."""
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _lgamma_int(k) -> float:
    """ln Gamma(k) at an integer k >= 1, as Cephes lgam.  Below 13 its
    product loop forms (k - 1)! exactly; above it is Stirling's series."""
    if k < 13:
        return math.log(math.factorial(k - 1))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


def _gamma(x) -> float:
    """Gamma(x) at x > 0 (here an integer or half-integer), as Cephes Gamma:
    inf from _MAXGAM on."""
    x = float(x)
    if x > 33.0:
        if x >= _MAXGAM:
            return math.inf
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIR)
        y = math.exp(x)
        if x > _MAXSTIR:            # split the power so it does not overflow
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return _SQTPI * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        z = z / x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


# ---------------------------------------------------------------------------
# hydrogen states
# ---------------------------------------------------------------------------
class HydrogenState(namedtuple("HydrogenState", "N n l mus")):
    """A hydrogen state in N dimensions with its whole hyperspherical chain
    mus = (mu_2, ..., mu_{N-1}): (m,) for N = 3 and () for N = 2.  A
    validated named tuple, as HalfInt."""

    __slots__ = ()

    def __new__(cls, N, n, l, mus):
        check_hydrogen_labels(N, n, l)
        mus = tuple(mus)
        if len(mus) != N - 2:
            raise ValueError(f"HydrogenState.mus must be mu_2..mu_{{N-1}}, "
                             f"{N - 2} entries for N = {N}")
        if mus:
            chain = (l,) + mus
            for a, b in zip(chain, chain[1:-1]):
                if a < b:
                    raise ValueError("chain must decrease")
            if abs(chain[-1]) > chain[-2]:
                raise ValueError("|m| <= previous chain entry")
        return super().__new__(cls, N, n, l, mus)


def radial_norm_constant(N, n, l) -> float:
    """Closed-form N_{n,l} * omega^{N/2} of the N-dim radial function."""
    halfshift = n + (N - 3) / 2.0
    omega = 2.0 / halfshift
    lognum = 0.5 * (_lgamma_int(n - l) - math.log(2 * halfshift)
                    - _lgamma_int(n + l + N - 2))
    return math.exp(lognum) * omega ** (N / 2.0)


def hydrogen_delta(N, n) -> float:
    """delta_n = 1 / (n + (N - 3)/2), the momentum scale of level n in N
    dimensions (the bound-state energy is -delta_n^2 / 2)."""
    return 1.0 / (n + (N - 3) / 2.0)


def check_hydrogen_labels(N, n, l):
    """Refuse labels that name no N-dimensional hydrogen state: ints (numpy's
    too) with N >= 2 and 0 <= l < n.  Below N = 2 the level scale
    hydrogen_delta is infinite or negative, and the Laguerre and Gegenbauer
    parameters leave their range."""
    if not all(isinstance(v, (int, np.integer)) for v in (N, n, l)):
        raise ValueError(f"hydrogen labels N, n and l must be ints, not {N!r}, {n!r}, {l!r}")
    if N < 2:
        raise ValueError("hydrogen states need N >= 2")
    if not 0 <= l < n:
        raise ValueError("hydrogen states need 0 <= l < n")


def hydrogen_radial(N, n, l, r):
    """R_{n,l}(r) in N dimensions; integral of R^2 r^{N-1} dr = 1."""
    check_hydrogen_labels(N, n, l)
    r = np.asarray(r, dtype=float)
    x = 2 * hydrogen_delta(N, n) * r
    return (radial_norm_constant(N, n, l) * x ** l * np.exp(-x / 2)
            * laguerre(n - l - 1, 2 * l + N - 2, x))


def hydrogen_momentum_radial(N, n, l, p):
    """Closed-form radial momentum amplitude F_{n,l}(p), nonnegative-p grid;
    integral of F^2 p^{N-1} dp = 1."""
    check_hydrogen_labels(N, n, l)
    p = np.asarray(p, dtype=float)
    d = hydrogen_delta(N, n)
    x = (p * p - d * d) / (p * p + d * d)
    pref = math.sqrt(math.factorial(n - l - 1) * (n + (N - 3) / 2.0)
                     / (2 * math.pi * _gamma(n + l + N - 2)))
    pref *= 2.0 ** (2 * l + N) * d ** (N / 2.0 + 1) * _gamma(l + (N - 1) / 2.0)
    return (pref * (d * p) ** l / (p * p + d * d) ** (l + (N + 1) / 2.0)
            * gegenbauer(n - l - 1, l + (N - 1) / 2.0, x))


def hydrogen_position_wf(state: HydrogenState, r, angles):
    """psi(r, angles) = R_{nl}(r) Y_{l,{mu}}(angles)."""
    R = hydrogen_radial(state.N, state.n, state.l, r)
    if state.N == 3:
        Y = spherical_harmonic(state.l, state.mus[0], *angles)
    else:
        Y = hyperspherical_harmonic(state.N, state.l, state.mus, angles)
    return R * Y


def hydrogen_momentum_wf(state: HydrogenState, p, angles):
    """Momentum-space wavefunction including the i^l phase convention (overall
    minus in N dimensions); magnitudes match the Fourier oracle."""
    F = hydrogen_momentum_radial(state.N, state.n, state.l, p)
    if state.N == 3:
        Y = spherical_harmonic(state.l, state.mus[0], *angles)
        return (1j) ** state.l * F * Y
    Y = hyperspherical_harmonic(state.N, state.l, state.mus, angles)
    return -((1j) ** state.l) * F * Y


_TANHSINH_LEVELS = 12
_TANHSINH_TOL = 1e-12


def _tanhsinh(level_sum):
    """integral_0^inf by tanh-sinh with the exp(pi/2 sinh t) map.

    level_sum(r, w) returns one level's estimate, the integrand at the nodes
    r summed against the weights w (an array for a vector of integrals).
    Halves the step, over at most _TANHSINH_LEVELS levels, until two
    successive estimates agree to _TANHSINH_TOL relative to
    1 + max|estimate|, and raises ArithmeticError when the last two do not.
    A NaN or infinite estimate never settles and is returned at once.
    """
    h = 0.5
    tmax = 4.0
    prev = None
    for _ in range(_TANHSINH_LEVELS):
        t = np.arange(-tmax, tmax + 1e-12, h)
        u = np.pi / 2 * np.sinh(t)
        r = np.exp(u)
        w = h * r * np.pi / 2 * np.cosh(t)
        est = level_sum(r, w)
        if not np.all(np.isfinite(est)):
            return est
        if prev is not None:
            step, scale = np.abs(est - prev), 1 + np.max(np.abs(est))
            if np.all(step <= _TANHSINH_TOL * scale):
                return est
        prev = est
        h /= 2
    raise ArithmeticError(
        f"tanh-sinh quadrature did not settle in {_TANHSINH_LEVELS} levels (the "
        f"last two differ by {np.max(step) / scale:.1e} relative, above {_TANHSINH_TOL:g})")


# p rows per evaluation of the Hankel integrand: each temporary holds at
# most this many rows of quadrature nodes, however long the p grid
_HANKEL_ROWS = 16


def _hankel_transform(f, N, nu, p_grid):
    """int f(r) J_nu(pr) (pr)^{-(N-2)/2} r^{N-1} dr over r > 0 by adaptive
    tanh-sinh quadrature over the p grid, _HANKEL_ROWS points at a time.
    Each row's sum is the one the whole (points x nodes) array would give,
    and one convergence test covers the whole grid."""
    from scipy.special import jv
    p_grid = np.asarray(p_grid, dtype=float).ravel()

    def level_sum(r, w):
        fr, rn = f(r)[None, :], r[None, :] ** (N - 1)
        est = np.empty(len(p_grid))
        for i in range(0, len(p_grid), _HANKEL_ROWS):
            pr = np.outer(p_grid[i:i + _HANKEL_ROWS], r)
            est[i:i + _HANKEL_ROWS] = np.sum(
                fr * jv(nu, pr) * pr ** (-(N - 2) / 2.0) * rn * w, axis=-1)
        return est

    return _tanhsinh(level_sum)


def fourier_momentum_oracle(N, n, l, p_grid):
    """|radial momentum amplitude| from the Hankel integral of R_{nl} with
    nu = l + (N-2)/2.  R_{nl} is set to 0 at the far nodes where its
    exp(-x/2) underflows to 0: there the Laguerre factor may overflow, and
    0 x inf is NaN.  Elsewhere it is evaluated by hydrogen_radial."""
    check_hydrogen_labels(N, n, l)
    two_delta = 2 * hydrogen_delta(N, n)

    def radial(r):
        live = np.exp(-(two_delta * r) / 2) > 0     # x = 2 delta r, as there
        out = np.zeros_like(r)
        out[live] = hydrogen_radial(N, n, l, r[live])
        return out

    try:
        return np.abs(_hankel_transform(radial, N, l + (N - 2) / 2.0, p_grid))
    except ArithmeticError as exc:
        raise ArithmeticError(f"the Hankel oracle at N = {N}, n = {n}, l = {l}: "
                              f"{exc}") from None
