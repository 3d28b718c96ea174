"""Classical orthogonal polynomials, spherical and hyperspherical harmonics,
hydrogen wavefunctions in position and momentum space (3-D and N-D) and the
numeric Hankel/Fourier oracle (with its tanh-sinh rule on (0, inf)).

Atomic units, Z = 1.  N-dimensional states use delta_n = 1/(n + (N-3)/2);
the momentum-space closed form is the Gegenbauer expression
  ~ (delta p)^l C_{n-l-1}^{l+(N-1)/2}((p^2-d^2)/(p^2+d^2)) / (p^2+d^2)^{l+(N+1)/2}
validated pointwise against the Hankel-transform oracle, which hydrogen
verify reports against; the tests check the oracle's transform on a Gaussian,
which maps to itself.  Hyperspherical harmonics
are normalized link by link with the closed-form Gegenbauer norm.

scipy.special is imported only inside the functions that call it (the
hydrogen normalizations and the Hankel oracle), so a caller of the
polynomials alone, such as gfkit.oscillator, loads numpy but not scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def legendre(n, x):
    """P_n(x) = C_n^{(1/2)}(x); alpha = 1/2 makes every recurrence factor an
    exact float, so the values equal the Legendre recurrence's bit for bit."""
    return gegenbauer(n, 0.5, x)


def laguerre_coeffs(n, alpha_num: Fraction):
    """Exact coefficients of L_n^{(alpha)}: a_k = (-1)^k binom(n+alpha, n-k)/k!."""
    out = []
    for k in range(n + 1):
        b = Fraction(1)
        for j in range(1, n - k + 1):
            b *= (alpha_num + k + j) / j
        out.append(Fraction((-1) ** k) * b / math.factorial(k))
    return out


# ---------------------------------------------------------------------------
# spherical harmonics (3-D) and hyperspherical chains
# ---------------------------------------------------------------------------
def _assoc_legendre_norm(l, m, x):
    """Normalized P_l^m with Condon-Shortley phase:
    sqrt((2l+1)/(4pi) (l-m)!/(l+m)!) P_l^m(x), for m >= 0."""
    x = np.asarray(x, dtype=float)
    somx2 = np.sqrt(np.maximum(0.0, 1 - x * x))
    # P_m^m with normalization folded in
    pmm = np.full_like(x, math.sqrt(1 / (4 * math.pi)))
    for k in range(1, m + 1):
        pmm = -pmm * somx2 * math.sqrt((2 * k + 1) / (2.0 * k))
    if l == m:
        return pmm
    pmm1 = x * math.sqrt(2 * m + 3) * pmm
    if l == m + 1:
        return pmm1
    for ll in range(m + 2, l + 1):
        a = math.sqrt((4 * ll * ll - 1) / (ll * ll - m * m))
        b = math.sqrt(((ll - 1) ** 2 - m * m) / (4 * (ll - 1) ** 2 - 1))
        pmm, pmm1 = pmm1, a * (x * pmm1 - b * pmm)
    return pmm1


def spherical_harmonic(l, m, theta, phi):
    """Y_{lm}(theta, phi), orthonormal on the sphere, Condon-Shortley."""
    if abs(m) > l:
        raise ValueError("|m| <= l")
    am = abs(m)
    base = _assoc_legendre_norm(l, am, np.cos(theta))
    val = base * np.exp(1j * am * np.asarray(phi))
    if m >= 0:
        return val
    return (-1) ** am * np.conj(val)


def hyperspherical_harmonic(N, l, mus, angles):
    """Y_{l,{mu}} on S^{N-1}; chain l = mu_1 >= mu_2 >= ... >= |mu_{N-1}|.

    angles = (theta_1..theta_{N-2}, phi).  Link j of the chain is
    C_n^a(cos theta_j) sin^{mu_{j+1}} theta_j with n = mu_j - |mu_{j+1}| and
    a = (N-j-1)/2 + |mu_{j+1}|, normalized by the closed-form Gegenbauer norm
    int_0^pi (C_n^a)^2 sin^{2a} = pi 2^{1-2a} Gamma(n+2a) / (n! (n+a) Gamma(a)^2).
    N = 2 returns e^{i m phi}/sqrt(2 pi).
    """
    chain = (l,) + tuple(mus)
    if len(chain) != N - 1:
        raise ValueError("need mu_2..mu_{N-1}")
    if N == 2:
        (phi,) = angles
        return np.exp(1j * l * np.asarray(phi)) / math.sqrt(2 * math.pi)
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


# ---------------------------------------------------------------------------
# hydrogen states
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HydrogenState:
    N: int
    n: int
    l: int
    mus: tuple = ()     # mu_2..mu_{N-1} hyperspherical chain; (m,) for N=3

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N >= 2")
        _check_hydrogen_nl(self.n, self.l)
        chain = (self.l,) + tuple(self.mus)
        if self.mus:
            for a, b in zip(chain, chain[1:-1]):
                if a < b:
                    raise ValueError("chain must decrease")
            if abs(chain[-1]) > (chain[-2] if len(chain) > 1 else self.l):
                raise ValueError("|m| <= previous chain entry")

    @property
    def delta(self) -> float:
        return hydrogen_delta(self.N, self.n)


def radial_norm_constant(N, n, l) -> float:
    """Closed-form N_{n,l} * omega^{N/2} of the N-dim radial function."""
    from scipy.special import gammaln
    halfshift = n + (N - 3) / 2.0
    omega = 2.0 / halfshift
    lognum = 0.5 * (gammaln(n - l) - math.log(2 * halfshift)
                    - gammaln(n + l + N - 2))
    return math.exp(lognum) * omega ** (N / 2.0)


def hydrogen_delta(N, n) -> float:
    """delta_n = 1 / (n + (N - 3)/2), the momentum scale of level n in N
    dimensions (the bound-state energy is -delta_n^2 / 2)."""
    return 1.0 / (n + (N - 3) / 2.0)


def _check_hydrogen_nl(n, l):
    if not 0 <= l < n:
        raise ValueError("hydrogen states need 0 <= l < n")


def hydrogen_radial(N, n, l, r):
    """R_{n,l}(r) in N dimensions; integral of R^2 r^{N-1} dr = 1."""
    _check_hydrogen_nl(n, l)
    r = np.asarray(r, dtype=float)
    x = 2 * hydrogen_delta(N, n) * r
    return (radial_norm_constant(N, n, l) * x ** l * np.exp(-x / 2)
            * laguerre(n - l - 1, 2 * l + N - 2, x))


def hydrogen_momentum_radial(N, n, l, p):
    """Closed-form radial momentum amplitude F_{n,l}(p), nonnegative-p grid;
    integral of F^2 p^{N-1} dp = 1."""
    _check_hydrogen_nl(n, l)
    from scipy.special import gamma
    p = np.asarray(p, dtype=float)
    d = hydrogen_delta(N, n)
    x = (p * p - d * d) / (p * p + d * d)
    pref = math.sqrt(math.factorial(n - l - 1) * (n + (N - 3) / 2.0)
                     / (2 * math.pi * gamma(n + l + N - 2)))
    pref *= 2.0 ** (2 * l + N) * d ** (N / 2.0 + 1) * gamma(l + (N - 1) / 2.0)
    return (pref * (d * p) ** l / (p * p + d * d) ** (l + (N + 1) / 2.0)
            * gegenbauer(n - l - 1, l + (N - 1) / 2.0, x))


def hydrogen_position_wf(state: HydrogenState, r, angles):
    """psi(r, angles) = R_{nl}(r) Y_{l,{mu}}(angles)."""
    R = hydrogen_radial(state.N, state.n, state.l, r)
    if state.N == 3 and len(state.mus) == 1:
        Y = spherical_harmonic(state.l, state.mus[0], *angles)
    else:
        Y = hyperspherical_harmonic(state.N, state.l, state.mus, angles)
    return R * Y


def hydrogen_momentum_wf(state: HydrogenState, p, angles):
    """Momentum-space wavefunction including the i^l phase convention (overall
    minus in N dimensions); magnitudes match the Fourier oracle."""
    F = hydrogen_momentum_radial(state.N, state.n, state.l, p)
    if state.N == 3 and len(state.mus) == 1:
        Y = spherical_harmonic(state.l, state.mus[0], *angles)
        return (1j) ** state.l * F * Y
    Y = hyperspherical_harmonic(state.N, state.l, state.mus, angles)
    return -((1j) ** state.l) * F * Y


_TANHSINH_LEVELS = 12
_TANHSINH_TOL = 1e-12


def tanhsinh_halfline(f):
    """integral_0^inf f(r) dr by tanh-sinh with the exp(pi/2 sinh t) map.

    f may return an array with the node axis last broadcast: f(r[None,:]) of
    shape (..., len(r)).  Halves the step, over at most _TANHSINH_LEVELS
    levels, until two successive estimates agree to _TANHSINH_TOL relative
    to 1 + max|estimate|; a NaN or infinite estimate never settles and is
    returned at once.
    """
    h = 0.5
    tmax = 4.0
    prev = None
    for _ in range(_TANHSINH_LEVELS):
        t = np.arange(-tmax, tmax + 1e-12, h)
        u = np.pi / 2 * np.sinh(t)
        r = np.exp(u)
        w = h * r * np.pi / 2 * np.cosh(t)
        vals = f(r)
        est = np.sum(vals * w, axis=-1)
        if not np.all(np.isfinite(est)):
            return est
        if prev is not None and np.all(np.abs(est - prev)
                                      <= _TANHSINH_TOL * (1 + np.max(np.abs(est)))):
            return est
        prev = est
        h /= 2
    return prev


def _hankel_transform(f, N, nu, p_grid):
    """int f(r) J_nu(pr) (pr)^{-(N-2)/2} r^{N-1} dr over r > 0 by adaptive
    tanh-sinh quadrature, vectorized over the p grid."""
    from scipy.special import jv
    p_grid = np.atleast_1d(np.asarray(p_grid, dtype=float))

    def integrand(r):
        r = np.asarray(r)
        pr = np.outer(p_grid, r)
        return (f(r)[None, :] * jv(nu, pr)
                * pr ** (-(N - 2) / 2.0) * r[None, :] ** (N - 1))

    return tanhsinh_halfline(integrand)


def fourier_momentum_oracle(N, n, l, p_grid):
    """|radial momentum amplitude| from the Hankel integral of R_{nl} with
    nu = l + (N-2)/2."""
    return np.abs(_hankel_transform(lambda r: hydrogen_radial(N, n, l, r),
                                    N, l + (N - 2) / 2.0, p_grid))
