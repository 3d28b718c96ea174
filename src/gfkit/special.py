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
at a time, so its memory is bounded by the block, not by the grid.
Hyperspherical harmonics are normalized link by link with the closed-form
Gegenbauer norm.  The Legendre polynomials and the exact Laguerre
coefficients serve only the tests and live in tests/oracles.py.

scipy.special is imported only inside the functions that call it (the
hydrogen normalizations and the Hankel oracle), so a caller of the
polynomials alone, such as gfkit.oscillator, loads numpy but not scipy.
This is the only module of gfkit that imports scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
        if len(self.mus) not in (0, self.N - 2):
            raise ValueError("mus is empty or mu_2..mu_{N-1}")
        chain = (self.l,) + tuple(self.mus)
        if self.mus:
            for a, b in zip(chain, chain[1:-1]):
                if a < b:
                    raise ValueError("chain must decrease")
            if abs(chain[-1]) > chain[-2]:
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


def _check_angular_chain(state: HydrogenState):
    """Refuse a radial-only state (empty mus, N >= 3) before any radial work:
    the angular factor needs the whole chain."""
    if len(state.mus) != state.N - 2:
        raise ValueError(f"HydrogenState.mus is empty; the angular factor in "
                         f"N = {state.N} needs mu_2..mu_{{N-1}}")


def hydrogen_position_wf(state: HydrogenState, r, angles):
    """psi(r, angles) = R_{nl}(r) Y_{l,{mu}}(angles)."""
    _check_angular_chain(state)
    R = hydrogen_radial(state.N, state.n, state.l, r)
    if state.N == 3:
        Y = spherical_harmonic(state.l, state.mus[0], *angles)
    else:
        Y = hyperspherical_harmonic(state.N, state.l, state.mus, angles)
    return R * Y


def hydrogen_momentum_wf(state: HydrogenState, p, angles):
    """Momentum-space wavefunction including the i^l phase convention (overall
    minus in N dimensions); magnitudes match the Fourier oracle."""
    _check_angular_chain(state)
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
    1 + max|estimate|; a NaN or infinite estimate never settles and is
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
        est = level_sum(r, w)
        if not np.all(np.isfinite(est)):
            return est
        if prev is not None and np.all(np.abs(est - prev)
                                      <= _TANHSINH_TOL * (1 + np.max(np.abs(est)))):
            return est
        prev = est
        h /= 2
    return prev


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
    two_delta = 2 * hydrogen_delta(N, n)

    def radial(r):
        live = np.exp(-(two_delta * r) / 2) > 0     # x = 2 delta r, as there
        out = np.zeros_like(r)
        out[live] = hydrogen_radial(N, n, l, r[live])
        return out

    return np.abs(_hankel_transform(radial, N, l + (N - 2) / 2.0, p_grid))
