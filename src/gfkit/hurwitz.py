"""Hurwitz matrices, octonionic quadratic transformations, Cayley rotations,
3-D and 7-D cross products and the Gegenbauer-Gaussian closed forms.

Each quadratic map is written once, as a function of u; its component
polynomials are read off the map by polarization on unit vectors.  The
tests compose them to check the Laplacian pullback identity exactly, and
check the Gegenbauer-Gaussian identities as the exact polynomial identity
det(I - alpha A(x)) = (1 - 2 alpha x_last + alpha^2 |x|^2)^k.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .polytools import poly_var

_H2 = ((("+", 1), ("-", 2)),
       (("+", 2), ("+", 1)))

_H4 = ((("+", 1), ("-", 2), ("-", 3), ("-", 4)),
       (("+", 2), ("+", 1), ("-", 4), ("+", 3)),
       (("+", 3), ("+", 4), ("+", 1), ("-", 2)),
       (("+", 4), ("-", 3), ("+", 2), ("+", 1)))

_H8 = ((("+", 1), ("+", 2), ("+", 3), ("+", 4), ("+", 5), ("+", 6), ("+", 7), ("+", 8)),
       (("-", 2), ("+", 1), ("+", 4), ("-", 3), ("+", 6), ("-", 5), ("-", 8), ("+", 7)),
       (("-", 3), ("-", 4), ("+", 1), ("+", 2), ("+", 7), ("+", 8), ("-", 5), ("-", 6)),
       (("-", 4), ("+", 3), ("-", 2), ("+", 1), ("+", 8), ("-", 7), ("+", 6), ("-", 5)),
       (("-", 5), ("-", 6), ("-", 7), ("-", 8), ("+", 1), ("+", 2), ("+", 3), ("+", 4)),
       (("-", 6), ("+", 5), ("-", 8), ("+", 7), ("-", 2), ("+", 1), ("-", 4), ("+", 3)),
       (("-", 7), ("+", 8), ("+", 5), ("-", 6), ("-", 3), ("+", 4), ("+", 1), ("-", 2)),
       (("-", 8), ("-", 7), ("+", 6), ("+", 5), ("-", 4), ("-", 3), ("+", 2), ("+", 1)))

_H_LAYOUT = {2: _H2, 4: _H4, 8: _H8}


def hurwitz_layout(n: int):
    """Signed-index layout of H_n, rows of (sign, variable index 1..n)."""
    if n not in _H_LAYOUT:
        raise ValueError("Hurwitz matrices exist for n in {2, 4, 8}")
    return _H_LAYOUT[n]


def hurwitz_matrix(n: int, u) -> np.ndarray:
    """Numeric H_n(u) with H^T H = |u|^2 I."""
    lay = hurwitz_layout(n)
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"u must have length {n}")
    out = np.empty((n, n))
    for i, row in enumerate(lay):
        for j, (sg, k) in enumerate(row):
            out[i, j] = u[k - 1] if sg == "+" else -u[k - 1]
    return out


def hurwitz_symbolic(n: int):
    """H_n with entries as exact linear polynomials in u_1..u_n."""
    lay = hurwitz_layout(n)
    return [[poly_var(k - 1, n, 1 if sg == "+" else -1) for sg, k in row]
            for row in lay]


def cayley_dickson_matrix(n: int, u) -> np.ndarray:
    """Left-multiplication matrix of the Cayley-Dickson doubling chain;
    recursive alternative generator of a Hurwitz matrix family."""
    if n not in (1, 2, 4, 8):
        raise ValueError("n must be in {1, 2, 4, 8}")
    u = np.asarray(u, dtype=float)
    return np.column_stack([_cd_mul(n, u, e) for e in np.eye(n)])


def _conj(v):
    w = -np.asarray(v, dtype=float)
    w[0] = -w[0]
    return w


def _cd_mul(m, x, y):
    """Cayley-Dickson product (a,b)(c,d) = (a c - conj(d) b, d a + b conj(c))."""
    if m == 1:
        return np.array([x[0] * y[0]])
    h = m // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    top = _cd_mul(h, a, c) - _cd_mul(h, _conj(d), b)
    bot = _cd_mul(h, d, a) + _cd_mul(h, b, _conj(c))
    return np.concatenate([top, bot])


# ---------------------------------------------------------------------------
# quadratic transformations
# ---------------------------------------------------------------------------
def levi_civita(u):
    """R^2 -> R^2 conformal square, exact on Fraction input."""
    u1, u2 = u
    return (u1 * u1 - u2 * u2, 2 * u1 * u2)


def ks_transform(u):
    """Kustaanheimo-Stiefel R^4 -> R^3; |x| = |u|^2, exact on rationals."""
    u1, u2, u3, u4 = u
    return (2 * (u1 * u3 + u2 * u4),
            2 * (-u1 * u4 + u2 * u3),
            u1 * u1 + u2 * u2 - u3 * u3 - u4 * u4)


def r8_to_r5(u):
    """Octonionic R^8 -> R^5; sum x_i^2 = (sum u_i^2)^2.

    Quaternionic Hopf form (2 conj(q) p, |q|^2 - |p|^2) with q = (z1, z2),
    p = (z3, z4); the sesquilinear pairing is what the Dirac-matrix
    quadratic form z^dag A z encodes."""
    u1, u2, u3, u4, u5, u6, u7, u8 = u
    x1 = 2 * (u1 * u5 + u2 * u6 + u3 * u7 + u4 * u8)
    x2 = 2 * (u1 * u6 - u2 * u5 + u4 * u7 - u3 * u8)
    x3 = 2 * (u1 * u7 + u2 * u8 - u3 * u5 - u4 * u6)
    x4 = 2 * (u1 * u8 - u2 * u7 + u3 * u6 - u4 * u5)
    x5 = (u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4
          - u5 * u5 - u6 * u6 - u7 * u7 - u8 * u8)
    return (x1, x2, x3, x4, x5)


QUAD_MAPS = {(2, 2): levi_civita, (3, 4): ks_transform, (5, 8): r8_to_r5}


def quad_map_polynomials(pair):
    """Component polynomials of the (n,N) quadratic map, exact.

    Each component x is a quadratic form in u, so polarizing QUAD_MAPS[pair]
    on unit vectors gives its coefficients: u_i^2 has x(e_i), and u_i u_j
    (i < j) has x(e_i + e_j) - x(e_i) - x(e_j)."""
    if pair not in QUAD_MAPS:
        raise ValueError(f"unsupported pair {pair}")
    n, N = pair
    x = QUAD_MAPS[pair]

    def unit(*idx):
        """e_i + e_j + ..., also the exponent tuple of u_i u_j ..."""
        u = [0] * N
        for i in idx:
            u[i] += 1
        return u

    diag = [x(unit(i)) for i in range(N)]
    comps = [{} for _ in range(n)]
    for i in range(N):
        for j in range(i, N):
            e = unit(i, j)
            vals = diag[i] if i == j else [
                c - a - b for c, a, b in zip(x(e), diag[i], diag[j])]
            for comp, v in zip(comps, vals):
                if v:
                    comp[tuple(e)] = Fraction(v)
    return comps


# ---------------------------------------------------------------------------
# cross products and V matrices
# ---------------------------------------------------------------------------
def v_matrix(n: int, x) -> np.ndarray:
    """Matrix V with V(a) b = a x b; n = 3 or 7 (7-D layout of the Cayley
    octonion convention)."""
    x = np.asarray(x, dtype=float)
    if n == 3:
        x1, x2, x3 = x
        return np.array([[0, -x3, x2], [x3, 0, -x1], [-x2, x1, 0]])
    if n == 7:
        x1, x2, x3, x4, x5, x6, x7 = x
        return np.array([
            [0, x7, -x6, -x5, x4, x3, -x2],
            [-x7, 0, -x5, x6, x3, -x4, x1],
            [x6, x5, 0, x7, -x2, -x1, -x4],
            [x5, -x6, -x7, 0, -x1, x2, x3],
            [-x4, -x3, x2, x1, 0, x7, -x6],
            [-x3, x4, x1, -x2, -x7, 0, x5],
            [x2, -x1, x4, -x3, x6, -x5, 0]])
    raise ValueError("cross products exist only for n in {3, 7}")


def cross_product(n: int, a, b) -> np.ndarray:
    return v_matrix(n, a) @ np.asarray(b, dtype=float)


def v_matrix_properties(n: int, x, theta: float = math.pi / 2) -> dict:
    """Residuals of the V-matrix identities: V^3 = -r^2 V and the rotation
    exponential exp(-i theta (iV)) = 1 - i sin(theta) (iV) - (1-cos)(iV)^2
    (checked at unit |x| in its literal complex form)."""
    import scipy.linalg

    x = np.asarray(x, dtype=float)
    V = v_matrix(n, x)
    r2 = float(x @ x)
    res_cube = float(np.linalg.norm(V @ V @ V + r2 * V))
    if r2 == 0.0:
        return {"cube_residual": res_cube, "exp_residual": 0.0}
    xu = x / math.sqrt(r2)
    Vu = v_matrix(n, xu)
    J = 1j * Vu
    lhs = scipy.linalg.expm(-1j * theta * J)
    rhs = (np.eye(n) - 1j * math.sin(theta) * J
           - (1 - math.cos(theta)) * (J @ J))
    res_exp = float(np.linalg.norm(lhs - rhs))
    return {"cube_residual": res_cube, "exp_residual": res_exp}


# ---------------------------------------------------------------------------
# Cayley rotations
# ---------------------------------------------------------------------------
def _skew_s(n: int, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if n == 3:
        if u.shape != (4,):
            raise ValueError("n=3 needs a 4-vector u")
        _, u2, u3, u4 = u
        return np.array([[0, u2, u3], [-u2, 0, u4], [-u3, -u4, 0]])
    if n == 7:
        if u.shape != (8,):
            raise ValueError("n=7 needs an 8-vector u")
        return -v_matrix(7, u[1:])
    raise ValueError("Cayley rotations implemented for n in {3, 7}")


def cayley_rotation(n: int, u) -> np.ndarray:
    """O_n(u) = |u|^2 (u1 I - S)(u1 I + S)^{-1}; O^T O = (|u|^2)^2 I."""
    u = np.asarray(u, dtype=float)
    S = _skew_s(n, u)
    r2 = float(u @ u)
    A = u[0] * np.eye(n) - S
    B = u[0] * np.eye(n) + S
    try:
        return r2 * np.linalg.solve(B.T, A.T).T
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("singular Cayley denominator") from exc


def cayley_rotation_closed3(u) -> np.ndarray:
    """Closed form for n=3: r I - 2 u1 S + 2 S^2."""
    u = np.asarray(u, dtype=float)
    S = _skew_s(3, u)
    r2 = float(u @ u)
    return r2 * np.eye(3) - 2 * u[0] * S + 2 * S @ S


# ---------------------------------------------------------------------------
# Gegenbauer-Gaussian identities
# ---------------------------------------------------------------------------
def gegenbauer_gaussian_closed(n_case, alpha, x) -> complex:
    """(1 - 2 x_last alpha + alpha^2 r^2)^{-m}, m = 1/2, 1, 2."""
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    base = 1 - 2 * x[-1] * alpha + alpha * alpha * r2
    m = {1: 0.5, 2: 1.0, 3: 2.0}[n_case]
    return base ** (-m)
