"""Hurwitz matrices, octonionic quadratic transformations, Cayley rotations,
3-D and 7-D cross products and the Gegenbauer-Gaussian closed forms.

Each quadratic map is written once, as a function of u, and QUAD_MAPS
keys the maps by (n, N).  Their checks live in tests/oracles.py: the
symbolic H_n and the Cayley-Dickson generator of the Hurwitz family, the
maps' component polynomials read off by polarization (composed there to
check the Laplacian pullback identity exactly), the closed n = 3 Cayley
form and the V-matrix exponential.  The tests check the
Gegenbauer-Gaussian identities as the exact polynomial identity
det(I - alpha A(x)) = (1 - 2 alpha x_last + alpha^2 |x|^2)^k.  The module
imports numpy and nothing else.
"""
from __future__ import annotations

import numpy as np

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
