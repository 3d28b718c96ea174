"""Quadrature helpers: adaptive tanh-sinh on (0, inf) and (a, b), plus thin
wrappers over Gauss rules.  Integrands may be vectorized over an extra
parameter axis (the radial Fourier oracle evaluates a whole p-grid at once).
"""
from __future__ import annotations

import numpy as np


def tanhsinh_halfline(f, level_max=12, tol=1e-12):
    """integral_0^inf f(r) dr by tanh-sinh with the exp(pi/2 sinh t) map.

    f may return an array with the node axis last broadcast: f(r[None,:]) of
    shape (..., len(r)).  Doubles the node density until the result settles.
    """
    h = 0.5
    tmax = 4.0
    prev = None
    for level in range(level_max):
        t = np.arange(-tmax, tmax + 1e-12, h)
        u = np.pi / 2 * np.sinh(t)
        r = np.exp(u)
        w = h * r * np.pi / 2 * np.cosh(t)
        vals = f(r)
        est = np.sum(vals * w, axis=-1)
        if prev is not None and np.all(np.abs(est - prev) <= tol * (1 + np.max(np.abs(est)))):
            return est
        prev = est
        h /= 2
    return prev


def tanhsinh_finite(f, a, b, level_max=12, tol=1e-12):
    """integral_a^b f(x) dx by tanh-sinh."""
    h = 0.5
    tmax = 4.0
    mid = (a + b) / 2
    half = (b - a) / 2
    prev = None
    for level in range(level_max):
        t = np.arange(-tmax, tmax + 1e-12, h)
        s = np.tanh(np.pi / 2 * np.sinh(t))
        x = mid + half * s
        w = h * half * (np.pi / 2) * np.cosh(t) / np.cosh(np.pi / 2 * np.sinh(t)) ** 2
        vals = f(x)
        est = np.sum(vals * w, axis=-1)
        if prev is not None and np.all(np.abs(est - prev) <= tol * (1 + np.max(np.abs(est)))):
            return est
        prev = est
        h /= 2
    return prev


def gauss_legendre(n, a=-1.0, b=1.0):
    x, w = np.polynomial.legendre.leggauss(n)
    xm = (a + b) / 2 + (b - a) / 2 * x
    wm = (b - a) / 2 * w
    return xm, wm
