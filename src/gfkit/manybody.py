"""Generalized Cramer's rule, Slater-determinant machinery (overlap, Lowdin
matrix elements, Thouless theorem) against a small Fock-space oracle, the
Lipkin model exact and quasi-boson treatments, and the boson-expansion
coefficient recurrence.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# generalized Cramer
# ---------------------------------------------------------------------------
class SingularMatrixError(ArithmeticError):
    pass


def _eliminate(A, B):
    """(det A, X) with A X = B over Fractions (A: n x n, B: n x s) by
    forward elimination and back substitution; X is None when det A = 0."""
    n = len(A)
    M = [[Fraction(v) for v in A[i]] + [Fraction(v) for v in B[i]] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        for r in range(c + 1, n):
            if M[r][c]:
                f = M[r][c] * inv
                M[r] = [vr - f * vc for vr, vc in zip(M[r], M[c])]
    X = [None] * n
    for i in reversed(range(n)):
        X[i] = [(M[i][n + k] - sum(M[i][j] * X[j][k] for j in range(i + 1, n))) / M[i][i]
                for k in range(len(B[i]))]
    return det, X


def det_fraction(A) -> Fraction:
    return _eliminate(A, [()] * len(A))[0]


@dataclass(frozen=True)
class SubstitutionQuery:
    A: tuple          # n x n
    B: tuple          # n x s replacement columns
    positions: tuple  # s distinct column indices of A

    def __post_init__(self):
        n = len(self.A)
        s = len(self.positions)
        if len(set(self.positions)) != s or any(not 0 <= p < n for p in self.positions):
            raise ValueError("positions must be distinct, in range")
        if any(len(row) != s for row in self.B) or len(self.B) != n:
            raise ValueError("B must be n x s")


def generalized_cramer(q: SubstitutionQuery) -> Fraction:
    """det(A with columns q.positions replaced by B's columns) computed as
    det(A) * det[x(k, i_l)] where A X = B (one Gauss elimination)."""
    dA, X = _eliminate(q.A, q.B)
    if dA == 0:
        raise SingularMatrixError("det(A) = 0")
    s = len(q.positions)
    minor = [[X[q.positions[l]][k] for l in range(s)] for k in range(s)]
    return dA * det_fraction(minor)


def substituted_determinant_direct(q: SubstitutionQuery) -> Fraction:
    """Oracle: build the substituted matrix and take its determinant."""
    n = len(q.A)
    M = [list(map(Fraction, row)) for row in q.A]
    for l, pos in enumerate(q.positions):
        for i in range(n):
            M[i][pos] = Fraction(q.B[i][l])
    return det_fraction(M)


# ---------------------------------------------------------------------------
# Fock-space oracle (frozenset occupations, explicit fermion signs)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SlaterSystem:
    M: int
    n_occ: int
    R: tuple   # M x M one-body transformation (rows of complex entries)

    def __post_init__(self):
        if not 0 < self.n_occ <= self.M <= 10:
            raise ValueError("need 0 < n_occ <= M <= 10")
        if len(self.R) != self.M or any(len(row) != self.M for row in self.R):
            raise ValueError("R must be M x M")


def _occupations(M, n):
    return [frozenset(c) for c in itertools.combinations(range(M), n)]


def _fermion_op(state, orb, create):
    """c_orb^+ |state> if create, else c_orb |state>: returns (sign,
    new_state), the sign (-1)^(occupied orbitals below orb), or None when
    the orbital is already full (create) or empty (annihilate)."""
    if (orb in state) == create:
        return None
    sign = (-1) ** sum(1 for r in state if r < orb)
    return sign, (state | {orb}) if create else (state - {orb})


def _apply_cdag_c(state, p, q):
    """c_p^+ c_q |state>, returns (sign, new_state) or None."""
    cq = _fermion_op(state, q, False)
    if cq is None:
        return None
    cp = _fermion_op(cq[1], p, True)
    if cp is None:
        return None
    return cq[0] * cp[0], cp[1]


def transform_slater(sys: SlaterSystem):
    """Components of U_Fock |Phi> over n_occ-particle occupations, where the
    reference |Phi> occupies orbitals 0..n_occ-1 and U acts orbital-wise."""
    R = np.asarray(sys.R, dtype=complex)
    cols = [R[:, i] for i in range(sys.n_occ)]
    comps = {}
    for occ in _occupations(sys.M, sys.n_occ):
        rows = sorted(occ)
        mat = np.array([[cols[c][r] for c in range(sys.n_occ)] for r in rows])
        comps[occ] = complex(np.linalg.det(mat))
    return comps


def slater_overlap(sys: SlaterSystem) -> complex:
    """<Phi| R |Phi> = det of the occupied block of R."""
    R = np.asarray(sys.R, dtype=complex)
    occ = range(sys.n_occ)
    return complex(np.linalg.det(R[np.ix_(occ, occ)]))


def slater_overlap_fock(sys: SlaterSystem) -> complex:
    """Brute-force overlap via the full Fock expansion."""
    ref = frozenset(range(sys.n_occ))
    return transform_slater(sys)[ref]


def lowdin_matrix_element(sys: SlaterSystem, T) -> complex:
    """<Phi| T_hat R |Phi> = det(A) tr(A^{-1} (T R)_occ), A the occupied
    block of R."""
    R = np.asarray(sys.R, dtype=complex)
    T = np.asarray(T, dtype=complex)
    occ = np.ix_(range(sys.n_occ), range(sys.n_occ))
    A = R[occ]
    dA = np.linalg.det(A)
    if abs(dA) < 1e-300:
        raise SingularMatrixError("vanishing overlap")
    return complex(dA * np.trace(np.linalg.solve(A, (T @ R)[occ])))


def lowdin_matrix_element_fock(sys: SlaterSystem, T) -> complex:
    """Oracle: apply sum T_pq c_p^+ c_q to U|Phi> and project on <Phi|."""
    T = np.asarray(T, dtype=complex)
    psi = transform_slater(sys)
    ref = frozenset(range(sys.n_occ))
    acc = 0j
    for state, amp in psi.items():
        for q in state:
            for p in range(sys.M):
                r = _apply_cdag_c(state, p, q)
                if r is None or r[1] != ref:
                    continue
                acc += T[p, q] * r[0] * amp
    return acc


def lowdin_two_body(sys: SlaterSystem, Vt) -> complex:
    """<Phi| V_hat R |Phi> with V_hat = (1/4) sum Vt_pqrs cp+ cq+ cs cr:
    det(A) * (1/4) sum_{ijkl occ} W_{ij,kl} det[[Ainv_ki, Ainv_kj],
    [Ainv_li, Ainv_lj]], W = <ij|Vt (R x R)|kl>."""
    R = np.asarray(sys.R, dtype=complex)
    Vt = np.asarray(Vt, dtype=complex)
    n = sys.n_occ
    occ = np.ix_(range(n), range(n))
    A = R[occ]
    dA = np.linalg.det(A)
    Ainv = np.linalg.inv(A)
    W = np.einsum("ijpq,pk,ql->ijkl", Vt[:n, :n, :, :], R[:, :n], R[:, :n])
    total = 0j
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total += W[i, j, k, l] * (Ainv[k, i] * Ainv[l, j]
                                              - Ainv[k, j] * Ainv[l, i])
    return complex(dA * total / 4)


def thouless_residual(sys: SlaterSystem) -> float:
    """Norm of U|Phi> - <Phi|U|Phi> exp(sum x(k,i) b_k^+ a_i)|Phi> in the
    Fock expansion; the exponential terminates by nilpotency."""
    R = np.asarray(sys.R, dtype=complex)
    n, M = sys.n_occ, sys.M
    A = R[np.ix_(range(n), range(n))]
    ov = np.linalg.det(A)
    if abs(ov) < 1e-12:
        raise SingularMatrixError("Thouless breakdown: vanishing overlap")
    X = R[np.ix_(range(n, M), range(n))] @ np.linalg.inv(A)
    psi = transform_slater(sys)
    ref = frozenset(range(n))

    def apply_ph(comp):
        out = {}
        for state, amp in comp.items():
            for i in [x for x in state if x < n]:
                for k in range(n, M):
                    r = _apply_cdag_c(state, k, i)
                    if r is None:
                        continue
                    sign, ns = r
                    out[ns] = out.get(ns, 0) + amp * X[k - n, i] * sign
        return out

    expo = {ref: 1.0 + 0j}
    term = {ref: 1.0 + 0j}
    for order in range(1, min(n, M - n) + 1):
        term = apply_ph(term)
        for s, a in term.items():
            expo[s] = expo.get(s, 0) + a / math.factorial(order)
    err = 0.0
    for s in set(psi) | set(expo):
        err += abs(psi.get(s, 0) - ov * expo.get(s, 0)) ** 2
    return math.sqrt(err)


# ---------------------------------------------------------------------------
# Lipkin model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LipkinModel:
    n_particles: int
    e: float = 1.0
    v: float = 1.0

    def __post_init__(self):
        if self.n_particles < 2 or self.n_particles % 2:
            raise ValueError("N must be even, >= 2")


def lipkin_hamiltonian(model: LipkinModel) -> np.ndarray:
    """H = e J0 + (V/2)(J+^2 + J-^2) on |n>, n = 0..N; standard SU(2)
    ladder matrix elements sqrt((2J-n)(n+1))."""
    N = model.n_particles
    J = N / 2.0
    H = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        H[n, n] = model.e * (n - J)
        if n + 2 <= N:
            amp = math.sqrt((N - n) * (n + 1)) * math.sqrt((N - n - 1) * (n + 2))
            H[n + 2, n] += model.v / 2 * amp
            H[n, n + 2] += model.v / 2 * amp
    return H


def lipkin_spectrum(model: LipkinModel) -> np.ndarray:
    return np.linalg.eigvalsh(lipkin_hamiltonian(model))


def boson_expansion_coeffs(k_max: int) -> list:
    """alpha_0..alpha_{k_max} from the triangular recurrence
    sum_{j=0}^{n-1} (-1)^j n!/(n-j-1)! alpha_j = n sqrt(n), alpha_0 = 1."""
    if k_max < 0:
        raise ValueError("k_max >= 0")
    alphas = []
    for idx in range(k_max + 1):
        n = idx + 1
        rhs = n * math.sqrt(n)
        s = sum((-1) ** j * math.factorial(n) / math.factorial(n - j - 1) * alphas[j]
                for j in range(idx))
        coef = (-1) ** idx * math.factorial(n) / math.factorial(n - idx - 1)
        alphas.append((rhs - s) / coef)
    return alphas


def lipkin_ladder_series(model: LipkinModel, power: int):
    """Coefficients of the boson image of J+^power (power 1 or 2) as the
    series sum_j c_j Z^{j+power} (d/dZ)^j; c solves the triangular system
    that preserves every ladder matrix element."""
    N = model.n_particles
    coeffs = []
    for idx in range(N + 1 - power):
        n = idx + power
        if power == 1:
            rhs = math.sqrt(N - n + 1)
        else:
            rhs = math.sqrt((N - n + 2) * (N - n + 1))
        s = sum(coeffs[j] * math.factorial(n - power) / math.factorial(n - power - j)
                for j in range(idx))
        coeffs.append((rhs - s) * math.factorial(n - power - idx)
                      / math.factorial(n - power))
    return coeffs


def lipkin_boson_images(model: LipkinModel, truncation: int):
    """Truncated boson images on {Z^i/sqrt(i!), i = 0..N}: returns the
    matrices (J0, J+, J+^2) with the series cut at `truncation` terms."""
    if truncation < 1:
        raise ValueError("truncation >= 1")
    N = model.n_particles
    J = N / 2.0
    dim = N + 1
    J0 = np.diag([i - J for i in range(dim)])

    def image(power):
        coeffs = lipkin_ladder_series(model, power)[:truncation]
        out = np.zeros((dim, dim))
        for j, c in enumerate(coeffs):
            for i in range(j, dim - power):
                amp = (math.factorial(i) / math.factorial(i - j)
                       * math.sqrt(math.factorial(i + power) / math.factorial(i)))
                out[i + power, i] += c * amp
        return out

    return J0, image(1), image(2)


def lipkin_boson_spectrum(model: LipkinModel, truncation: int) -> np.ndarray:
    J0, _, Jp2 = lipkin_boson_images(model, truncation)
    H = model.e * J0 + model.v / 2 * (Jp2 + Jp2.T)
    return np.linalg.eigvalsh(H)
