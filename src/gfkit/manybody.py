"""Generalized Cramer's rule, Slater-determinant machinery (overlap, Lowdin
matrix elements, Thouless theorem) against a small Fock-space oracle, the
Lipkin model exact and quasi-boson treatments, and the boson-expansion
coefficient recurrence.

The Slater kernels read one occupied block, A = R[:n_occ, :n_occ], and its
determinant.  slater_overlap returns det A even when it vanishes; the Lowdin
elements refuse |det A| < 1e-300 and the Thouless expansion |det A| < 1e-12
with SingularMatrixError.  One routine applies sum O_pq c_p^+ c_q to an
{occupation: amplitude} state: the Lowdin oracle with O = T, the Thouless
expansion with O = X.  The Cramer rule needs a square A.

The records (SubstitutionQuery, SlaterSystem, LipkinModel) are validated
named tuples, as everywhere in gfkit: a dataclass would load dataclasses and
inspect on import.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
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


class SubstitutionQuery(namedtuple("SubstitutionQuery", "A B positions")):
    """A (n x n), the replacement columns B (n x s) and the s distinct
    column indices of A they replace; a validated named tuple, as HalfInt."""

    __slots__ = ()

    def __new__(cls, A, B, positions):
        n = len(A)
        s = len(positions)
        if any(len(row) != n for row in A):
            raise ValueError("A must be square")
        if len(set(positions)) != s or any(not 0 <= p < n for p in positions):
            raise ValueError("positions must be distinct, in range")
        if any(len(row) != s for row in B) or len(B) != n:
            raise ValueError("B must be n x s")
        return super().__new__(cls, A, B, positions)


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
class SlaterSystem(namedtuple("SlaterSystem", "n_occ R")):
    """The reference determinant on orbitals 0..n_occ-1 of M = len(R) and the
    M x M one-body transformation R (rows of complex entries); a validated
    named tuple, as HalfInt."""

    __slots__ = ()

    def __new__(cls, n_occ, R):
        if not 0 < n_occ <= len(R) <= 10:
            raise ValueError("need 0 < n_occ <= M <= 10")
        if any(len(row) != len(R) for row in R):
            raise ValueError("R must be square")
        return super().__new__(cls, n_occ, R)

    @property
    def M(self):
        return len(self.R)


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


def _one_body(psi, O, ps, q_below):
    """sum O[p, q] c_p^+ c_q |psi> over p in ps and q < q_below, |psi> an
    {occupation: amplitude} dict."""
    out = {}
    for state, amp in psi.items():
        for q in state:
            if q >= q_below:
                continue
            sq, hole = _fermion_op(state, q, False)
            for p in ps:
                made = _fermion_op(hole, p, True)
                if made is not None:
                    sign, new = made
                    out[new] = out.get(new, 0) + O[p, q] * (sq * sign) * amp
    return out


def _occupied(sys: SlaterSystem, floor=0.0):
    """(R, A, det A): R as a complex array and its occupied block
    A = R[:n_occ, :n_occ]; raises SingularMatrixError when |det A| < floor."""
    R = np.asarray(sys.R, dtype=complex)
    A = R[:sys.n_occ, :sys.n_occ]
    dA = np.linalg.det(A)
    if abs(dA) < floor:
        raise SingularMatrixError(f"vanishing overlap, |det A| < {floor:g}")
    return R, A, dA


def transform_slater(sys: SlaterSystem):
    """Components of U_Fock |Phi> over n_occ-particle occupations, where the
    reference |Phi> occupies orbitals 0..n_occ-1 and U acts orbital-wise: the
    component on occ is the minor of R on the rows occ and the occupied
    columns."""
    R = np.asarray(sys.R, dtype=complex)
    n = sys.n_occ
    return {occ: complex(np.linalg.det(R[np.ix_(sorted(occ), range(n))]))
            for occ in _occupations(sys.M, n)}


def slater_overlap(sys: SlaterSystem) -> complex:
    """<Phi| R |Phi> = det of the occupied block of R."""
    return complex(_occupied(sys)[2])


def slater_overlap_fock(sys: SlaterSystem) -> complex:
    """The reference component of transform_slater: the same determinant as
    slater_overlap, taken through another array, so the two agree by
    construction until transform_slater builds the Fock state itself."""
    return transform_slater(sys)[frozenset(range(sys.n_occ))]


def lowdin_matrix_element(sys: SlaterSystem, T) -> complex:
    """<Phi| T_hat R |Phi> = det(A) tr(A^{-1} (T R)_occ), A the occupied
    block of R; raises SingularMatrixError when |det A| < 1e-300."""
    R, A, dA = _occupied(sys, 1e-300)
    n = sys.n_occ
    TR = np.asarray(T, dtype=complex) @ R
    return complex(dA * np.trace(np.linalg.solve(A, TR[:n, :n])))


def lowdin_matrix_element_fock(sys: SlaterSystem, T) -> complex:
    """Oracle: apply sum T_pq c_p^+ c_q to U|Phi> and project on <Phi|."""
    out = _one_body(transform_slater(sys), np.asarray(T, dtype=complex),
                    range(sys.M), sys.M)
    return complex(out.get(frozenset(range(sys.n_occ)), 0))


def lowdin_two_body(sys: SlaterSystem, Vt) -> complex:
    """<Phi| V_hat R |Phi> with V_hat = (1/4) sum Vt_pqrs cp+ cq+ cs cr:
    det(A) * (1/4) sum_{ijkl occ} W_{ij,kl} det[[Ainv_ki, Ainv_kj],
    [Ainv_li, Ainv_lj]], W = <ij|Vt (R x R)|kl>; the 2 x 2 determinant
    is contracted as (W_ijkl - W_ijlk) Ainv_ki Ainv_lj.  Raises
    SingularMatrixError when |det A| < 1e-300, as lowdin_matrix_element."""
    R, A, dA = _occupied(sys, 1e-300)
    n = sys.n_occ
    Ainv = np.linalg.inv(A)
    W = np.einsum("ijpq,pk,ql->ijkl", np.asarray(Vt, dtype=complex)[:n, :n],
                  R[:, :n], R[:, :n])
    total = np.einsum("ijkl,ki,lj->", W - W.transpose(0, 1, 3, 2), Ainv, Ainv)
    return complex(dA * total / 4)


def thouless_residual(sys: SlaterSystem) -> float:
    """Norm of U|Phi> - <Phi|U|Phi> exp(sum x(k,i) b_k^+ a_i)|Phi> in the
    Fock expansion; the exponential terminates by nilpotency.  Raises
    SingularMatrixError (Thouless breakdown) when |det A| < 1e-12."""
    R, A, ov = _occupied(sys, 1e-12)
    n, M = sys.n_occ, sys.M
    X = np.zeros((M, M), dtype=complex)
    X[n:, :n] = R[n:, :n] @ np.linalg.inv(A)
    psi = transform_slater(sys)
    ref = frozenset(range(n))
    expo = {ref: 1.0 + 0j}
    term = {ref: 1.0 + 0j}
    for order in range(1, min(n, M - n) + 1):
        term = _one_body(term, X, range(n, M), n)
        # the order-k term holds k particle-hole pairs, so no two orders
        # share an occupation
        expo.update((s, a / math.factorial(order)) for s, a in term.items())
    err = 0.0
    for s in set(psi) | set(expo):
        err += abs(psi.get(s, 0) - ov * expo.get(s, 0)) ** 2
    return math.sqrt(err)


# ---------------------------------------------------------------------------
# Lipkin model
# ---------------------------------------------------------------------------
class LipkinModel(namedtuple("LipkinModel", "n_particles e v")):
    """N = n_particles (even) particles, single-particle splitting e and
    pair coupling v; a validated named tuple, as HalfInt."""

    __slots__ = ()

    def __new__(cls, n_particles, e=1.0, v=1.0):
        if n_particles < 2 or n_particles % 2:
            raise ValueError("N must be even, >= 2")
        return super().__new__(cls, n_particles, e, v)


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
