import math
from fractions import Fraction

import numpy as np
import pytest

from gfkit.manybody import (LipkinModel, SingularMatrixError, SlaterSystem,
                            SubstitutionQuery, boson_expansion_coeffs,
                            det_fraction, generalized_cramer,
                            lipkin_boson_images, lipkin_boson_spectrum,
                            lipkin_hamiltonian, lipkin_spectrum,
                            lowdin_matrix_element, lowdin_matrix_element_fock,
                            lowdin_two_body, slater_overlap,
                            slater_overlap_fock, substituted_determinant_direct,
                            thouless_residual, transform_slater)
from oracles import (boson_recurrence_residual, fock_state, lowdin_two_body_fock,
                     thouless_term_count)


def frac_matrix(rng, n, m):
    return tuple(tuple(Fraction(int(rng.integers(-9, 10))) for _ in range(m))
                 for _ in range(n))


def random_system(rng, M, n_occ, scale=0.3):
    R = np.eye(M) + scale * (rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M)))
    return SlaterSystem(n_occ, tuple(map(tuple, R.tolist())))


def test_cramer_identity_example():
    A = tuple(tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3))
    B = tuple((Fraction(v),) for v in (1, 2, 3))
    q = SubstitutionQuery(A, B, (1,))
    assert generalized_cramer(q) == 2


def test_cramer_random_and_full_replacement():
    rng = np.random.default_rng(0)
    done = 0
    while done < 60:
        n = int(rng.integers(2, 7))
        s = int(rng.integers(1, n + 1))
        A = frac_matrix(rng, n, n)
        if det_fraction(A) == 0:
            continue
        B = frac_matrix(rng, n, s)
        pos = tuple(sorted(map(int, rng.permutation(n)[:s])))
        q = SubstitutionQuery(A, B, pos)
        assert generalized_cramer(q) == substituted_determinant_direct(q)
        done += 1


def test_cramer_singular_raises():
    A = tuple(tuple(Fraction(0) for _ in range(2)) for _ in range(2))
    B = tuple((Fraction(1),) for _ in range(2))
    with pytest.raises(SingularMatrixError):
        generalized_cramer(SubstitutionQuery(A, B, (0,)))


def test_slater_overlap():
    M, n = 4, 2
    ident = SlaterSystem(n, tuple(map(tuple, np.eye(M).tolist())))
    assert slater_overlap(ident) == pytest.approx(1.0)
    # orbital permutation gives the parity of the induced occupied permutation
    P = np.eye(M)[[1, 0, 2, 3]]
    swap = SlaterSystem(n, tuple(map(tuple, P.tolist())))
    assert slater_overlap(swap) == pytest.approx(slater_overlap_fock(swap))
    assert slater_overlap(swap) == pytest.approx(-1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        sysm = random_system(rng, 4, 2)
        assert abs(slater_overlap(sysm) - slater_overlap_fock(sysm)) < 1e-12
    # M is len(R), and R is square, or the overlap would read a block of
    # another system
    assert swap.M == 4
    for n_occ, R in ((1, ((1, 0, 0), (0, 1, 0))), (1, ((1, 0), (0,))), (1, ()),
                     (3, ((1, 0), (0, 1))), (0, ((1,),)), (1, ((1,) * 11,) * 11)):
        with pytest.raises(ValueError):
            SlaterSystem(n_occ, R)


def test_transformed_slater_is_the_fock_state():
    # slater_overlap_fock reads the same determinant as slater_overlap, so
    # both, and every component of transform_slater, are held against the
    # state built by applying c+(R phi_i) to the vacuum
    rng = np.random.default_rng(30)
    for M in range(1, 7):
        for n_occ in range(1, M + 1):
            for _ in range(3):
                sysm = random_system(rng, M, n_occ, scale=0.6)
                want = fock_state(sysm.R, n_occ)
                got = transform_slater(sysm)
                assert got.keys() == want.keys()
                for occ, amp in got.items():
                    assert abs(amp - want[occ]) < 1e-12, (M, n_occ, sorted(occ))
                ref = frozenset(range(n_occ))
                assert abs(slater_overlap(sysm) - want[ref]) < 1e-12


def test_lowdin_one_body():
    M, n = 4, 2
    ident = SlaterSystem(n, tuple(map(tuple, np.eye(M).tolist())))
    assert lowdin_matrix_element(ident, np.eye(M)) == pytest.approx(n)
    rng = np.random.default_rng(2)
    for _ in range(20):
        sysm = random_system(rng, 4, 2)
        T = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        a = lowdin_matrix_element(sysm, T)
        b = lowdin_matrix_element_fock(sysm, T)
        assert abs(a - b) < 1e-11


def test_lowdin_two_body():
    rng = np.random.default_rng(3)
    M, n = 4, 2
    for _ in range(10):
        sysm = random_system(rng, M, n)
        V = rng.normal(size=(M, M, M, M))
        Vt = V - V.transpose(0, 1, 3, 2)
        Vt = Vt - Vt.transpose(1, 0, 2, 3)
        a = lowdin_two_body(sysm, Vt)
        b = lowdin_two_body_fock(sysm, Vt)
        assert abs(a - b) < 1e-10


def test_thouless():
    M, n = 4, 2
    ident = SlaterSystem(n, tuple(map(tuple, np.eye(M).tolist())))
    assert thouless_residual(ident) == pytest.approx(0.0, abs=1e-14)
    # block-diagonal (no particle-hole mixing) also gives zero x
    blk = np.eye(M, dtype=complex)
    blk[:2, :2] = [[1.1, 0.2], [-0.1, 0.9]]
    blk[2:, 2:] = [[0.8, 0.3], [0.0, 1.2]]
    sysb = SlaterSystem(n, tuple(map(tuple, blk.tolist())))
    assert thouless_residual(sysb) < 1e-12
    rng = np.random.default_rng(4)
    for _ in range(20):
        sysm = random_system(rng, 4, 2)
        assert thouless_residual(sysm) < 1e-10
    assert thouless_term_count(SlaterSystem(2, tuple(map(tuple, np.eye(4).tolist())))) == 3
    # nilpotency: the particle-hole operator taken past min(n, M-n) powers
    # annihilates every component (series genuinely terminates there)
    sysm = random_system(rng, 5, 2)
    R = np.asarray(sysm.R)
    X = R[2:, :2] @ np.linalg.inv(R[:2, :2])
    comp = {frozenset(range(2)): 1.0 + 0j}
    alive = 0
    for order in range(1, 6):
        new = {}
        for state, amp in comp.items():
            sl = sorted(state)
            for i in [x for x in state if x < 2]:
                for k in range(2, 5):
                    if k in state:
                        continue
                    sg = (-1) ** sl.index(i)
                    sg *= (-1) ** sum(1 for r in sorted(state - {i}) if r < k)
                    ns = (state - {i}) | {k}
                    new[ns] = new.get(ns, 0) + amp * X[k - 2, i] * sg
        comp = {s: a for s, a in new.items() if abs(a) > 1e-14}
        if comp:
            alive = order
    assert alive == min(2, 5 - 2)  # terms beyond order min(n, M-n) vanish
    # vanishing overlap raises
    bad = np.eye(M)
    bad[0, 0] = 0.0
    bad[2, 0] = 1.0
    with pytest.raises(SingularMatrixError):
        thouless_residual(SlaterSystem(n, tuple(map(tuple, bad.tolist()))))


def test_lipkin_exact():
    ev = lipkin_spectrum(LipkinModel(2, e=1.0, v=0.0))
    assert np.allclose(ev, [-1.0, 0.0, 1.0])
    e, v = 1.3, 0.8
    ev = lipkin_spectrum(LipkinModel(2, e=e, v=v))
    root = math.sqrt(e * e + v * v)
    assert np.allclose(ev, [-root, 0.0, root], atol=1e-12)
    # parity: H commutes with (-1)^n; even/odd blocks decouple
    H = lipkin_hamiltonian(LipkinModel(6, 1.0, 0.7))
    for i in range(7):
        for j in range(7):
            if (i - j) % 2 and H[i, j] != 0:
                raise AssertionError("parity-violating matrix element")
    # V -> -V composed with n-parity relabeling preserves the spectrum
    ev1 = lipkin_spectrum(LipkinModel(6, 1.0, 0.7))
    ev2 = lipkin_spectrum(LipkinModel(6, 1.0, -0.7))
    assert np.allclose(ev1, ev2, atol=1e-12)


def test_boson_expansion_coeffs():
    al = boson_expansion_coeffs(2)
    assert al[0] == pytest.approx(1.0)
    assert al[1] == pytest.approx(1 - math.sqrt(2), rel=1e-14)
    assert al[2] == pytest.approx(-0.048, abs=1e-3)
    al8 = boson_expansion_coeffs(8)
    for n in range(1, 9):
        assert boson_recurrence_residual(al8, n) < 1e-12
    with pytest.raises(ValueError):
        boson_expansion_coeffs(-3)


def test_lipkin_boson_images():
    model = LipkinModel(8, 1.0, 0.1)
    J0, Jp, Jp2 = lipkin_boson_images(model, 3)
    J = model.n_particles / 2
    assert np.allclose(np.diag(J0), [i - J for i in range(9)])
    # alpha_0 = sqrt(2J): the leading J+ matrix element
    assert Jp[1, 0] == pytest.approx(math.sqrt(2 * J))
    # full-order images reproduce the exact ladder matrix exactly
    _, Jp_full, Jp2_full = lipkin_boson_images(model, 8)
    H_exact = lipkin_hamiltonian(model)
    H_img = model.e * J0 + model.v / 2 * (Jp2_full + Jp2_full.T)
    assert np.allclose(H_img, H_exact, atol=1e-10)


def test_lipkin_boson_gap_monotone():
    model = LipkinModel(8, 1.0, 0.1)
    exact = lipkin_spectrum(model)
    gap = exact[1] - exact[0]
    errs = []
    for trunc in (2, 3, 4):
        ev = lipkin_boson_spectrum(model, trunc)
        errs.append(abs((ev[1] - ev[0]) - gap))
    assert errs[0] > errs[1] > errs[2]


def test_boson_commutator_preserved():
    model = LipkinModel(8, 1.0, 0.1)
    for trunc in (3, 4, 5):
        J0, Jp, _ = lipkin_boson_images(model, trunc)
        comm = Jp @ Jp.T - Jp.T @ Jp
        k = trunc - 2
        assert np.linalg.norm(comm[:k, :k] - 2 * J0[:k, :k]) < 1e-10
