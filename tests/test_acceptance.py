"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from gfkit.exact import SR_ZERO, SqrtRational, triangle_ok
from gfkit import hurwitz, manybody, oscillator, special, su3, unitary
from gfkit.cli import render, run_command
from gfkit.polytools import poly_add, poly_mul
from gfkit.wigner import (ThreeJLabel, regge_orbit, sixj_gf, sixj_oracle,
                          threej, threej_second_route)

import oracles
from oracles import poly_const, poly_var
from test_cli import CORPUS


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def three_j_labels(tjmax):
    for tj1 in range(tjmax + 1):
        for tj2 in range(tjmax + 1):
            for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, tjmax) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm3 = -tm1 - tm2
                        if abs(tm3) <= tj3:
                            yield tj1, tj2, tj3, tm1, tm2, tm3


def test_01_threej_exhaustive_two_routes():
    t0 = time.time()
    count = 0
    ok = True
    for lab in three_j_labels(8):
        count += 1
        if threej(*lab) != threej_second_route(*lab):
            ok = False
            break
    dt = time.time() - t0
    report(1, ok and dt < 30,
           f"({count} labels, exact equality of both summation orders, {dt:.1f}s)")


def test_02_threej_orthogonality():
    t0 = time.time()
    ok = True
    for tj1, tj2 in itertools.product(range(9), repeat=2):
        tj3s = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
        # first sum: over m1 (m2 fixed by m3), exact delta in (j3, j3')
        for tj3, tj3p in itertools.product(tj3s, repeat=2):
            for tm3 in range(-min(tj3, tj3p), min(tj3, tj3p) + 1, 2):
                acc = SR_ZERO
                for tm1 in range(-tj1, tj1 + 1, 2):
                    tm2 = -tm3 - tm1
                    if abs(tm2) > tj2:
                        continue
                    a = threej(tj1, tj2, tj3, tm1, tm2, tm3)
                    b = threej(tj1, tj2, tj3p, tm1, tm2, tm3)
                    if a and b:
                        acc = acc + (a * b) * (tj3 + 1)
                expect = SqrtRational(1) if tj3 == tj3p else SR_ZERO
                if acc != expect:
                    ok = False
        # second sum: over (j3, m3), exact delta in (m1, m2) pairs
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                for tm1p in range(-tj1, tj1 + 1, 2):
                    tm2p = tm1 + tm2 - tm1p
                    if abs(tm2p) > tj2:
                        continue
                    acc = SR_ZERO
                    for tj3 in tj3s:
                        tm3 = -tm1 - tm2
                        if abs(tm3) > tj3:
                            continue
                        a = threej(tj1, tj2, tj3, tm1, tm2, tm3)
                        b = threej(tj1, tj2, tj3, tm1p, tm2p, tm3)
                        if a and b:
                            acc = acc + (a * b) * (tj3 + 1)
                    expect = SqrtRational(1) if (tm1, tm2) == (tm1p, tm2p) else SR_ZERO
                    if acc != expect:
                        ok = False
    report(2, ok, f"(both orthogonality sums exact for two_j <= 8, "
                  f"{time.time() - t0:.1f}s)")


def test_03_sixj_routes_agree():
    t0 = time.time()
    nonzero = 0
    ok = True
    for lab in itertools.product(range(7), repeat=6):
        a = sixj_oracle(*lab)
        b = sixj_gf(*lab)
        if a != b:
            ok = False
            break
        if a:
            nonzero += 1
    dt = time.time() - t0
    # a seeded sample beyond the sweep: valid labels with max two_j in 7..8
    wider = [lab for lab in itertools.product(range(9), repeat=6)
             if max(lab) > 6 and all(triangle_ok(*t) for t in (
                 lab[:3], (lab[0], lab[4], lab[5]), (lab[3], lab[1], lab[5]),
                 (lab[3], lab[4], lab[2])))]
    sample = random.Random(3).sample(wider, 300)
    sample_ok = all(sixj_gf(*lab) == sixj_oracle(*lab) for lab in sample)
    report(3, ok and dt < 120 and sample_ok,
           f"(gf == magnetic-sum oracle on all labels two_j <= 6, "
           f"{nonzero} nonzero, {dt:.1f}s; and on 300 sampled valid labels "
           f"with two_j <= 8)")


def test_04_regge_invariance():
    rng = np.random.default_rng(0)
    pool = list(three_j_labels(8))
    idx = rng.choice(len(pool), size=200, replace=False)
    ok = True
    for i in idx:
        lab = pool[i]
        seed = ThreeJLabel(lab[:3], lab[3:])
        v0 = threej(*seed.two_j, *seed.two_m)
        orbit = regge_orbit(seed)
        if 72 % len(orbit) != 0:
            ok = False
        for member, phase in orbit:
            if threej(*member.two_j, *member.two_m) != v0 * phase:
                ok = False
    report(4, ok, "(|3j| and phases exact across 200 random Regge orbits)")


def test_05_gelfand_count_is_weyl():
    t0 = time.time()
    ok = True
    checked = 0
    for n in range(2, 6):
        for h in itertools.combinations_with_replacement(range(6, -1, -1), n):
            if sum(h) > 6:
                continue
            lab = unitary.IrrepLabel(h)
            checked += 1
            if len(unitary.gelfand_enumerate(lab)) != unitary.weyl_dimension(lab):
                ok = False
    dt = time.time() - t0
    report(5, ok and dt < 10, f"({checked} irreps of U(2..5), sum h <= 6, {dt:.1f}s)")


def test_06_bfr_reconstruction():
    from test_unitary import U4_TERMS, U5_TERMS
    got4 = {rows: str(m) for rows, m in unitary.bfr_generating_terms(4)}
    got5 = {rows: str(m) for rows, m in unitary.bfr_generating_terms(5)}
    ok = got4 == U4_TERMS and len(got4) == 15 and \
        got5 == U5_TERMS and len(got5) == 31
    report(6, ok, "(U(4): 15 terms, U(5): 31 terms incl. determinant fix)")


def test_07_su3_completeness_and_factorization():
    # exact checks (sum of w^2 = 1/dim per key3, w = isoscalar x 3j) on
    # lam_i <= 5; the float Casimir projection on lam_i <= 3
    t0 = time.time()
    ok = True
    for lam1, lam2 in itertools.product(range(6), repeat=2):
        C = None
        for lam3, mu3 in su3.su3_decompose_multfree(lam1, lam2):
            tab = su3.coupling_table(lam1, lam2, mu3).complete()
            per3 = {}
            for (k1, k2, k3), w in tab.items():
                per3[k3] = per3.get(k3, Fraction(0)) + w.square()
                tj = threej(k1[1], k2[1], k3[1], k1[2], k2[2], -k3[2])
                iso = su3.su3_isoscalar(lam1, lam2, lam3, mu3, (k1[0], k1[1]),
                                        (k2[0], k2[1]), (k3[0], k3[1]))
                if w != iso * tj:
                    ok = False
            dim3 = su3.dim_su3(lam3, mu3)
            if set(per3.values()) != {Fraction(1, dim3)} or len(per3) != dim3:
                ok = False
            if max(lam1, lam2) > 3:
                continue
            # explicit product-state projection
            if C is None:
                C, _ = oracles.casimir_matrix(lam1, lam2)
            vecs, _ = oracles.coupled_vectors(lam1, lam2, mu3)
            ev = oracles.casimir_eigenvalue(lam3, mu3)
            for v in vecs.values():
                if np.linalg.norm(C @ v - ev * v) >= 1e-10:
                    ok = False
    report(7, ok, f"(exact isoscalar x 3j factorization and 1/dim sums, "
                  f"lam_i <= 5; projection residual < 1e-10, lam_i <= 3; "
                  f"{time.time() - t0:.1f}s)")


def test_08_hurwitz_identities():
    ok = True
    for n in (2, 4, 8):
        H = oracles.hurwitz_symbolic(n)
        u2 = poly_const(0, n)
        for i in range(n):
            u2 = poly_add(u2, poly_mul(poly_var(i, n), poly_var(i, n)))
        for i in range(n):
            for j in range(n):
                acc = poly_const(0, n)
                for k in range(n):
                    acc = poly_add(acc, poly_mul(H[k][i], H[k][j]))
                if acc != (u2 if i == j else {}):
                    ok = False
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = tuple(Fraction(int(a), int(b)) for a, b in
                  zip(rng.integers(-9, 10, 4), rng.integers(1, 7, 4)))
        x = hurwitz.ks_transform(u)
        if sum(v * v for v in x) != (sum(v * v for v in u)) ** 2:
            ok = False
    worst = 0.0
    for _ in range(1000):
        a, b = rng.normal(size=7), rng.normal(size=7)
        c = hurwitz.cross_product(7, a, b)
        lag = (a @ a) * (b @ b) - (a @ b) ** 2
        worst = max(worst, abs(c @ c - lag) / max(1.0, abs(lag)))
    ok = ok and worst < 1e-12
    report(8, ok, f"(symbolic H^T H, exact KS norms, 7-D Lagrange worst {worst:.1e})")


def test_09_laplacian_pullback():
    rng = np.random.default_rng(2)
    nonzero = 0
    for (n, N) in ((2, 2), (3, 4), (5, 8)):
        for _ in range(50):
            f = {}
            nterms = int(rng.integers(1, 5))
            for _ in range(nterms):
                e = tuple(int(x) for x in rng.integers(0, 4, size=n))
                if sum(e) <= 6:
                    f[e] = Fraction(int(rng.integers(-9, 10)))
            if not f:
                f = {tuple([2] + [0] * (n - 1)): Fraction(1)}
            rng.normal(size=N)   # one point per polynomial stays in the seeded stream
            nonzero += oracles.laplacian_pullback_difference((n, N), f) != {}
    report(9, nonzero == 0,
           f"(50 random polynomials per pair, exact differences, {nonzero} nonzero)")


def test_10_hydrogen_momentum():
    t0 = time.time()
    worst_rel = 0.0
    worst_norm = 0.0
    for N in range(2, 7):
        for n in range(1, 5):
            for l in range(0, n):
                d = 1.0 / (n + (N - 3) / 2.0)
                p = np.linspace(0.05 * d, 5.0 * d, 50)
                closed = np.abs(special.hydrogen_momentum_radial(N, n, l, p))
                oracle = special.fourier_momentum_oracle(N, n, l, p)
                scale = oracle.max()
                rel = float(np.max(np.abs(closed - oracle)
                                   / np.maximum(oracle, 1e-3 * scale)))
                worst_rel = max(worst_rel, rel)
                nrm = float(oracles.tanhsinh_halfline(
                    lambda q: special.hydrogen_momentum_radial(N, n, l, q) ** 2
                    * q ** (N - 1)))
                worst_norm = max(worst_norm, abs(nrm - 1.0))
    dt = time.time() - t0
    report(10, worst_rel < 1e-5 and worst_norm < 1e-6 and dt < 300,
           f"(50 states x 50-point grids, worst rel {worst_rel:.1e}, "
           f"worst norm gap {worst_norm:.1e}, {dt:.0f}s)")


def test_11_propagators():
    xs, ws = np.polynomial.legendre.leggauss(240)
    ys, wy = 9.0 * xs, 9.0 * ws
    vals = np.array([oscillator.ho_propagator(0.3, y, -1j * 0.4)
                     * oscillator.ho_propagator(y, -0.2, -1j * 0.7) for y in ys])
    semi = abs(np.sum(vals * wy) - oscillator.ho_propagator(0.3, -0.2, -1j * 1.1))
    eig = abs(oscillator.ho_propagator(0.5, -0.3, -1j * 1.0)
              - oracles.mehler_eigensum(0.5, -0.3, 1.0, nmax=80))
    fact = abs(oscillator.magnetic_propagator(0.0, (0.3, -0.4), (-0.2, 0.5), -1j * 0.7)
               - oscillator.ho_propagator(0.3, -0.2, -1j * 0.7)
               * oscillator.ho_propagator(-0.4, 0.5, -1j * 0.7))
    # spectral trace
    wc, beta = 0.4, 1.3
    n, L = 160, 8.0
    grid = np.linspace(-L, L, n)
    X, Y = np.meshgrid(grid, grid)
    K = np.empty_like(X, dtype=complex)
    for i in range(n):
        for j in range(n):
            K[i, j] = oscillator.magnetic_propagator(
                wc, (X[i, j], Y[i, j]), (X[i, j], Y[i, j]), -1j * beta)
    tr = float(np.trapezoid(np.trapezoid(K, grid, axis=1), grid).real)
    spec = sum(math.exp(-beta * oscillator.magnetic_energy(n1, n2, wc))
               for n1 in range(200) for n2 in range(200)
               if beta * oscillator.magnetic_energy(n1, n2, wc) < 60)
    trace_gap = abs(tr - spec)
    ok = semi < 1e-8 and eig < 1e-9 and fact < 1e-10 and trace_gap < 1e-4
    report(11, ok, f"(semigroup {semi:.1e}, eigen-sum {eig:.1e}, "
                   f"factorization {fact:.1e}, trace {trace_gap:.1e})")


def test_12_generalized_cramer():
    t0 = time.time()
    rng = np.random.default_rng(3)
    done = 0
    ok = True
    while done < 500:
        n = int(rng.integers(1, 7))
        s = int(rng.integers(1, n + 1))
        A = tuple(tuple(Fraction(int(x)) for x in row)
                  for row in rng.integers(-9, 10, (n, n)))
        if manybody.det_fraction(A) == 0:
            continue
        B = tuple(tuple(Fraction(int(x)) for x in row)
                  for row in rng.integers(-9, 10, (n, s)))
        pos = tuple(sorted(map(int, rng.permutation(n)[:s])))
        q = manybody.SubstitutionQuery(A, B, pos)
        if manybody.generalized_cramer(q) != manybody.substituted_determinant_direct(q):
            ok = False
        done += 1
    dt = time.time() - t0
    report(12, ok and dt < 10, f"(500 exact rational instances, {dt:.1f}s)")


def test_13_lowdin_thouless():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(100):
        M = int(rng.integers(3, 7))
        nocc = int(rng.integers(1, M))
        R = np.eye(M) + 0.3 * (rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M)))
        sysm = manybody.SlaterSystem(nocc, tuple(map(tuple, R.tolist())))
        worst = max(worst, abs(manybody.slater_overlap(sysm)
                               - manybody.slater_overlap_fock(sysm)))
        T = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        worst = max(worst, abs(manybody.lowdin_matrix_element(sysm, T)
                               - manybody.lowdin_matrix_element_fock(sysm, T)))
        V = rng.normal(size=(M, M, M, M))
        Vt = V - V.transpose(0, 1, 3, 2)
        Vt = Vt - Vt.transpose(1, 0, 2, 3)
        worst = max(worst, abs(manybody.lowdin_two_body(sysm, Vt)
                               - oracles.lowdin_two_body_fock(sysm, Vt)))
        worst = max(worst, manybody.thouless_residual(sysm))
    report(13, worst < 1e-10, f"(100 random systems M <= 6, worst gap {worst:.1e})")


def test_14_lipkin():
    e, v = 1.3, 0.8
    ev = manybody.lipkin_spectrum(manybody.LipkinModel(2, e, v))
    root = math.sqrt(e * e + v * v)
    an = max(abs(ev[0] + root), abs(ev[1]), abs(ev[2] - root))
    model = manybody.LipkinModel(8, 1.0, 0.1)
    exact = manybody.lipkin_spectrum(model)
    gap = exact[1] - exact[0]
    errs = [abs((lambda s: s[1] - s[0])(manybody.lipkin_boson_spectrum(model, t)) - gap)
            for t in (2, 3, 4)]
    al = manybody.boson_expansion_coeffs(2)
    coeffs_ok = (al[0] == 1.0 and abs(al[1] - (1 - math.sqrt(2))) < 1e-14
                 and abs(al[2] + 0.048) < 1e-3)
    ok = an < 1e-12 and errs[0] > errs[1] > errs[2] and coeffs_ok
    report(14, ok, f"(N=2 analytic gap {an:.1e}; truncation errors "
                   f"{errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}; "
                   f"alpha = 1, 1-sqrt2, {al[2]:.4f})")


def test_15_cli_determinism():
    import os
    import subprocess
    import sys
    from pathlib import Path

    ok = len(CORPUS) >= 25
    for argv in CORPUS:
        env1, code1 = run_command(list(argv))
        env2, code2 = run_command(list(argv))
        if code1 != 0 or code2 != 0:
            ok = False
        for fmt in ("json", "csv", "text"):
            if render(env1, fmt) != render(env2, fmt):
                ok = False
    # two separate interpreter runs (fresh hash seeds) over the whole corpus
    driver = (
        "import sys; sys.path.insert(0, %r)\n"
        "from gfkit.cli import run_command, render\n"
        "from test_cli import CORPUS\n"
        "out = []\n"
        "for argv in CORPUS:\n"
        "    env, code = run_command(list(argv))\n"
        "    out.append(render(env, 'json'))\n"
        "sys.stdout.buffer.write(b''.join(out))\n"
    ) % str(Path(__file__).parent)
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        res = subprocess.run([sys.executable, "-c", driver], env=env,
                             capture_output=True, check=True)
        runs.append(res.stdout)
    ok = ok and runs[0] == runs[1] and len(runs[0]) > 0
    report(15, ok, f"(byte-identical output across two in-process runs and "
                   f"two fresh-interpreter runs of {len(CORPUS)} commands)")
