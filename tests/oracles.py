"""Independent oracles that only the tests call.

Each function here recomputes a quantity of gfkit by a second, deliberately
naive route (a brute-force Fock-space sum, a numeric quadrature, an explicit
product-state projection, the full expansion of the U(n) branching kernel),
so that a test can hold the production route against it.  The helpers that
only these checks use live here too: the exact polynomial calculus, the
symbolic Hurwitz matrices, the SqrtRational parser.  They live beside the
tests, not in the package: gfkit keeps one production route per quantity,
plus the oracles its command line itself reports against (sixj_oracle,
fourier_momentum_oracle, slater_overlap_fock, lowdin_matrix_element_fock,
substituted_determinant_direct) and, while the benchmark imports or patches
them, threej_second_route, su3_state_keys and polytools.TruncatedSeries.
"""
from __future__ import annotations

import cmath
import itertools
import math
import re
from fractions import Fraction

import numpy as np

from gfkit.exact import HalfInt, SqrtRational, _triad_args, neg_one_pow, triangle_ok
from gfkit.hurwitz import QUAD_MAPS, _skew_s, hurwitz_layout, v_matrix
from gfkit.manybody import SlaterSystem, _fermion_op, transform_slater
from gfkit.oscillator import ho_wavefunction
from gfkit.polytools import bargmann_dot, poly_add, poly_mul
from gfkit.special import _hankel_transform, _tanhsinh, gegenbauer
from gfkit.su3 import coupling_table, dim_su3, su3_state_keys
from gfkit.unitary import (GelfandPattern, IrrepLabel, L_hook, R_hook, _minor_names,
                           _phi_exponents, bfr_generating_terms)
from gfkit.wigner import threej


# ---------------------------------------------------------------------------
# exact: the parser of str() and the bare triangle delta
# ---------------------------------------------------------------------------
_SR_RE = re.compile(
    r"^\s*(-?\d+)/(\d+)\s*(?:\*\s*sqrt\(\s*(-?\d+)/(\d+)\s*\))?\s*$")


def parse_sqrt_rational(text: str) -> SqrtRational:
    """Inverse of str(); accepts 'p/q' and 'p/q*sqrt(r/s)'."""
    m = _SR_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse SqrtRational: {text!r}")
    coeff = Fraction(int(m.group(1)), int(m.group(2)))
    if m.group(3) is None:
        return SqrtRational(coeff)
    return SqrtRational(coeff, Fraction(int(m.group(3)), int(m.group(4))))


class TriangleError(ValueError):
    pass


def triangle_delta(a, b, c) -> SqrtRational:
    """sqrt[(J-2a)!(J-2b)!(J-2c)!/(J+1)!] with J = a+b+c.

    Arguments are HalfInt instances, or plain ints meaning integer j.
    """
    ta, tb, tc = (x.two_j if isinstance(x, HalfInt) else 2 * x for x in (a, b, c))
    if (ta + tb + tc) % 2:
        raise ValueError("a+b+c must be integral")
    if not triangle_ok(ta, tb, tc):
        raise TriangleError(f"triangle violated: ({a},{b},{c})")
    return SqrtRational.from_factorial_ratio(
        1, _triad_args(ta, tb, tc), ((ta + tb + tc) // 2 + 1,))


# ---------------------------------------------------------------------------
# polytools: the polynomial calculus of the exact identity checks
# ---------------------------------------------------------------------------
def poly_const(c, nvars):
    if c == 0:
        return {}
    return {tuple([0] * nvars): Fraction(c)}


def poly_var(i, nvars, c=1):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(c)}


def poly_scale(a, c):
    if c == 0:
        return {}
    return {e: v * c for e, v in a.items()}


def poly_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
    return out


def poly_laplacian(a, nvars):
    out = {}
    for i in range(nvars):
        out = poly_add(out, poly_diff(poly_diff(a, i), i))
    return out


def poly_eval(a, xs):
    tot = Fraction(0)
    for e, c in a.items():
        v = Fraction(c)
        for x, p in zip(xs, e):
            if p:
                v *= Fraction(x) ** p
        tot += v
    return tot


def poly_pow(a, n, nvars):
    if n < 0:
        # the squaring loop below would never end
        raise ValueError("poly_pow needs an exponent n >= 0")
    out = {tuple([0] * nvars): 1}
    base = a
    while n:
        if n & 1:
            out = poly_mul(out, base)
        n >>= 1
        if n:
            base = poly_mul(base, base)
    return out


def poly_compose(a, subs, nvars_out):
    """Substitute variable i -> subs[i] (polynomials in the output space)."""
    out = {}
    cache = {}

    def spow(i, p):
        key = (i, p)
        if key not in cache:
            cache[key] = poly_pow(subs[i], p, nvars_out)
        return cache[key]

    for e, c in a.items():
        term = poly_const(c, nvars_out)
        for i, p in enumerate(e):
            if p:
                term = poly_mul(term, spow(i, p))
        out = poly_add(out, term)
    return out


# ---------------------------------------------------------------------------
# wigner: the Clebsch-Gordan coefficient as a product of canonical values
# ---------------------------------------------------------------------------
def clebsch_gordan_product(tj1, tm1, tj2, tm2, tj3, tm3) -> SqrtRational:
    """<j1 m1, j2 m2 | j3 m3>, doubled arguments, as the cached canonical 3j
    with -m3 times the canonical (-1)^{j1-j2+m3} sqrt(2 j3 + 1), multiplied
    as SqrtRational values."""
    phase = neg_one_pow((tj1 - tj2 + tm3) // 2)
    return (threej(tj1, tj2, tj3, tm1, tm2, -tm3)
            * SqrtRational.from_factorial_ratio(phase, (tj3 + 1,), (tj3,)))


# ---------------------------------------------------------------------------
# wigner: the coefficient of g(tau)^-2 read from its twelve tau exponents
# ---------------------------------------------------------------------------
def gf_coefficient(expo) -> int:
    """Exact coefficient of tau^expo in g(tau)^-2.

    expo holds the exponents of the twelve tau_{i nu} in the order tau_01,
    tau_02, tau_03, tau_10, tau_20, tau_30, tau_12, tau_21, tau_13, tau_31,
    tau_23, tau_32.  g = 1 + a0 + a1 + a2 + a3 + b1 + b2 + b3 with
    a0 = tau_10 tau_20 tau_30, a1 = tau_01 tau_31 tau_21,
    a2 = tau_32 tau_02 tau_12, a3 = tau_23 tau_13 tau_03, and
    b_i = tau_0i tau_i0 tau_jk tau_kj for {i, j, k} = {1, 2, 3}; only this
    completion of the b_i reproduces the magnetic-sum 6j.

    Writing t_k for those seven terms, the coefficient is
    sum_n (-1)^N (N+1)!/prod n_k! over n in N^7 with
    sum_k n_k t_k = tau^expo, N = sum n_k.  Every tau lies in exactly one
    a_i and one b_i, so z = n_b1 fixes the other six:
    a0..a3 = (e10, e01, e32, e23) - z and b2, b3 = (e20 - e10, e30 - e10) + z.
    The six remaining tau equations do not depend on z; when they hold, the
    sum is Racah's single sum over z.
    """
    e01, e02, e03, e10, e20, e30, e12, e21, e13, e31, e23, e32 = expo
    a0, a1, a2, a3 = e10, e01, e32, e23
    b2, b3 = e20 - e10, e30 - e10
    if (a2 + b2 != e02 or a3 + b3 != e03 or a3 + b2 != e13
            or a1 + b2 != e31 or a2 + b3 != e12 or a1 + b3 != e21):
        return 0
    n0 = a0 + a1 + a2 + a3 + b2 + b3  # N at z = 0; each step of z lowers N by 1
    zmin = max(0, -b2, -b3)
    f = math.factorial
    total = 0
    for z in range(zmin, min(a0, a1, a2, a3) + 1):
        n = n0 - z
        term = f(n + 1) // (f(a0 - z) * f(a1 - z) * f(a2 - z) * f(a3 - z)
                            * f(z) * f(b2 + z) * f(b3 + z))
        total += -term if n & 1 else term
    return total


# ---------------------------------------------------------------------------
# su3: the invariant-polynomial contraction in Fock-Bargmann variables,
# integer coefficients
# ---------------------------------------------------------------------------
def _monomial_exponents(lam, key):
    """(a, b, c) of the (lam,0) basis state z_1^a z_2^b z_3^c / sqrt(a! b! c!)."""
    y, tt, tt0 = key
    return (tt + tt0) // 2, (tt - tt0) // 2, lam - (y + 2 * lam) // 3


def _compositions(n):
    """Exponent triples of total degree n."""
    return [(a, b, n - a - b) for a in range(n + 1) for b in range(n - a + 1)]


def _multinomial(n, parts):
    out = math.factorial(n)
    for x in parts:
        out //= math.factorial(x)
    return out


class _CrossBasis:
    """The polynomials z^f w^nu, w = z x z', on (z, z') = variables 0-2, 3-5,
    with integer coefficients, built once per (f, nu) and kept."""

    def __init__(self, max_power):
        self.wpow = []   # wpow[k][n] = w_k^n, n <= max_power
        for k in range(3):
            i1, i2 = (k + 1) % 3, (k + 2) % 3
            plus, minus = [0] * 6, [0] * 6
            plus[i1] = plus[3 + i2] = minus[i2] = minus[3 + i1] = 1
            wk = {tuple(plus): 1, tuple(minus): -1}
            pw = [{(0,) * 6: 1}]
            for _ in range(max_power):
                pw.append(poly_mul(pw[-1], wk))
            self.wpow.append(pw)
        self.w_nu = {}
        self.polys = {}

    def __call__(self, f, nu):
        out = self.polys.get((f, nu))
        if out is None:
            w = self.w_nu.get(nu)
            if w is None:
                w0, w1, w2 = self.wpow
                w = self.w_nu[nu] = poly_mul(poly_mul(w0[nu[0]], w1[nu[1]]), w2[nu[2]])
            out = self.polys[f, nu] = poly_mul({f + (0, 0, 0): 1}, w)
        return out


def _v_poly(lam, mu, p, q, tt0, basis):
    """Generating-function extraction of V^{(lam,mu)}_{p,q,t0} with w = z x z'
    substituted, as a polynomial on the variables of basis (a _CrossBasis).

    Integer numerators only: every term shares the denominator
    p! (lam-p)! (mu-q)! q!, which cancels in the normalized coefficients.
    The (-1)^q of the state normalization is carried separately."""
    tt = mu + p - q
    b = mu - q
    out = {}
    for i in range(p + 1):
        j = i + b - (tt + tt0) // 2
        if not 0 <= j <= b:
            continue
        c = math.comb(p, i) * math.comb(b, j) * (-1) ** (b - j)
        for e, x in basis((i, p - i, lam - p), (j, b - j, q)).items():
            out[e] = out.get(e, 0) + c * x
    return {e: c for e, c in out.items() if c}


def _invariant_slices(lam1, lam2, mu3):
    """The invariant h0 = [z1.(z3 x z5)]^k1 (z1.w)^k3 (z3.w)^k2, w = z5 x z6,
    indexed by its (z1, z3) exponents; each slice is kept factored, as
    {(z1, z3) exponents: {(f, nu): c}} with h0[a1, a2] = sum c z5^f w^nu and
    integer c.

    By the multinomial theorem the z1^g z3^d term of (z1.w)^k3 (z3.w)^k2 is
    multinom(k3; g) multinom(k2; d) w^(g+d), so each term z1^r z3^s z5^f of
    the determinant power adds to the slice at (r+g, s+d)."""
    k1, k2, k3 = mu3, lam2 - mu3, lam1 - mu3
    det = {}
    for perm in itertools.permutations(range(3)):
        sg = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        e = [0] * 9
        e[perm[0]] = e[3 + perm[1]] = e[6 + perm[2]] = 1
        det[tuple(e)] = sg
    gs = [(g, _multinomial(k3, g)) for g in _compositions(k3)]
    ds = [(d, _multinomial(k2, d)) for d in _compositions(k2)]
    slices = {}
    for e, c in poly_pow(det, k1, 9).items():
        f = e[6:]
        for g, cg in gs:
            a1 = (e[0] + g[0], e[1] + g[1], e[2] + g[2])
            for d, cd in ds:
                h = slices.setdefault(a1 + (e[3] + d[0], e[4] + d[1], e[5] + d[2]), {})
                fnu = (f, (g[0] + d[0], g[1] + d[1], g[2] + d[2]))
                h[fnu] = h.get(fnu, 0) + c * cg * cd
    return {a: {fnu: c for fnu, c in h.items() if c} for a, h in slices.items()}


def coupling_table_contraction(lam1: int, lam2: int, mu3: int):
    """The coupling table of (lam1,0) x (lam2,0) -> (lam3, mu3) by contracting
    the invariant polynomial
      h = N [z1.(z3 x z5)]^{mu3} (z3.z56)^{lam2-mu3} (z1.z56)^{lam1-mu3}
    against basis states in Fock-Bargmann space, z56 = z5 x z6; the check
    on gfkit.su3.coupling_table.

    The (lam,0) states are monomials, so a product state z1^a1 z3^a2 meets
    only the slice of h with those (z1, z3) exponents: the slices are
    indexed once, each kept factored over the polynomials z5^f z56^nu, and
    each conjugated third state is dotted against its slice only, in exact
    integers.  The normalization, fixed by orthonormality, is the one
    rational step.

    Returns {(key1, key2, key3): SqrtRational}; keys are (y, 2t, 2t0).
    Normalized so sum over (key1,key2) of w^2 = 1/dim(lam3,mu3) per key3;
    overall sign makes the highest-weight coefficient positive.
    """
    if lam1 < 0 or lam2 < 0 or not 0 <= mu3 <= min(lam1, lam2):
        raise ValueError("bad multiplicity-free coupling labels")
    lam3 = lam1 + lam2 - 2 * mu3
    slices = _invariant_slices(lam1, lam2, mu3)
    basis = _CrossBasis(lam3)   # on (z5, z6); every w power is at most lam3
    # conjugated third-state polynomials on (z5, z6), grouped by (y, 2t0)
    v3 = {}
    n3sq = {}
    for p3 in range(lam3 + 1):
        for q3 in range(mu3 + 1):
            tt3 = mu3 + p3 - q3
            y3 = -(2 * lam3 + mu3) + 3 * (p3 + q3)
            pc, qc = mu3 - q3, lam3 - p3
            for tt03 in range(-tt3, tt3 + 1, 2):
                vc = _v_poly(mu3, lam3, pc, qc, -tt03, basis)
                # conjugation phase (-1)^{y_c/2 - t0_c} with y_c=-y3,
                # t0_c=-t03, plus the state's own (-1)^{q} convention
                expo = (tt03 - y3) // 2 + qc
                if expo % 2:
                    vc = {e: -c for e, c in vc.items()}
                key3 = (y3, tt3, tt03)
                v3.setdefault((y3, tt03), []).append((key3, vc))
                n3sq[key3] = bargmann_dot(vc, vc)
    dots = {}   # (key3, f, nu) -> <vc | z5^f w^nu>, shared by all slices
    # <m1 m2 vc | h0> with m1 m2 = z1^a1 z3^a2 is a1! a2! <vc | h0[a1, a2]>.
    # raw_vals holds t = <vc | h0[a1, a2]> and a1! a2! t^2, so the squared
    # coefficient before normalization, <m1 m2 vc | h0>^2 / (|m1|^2 |m2|^2
    # |vc|^2), is a1! a2! t^2 / |vc|^2.
    raw_vals = {}
    for key1 in su3_state_keys(lam1, 0):
        a1 = _monomial_exponents(lam1, key1)
        for key2 in su3_state_keys(lam2, 0):
            a2 = _monomial_exponents(lam2, key2)
            h = slices.get(a1 + a2)
            if h is None:
                continue
            n12 = math.prod(map(math.factorial, a1 + a2))
            for key3, vc in v3.get((key1[0] + key2[0], key1[2] + key2[2]), ()):
                t = 0
                for (f, nu), c in h.items():
                    x = dots.get((key3, f, nu))
                    if x is None:
                        x = dots[key3, f, nu] = bargmann_dot(basis(f, nu), vc)
                    t += c * x
                if t:
                    raw_vals[(key1, key2, key3)] = (t, n12 * t * t)
    if not raw_vals:
        return {}
    # Schur normalization: the sum of squares over each key3, sum3 / |vc|^2,
    # is one constant s0, and wigner^2 = a1! a2! t^2 / (|vc|^2 s0 dim3)
    # = a1! a2! t^2 / (sum3 dim3)
    sum3 = {}
    for (k1, k2, k3), (_, sq) in raw_vals.items():
        sum3[k3] = sum3.get(k3, 0) + sq
    if len({Fraction(s, n3sq[k3]) for k3, s in sum3.items()}) != 1:
        raise AssertionError("invariant tensor failed Schur constancy")
    dim3 = dim_su3(lam3, mu3)

    def sign(key, t):
        # conjugation metric phase, making wigner = isoscalar * 3j exact
        return (1 if t > 0 else -1) * (-1) ** ((key[2][1] - key[2][2]) // 2)

    # overall sign: highest key3, then highest (key1,key2), coefficient > 0
    top = max(raw_vals, key=lambda k: (k[2], k[0], k[1]))
    flip = sign(top, raw_vals[top][0])
    return {k: SqrtRational.from_square(Fraction(sq, sum3[k[2]] * dim3), flip * sign(k, t))
            for k, (t, sq) in raw_vals.items()}


# ---------------------------------------------------------------------------
# su3: generators on the product space, the Casimir-projection oracle
# ---------------------------------------------------------------------------
def product_states(lam1, lam2):
    return [(k1, k2) for k1 in su3_state_keys(lam1, 0)
            for k2 in su3_state_keys(lam2, 0)]


def _gell_mann_action(lam, key, i, j):
    """E_ij acting on the (lam,0) monomial state: list of (key', amplitude).

    States are monomials z1^a z2^b z3^c / sqrt(a! b! c!), E_ij = z_i d/d z_j.
    """
    abc = _monomial_exponents(lam, key)
    if abc[j] == 0:
        return []
    nb = list(abc)
    nb[j] -= 1
    nb[i] += 1
    amp = math.sqrt(nb[i] * abc[j])
    a, b, _ = nb
    return [((-(2 * lam) + 3 * (a + b), a + b, a - b), amp)]


def casimir_matrix(lam1, lam2):
    """Quadratic Casimir sum_{ij} E_ij E_ji on (lam1,0) x (lam2,0), numpy."""
    states = product_states(lam1, lam2)
    idx = {s: i for i, s in enumerate(states)}
    dim = len(states)

    def e_action(i, j, vec):
        out = np.zeros(dim)
        for s, a in enumerate(vec):
            if a == 0.0:
                continue
            k1, k2 = states[s]
            for nk1, amp in _gell_mann_action(lam1, k1, i, j):
                out[idx[(nk1, k2)]] += a * amp
            for nk2, amp in _gell_mann_action(lam2, k2, i, j):
                out[idx[(k1, nk2)]] += a * amp
        return out

    C = np.zeros((dim, dim))
    for col in range(dim):
        v = np.zeros(dim)
        v[col] = 1.0
        acc = np.zeros(dim)
        for i in range(3):
            for j in range(3):
                acc += e_action(i, j, e_action(j, i, v))
        C[:, col] = acc
    return C, states


def casimir_eigenvalue(lam, mu):
    """Eigenvalue of sum E_ij E_ji on (lam,mu) in the U(3) normalization used
    by casimir_matrix (boson realization with lam+mu boxes)."""
    # highest weight w = (lam+mu, mu, 0): <C> = sum w_i(w_i + 3 - 2i) + ... use
    # standard formula sum_i w_i(w_i + n + 1 - 2i) for sum_{ij} E_ij E_ji
    w = (lam + mu, mu, 0)
    return float(sum(wi * (wi + 3 + 1 - 2 * (i + 1)) for i, wi in enumerate(w)))


def coupled_vectors(lam1, lam2, mu3):
    """Float vectors of the coupled states in the product basis, one per key3,
    built from the exact wigner table (columns are orthonormal)."""
    lam3 = lam1 + lam2 - 2 * mu3
    table = coupling_table(lam1, lam2, mu3).complete()
    states = product_states(lam1, lam2)
    idx = {s: i for i, s in enumerate(states)}
    keys3 = su3_state_keys(lam3, mu3)
    dim3 = dim_su3(lam3, mu3)
    vecs = {}
    for k3 in keys3:
        v = np.zeros(len(states))
        for (k1, k2, kk3), w in table.items():
            if kk3 != k3:
                continue
            # undo the conjugation metric so the vector is the plain coupled
            # state; the metric squares away in norms either way
            v[idx[(k1, k2)]] = float(w) * (-1) ** ((k3[1] - k3[2]) // 2)
        vecs[k3] = v * math.sqrt(dim3)
    return vecs, states


# ---------------------------------------------------------------------------
# hurwitz: symbolic and Cayley-Dickson H_n, the maps' polynomials, the
# V-matrix exponential, the closed n = 3 Cayley form, the Laplacian pullback
# ---------------------------------------------------------------------------
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


def cayley_rotation_closed3(u) -> np.ndarray:
    """Closed form for n=3: r I - 2 u1 S + 2 S^2."""
    u = np.asarray(u, dtype=float)
    S = _skew_s(3, u)
    r2 = float(u @ u)
    return r2 * np.eye(3) - 2 * u[0] * S + 2 * S @ S


def laplacian_pullback_difference(pair, f_poly) -> dict:
    """Delta_u f(x(u)) - 4 |u|^2 (Delta_x f)(x(u)) as an exact polynomial in u.

    f_poly: exact polynomial in the n target variables (dict exponents ->
    Fraction).  The identity holds exactly when the difference is {}.
    """
    n, N = pair
    comps = quad_map_polynomials(pair)
    composed = poly_compose(f_poly, comps, N)
    lap_u = poly_laplacian(composed, N)
    lap_x = poly_laplacian(f_poly, n)
    lap_x_pulled = poly_compose(lap_x, comps, N)
    u2 = poly_const(0, N)
    for i in range(N):
        u2 = poly_add(u2, poly_mul(poly_var(i, N), poly_var(i, N)))
    rhs = poly_scale(poly_mul(u2, lap_x_pulled), 4)
    return poly_add(lap_u, poly_scale(rhs, -1))


# ---------------------------------------------------------------------------
# manybody: Fock-space sums
# ---------------------------------------------------------------------------
def fock_state(R, n_occ) -> dict:
    """U|Phi> = c+(R phi_0) c+(R phi_1) ... c+(R phi_{n_occ-1}) |0> as
    {occupation frozenset: amplitude}, c+(R phi_i) = sum_p R[p][i] c+_p,
    applied to the vacuum one orbital at a time, the last first, with the
    fermion sign of each creation; |Phi> is c+_0 ... c+_{n_occ-1} |0>."""
    state = {frozenset(): 1}
    for i in reversed(range(n_occ)):
        out = {}
        for occ, amp in state.items():
            for p, row in enumerate(R):
                made = _fermion_op(occ, p, True)
                if made is not None:
                    sign, new = made
                    out[new] = out.get(new, 0) + sign * row[i] * amp
        state = out
    return state


def lowdin_two_body_fock(sys: SlaterSystem, Vt) -> complex:
    Vt = np.asarray(Vt, dtype=complex)
    psi = transform_slater(sys)
    ref = frozenset(range(sys.n_occ))
    acc = 0j
    for state, amp in psi.items():
        for r in state:
            sr, rem1 = _fermion_op(state, r, False)
            for s in rem1:
                ss, rem2 = _fermion_op(rem1, s, False)
                for q in range(sys.M):
                    cq = _fermion_op(rem2, q, True)
                    if cq is None:
                        continue
                    for p in range(sys.M):
                        cp = _fermion_op(cq[1], p, True)
                        if cp is None or cp[1] != ref:
                            continue
                        sg = sr * ss * cq[0] * cp[0]
                        acc += 0.25 * Vt[p, q, r, s] * sg * amp
    return acc


def thouless_term_count(sys: SlaterSystem) -> int:
    """Number of series terms before nilpotency kills the expansion."""
    return min(sys.n_occ, sys.M - sys.n_occ) + 1


def boson_recurrence_residual(alphas, n: int) -> float:
    lhs = sum((-1) ** j * math.factorial(n) / math.factorial(n - j - 1) * alphas[j]
              for j in range(n))
    return abs(lhs - n * math.sqrt(n))


# ---------------------------------------------------------------------------
# unitary: the highest pattern, P_n(1) and the U(3) hypergeometric form
# ---------------------------------------------------------------------------
def highest_pattern(label: IrrepLabel) -> GelfandPattern:
    rows = [tuple(label.h[:k]) for k in range(label.n, 0, -1)]
    return GelfandPattern(tuple(rows))


def kernel_terms_expanded(pat: GelfandPattern):
    """The branching kernel of unitary._kernel_terms by the full expansion:
    every bracket power is expanded by poly_pow and multiplied out, and only
    then are the terms off the U(n-1) parameter monomial of the pattern
    dropped.  Exponential in the pattern's size; the kernel's oracle."""
    n = pat.n
    nm = len(_minor_names(n))
    lower = _phi_exponents(GelfandPattern(pat.rows[1:]))
    pidx = {(t, lam, mu): nm + i for i, (t, lam, mu, _e) in enumerate(lower)}
    nvars = nm + len(pidx)
    brackets = {}
    for i, (_rows, mono) in enumerate(bfr_generating_terms(n)):
        e = [0] * nvars
        e[i] = 1
        for t, lam, mu in mono.factors:
            if lam == n:
                tag = (t, mu)
            else:
                e[pidx[(t, lam, mu)]] += 1
        brackets.setdefault(tag, {})[tuple(e)] = 1
    poly = {(0,) * nvars: 1}
    for mu in range(1, n):
        poly = poly_mul(poly, poly_pow(brackets["y", mu], R_hook(pat, n, mu), nvars))
        poly = poly_mul(poly, poly_pow(brackets["x", mu], L_hook(pat, n, mu), nvars))
    poly = poly_mul(poly, poly_pow(brackets["y", n], pat.rows[0][n - 1], nvars))
    target = tuple(e for *_tag, e in lower)
    return {e[:nm]: c for e, c in poly.items() if e[nm:] == target}


def pn1_oracle(n: int, pat: GelfandPattern) -> int:
    """Independent P_n(1): expand the branching-kernel product in full at
    unit minors and pick the coefficient of the parameter monomial
    (polynomial identification, no closed form)."""
    if pat.n != n:
        raise ValueError("pattern size does not match n")
    return sum(kernel_terms_expanded(pat).values())


def u3_hypergeometric_terms(pat: GelfandPattern):
    """Term list of the 2F1 form of the U(3) basis (series expansion of the
    hypergeometric factor), same exponent keys as boson_polynomial but
    with its own (unnormalized) coefficient scale."""
    (h13, h23, h33), (h12, h22), (h11,) = pat.rows
    # base exponents (k = 0 term): D12^{h22-h33} D13^{h23-h22} D1^{h11-h23}
    #   D2^{h12-h11} D3^{h13-h12} D123^{h33}; each k shifts D1,D23 up and
    #   D2,D13 down.   Pochhammer ratio of 2F1(a, b; c; x), a=h22-h23 etc.
    a = h22 - h23
    b = h11 - h12
    c = h11 - h23 + 1
    # regularized start: the base term needs h11 >= h23; otherwise the
    # series begins at the first k with non-negative exponents.  It ends
    # where a + k or b + k reaches 0; betweenness keeps every exponent
    # non-negative in between.
    coef = Fraction(1)
    terms = []
    for k in range(max(0, h23 - h11), min(h23 - h22, h12 - h11) + 1):
        expo = {(1,): h11 - h23 + k, (2,): h12 - h11 - k, (3,): h13 - h12,
                (1, 2): h22 - h33, (1, 3): h23 - h22 - k, (2, 3): k,
                (1, 2, 3): h33}
        terms.append((coef, {kk: v for kk, v in expo.items() if v}))
        coef *= Fraction((a + k) * (b + k), (c + k) * (k + 1))
    return terms


# ---------------------------------------------------------------------------
# special: Legendre, the exact Laguerre coefficients, the tanh-sinh rule on
# one integrand, the Hankel oracle's self-check and generating-function series
# ---------------------------------------------------------------------------
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


def tanhsinh_halfline(f):
    """integral_0^inf f(r) dr by gfkit's tanh-sinh rule (special._tanhsinh).

    f may return an array with the node axis last broadcast: f(r[None,:]) of
    shape (..., len(r))."""
    return _tanhsinh(lambda r, w: np.sum(f(r) * w, axis=-1))


def gaussian_hankel_selftransform(p_grid, N=3):
    """Oracle sanity input: exp(-r^2/2) maps to itself under the l = 0
    radial Fourier transform in N dimensions."""
    return _hankel_transform(lambda r: np.exp(-r * r / 2), N, (N - 2) / 2.0, p_grid)


def genfunc_residual(kind, r, t, alpha=1.0, order=80):
    """|truncated series - closed form| for the classical generating
    functions; r is the expansion variable (|r| < 1), t the argument."""
    if abs(r) >= 1:
        raise ValueError("need |r| < 1")
    if kind == "legendre":
        closed = 1.0 / math.sqrt(1 - 2 * r * t + r * r)
        series = sum(r ** n * float(legendre(n, t)) for n in range(order + 1))
    elif kind == "gegenbauer":
        closed = (1 - 2 * r * t + r * r) ** (-alpha)
        series = sum(r ** n * float(gegenbauer(n, alpha, t)) for n in range(order + 1))
    elif kind == "character":
        # sum_j r^{2j} chi_j(theta) = 1/(1 - 2 r cos(theta) + r^2) with
        # chi_j = sin((2j+1)theta)/sin(theta) and r stepping by sqrt there;
        # equivalently sum_k r^k U_k(cos theta)
        closed = 1.0 / (1 - 2 * r * t + r * r)
        series = 0.0
        for k in range(order + 1):
            series += r ** k * float(gegenbauer(k, 1.0, t))
    else:
        raise ValueError(f"unknown kind {kind}")
    return abs(series - closed)


# ---------------------------------------------------------------------------
# oscillator: the Fock measure and the Mehler eigensum
# ---------------------------------------------------------------------------
def fock_measure_residual(alpha, beta, nodes=80):
    """|e^{alpha beta} - int e^{alpha conj(z)} e^{beta z} dmu(z)| by tensor
    Gauss-Hermite over Re z, Im z."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    X, Y = np.meshgrid(t, t)
    W = np.outer(w, w) / math.pi
    Z = X + 1j * Y
    est = np.sum(W * np.exp(alpha * np.conj(Z) + beta * Z))
    return abs(est - cmath.exp(alpha * beta))


def mehler_eigensum(x, xp, beta, nmax=80):
    """Truncated sum_n u_n(x) u_n(xp) e^{-beta(n+1/2)} (m = omega = hbar = 1)."""
    tot = 0.0
    for n in range(nmax + 1):
        tot += (float(ho_wavefunction(n, x)) * float(ho_wavefunction(n, xp))
                * math.exp(-beta * (n + 0.5)))
    return tot
