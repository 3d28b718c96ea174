"""gfkit command line: every module exposed as subcommands with
machine-readable output, chosen by --format json|csv|text anywhere on the
line (json by default).

Half-integers are always passed doubled (--two-j / --two-m); randomized
verification subcommands accept --seed.  Exit codes: 0 ok, 1 domain error,
2 usage error.  su3 wigner and su3 isoscalar refuse lam1 + lam2 above
SU3_MAX_LAM_SUM (18), and su3 isoscalar a negative lam1 or lam2; wigner 3j,
cg, 6j and 9j refuse a negative 2j, and wigner gaunt a negative l; wigner
3j, cg and 6j refuse a sum of their 2j above WIGNER_MAX_TWO_J_SUM (4800),
wigner 6j --route oracle above WIGNER_ORACLE_MAX_TWO_J_SUM (144), wigner
9j above WIGNER_9J_MAX_TWO_J_SUM (108), wigner gaunt a sum of its 2l above
WIGNER_MAX_TWO_J_SUM, su3 decompose a negative lam1 or lam2 or more than
SU3_DECOMPOSE_MAX_ROWS (10000) rows, gelfand dim and enumerate an --h of
more than GELFAND_MAX_ROW (100) entries, gelfand enumerate above
GELFAND_MAX_PATTERNS (20000) patterns or GELFAND_MAX_ENTRIES (10^6)
entries in all its patterns, gelfand poly a U(n) pattern with n above 8 or
a top-row sum above GELFAND_POLY_MAX_TOP_SUM[n] (3000 for U(2) and U(3),
96, 32, 16, 12 and 10 for U(4) to U(8)), manybody lipkin above
LIPKIN_MAX_PARTICLES (1000), manybody cramer an --n above CRAMER_MAX_N
(50) or outside 0 <= --s <= --n, manybody overlap, lowdin and thouless an
--m above SLATER_MAX_ORBITALS (10) or outside 0 < --n-occ <= --m,
hydrogen position and momentum a --rmax at or below their first grid
point (R_FIRST, P_FIRST), hydrogen position and momentum and
oscillator wf above SAMPLES_MAX_POINTS (100000) points,
hydrogen verify above HYDROGEN_VERIFY_MAX_POINTS (1000) points or an
n^2 x points above HYDROGEN_VERIFY_MAX_WORK (324000), these four
an n above SAMPLES_MAX_DEGREE (100000) or an n x points above
SAMPLES_MAX_WORK (5e7), and oscillator propagator above
PROPAGATOR_MAX_KERNELS (90000) = points^2 kernels, with exit 1, before any
work starts, and so do those five sampled commands below one point.
gelfand dim reports a Weyl dimension past the double range as its exact
integer, value_exact, with exit 0.
hydrogen verify compares the closed form with the Hankel oracle on its fixed
grid 0.05 delta..5 delta and takes no --rmax or --seed; an oracle whose
quadrature does not settle exits 1 and is named.  A result that is not
finite (NaN or infinite), or whose computation overflows, also exits 1;
numpy's RuntimeWarnings on the way to such a result are kept off stderr.
An unknown --format is a usage error, refused before the command runs.

Each command is one entry of the command table: its group, its name, its
argument specs and its handler.  The parser is built from the table, and a
handler imports only the kernel it runs, so this module loads nothing but
the standard library and an exact command (wigner, gelfand) never loads
numpy or scipy.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class ResultEnvelope:
    """One command's result.  A plain class with slots, not a dataclass:
    importing dataclasses loads inspect, about 10 ms and 0.7 MB in every
    invocation.  It stays mutable (su3 wigner fills in its table).  A
    value_float that is not finite is refused with ValueError."""

    __slots__ = ("status", "value_exact", "value_float", "table", "meta", "message")

    def __init__(self, status: str = "ok", value_exact: str | None = None,
                 value_float: float | None = None, table: dict | None = None,
                 meta: str = "", message: str | None = None):
        if value_float is not None:
            _finite(value_float)
        self.status, self.value_exact, self.value_float = status, value_exact, value_float
        self.table, self.meta, self.message = table, meta, message

    def to_dict(self):
        out = {"status": self.status}
        if self.status == "ok":
            out["meta"] = self.meta
            if self.value_exact is not None:
                out["value_exact"] = self.value_exact
            if self.value_float is not None:
                out["value_float"] = self.value_float
            if self.table is not None:
                out["table"] = self.table
        else:
            out["message"] = self.message or ""
        return out


_FORMATS = ("json", "csv", "text")


def render(env: ResultEnvelope, fmt: str) -> bytes:
    d = env.to_dict()
    if fmt == "json":
        return (json.dumps(d, sort_keys=True, default=str) + "\n").encode()
    if fmt == "csv":
        lines = []
        if env.status != "ok":
            lines.append("status,message")
            lines.append(f"error,{env.message}")
        elif env.table is not None:
            lines.append(",".join(env.table["columns"]))
            for row in env.table["rows"]:
                lines.append(",".join(str(x) for x in row))
        else:
            cols, vals = [], []
            for k in ("value_exact", "value_float"):
                if d.get(k) is not None:
                    cols.append(k)
                    vals.append(str(d[k]))
            lines.append(",".join(cols))
            lines.append(",".join(vals))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "text":
        lines = [f"{k}: {v}" for k, v in sorted(d.items()) if k != "table"]
        if env.table is not None:
            lines.append(" | ".join(env.table["columns"]))
            for row in env.table["rows"]:
                lines.append(" | ".join(str(x) for x in row))
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt}")


# ---------------------------------------------------------------------------
# result shapes
# ---------------------------------------------------------------------------
def _finite(x):
    """x, refused as a domain error when it is NaN or infinite: json has no
    spelling for those, and no command means them as an answer."""
    if not math.isfinite(x):
        raise ValueError(f"the result is not finite ({float(x)!r})")
    return x


def _fmt_float(x) -> str:
    return repr(_finite(float(x)))


def _exact(value, meta) -> ResultEnvelope:
    return ResultEnvelope(value_exact=str(value), value_float=float(value),
                          meta=meta)


def _table(columns, rows, value_float, meta) -> ResultEnvelope:
    return ResultEnvelope(table={"columns": columns, "rows": rows},
                          value_float=value_float, meta=meta)


def _samples(x_name, xs, vals, meta) -> ResultEnvelope:
    """Real samples of a wavefunction as x, real, imag, abs2 rows; the value
    is the largest |sample|."""
    import numpy as np
    rows = [[_fmt_float(xs[i]), _fmt_float(vals[i]), "0.0",
             _fmt_float(vals[i] ** 2)] for i in range(len(xs))]
    return _table([x_name, "real", "imag", "abs2"], rows,
                  float(np.max(np.abs(vals))), meta)


def _matrix(M, value_float, meta) -> ResultEnvelope:
    n = len(M)
    rows = [[i] + [_fmt_float(v) for v in M[i]] for i in range(n)]
    return _table(["row"] + [f"c{j}" for j in range(n)], rows, value_float, meta)


def _complex(z, value_float, meta, columns=("re", "im")) -> ResultEnvelope:
    return _table(list(columns), [[_fmt_float(z.real), _fmt_float(z.imag)]],
                  value_float, meta)


def _cap(what, value, cap):
    """Refuse a request whose size exceeds its cap, before any work."""
    if value > cap:
        raise ValueError(f"{what} = {value} exceeds the cap of {cap}")


def _cap_sum(what, values, cap):
    """Refuse a negative value, then a sum of values above its cap."""
    if min(values) < 0:
        raise ValueError(f"every {what} must be >= 0")
    _cap(f"sum of {what}", sum(values), cap)


# ---------------------------------------------------------------------------
# the command table: group -> op -> (argument specs, handler), in the order
# the parser lists them
# ---------------------------------------------------------------------------
_COMMANDS: dict[str, dict] = {}


def _arg(flag, type=int, nargs=None, **kw):
    """One argument spec; required unless it has a default."""
    kw.setdefault("required", "default" not in kw)
    return flag, dict(type=type, nargs=nargs, **kw)


def _command(group, op, *specs):
    def register(handler):
        _COMMANDS.setdefault(group, {})[op] = (specs, handler)
        return handler
    return register


_TWO_JM = (_arg("--two-j", nargs=3), _arg("--two-m", nargs=3))
_SU3_LABELS = tuple(_arg(f"--{nm}") for nm in ("lam1", "lam2", "lam3", "mu3"))
_SEED = _arg("--seed", default=0)
_HYDROGEN = (_arg("--dim", default=3), _arg("--n"), _arg("--l"),
             _arg("--points", default=50))
_RMAX = _arg("--rmax", float, default=None)
_SLATER = (_arg("--m", default=4), _arg("--n-occ", default=2), _SEED)


# --- wigner ----------------------------------------------------------------
# A 3j or CG grows the factorial table to about half the sum of its 2j, a 6j
# to its largest triad's j sum, which is at most that; the time grows
# steeply with the sum.  Measured (one 2-vCPU VM, Python 3.11, in one
# process): at a 2j sum of 2400 the slowest of 40 seeded 3j takes 1.0-1.6 ms
# and the first, which grows the table, 2.5-2.8 ms; at 4800, 5 ms both, with
# the table holding 2.3 MB of packed prime exponents; at 9600, 18-19 ms and
# 20 ms, and 8.2 MB.  The slowest of 30 seeded 3j through
# run_command and render, all three 2j equal, takes 22 ms at 2400 and 42 ms
# at 4800.  The 6j with all six 2j equal, Racah's sum by its term ratio,
# takes 0.3 ms, 1.0 ms and 4-7 ms at those sums.
# The 6j oracle is a magnetic sum of O(j^5) terms: 0.03 s with all six
# 2j = 24 (a sum of 144), 0.3 s with all 2j = 40 (240).  The 9j is one
# rational sum over x of three 6j coefficients: with all nine 2j equal it
# takes 0.14 ms at 12 (a sum of 108), 5 ms at 100 and 33 ms at 200; the
# slowest of 200 random labels with every 2j up to 12 takes 0.15-0.25 ms,
# so its cap is conservative.  Larger labels are refused before any work.
WIGNER_MAX_TWO_J_SUM = 4800
WIGNER_ORACLE_MAX_TWO_J_SUM = 144
WIGNER_9J_MAX_TWO_J_SUM = 108


@_command("wigner", "3j", *_TWO_JM)
def _wigner_3j(args):
    _cap_sum("2j", args.two_j, WIGNER_MAX_TWO_J_SUM)
    from .wigner import threej
    return _exact(threej(*args.two_j, *args.two_m), "van der Waerden single-sum 3j")


@_command("wigner", "cg", *_TWO_JM)
def _wigner_cg(args):
    _cap_sum("2j", args.two_j, WIGNER_MAX_TWO_J_SUM)
    from .exact import HalfInt
    from .wigner import clebsch_gordan
    val = clebsch_gordan(*(HalfInt(x) for pair in zip(args.two_j, args.two_m)
                           for x in pair))
    return _exact(val, "Clebsch-Gordan from 3j, Condon-Shortley")


@_command("wigner", "6j", _arg("--two-j", nargs=6),
          _arg("--route", str, choices=("gf", "oracle"), default="gf"))
def _wigner_6j(args):
    _cap_sum("2j", args.two_j,
             WIGNER_MAX_TWO_J_SUM if args.route == "gf" else WIGNER_ORACLE_MAX_TWO_J_SUM)
    from .wigner import sixj_gf, sixj_oracle
    fn = sixj_gf if args.route == "gf" else sixj_oracle
    return _exact(fn(*args.two_j), f"6j via {args.route}")


@_command("wigner", "9j", _arg("--two-j", nargs=9))
def _wigner_9j(args):
    _cap_sum("2j", args.two_j, WIGNER_9J_MAX_TWO_J_SUM)
    from .wigner import ninej
    rows = tuple(tuple(args.two_j[3 * r:3 * r + 3]) for r in range(3))
    return _exact(ninej(rows), "9j as a sum of three 6j")


@_command("wigner", "regge", *_TWO_JM)
def _wigner_regge(args):
    from .wigner import ThreeJLabel, regge_orbit
    orbit = regge_orbit(ThreeJLabel(tuple(args.two_j), tuple(args.two_m)))
    rows = sorted([list(l.two_j) + list(l.two_m) + [ph] for l, ph in orbit])
    return _table(["tj1", "tj2", "tj3", "tm1", "tm2", "tm3", "phase"], rows,
                  float(len(rows)), "Regge magic-square orbit")


@_command("wigner", "gaunt", _arg("--l", nargs=3), _arg("--m", nargs=3))
def _wigner_gaunt(args):
    # its two 3j have 2j = 2l, so the 3j's cap bounds the sum of 2l
    _cap_sum("2l", [2 * l for l in args.l], WIGNER_MAX_TWO_J_SUM)
    from .wigner import gaunt
    val = gaunt(args.l[0], args.m[0], args.l[1], args.m[1], args.l[2], args.m[2])
    return ResultEnvelope(value_float=val, meta="Gaunt triple-Y integral")


# --- su3 -------------------------------------------------------------------
# su3 wigner and isoscalar build the whole (lam1,0) x (lam2,0) -> (lam3,mu3)
# coupling table, whose build time grows steeply with lam1 + lam2: the
# slowest table at lam1 + lam2 = 16 takes about 0.05 s, at 18 about
# 0.06-0.08 s, at 20 about 0.10-0.13 s (Python 3.11, one 2-vCPU VM, two
# passes).  Larger couplings are refused before any table is built.
# su3 decompose lists min(lam1, lam2) + 1 rows: 10,000 take 0.05 s and
# 0.3 MB of json, 100,000 0.14 s and 49 MB peak (same VM, one process).
SU3_MAX_LAM_SUM = 18
SU3_DECOMPOSE_MAX_ROWS = 10000


@_command("su3", "decompose", _arg("--lam1"), _arg("--lam2"))
def _su3_decompose(args):
    low = min(args.lam1, args.lam2)
    if low < 0:
        raise ValueError("lam1 and lam2 must be >= 0")
    _cap("rows, min(lam1, lam2) + 1", low + 1, SU3_DECOMPOSE_MAX_ROWS)
    from .su3 import dim_su3, su3_decompose_multfree
    rows = [[lam3, mu3, dim_su3(lam3, mu3)]
            for lam3, mu3 in su3_decompose_multfree(args.lam1, args.lam2)]
    return _table(["lam3", "mu3", "dim"], rows, float(len(rows)),
                  "multiplicity-free decomposition")


@_command("su3", "wigner", *_SU3_LABELS,
          _arg("--a1", nargs=3, metavar=("Y", "TWO_T", "TWO_T0")),
          _arg("--a2", nargs=3), _arg("--a3", nargs=3))
def _su3_wigner(args):
    _cap("lam1 + lam2", args.lam1 + args.lam2, SU3_MAX_LAM_SUM)
    from .su3 import Su3Label, su3_wigner_multfree
    labels = [Su3Label.from_key(lam, mu, tuple(a)) for lam, mu, a in
              ((args.lam1, 0, args.a1), (args.lam2, 0, args.a2),
               (args.lam3, args.mu3, args.a3))]
    w, iso = su3_wigner_multfree(args.lam1, args.lam2, args.lam3, args.mu3, *labels)
    env = _exact(w, "SU(3) closed-form Wigner (isoscalar CG x 3j)")
    env.table = {"columns": ["isoscalar_exact", "isoscalar_float"],
                 "rows": [[str(iso), _fmt_float(iso)]]}
    return env


@_command("su3", "isoscalar", *_SU3_LABELS,
          _arg("--chain1", nargs=2, metavar=("Y", "TWO_T")),
          _arg("--chain2", nargs=2), _arg("--chain3", nargs=2))
def _su3_isoscalar(args):
    _cap("lam1 + lam2", args.lam1 + args.lam2, SU3_MAX_LAM_SUM)
    from .su3 import su3_isoscalar
    iso = su3_isoscalar(args.lam1, args.lam2, args.lam3, args.mu3,
                        tuple(args.chain1), tuple(args.chain2), tuple(args.chain3))
    return _exact(iso, "SU(3) isoscalar factor")


@_command("su3", "euler",
          _arg("--a", float, nargs=3, metavar=("PSI", "THETA", "PHI")),
          _arg("--nu3", float), _arg("--beta3", float), _arg("--b", float, nargs=3))
def _su3_euler(args):
    import numpy as np
    from .su3 import su3_euler_matrix
    U = su3_euler_matrix(tuple(args.a), args.nu3, args.beta3, tuple(args.b))
    rows = [[i, j, _fmt_float(U[i, j].real), _fmt_float(U[i, j].imag)]
            for i in range(3) for j in range(3)]
    unit = float(np.linalg.norm(U.conj().T @ U - np.eye(3)))
    return _table(["row", "col", "re", "im"], rows, unit,
                  "SU(3) Euler factorization; value is ||U^dag U - 1||")


# --- gelfand ---------------------------------------------------------------
# gelfand enumerate lists every pattern of the irrep, and the Weyl dimension
# gives their number before any is built.  Measured (one 2-vCPU VM), a
# pattern costs 10-26 us with its rendering: 20,000 patterns take 0.2 s for
# U(2) and 0.3-0.5 s for U(3)-U(5) (about 1 MB of json); 50,000 take 0.5 s
# for U(2), 37,000 take 1.0 s for U(6).  Larger irreps are refused.  A
# pattern of U(n) has n (n + 1) / 2 entries, and wide patterns cost more:
# under 20,000 patterns, 13,020 of U(30) take 2.1 s.  So the entries of all
# patterns are capped too: the largest labels found under a million take
# 0.2-0.5 s for U(5) to U(20), and (1, 0, ..., 0) of U(100) 0.15 s.
# The Weyl formula that counts them is O(n^2) big-int products: 0.02 s for
# an --h of 100 entries, 0.05 s for 200, 0.7-1.0 s for 400, so --h is
# capped first.
# gelfand poly multiplies out the branching kernel of a U(n) pattern, one
# minor of 2^n - 1 at a time, keeping only the partial terms that can still
# reach the pattern.  Its cost follows the polynomial's size, which grows
# with the top-row sum, and the faster the larger n, so the top-row sum is
# capped by n and an n past the table is refused.  At each cap, the slowest
# pattern that a seeded search found (shaped and random patterns, then hill
# climbing, 60 s per n; one 2-vCPU VM, Python 3.11) takes, as a whole
# command: U(3) 0.13 s (366 terms), U(4) 0.72 s and 33 MB (11,790 terms),
# U(5) 0.73 s (7,050 terms), U(6) 0.27 s, U(7) 0.35 s, U(8) 0.15 s; U(2)
# has one term.  Past the caps the kernel alone took, for the slowest
# pattern found, 1.1 s for U(4) at 128, 1.7 s for U(5) at 40, 0.7 s for
# U(6) at 24, 0.7 s for U(3) near 10,000, and 0.3 s for U(10) at 8.
GELFAND_MAX_ROW = 100
GELFAND_MAX_PATTERNS = 20000
GELFAND_MAX_ENTRIES = 10 ** 6
GELFAND_POLY_MAX_TOP_SUM = {2: 3000, 3: 3000, 4: 96, 5: 32, 6: 16, 7: 12, 8: 10}


@_command("gelfand", "dim", _arg("--h", nargs="+"))
def _gelfand_dim(args):
    _cap("entries of --h", len(args.h), GELFAND_MAX_ROW)
    from .unitary import IrrepLabel, weyl_dimension
    dim = weyl_dimension(IrrepLabel(tuple(args.h)))
    try:
        return ResultEnvelope(value_float=float(dim), meta="Weyl dimension formula")
    except OverflowError:
        # past the double range the exact integer is the answer
        return ResultEnvelope(value_exact=str(dim), meta="Weyl dimension formula")


@_command("gelfand", "enumerate", _arg("--h", nargs="+"))
def _gelfand_enumerate(args):
    n = len(args.h)
    _cap("entries of --h", n, GELFAND_MAX_ROW)
    from .unitary import IrrepLabel, gelfand_enumerate, pattern_weight, weyl_dimension
    label = IrrepLabel(tuple(args.h))
    dim = weyl_dimension(label)
    _cap("Weyl dimension", dim, GELFAND_MAX_PATTERNS)
    _cap("entries in all patterns", dim * n * (n + 1) // 2, GELFAND_MAX_ENTRIES)
    pats = gelfand_enumerate(label)
    rows = [[p.to_text(), " ".join(map(str, pattern_weight(p)))] for p in pats]
    return _table(["pattern", "weight"], rows, float(len(pats)),
                  "betweenness enumeration")


@_command("gelfand", "weight", _arg("--pattern", str))
def _gelfand_weight(args):
    from .unitary import GelfandPattern, pattern_weight
    w = pattern_weight(GelfandPattern.from_text(args.pattern))
    return _table([f"w{i+1}" for i in range(len(w))], [list(w)], float(sum(w)),
                  "diagonal generator eigenvalues")


@_command("gelfand", "poly", _arg("--pattern", str))
def _gelfand_poly(args):
    from .unitary import GelfandPattern, boson_polynomial
    pat = GelfandPattern.from_text(args.pattern)
    _cap("n", pat.n, max(GELFAND_POLY_MAX_TOP_SUM))
    # .top refuses a negative entry, which would make an exponent negative;
    # boson_polynomial refuses U(1), which has no kernel, before any work
    _cap("top-row sum", sum(pat.top.h), GELFAND_POLY_MAX_TOP_SUM.get(pat.n, math.inf))
    terms = boson_polynomial(pat)
    rows = [[str(c), " ".join(f"D{''.join(map(str, m))}^{e}"
                              for m, e in sorted(expo.items()))]
            for c, expo in terms]
    return _table(["coefficient", "monomial"], rows, float(len(rows)),
                  "boson polynomial (unnormalized)")


# --- hurwitz ---------------------------------------------------------------
@_command("hurwitz", "matrix", _arg("--n"), _arg("--u", float, nargs="+"))
def _hurwitz_matrix(args):
    import numpy as np
    from .hurwitz import hurwitz_matrix
    H = hurwitz_matrix(args.n, args.u)
    res = float(np.linalg.norm(H.T @ H - (np.asarray(args.u) ** 2).sum() * np.eye(args.n)))
    return _matrix(H, res, "Hurwitz matrix; value is ||H^T H - |u|^2 I||")


@_command("hurwitz", "ks", _arg("--u", float, nargs=4))
def _hurwitz_ks(args):
    from .hurwitz import ks_transform
    x = ks_transform(args.u)
    return _table(["x", "y", "z"], [[_fmt_float(v) for v in x]],
                  math.sqrt(sum(float(v) ** 2 for v in x)),
                  "KS transform; value is |x| = |u|^2")


@_command("hurwitz", "cayley", _arg("--n"), _arg("--u", float, nargs="+"))
def _hurwitz_cayley(args):
    import numpy as np
    from .hurwitz import cayley_rotation
    O = cayley_rotation(args.n, args.u)
    r2 = float(np.dot(args.u, args.u))
    res = float(np.linalg.norm(O.T @ O - r2 * r2 * np.eye(args.n)))
    return _matrix(O, res, "Cayley rotation; value is orthogonality residual")


@_command("hurwitz", "cross", _arg("--n"), _arg("--a", float, nargs="+"),
          _arg("--b", float, nargs="+"))
def _hurwitz_cross(args):
    import numpy as np
    from .hurwitz import cross_product
    v = cross_product(args.n, args.a, args.b)
    return _table([f"x{i+1}" for i in range(args.n)], [[_fmt_float(t) for t in v]],
                  float(np.linalg.norm(v)), "cross product; value is |a x b|")


@_command("hurwitz", "check", _arg("--n"), _SEED)
def _hurwitz_check(args):
    import numpy as np
    from .hurwitz import hurwitz_matrix
    u = np.random.default_rng(args.seed).normal(size=args.n)
    H = hurwitz_matrix(args.n, u)
    res = float(np.linalg.norm(H.T @ H - float(u @ u) * np.eye(args.n)))
    return ResultEnvelope(value_float=res,
                          meta="||H^T H - |u|^2 I|| at a seeded random point")


# --- sampled kernels -------------------------------------------------------
# Measured (one 2-vCPU VM, a fresh process with its numpy and scipy imports,
# rendering included): hydrogen position and momentum at 100,000 points take
# about 0.8-1.3 s and 105 MB peak, oscillator wf 0.5-0.9 s and 81 MB;
# hydrogen verify evaluates its Hankel integrand on 16 points x quadrature
# nodes at a time and takes 1.3-1.4 s and 55 MB at 1000 points for n = 2,
# 3.3-3.4 s and 58 MB for n = 9..18, whose quadrature needs two more levels;
# from n = 19 it needs 10, from n = 22 11 and from n = 46 12 levels, each
# doubling the nodes and so the time, so above n = 18 the points are capped
# by n^2 x points <= 18^2 x 1000: 5.0 s and 62 MB at n = 22 (669 points),
# 3.5 s and 62 MB at n = 25 (518), 2.5 s and 71 MB at n = 46 (153);
# oscillator propagator evaluates points^2 kernels, 1.1 s and 81 MB at 300
# points (90,000 kernels).
# The polynomial recurrence of the four sampled commands takes n steps over
# the grid, each about 4-5 us of numpy dispatch plus 9-15 ns a point, so both
# n and n x points are bounded: n = 100,000 at one point takes 0.6-1.1 s,
# at 500 points (n x points = 5e7) 0.7-1.3 s, and n = 500 at 100,000 points
# 0.9-1.3 s.  Larger requests are refused before any work.
SAMPLES_MAX_POINTS = 100000
HYDROGEN_VERIFY_MAX_POINTS = 1000
HYDROGEN_VERIFY_MAX_WORK = 18 * 18 * HYDROGEN_VERIFY_MAX_POINTS
SAMPLES_MAX_DEGREE = 100000
SAMPLES_MAX_WORK = 50_000_000
PROPAGATOR_MAX_KERNELS = 90000


def _points_floor(points):
    """Refuse fewer than one point: the table would be empty and its value
    missing or zeroed."""
    if points < 1:
        raise ValueError(f"points = {points} is below 1")


def _cap_samples(args, max_points):
    """The point floor and cap, then the recurrence's n and n x points caps."""
    _points_floor(args.points)
    _cap("points", args.points, max_points)
    _cap("n", args.n, SAMPLES_MAX_DEGREE)
    _cap("n x points", args.n * args.points, SAMPLES_MAX_WORK)


# --- hydrogen --------------------------------------------------------------
# the first points of the position and momentum grids, which start just off 0
R_FIRST, P_FIRST = 1e-6, 1e-4


def _rmax_above(first, rmax):
    """Refuse an --rmax at or below the grid's first point (or NaN): the
    grid would run backwards to negative radii or collapse onto one point."""
    if rmax is not None and not rmax > first:
        raise ValueError(f"rmax = {rmax} is not above the first grid point {first}")


@_command("hydrogen", "position", *_HYDROGEN, _RMAX)
def _hydrogen_position(args):
    _cap_samples(args, SAMPLES_MAX_POINTS)
    _rmax_above(R_FIRST, args.rmax)
    import numpy as np
    from .special import hydrogen_radial
    r = np.linspace(R_FIRST, args.rmax or 8.0 * args.n * args.n, args.points)
    return _samples("r", r, hydrogen_radial(args.dim, args.n, args.l, r),
                    "radial wavefunction samples")


@_command("hydrogen", "momentum", *_HYDROGEN, _RMAX)
def _hydrogen_momentum(args):
    _cap_samples(args, SAMPLES_MAX_POINTS)
    _rmax_above(P_FIRST, args.rmax)
    import numpy as np
    from .special import check_hydrogen_labels, hydrogen_delta, hydrogen_momentum_radial
    check_hydrogen_labels(args.dim, args.n, args.l)
    d = hydrogen_delta(args.dim, args.n)
    p = np.linspace(P_FIRST, args.rmax or 6.0 * d * 5, args.points)
    return _samples("p", p, hydrogen_momentum_radial(args.dim, args.n, args.l, p),
                    "momentum wavefunction samples (Gegenbauer form)")


@_command("hydrogen", "verify", *_HYDROGEN)
def _hydrogen_verify(args):
    _cap_samples(args, HYDROGEN_VERIFY_MAX_POINTS)
    _cap("n^2 x points", args.n * args.n * args.points, HYDROGEN_VERIFY_MAX_WORK)
    import numpy as np
    from .special import (check_hydrogen_labels, fourier_momentum_oracle, hydrogen_delta,
                          hydrogen_momentum_radial)
    N, n, l = args.dim, args.n, args.l
    check_hydrogen_labels(N, n, l)
    d = hydrogen_delta(N, n)
    p = np.linspace(0.05 * d, 5.0 * d, args.points)
    closed = np.abs(hydrogen_momentum_radial(N, n, l, p))
    oracle = fourier_momentum_oracle(N, n, l, p)
    scale = np.max(oracle)
    rel = float(np.max(np.abs(closed - oracle) / np.maximum(oracle, 1e-3 * scale)))
    return ResultEnvelope(value_float=rel,
                          meta="max relative gap closed-form vs Hankel oracle")


# --- oscillator ------------------------------------------------------------
@_command("oscillator", "wf", _arg("--n"), _arg("--qmax", float, default=5.0),
          _arg("--points", default=41))
def _oscillator_wf(args):
    _cap_samples(args, SAMPLES_MAX_POINTS)
    import numpy as np
    from .oscillator import ho_wavefunction
    q = np.linspace(-args.qmax, args.qmax, args.points)
    return _samples("q", q, ho_wavefunction(args.n, q),
                    "oscillator eigenfunction samples")


@_command("oscillator", "genfunc", _arg("--z", float, nargs=2, metavar=("RE", "IM")),
          _arg("--q", float))
def _oscillator_genfunc(args):
    from .oscillator import ho_generating_function, ho_wavefunction
    z = complex(args.z[0], args.z[1])
    val = complex(ho_generating_function(z, args.q))
    series = sum((z ** k / math.sqrt(math.factorial(k)))
                 * float(ho_wavefunction(k, args.q)) for k in range(61))
    return _complex(val, abs(val - series),
                    "closed generating function; value is |closed - 60-term sum|")


@_command("oscillator", "propagator", _arg("--beta", float),
          _arg("--xmax", float, default=2.0), _arg("--points", default=9))
def _oscillator_propagator(args):
    _points_floor(args.points)
    _cap("points^2", args.points ** 2, PROPAGATOR_MAX_KERNELS)
    import numpy as np
    from .oscillator import ho_propagator
    xs = np.linspace(-args.xmax, args.xmax, args.points)
    rows = []
    for x in xs:
        for xp in xs:
            k = ho_propagator(x, xp, -1j * args.beta)
            rows.append([_fmt_float(x), _fmt_float(xp),
                         _fmt_float(k.real), _fmt_float(k.imag)])
    return _table(["x", "xp", "re_k", "im_k"], rows, float(len(rows)),
                  "imaginary-time oscillator kernel samples")


@_command("oscillator", "magnetic", _arg("--beta", float),
          _arg("--omega-c", float, default=0.0), _arg("--r1", float, nargs=2),
          _arg("--r2", float, nargs=2))
def _oscillator_magnetic(args):
    from .oscillator import magnetic_propagator
    k = magnetic_propagator(args.omega_c, tuple(args.r1), tuple(args.r2),
                            -1j * args.beta)
    return _complex(k, abs(k), "magnetic-oscillator kernel", ("re_k", "im_k"))


# --- manybody --------------------------------------------------------------
# manybody cramer eliminates over Fractions, whose entries grow with n:
# --n 40 takes 0.4 s, 50 0.8 s, 60 1.0 s, 100 4.9 s, 200 56 s (one 2-vCPU
# VM, numpy's import included).  Larger n are refused before the draw.
CRAMER_MAX_N = 50


@_command("manybody", "cramer", _arg("--n", default=4), _arg("--s", default=2), _SEED)
def _manybody_cramer(args):
    if not 0 <= args.s <= args.n:
        raise ValueError("need 0 <= s <= n")
    _cap("n", args.n, CRAMER_MAX_N)
    from fractions import Fraction
    import numpy as np
    from .manybody import (SubstitutionQuery, generalized_cramer,
                           substituted_determinant_direct)
    rng = np.random.default_rng(args.seed)

    def rational_matrix(n, m):
        return tuple(tuple(Fraction(int(rng.integers(-9, 10))) for _ in range(m))
                     for _ in range(n))

    A = rational_matrix(args.n, args.n)
    B = rational_matrix(args.n, args.s)
    pos = tuple(sorted(rng.permutation(args.n)[:args.s].tolist()))
    q = SubstitutionQuery(A, B, pos)
    v1 = generalized_cramer(q)
    v2 = substituted_determinant_direct(q)
    return ResultEnvelope(value_exact=f"{v1.numerator}/{v1.denominator}",
                          value_float=float(v1 - v2),
                          meta="generalized Cramer; value_float is (cramer - direct)")


# SlaterSystem's bound on M: its Fock-space oracles enumerate every
# occupation of the M orbitals.  The command checks it before drawing the
# M x M matrix, which at --m 1000 took 0.3 s and 96 MB only to be refused.
SLATER_MAX_ORBITALS = 10


def _slater_system(args):
    """The seeded generator and the random Slater system it drew first."""
    if not 0 < args.n_occ <= args.m <= SLATER_MAX_ORBITALS:
        raise ValueError(f"need 0 < n-occ <= m <= {SLATER_MAX_ORBITALS}")
    import numpy as np
    from .manybody import SlaterSystem
    rng = np.random.default_rng(args.seed)
    R = np.eye(args.m) + 0.3 * (rng.normal(size=(args.m, args.m))
                                + 1j * rng.normal(size=(args.m, args.m)))
    return rng, SlaterSystem(args.n_occ, tuple(map(tuple, R.tolist())))


@_command("manybody", "overlap", *_SLATER)
def _manybody_overlap(args):
    _, sysm = _slater_system(args)
    from .manybody import slater_overlap, slater_overlap_fock
    a = slater_overlap(sysm)
    return _complex(a, abs(a - slater_overlap_fock(sysm)),
                    "overlap determinant; value is |det - Fock oracle|")


@_command("manybody", "lowdin", *_SLATER)
def _manybody_lowdin(args):
    rng, sysm = _slater_system(args)
    from .manybody import lowdin_matrix_element, lowdin_matrix_element_fock
    T = rng.normal(size=(args.m, args.m)) + 1j * rng.normal(size=(args.m, args.m))
    a = lowdin_matrix_element(sysm, T)
    return _complex(a, abs(a - lowdin_matrix_element_fock(sysm, T)),
                    "one-body Lowdin element; value is |formula - oracle|")


@_command("manybody", "thouless", *_SLATER)
def _manybody_thouless(args):
    sysm = _slater_system(args)[1]
    from .manybody import thouless_residual
    return ResultEnvelope(value_float=thouless_residual(sysm),
                          meta="Thouless reconstruction residual")


# manybody lipkin diagonalizes a dense (N+1) x (N+1) matrix, O(N^3) time and
# O(N^2) memory.  Measured (one 2-vCPU VM, OpenBLAS, a fresh process with
# its numpy import): N = 1000 takes 0.2 s and 46 MB peak, 1500 0.33 s, 2000
# 0.65 s and 92 MB, 3000 1.75 s and 170 MB.  Larger N is refused.
LIPKIN_MAX_PARTICLES = 1000


@_command("manybody", "lipkin", _arg("--n-particles"), _arg("--e", float, default=1.0),
          _arg("--v", float, default=1.0))
def _manybody_lipkin(args):
    _cap("n-particles", args.n_particles, LIPKIN_MAX_PARTICLES)
    from .manybody import LipkinModel, lipkin_spectrum
    ev = lipkin_spectrum(LipkinModel(args.n_particles, args.e, args.v))
    return _table(["index", "energy"], [[i, _fmt_float(ev[i])] for i in range(len(ev))],
                  float(ev[0]), "Lipkin exact spectrum")


@_command("manybody", "boson-coeffs", _arg("--k-max", default=4))
def _manybody_boson_coeffs(args):
    from .manybody import boson_expansion_coeffs
    al = boson_expansion_coeffs(args.k_max)
    return _table(["k", "alpha"], [[k, _fmt_float(al[k])] for k in range(len(al))],
                  al[-1], "quasi-boson expansion coefficients")


def _build_parser() -> _Parser:
    p = _Parser(prog="gfkit", description=__doc__)
    groups = p.add_subparsers(dest="group", required=True)
    for group, ops in _COMMANDS.items():
        sub = groups.add_parser(group).add_subparsers(dest="op", required=True)
        for op, (specs, handler) in ops.items():
            q = sub.add_parser(op)
            q.set_defaults(handler=handler)
            for flag, kw in specs:
                q.add_argument(flag, **kw)
    return p


def run_command(argv) -> tuple[ResultEnvelope, int]:
    try:
        args = _build_parser().parse_args(argv)
        with warnings.catch_warnings():
            # numpy warns on the way to a NaN or infinity, which is refused
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.handler(args), 0
    except UsageError as exc:
        return ResultEnvelope(status="error", message=f"usage: {exc}"), 2
    except OverflowError as exc:
        return ResultEnvelope(status="error",
                              message=f"the result is not finite ({exc})"), 1
    except (ValueError, ArithmeticError, KeyError) as exc:
        return ResultEnvelope(status="error", message=str(exc)), 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    fmt = "json"
    if "--format" in argv:
        i = argv.index("--format")
        if i + 1 < len(argv):
            fmt = argv[i + 1]
            argv = argv[:i] + argv[i + 2:]
    if fmt not in _FORMATS:
        # refused before the command runs, so a bad format costs no work
        sys.stdout.buffer.write(render(ResultEnvelope(
            status="error", message=f"unknown format {fmt}"), "json"))
        return 2
    env, code = run_command(argv)
    sys.stdout.buffer.write(render(env, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
