"""The four benchmark workloads: seeded inputs, the call each operation
makes into gfkit, the exact check of its output, and the trace points.

A workload builds a pool of operations from its seed during set-up; the
timed loop cycles through the pool.  Each operation is (kind, args).
Checks run after the timed phase and use a second, independent route.
"""
from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction

OUT_DIR = ".perfbench_out"
NUMERIC_MODULES = ("hurwitz", "manybody", "oscillator", "quadrature", "special", "su3")


def _tri(a, b, c):
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def _sixj_ok(t):
    j1, j2, j3, l1, l2, l3 = t
    return all(_tri(*x) for x in ((j1, j2, j3), (j1, l2, l3), (l1, j2, l3), (l1, l2, j3)))


def _random_threej(rng, lo, hi):
    """Triangle-valid 3j label with every 2j in [lo, hi] and sum of 2m zero."""
    while True:
        tj1, tj2 = rng.randint(lo, hi), rng.randint(lo, hi)
        low = max(abs(tj1 - tj2), lo + (lo + tj1 + tj2) % 2)
        if low > hi:
            continue
        tj3 = rng.randrange(low, min(tj1 + tj2, hi) + 1, 2)
        tm1 = rng.randrange(-tj1, tj1 + 1, 2)
        tm2 = rng.randrange(-tj2, tj2 + 1, 2)
        if abs(tm1 + tm2) <= tj3:
            return (tj1, tj2, tj3, tm1, tm2, -tm1 - tm2)


def _random_ninej(rng, hi):
    """9j label, every 2j in [0, hi], all six triads valid: the third entry
    of each of the first two rows and of each column is drawn from its
    triangle range, and the label is kept if the last row is a triad."""
    def third(x, y):
        return rng.randrange(abs(x - y), min(x + y, hi + (hi + x + y) % 2) + 1, 2)

    while True:
        a, b, d, e = (rng.randint(0, hi) for _ in range(4))
        c, f = third(a, b), third(d, e)
        g, h, i = third(a, d), third(b, e), third(c, f)
        if max(c, f, g, h, i) <= hi and _tri(g, h, i):
            return ((a, b, c), (d, e, f), (g, h, i))


def _neg_one_pow(k):
    return -1 if k & 1 else 1


class Workload:
    name = ""
    tail_pct = 99.0         # tail percentile reported as lat_tail_ms

    @staticmethod
    def starts_unit(kind):
        """Whether an operation of this kind starts a unit of work; a run
        ends only at a unit boundary, so that it holds whole units."""
        return True

    def setup(self, rng):
        """Import gfkit and build the operation pool; returns the pool."""
        raise NotImplementedError

    def run(self, kind, args):
        raise NotImplementedError

    def check(self, kind, args, out) -> bool:
        raise NotImplementedError

    def trace(self, tracer):
        """Install traced wrappers around the gfkit calls this workload makes."""

    def trace_finish(self, tracer):
        """Per-layer figures gathered outside this process, {metric: value}."""
        return {}

    def hit_counters(self):
        """{metric name: lru_cache-like object} for hit ratios."""
        return {}


def _trace_exact_wigner(tracer):
    from gfkit import exact, polytools, wigner
    tracer.patch(exact, "square_free_split", "exact.square_free_split")
    tracer.patch(exact.SqrtRational, "from_square", "exact.SqrtRational.from_square")
    tracer.patch(wigner, "threej", "wigner.threej")
    tracer.patch(wigner, "clebsch_gordan", "wigner.clebsch_gordan")
    tracer.patch(wigner, "sixj_gf", "wigner.sixj_gf")
    tracer.patch(wigner, "ninej", "wigner.ninej")
    tracer.patch(polytools.TruncatedSeries, "inverse", "polytools.TruncatedSeries.inverse")


class _ExactWorkload(Workload):
    """Shared run/check for the 3j/CG/6j/9j kinds."""

    def run(self, kind, args):
        w = self.wigner
        if kind == "3j":
            return w.threej(*args)
        if kind == "cg":
            tj1, tj2, tj3, tm1, tm2, tm3 = args
            H = self.HalfInt
            return w.clebsch_gordan(H(tj1), H(tm1), H(tj2), H(tm2), H(tj3), H(-tm3))
        if kind == "6j":
            return w.sixj_gf(*args)
        if kind == "9j":
            return w.ninej(args)
        raise ValueError(kind)

    def check(self, kind, args, out):
        w = self.wigner
        if kind == "3j":
            return out == w.threej_second_route(*args)
        if kind == "cg":
            # <j1 m1 j2 m2 | j3 M> = (-1)^{j1-j2+M} sqrt(2 j3 + 1) 3j(.., -M),
            # compared through the exact square and the sign
            tj1, tj2, tj3, tm1, tm2, tm3 = args
            ref = w.threej_second_route(*args)
            sign = _neg_one_pow((tj1 - tj2 - tm3) // 2) * ((ref.coeff > 0) - (ref.coeff < 0))
            return (out.square() == ref.square() * (tj3 + 1)
                    and (out.coeff > 0) - (out.coeff < 0) == sign)
        if kind == "6j":
            return out == w.sixj_oracle(*args)
        if kind == "9j":
            return out == self._ninej_via_sixj(args)
        return False

    def _ninej_via_sixj(self, rows):
        """9j as a sum over x of (-1)^{2x}(2x+1) times three 6j oracles."""
        (a, b, c), (d, e, f), (g, h, i) = rows
        o = self.wigner.sixj_oracle
        total = None
        for x in range(max(abs(a - i), abs(b - f), abs(d - h)),
                       min(a + i, b + f, d + h) + 1, 2):
            term = o(a, b, c, f, i, x) * o(d, e, f, b, x, h) * o(g, h, i, x, a, d)
            if term:
                term = term * Fraction((x + 1) * _neg_one_pow(x))
                total = term if total is None else total + term
        return total if total else self.SR_ZERO

    def _import(self):
        from gfkit import wigner
        from gfkit.exact import SR_ZERO, HalfInt
        self.wigner, self.HalfInt, self.SR_ZERO = wigner, HalfInt, SR_ZERO

    def trace(self, tracer):
        _trace_exact_wigner(tracer)

    def hit_counters(self):
        return {"wigner.threej.hit_ratio": self.wigner._threej_core}


class RecouplingSmall(_ExactWorkload):
    """Full tables in seeded order: 6j with 2j <= 6 through sixj_gf, 9j with
    2j <= 4 through ninej, 3j and CG with 2j <= 6.  The first operation is
    the 6j table's largest label (all 2j = 6), so the degree-36 series is
    built once per process; the tables then cycle."""

    name = "recoupling-small"
    PATTERN = ("6j", "3j", "6j", "9j", "6j", "cg", "6j", "3j", "6j", "9j")

    def setup(self, rng):
        self._import()
        top = (6,) * 6
        triads = [t for t in itertools.product(range(7), repeat=3) if _tri(*t)]
        sixj = [(j1, j2, j3, l1, l2, l3) for j1, j2, j3 in triads
                for l1, l2, l3 in itertools.product(range(7), repeat=3)
                if _tri(j1, l2, l3) and _tri(l1, j2, l3) and _tri(l1, l2, j3)
                and (j1, j2, j3, l1, l2, l3) != top]
        rng.shuffle(sixj)
        sixj.insert(0, top)
        threej = [(a, b, c, ma, mb, -ma - mb)
                  for a, b, c in itertools.product(range(7), repeat=3) if _tri(a, b, c)
                  for ma in range(-a, a + 1, 2) for mb in range(-b, b + 1, 2)
                  if abs(ma + mb) <= c]
        rng.shuffle(threej)
        rows = [t for t in itertools.product(range(5), repeat=3) if _tri(*t)]
        ninej = [(r1, r2, r3) for r1 in rows for r2 in rows for r3 in rows
                 if all(_tri(*col) for col in zip(r1, r2, r3))]
        rng.shuffle(ninej)
        pools = {"6j": sixj, "3j": threej, "cg": threej[::-1], "9j": ninej}
        pos = dict.fromkeys(pools, 0)
        ops = []
        n_cycles = len(sixj) // self.PATTERN.count("6j") + 1
        for kind in self.PATTERN * n_cycles:
            pool = pools[kind]
            ops.append((kind, pool[pos[kind] % len(pool)]))
            pos[kind] += 1
        return ops


class ThreejLarge(_ExactWorkload):
    """Distinct 3j and CG labels with every 2j in [40, 60]: each call misses
    the 3j cache and canonicalizes large integers."""

    name = "threej-large"
    LO, HI = 40, 60
    POOL = 100_000

    def setup(self, rng):
        self._import()
        seen = set()
        ops = []
        kinds = ("3j", "cg")
        while len(ops) < self.POOL:
            # a CG call on these labels evaluates the same 3j, so labels
            # are distinct across both kinds
            lab = _random_threej(rng, self.LO, self.HI)
            if lab in seen:
                continue
            seen.add(lab)
            ops.append((kinds[len(ops) % 2], lab))
        return ops


class _ClearedCache:
    """An lru_cache function's hits and misses summed across cache_clear()."""

    def __init__(self, fn):
        self.fn, self.hits, self.misses = fn, 0, 0

    def clear(self):
        info = self.fn.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        self.fn.cache_clear()

    def cache_info(self):
        info = self.fn.cache_info()
        return types.SimpleNamespace(hits=self.hits + info.hits,
                                     misses=self.misses + info.misses)


class Su3Table(Workload):
    """Seeded pairs (lam1,0) x (lam2,0), lam <= 6, in rounds of one pair per
    total lam1 + lam2 in TOTALS; every coupling of each pair is queried in
    seeded order.  The table cache is cleared when a pair starts, so every
    pair builds its tables as a new process would.  A pair is a unit of
    work."""

    name = "su3-table"
    tail_pct = 99.9

    @staticmethod
    def starts_unit(kind):
        return kind == "su3-first"
    TOTALS = (6, 7, 8)
    ROUNDS = 20

    def setup(self, rng):
        from gfkit import su3, wigner
        self.su3, self.wigner = su3, wigner
        self.table = _ClearedCache(su3.coupling_table)
        # each total cycles through its splits lam1 + lam2 in seeded order,
        # so that every run holds about the same mix of pairs
        splits = {}
        for s in self.TOTALS:
            splits[s] = [(a, s - a) for a in range(max(0, s - 6), min(6, s) + 1)]
            rng.shuffle(splits[s])
        ops = []
        for r in range(self.ROUNDS):
            totals = list(self.TOTALS)
            rng.shuffle(totals)
            for s in totals:
                ops.extend(self._queries(rng, *splits[s][r % len(splits[s])]))
        return ops

    def _queries(self, rng, lam1, lam2):
        su3 = self.su3
        keys1, keys2 = su3.su3_state_keys(lam1, 0), su3.su3_state_keys(lam2, 0)
        out = []
        for lam3, mu3 in su3.su3_decompose_multfree(lam1, lam2):
            for k3 in su3.su3_state_keys(lam3, mu3):
                for k1 in keys1:
                    for k2 in keys2:
                        if (k1[0] + k2[0] == k3[0] and k1[2] + k2[2] == k3[2]
                                and _tri(k1[1], k2[1], k3[1])):
                            out.append(("su3", (lam1, lam2, lam3, mu3, k1, k2, k3)))
        rng.shuffle(out)
        out[0] = ("su3-first", out[0][1])
        return out

    def run(self, kind, args):
        if kind == "su3-first":
            self.table.clear()
        lam1, lam2, lam3, mu3, k1, k2, k3 = args
        lab = self.su3.Su3Label.from_key
        return self.su3.su3_wigner_multfree(lam1, lam2, lam3, mu3, lab(lam1, 0, k1),
                                            lab(lam2, 0, k2), lab(lam3, mu3, k3))

    def check(self, kind, args, out):
        # exact factorization: wigner = isoscalar * 3j(t1 t2 t3; t01 t02 -t03)
        w, iso = out
        (_, t1, t01), (_, t2, t02), (_, t3, t03) = args[4:]
        tj = self.wigner.threej_second_route(t1, t2, t3, t01, t02, -t03)
        return w == iso * tj if tj else not w

    def trace(self, tracer):
        from gfkit import polytools, su3
        _trace_exact_wigner(tracer)
        tracer.patch(su3, "threej", "wigner.threej")
        tracer.patch(su3, "coupling_table", "su3.coupling_table")
        tracer.patch(su3, "su3_isoscalar", "su3.su3_isoscalar")
        for owner in (polytools, su3):
            tracer.patch(owner, "poly_mul", "polytools.poly_mul")
            tracer.patch(owner, "bargmann_dot", "polytools.bargmann_dot")

    def hit_counters(self):
        return {"wigner.threej.hit_ratio": self.wigner._threej_core,
                "su3.coupling_table.hit_ratio": self.table}


def _f(rng, lo, hi):
    return f"{rng.uniform(lo, hi):.3f}"


def _cli_shapes():
    """(group, expected exit code, argv generator) after the shapes of the
    test suite's CLI corpus; generators take a random.Random."""
    def j3(rng, hi):
        return [str(x) for x in _random_threej(rng, 0, hi)]

    def pattern(rng):
        return rng.choice(["2 1 0 / 2 1 / 1", "2 1 0 / 2 0 / 1", "2 1 0 / 1 0 / 0",
                           "1 0 0 / 1 0 / 0", "2 0 0 / 1 0 / 1"])

    def sixj(rng):
        while True:
            t = [rng.randint(0, 2) for _ in range(6)]
            if _sixj_ok(t):
                return [str(x) for x in t]

    def ninej(rng):
        return [str(x) for r in _random_ninej(rng, 2) for x in r]

    W = [
        lambda r: (lambda l: ["3j", "--two-j", *l[:3], "--two-m", *l[3:]])(j3(r, 4)),
        lambda r: (lambda l: ["cg", "--two-j", *l[:3], "--two-m", *l[3:]])(j3(r, 4)),
        lambda r: ["6j", "--two-j", *sixj(r)],
        lambda r: ["6j", "--two-j", *sixj(r), "--route", "oracle"],
        lambda r: ["9j", "--two-j", *ninej(r)],
        lambda r: (lambda l: ["regge", "--two-j", *l[:3], "--two-m", *l[3:]])(j3(r, 4)),
        lambda r: ["gaunt", "--l", "1", "1", "2", "--m", "0", "0", "0"],
    ]
    SU3 = [
        lambda r: ["decompose", "--lam1", str(r.randint(0, 4)), "--lam2", str(r.randint(0, 4))],
        lambda r: ["isoscalar", "--lam1", "1", "--lam2", "1", "--lam3", "0", "--mu3", "1",
                   "--chain1", "-2", "0", "--chain2", "1", "1", "--chain3", "-1", "1"],
        lambda r: ["euler", "--a", _f(r, -3, 3), _f(r, 0, 3), _f(r, -3, 3), "--nu3",
                   _f(r, 0, 3), "--beta3", _f(r, -3, 3), "--b", _f(r, -3, 3),
                   _f(r, 0, 3), _f(r, -3, 3)],
    ]
    GEL = [
        lambda r: ["dim", "--h", *r.choice([["2", "1", "0"], ["3", "1", "0"], ["2", "2", "1", "0"]])],
        lambda r: ["enumerate", "--h", *r.choice([["1", "0", "0"], ["2", "1", "0"], ["2", "0", "0"]])],
        lambda r: ["weight", "--pattern", pattern(r)],
        lambda r: ["poly", "--pattern", pattern(r)],
    ]
    HUR = [
        lambda r: ["matrix", "--n", "4", "--u", *[_f(r, -2, 2) for _ in range(4)]],
        lambda r: ["ks", "--u", *[_f(r, -2, 2) for _ in range(4)]],
        lambda r: ["cayley", "--n", "3", "--u", *[_f(r, -2, 2) for _ in range(4)]],
        lambda r: ["cross", "--n", "7", "--a", *[_f(r, -1, 1) for _ in range(7)],
                   "--b", *[_f(r, -1, 1) for _ in range(7)]],
        lambda r: ["check", "--n", r.choice(["4", "8"]), "--seed", str(r.randint(0, 99))],
    ]

    def hyd(op, dims):
        def gen(r):
            n = r.randint(1, 3)
            return [op, "--dim", str(r.choice(dims)), "--n", str(n),
                    "--l", str(r.randint(0, n - 1)), "--points", "5"]
        return gen

    HYD = [hyd("position", (3,)), hyd("momentum", (3, 4))]
    OSC = [
        lambda r: ["wf", "--n", str(r.randint(0, 5)), "--points", "7"],
        lambda r: ["genfunc", "--z", _f(r, -1, 1), _f(r, -1, 1), "--q", _f(r, -2, 2)],
        lambda r: ["propagator", "--beta", _f(r, 0.3, 2), "--points", "3"],
        lambda r: ["magnetic", "--beta", _f(r, 0.3, 2), "--omega-c", _f(r, 0, 1),
                   "--r1", _f(r, -1, 1), _f(r, -1, 1), "--r2", _f(r, -1, 1), _f(r, -1, 1)],
    ]
    MB = [
        lambda r: ["cramer", "--n", "4", "--s", "2", "--seed", str(r.randint(0, 99))],
        lambda r: ["overlap", "--m", "4", "--n-occ", "2", "--seed", str(r.randint(0, 99))],
        lambda r: ["lowdin", "--m", "4", "--n-occ", "2", "--seed", str(r.randint(0, 99))],
        lambda r: ["thouless", "--m", "5", "--n-occ", "2", "--seed", str(r.randint(0, 99))],
        lambda r: ["lipkin", "--n-particles", str(r.choice([2, 4, 6])), "--e", "1.0",
                   "--v", _f(r, 0, 1)],
        lambda r: ["boson-coeffs", "--k-max", str(r.randint(1, 6))],
    ]
    groups = [("wigner", W), ("su3", SU3), ("gelfand", GEL), ("hurwitz", HUR),
              ("hydrogen", HYD), ("oscillator", OSC), ("manybody", MB)]
    shapes = [(g, 0, [lambda r, g=g, gens=gens: [g, *r.choice(gens)(r)]])
              for g, gens in groups]
    shapes.append(("error-domain", 1, [
        lambda r: ["gelfand", "weight", "--pattern", r.choice(["2 0 / 3", "1 0 / 2"])],
        lambda r: ["wigner", "regge", "--two-j", "2", "2", "6", "--two-m", "0", "0", "0"],
    ]))
    shapes.append(("error-usage", 2, [
        lambda r: ["frobnicate"],
        lambda r: ["wigner", "3j", "--two-j", "2", "2"],
        lambda r: ["su3", "decompose", "--lam1", "x", "--lam2", "1"],
    ]))
    return shapes


class CliMix(Workload):
    """`python -m gfkit.cli` subprocess calls in rounds: each round makes one
    call per command group plus one expected to exit 1 and one expected to
    exit 2, in seeded order, each in a seeded json/csv/text format.  A round
    is a unit of work."""

    name = "cli-mix"
    tail_pct = 50.0
    ROUNDS = 40

    @staticmethod
    def starts_unit(kind):
        return kind == "cli-first"

    def setup(self, rng):
        shapes = _cli_shapes()
        ops = []
        for _ in range(self.ROUNDS):
            order = list(shapes)
            rng.shuffle(order)
            for i, (_group, code, gens) in enumerate(order):
                fmt = rng.choice(("json", "csv", "text"))
                ops.append(("cli-first" if i == 0 else "cli",
                            (code, fmt, tuple(rng.choice(gens)(rng)))))
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.command = [sys.executable, "-m", "gfkit.cli"]
        return ops

    def run(self, kind, args):
        _code, fmt, argv = args
        proc = subprocess.run([*self.command, "--format", fmt, *argv], env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return proc.returncode, proc.stdout

    def trace(self, tracer):
        self.trace_file = os.path.abspath(os.path.join(OUT_DIR, "cli-trace.jsonl"))
        if os.path.exists(self.trace_file):
            os.remove(self.trace_file)
        self.env["PERFBENCH_CLI_TRACE"] = self.trace_file
        self.command = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_traced.py")]

    def trace_finish(self, tracer):
        with open(self.trace_file) as fh:
            for line in fh:
                rec = json.loads(line)
                for name, v in rec["self_s"].items():
                    tracer.self_s[name] = tracer.self_s.get(name, 0.0) + v
                    tracer.calls[name] = tracer.calls.get(name, 0) + rec["calls"][name]
        # fresh-interpreter import cost of gfkit.cli over the bare-start floor
        def wall(code):
            ts = []
            for _ in range(5):
                t = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True)
                ts.append(time.perf_counter() - t)
            return statistics.median(ts)
        floor = wall("pass")
        extra = {"cli.interpreter.s": floor, "cli.import.s": wall("import gfkit.cli") - floor}
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gfkit.cli"],
                              env=self.env, stderr=subprocess.PIPE, text=True, check=True)
        self_us = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                us, _cum, mod = line[len("import time:"):].split("|")
                if us.strip().isdigit():
                    self_us[mod.strip()] = int(us)
        for mod in NUMERIC_MODULES:
            extra[f"{mod}.s"] = self_us.get(f"gfkit.{mod}", 0) / 1e6
        for pkg in ("numpy", "scipy"):
            extra[f"{pkg}.s"] = sum(v for m, v in self_us.items()
                                    if m == pkg or m.startswith(pkg + ".")) / 1e6
        return extra

    def check(self, kind, args, out):
        # byte-equality with the same argv through in-process run_command + render
        from gfkit.cli import render, run_command
        code, fmt, argv = args
        env, expected_code = run_command(list(argv))
        return out == (code, render(env, fmt)) and expected_code == code


WORKLOADS = {w.name: w for w in (RecouplingSmall, ThreejLarge, Su3Table, CliMix)}
