import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfkit.cli import ResultEnvelope, render, run_command
from gfkit.wigner import threej
from oracles import parse_sqrt_rational


def run(argv):
    env, code = run_command(argv)
    return env, code


def test_wigner_3j_example():
    env, code = run(["wigner", "3j", "--two-j", "2", "2", "2",
                     "--two-m", "2", "-2", "0"])
    assert code == 0
    assert env.value_exact == "1/1*sqrt(1/6)"
    assert env.value_float == pytest.approx(0.408248, abs=1e-6)
    # exact string reparses to the library value
    assert parse_sqrt_rational(env.value_exact) == threej(2, 2, 2, 2, -2, 0)


def test_gelfand_dim_example():
    env, code = run(["gelfand", "dim", "--h", "2", "1", "0"])
    assert code == 0 and env.value_float == 8.0


def test_gelfand_dim_past_the_double_range_is_exact():
    # the staircase of 46 entries has dimension 2^1035, past the double
    # range: it is reported as the exact integer, and the one of 45 entries,
    # 2^990, keeps its value_float alone
    env, code = run(["gelfand", "dim", "--h", *map(str, range(45, -1, -1))])
    assert code == 0 and env.value_exact == str(2 ** 1035) and env.value_float is None
    assert json.loads(render(env, "json"))["value_exact"] == str(2 ** 1035)
    env, code = run(["gelfand", "dim", "--h", *map(str, range(44, -1, -1))])
    assert code == 0 and env.value_exact is None and env.value_float == 2.0 ** 990


def test_usage_error():
    env, code = run(["frobnicate"])
    assert code == 2 and env.status == "error"
    env, code = run(["wigner", "3j", "--two-j", "2", "2"])
    assert code == 2
    # hydrogen verify samples a fixed grid: it takes no --rmax and no --seed
    verify = ["hydrogen", "verify", "--n", "2", "--l", "0", "--points", "5"]
    assert run(verify)[1] == 0
    for extra in (["--rmax", "3"], ["--seed", "1"]):
        env, code = run(verify + extra)
        assert code == 2 and env.message.startswith("usage:"), extra


# overflow inside a kernel: math, int-to-float and complex power
OVERFLOW_ARGVS = (["oscillator", "propagator", "--beta", "1000"],
                  ["hydrogen", "momentum", "--n", "200", "--l", "0"],
                  ["oscillator", "genfunc", "--z", "1e200", "0", "--q", "0"])


def test_domain_error_exit_one():
    for argv in (["gelfand", "weight", "--pattern", "2 0 / 3"],
                 ["hydrogen", "position", "--dim", "3", "--n", "1", "--l", "1"],
                 ["hydrogen", "momentum", "--n", "1", "--l", "2"],
                 ["manybody", "boson-coeffs", "--k-max", "-3"]):
        env, code = run(argv)
        assert code == 1 and env.status == "error", argv
    # below N = 2 there is no hydrogen state: the level scale is infinite
    # or negative, and the polynomial parameters leave their range
    for argv in (["hydrogen", "verify", "--dim", "1", "--n", "2", "--l", "1"],
                 ["hydrogen", "position", "--dim", "1", "--n", "1", "--l", "0"],
                 ["hydrogen", "position", "--dim", "0", "--n", "1", "--l", "0"],
                 ["hydrogen", "momentum", "--dim", "1", "--n", "1", "--l", "0"],
                 ["hydrogen", "momentum", "--dim", "1", "--n", "2", "--l", "1"],
                 ["hydrogen", "verify", "--dim", "-4", "--n", "3", "--l", "0"]):
        env, code = run(argv)
        assert code == 1 and "N >= 2" in env.message, (argv, env.message)
    # an --rmax at or below the grid's first point would sample negative or
    # repeated radii; just above it the grid is sampled
    from gfkit.cli import P_FIRST, R_FIRST
    for op, first in (("position", R_FIRST), ("momentum", P_FIRST)):
        for rmax in ("-5", "0", str(first), "nan"):
            argv = ["hydrogen", op, "--dim", "3", "--n", "2", "--l", "1", "--points", "3",
                    "--rmax", rmax]
            env, code = run(argv)
            assert code == 1 and "first grid point" in env.message, (argv, env.message)
        env, code = run(["hydrogen", op, "--dim", "3", "--n", "2", "--l", "1",
                         "--points", "3", "--rmax", str(2 * first)])
        assert code == 0 and float(env.table["rows"][-1][0]) == 2 * first, env
    # a NaN or infinite result is refused: json cannot spell it.  On the
    # default grids the samples stop being finite at these n.
    for argv in (["oscillator", "wf", "--n", "400", "--points", "3"],
                 ["hurwitz", "matrix", "--n", "2", "--u", "1e200", "1e200"],
                 # NaN kernels in the rows, a finite value (the row count)
                 ["oscillator", "propagator", "--beta", "1", "--xmax", "1e200", "--points", "2"],
                 ["oscillator", "wf", "--n", "265"],
                 ["hydrogen", "position", "--n", "192", "--l", "0"],
                 ["hydrogen", "momentum", "--n", "171", "--l", "0"],
                 *OVERFLOW_ARGVS):
        env, code = run(argv)
        assert code == 1 and "not finite" in env.message, (argv, env.message)
    # an oracle whose quadrature has not settled by its last level is
    # refused and named, not reported as a gap: n = 93 is the first such n
    # at l = 0 on 5 points, and at n = 171 the closed form overflows too
    for n in (93, 171):
        env, code = run(["hydrogen", "verify", "--n", str(n), "--l", "0", "--points", "5"])
        assert code == 1 and "Hankel oracle" in env.message, (n, env.message)
        assert "did not settle" in env.message, (n, env.message)
    assert run(["hydrogen", "verify", "--n", "92", "--l", "0", "--points", "5"])[1] == 0
    for argv in (["oscillator", "wf", "--n", "264"],
                 ["hydrogen", "position", "--n", "191", "--l", "0"],
                 ["hydrogen", "momentum", "--n", "170", "--l", "0"]):
        assert run(argv)[1] == 0, argv
    # past the exponential's underflow the Hankel oracle still converges
    env, code = run(["hydrogen", "verify", "--n", "30", "--l", "0", "--points", "5"])
    assert code == 0 and env.value_float < 1e-9, env
    with pytest.raises(ValueError):
        ResultEnvelope(value_float=math.inf)


def test_refusal_leaves_stderr_empty():
    # numpy's overflow and invalid-value warnings on the way to a refused
    # result stay off stderr, also with RuntimeWarnings shown by default
    argvs = [["oscillator", "wf", "--n", "400", "--points", "3"],
             ["hydrogen", "momentum", "--n", "171", "--l", "0"], *OVERFLOW_ARGVS]
    script = (
        "from gfkit.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 1, argv\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-W", "default::RuntimeWarning", "-c", script],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert res.stderr == ""


def test_json_rendering_sorted():
    env, code = run(["wigner", "6j", "--two-j", "2", "2", "2", "2", "2", "2"])
    data = json.loads(render(env, "json"))
    assert list(data.keys()) == sorted(data.keys())
    assert data["value_exact"] == "1/6"


def test_csv_rendering():
    env, code = run(["manybody", "lipkin", "--n-particles", "2",
                     "--e", "1", "--v", "0"])
    out = render(env, "csv").decode()
    lines = out.splitlines()
    assert lines[0] == "index,energy"
    assert len(lines) == 4
    assert out.endswith("\n")


def test_text_rendering():
    env, code = run(["hurwitz", "ks", "--u", "1", "0", "0", "0"])
    out = render(env, "text").decode()
    assert "status: ok" in out


def test_main_prints_render_of_run_command(capsysbinary):
    # main takes --format anywhere on the line, writes render(run_command)
    # to stdout and returns its exit code; an unknown format is a usage
    # error, reported in json
    from gfkit.cli import main
    sixj = ["wigner", "6j", "--two-j", "2", "2", "2", "2", "2", "2"]
    usage = ["wigner", "3j", "--two-j", "2", "2"]
    for fmt, argv in (("csv", sixj), ("text", sixj), ("csv", usage), ("text", ["frobnicate"])):
        env, code = run_command(argv)
        expected = (render(env, fmt), code)
        for line in (["--format", fmt, *argv], [*argv, "--format", fmt]):
            exit_code = main(line)
            assert (capsysbinary.readouterr().out, exit_code) == expected, line
    assert main(list(sixj)) == 0
    assert capsysbinary.readouterr().out == render(run_command(sixj)[0], "json")
    assert main(["--format", "xml", *sixj]) == 2
    assert json.loads(capsysbinary.readouterr().out) == {
        "status": "error", "message": "unknown format xml"}
    # the parser itself takes no --format: main has removed it
    assert run_command(["--format", "csv", *sixj])[1] == 2


def test_unknown_format_refused_before_the_command_runs(monkeypatch, capsysbinary):
    # main checks --format before it runs the command, so the kernel is
    # never reached; stdout and the exit code are those of the usage error
    from gfkit import special
    from gfkit.cli import main

    def untouched(*args):
        raise AssertionError("kernel reached with an unknown format")

    monkeypatch.setattr(special, "fourier_momentum_oracle", untouched)
    verify = ["hydrogen", "verify", "--n", "2", "--l", "0", "--points", "5"]
    for line in (["--format", "xml", *verify], [*verify, "--format", "xml"]):
        assert main(line) == 2
        assert capsysbinary.readouterr().out == (
            b'{"message": "unknown format xml", "status": "error"}\n')


def test_error_envelope_render():
    env = ResultEnvelope(status="error", message="boom")
    data = json.loads(render(env, "json"))
    assert data == {"status": "error", "message": "boom"}


CORPUS = [
    ["wigner", "3j", "--two-j", "2", "2", "2", "--two-m", "2", "-2", "0"],
    ["wigner", "3j", "--two-j", "2", "2", "4", "--two-m", "0", "0", "0"],
    ["wigner", "cg", "--two-j", "1", "1", "0", "--two-m", "1", "-1", "0"],
    ["wigner", "6j", "--two-j", "2", "2", "2", "2", "2", "2"],
    ["wigner", "6j", "--two-j", "0", "2", "2", "2", "2", "2", "--route", "oracle"],
    ["wigner", "9j", "--two-j", "1", "1", "2", "1", "1", "2", "2", "2", "0"],
    ["wigner", "regge", "--two-j", "2", "2", "2", "--two-m", "2", "-2", "0"],
    ["wigner", "gaunt", "--l", "1", "1", "2", "--m", "0", "0", "0"],
    ["su3", "decompose", "--lam1", "2", "--lam2", "1"],
    ["su3", "isoscalar", "--lam1", "1", "--lam2", "1", "--lam3", "0", "--mu3", "1",
     "--chain1", "-2", "0", "--chain2", "1", "1", "--chain3", "-1", "1"],
    ["su3", "euler", "--a", "0.3", "1.1", "-0.4", "--nu3", "0.7",
     "--beta3", "0.5", "--b", "1.0", "0.2", "2.2"],
    ["gelfand", "dim", "--h", "2", "1", "0"],
    ["gelfand", "enumerate", "--h", "1", "0", "0"],
    ["gelfand", "weight", "--pattern", "2 1 0 / 2 1 / 1"],
    ["gelfand", "poly", "--pattern", "2 1 0 / 2 0 / 1"],
    ["hurwitz", "matrix", "--n", "4", "--u", "1", "2", "3", "4"],
    ["hurwitz", "ks", "--u", "1", "0", "1", "0"],
    ["hurwitz", "cayley", "--n", "3", "--u", "1", "0.5", "-0.25", "2"],
    ["hurwitz", "cross", "--n", "7", "--a", "1", "0", "0", "0", "0", "0", "0",
     "--b", "0", "1", "0", "0", "0", "0", "0"],
    ["hurwitz", "check", "--n", "8", "--seed", "3"],
    ["hydrogen", "position", "--dim", "3", "--n", "2", "--l", "1", "--points", "5"],
    ["hydrogen", "momentum", "--dim", "4", "--n", "2", "--l", "0", "--points", "5"],
    ["oscillator", "wf", "--n", "3", "--points", "7"],
    ["oscillator", "genfunc", "--z", "0.5", "0.2", "--q", "1.0"],
    ["oscillator", "propagator", "--beta", "1.0", "--points", "3"],
    ["oscillator", "magnetic", "--beta", "0.7", "--omega-c", "0.4",
     "--r1", "0.3", "-0.4", "--r2", "-0.2", "0.5"],
    ["manybody", "cramer", "--n", "4", "--s", "2", "--seed", "7"],
    ["manybody", "overlap", "--m", "4", "--n-occ", "2", "--seed", "1"],
    ["manybody", "lowdin", "--m", "4", "--n-occ", "2", "--seed", "2"],
    ["manybody", "thouless", "--m", "5", "--n-occ", "2", "--seed", "3"],
    ["manybody", "lipkin", "--n-particles", "4", "--e", "1.0", "--v", "0.3"],
    ["manybody", "boson-coeffs", "--k-max", "4"],
]


def test_cli_determinism_corpus():
    assert len(CORPUS) >= 25
    for argv in CORPUS:
        env1, code1 = run(list(argv))
        env2, code2 = run(list(argv))
        assert code1 == 0, argv
        assert code1 == code2
        for fmt in ("json", "csv", "text"):
            assert render(env1, fmt) == render(env2, fmt), argv


# Argvs that must fail: usage errors exit 2, domain errors exit 1.
ERROR_ARGVS = [
    ["frobnicate"],
    [],
    ["wigner"],
    ["wigner", "7j", "--two-j", "2", "2", "2"],
    ["wigner", "3j", "--two-j", "2", "2", "2"],
    ["wigner", "3j", "--two-j", "2", "2"],
    ["su3", "decompose", "--lam1", "x", "--lam2", "1"],
    ["wigner", "6j", "--two-j", "2", "2", "2", "2", "2", "2", "--route", "bad"],
    ["gelfand", "weight", "--pattern", "2 0 / 3"],
    ["wigner", "regge", "--two-j", "2", "2", "6", "--two-m", "0", "0", "0"],
    ["manybody", "lipkin", "--n-particles", "3"],
]

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def golden_record(argv):
    env, code = run(list(argv))
    record = {"argv": list(argv), "code": code}
    for fmt in ("json", "csv", "text"):
        record[fmt] = render(env, fmt).decode()
    return record


def test_cli_golden_bytes():
    # Exit code and json/csv/text bytes of every command, as recorded in
    # tests/data/cli_golden.json; regenerate it (run this file as a script)
    # only for an intended output change.
    cases = json.loads(GOLDEN.read_text())
    assert [c["argv"] for c in cases] == CORPUS + ERROR_ARGVS
    for case in cases:
        assert golden_record(case["argv"]) == case, case["argv"]


def test_su3_size_cap_refuses_before_building():
    # su3 wigner and isoscalar exit 1 above the documented cap on lam1 + lam2
    # and build no coupling table; at the cap they run.
    from gfkit import su3
    from gfkit.cli import SU3_MAX_LAM_SUM

    def argvs(lam1, op):
        labels = ["--lam1", str(lam1), "--lam2", "0", "--lam3", str(lam1), "--mu3", "0"]
        hw = [str(lam1), str(lam1)]   # highest-weight (y, 2t) of (lam1, 0)
        if op == "wigner":
            return ["su3", "wigner", *labels, "--a1", *hw, str(lam1),
                    "--a2", "0", "0", "0", "--a3", *hw, str(lam1)]
        return ["su3", "isoscalar", *labels, "--chain1", *hw,
                "--chain2", "0", "0", "--chain3", *hw]

    before = su3.coupling_table.cache_info()
    for op in ("wigner", "isoscalar"):
        env, code = run(argvs(SU3_MAX_LAM_SUM + 1, op))
        assert code == 1 and "cap" in env.message, env.message
    assert su3.coupling_table.cache_info() == before
    for op in ("wigner", "isoscalar"):
        assert run(argvs(SU3_MAX_LAM_SUM, op))[1] == 0
    env, code = run(["su3", "decompose", "--lam1", "40", "--lam2", "40"])
    assert code == 0


def test_su3_query_at_the_cap_fills_one_block():
    # One su3 wigner answer at the cap, (9,0) x (9,0) -> (10,4), fills the
    # one block of its chains, not the whole coupling table; a coupling
    # whose t triangle (9, 1, 6) fails, or whose hypercharges do not add up,
    # fills none, and su3 isoscalar with that failed triangle builds no
    # table at all.
    from gfkit import su3
    from gfkit.cli import SU3_MAX_LAM_SUM
    from gfkit.exact import SR_ZERO

    lam, mu3 = SU3_MAX_LAM_SUM // 2, 4
    lam3 = 2 * lam - 2 * mu3
    labels = ["--lam1", str(lam), "--lam2", str(lam), "--lam3", str(lam3), "--mu3", str(mu3)]

    def wigner(a1, a2, a3):
        env, code = run(["su3", "wigner", *labels, *(
            x for flag, a in (("--a1", a1), ("--a2", a2), ("--a3", a3))
            for x in (flag, *map(str, a)))])
        assert code == 0, env.message
        return parse_sqrt_rational(env.value_exact)

    su3.coupling_table.cache_clear()
    try:
        a1, a2, a3 = (9, 9, 9), (0, 6, 0), (9, 11, 9)   # p1 = 9, p2 = 6, q3 = 2
        w = wigner(a1, a2, a3)
        table = su3.coupling_table(lam, lam, mu3)
        assert table.filled == {(9, 6, 2)} and w and w == table[a1, a2, a3]
        assert wigner((9, 9, 5), (-15, 1, 1), (-6, 6, 6)) == SR_ZERO
        assert wigner(a1, a2, (-6, 6, 6)) == SR_ZERO
        assert table.filled == {(9, 6, 2)}
        su3.coupling_table.cache_clear()
        env, code = run(["su3", "isoscalar", *labels, "--chain1", "9", "9",
                         "--chain2", "-15", "1", "--chain3", "-6", "6"])
        assert code == 0 and parse_sqrt_rational(env.value_exact) == SR_ZERO
        assert su3.coupling_table.cache_info().currsize == 0
    finally:
        su3.coupling_table.cache_clear()


def test_wigner_size_cap_refuses_before_work():
    # wigner 3j, cg and 6j exit 1 above the documented caps on the sum of
    # 2j, before the factorial table or the 3j cache is touched; at the
    # caps they run.
    from gfkit.cli import WIGNER_MAX_TWO_J_SUM, WIGNER_ORACLE_MAX_TWO_J_SUM
    from gfkit.exact import factorials
    from gfkit.wigner import _threej_core

    def argv(total, op, route):
        n = 6 if op == "6j" else 3
        tail = ["--route", route] if op == "6j" else ["--two-m", "0", "0", "0"]
        return ["wigner", op, "--two-j", *[str(total // n)] * n, *tail]

    cases = [(WIGNER_MAX_TWO_J_SUM, op, "gf") for op in ("3j", "cg", "6j")]
    cases.append((WIGNER_ORACLE_MAX_TWO_J_SUM, "6j", "oracle"))
    before = len(factorials._packed), _threej_core.cache_info()
    for cap, op, route in cases:
        assert cap % 6 == 0   # so that argv(cap, ...) sums to the cap exactly
        env, code = run(argv(cap + 6, op, route))
        assert code == 1 and "cap" in env.message, env.message
    assert (len(factorials._packed), _threej_core.cache_info()) == before
    for cap, op, route in cases:
        assert run(argv(cap, op, route))[1] == 0


def test_wigner_9j_cap_refuses_before_work(monkeypatch):
    # wigner 9j exits 1 above the documented cap on the sum of 2j without
    # reaching a 6j; with all nine 2j equal at the cap it runs.
    from gfkit import wigner
    from gfkit.cli import WIGNER_9J_MAX_TWO_J_SUM as cap

    def argv(two_j):
        return ["wigner", "9j", "--two-j", *[str(two_j)] * 9]

    def untouched(*args):
        raise AssertionError("9j reached a 6j past the cap")

    assert cap % 18 == 0   # all nine 2j equal and even: every triad valid
    with monkeypatch.context() as m:
        m.setattr(wigner, "sixj_gf", untouched)
        for two_j in (cap // 9 + 1, cap // 9 + 2, 10 * cap):
            env, code = run(argv(two_j))
            assert code == 1 and "cap" in env.message, env.message
    env, code = run(argv(cap // 9))
    assert code == 0 and env.value_exact != "0/1"


def test_runaway_caps_refuse_before_work(monkeypatch):
    # manybody lipkin and cramer, gelfand dim, enumerate and poly, su3
    # decompose and wigner gaunt exit 1 above their documented caps without
    # calling their kernels; exactly at the caps they run.
    from gfkit import manybody, su3, unitary, wigner
    from gfkit.cli import (CRAMER_MAX_N, GELFAND_MAX_PATTERNS, GELFAND_MAX_ROW,
                           GELFAND_POLY_MAX_TOP_SUM, LIPKIN_MAX_PARTICLES,
                           SU3_DECOMPOSE_MAX_ROWS, WIGNER_MAX_TWO_J_SUM)

    def lipkin(n):
        return ["manybody", "lipkin", "--n-particles", str(n)]

    def enumerate_u2(dim):
        return ["gelfand", "enumerate", "--h", str(dim - 1), "0"]

    def poly(n, top):
        rows = (" ".join([str(top)] + ["0"] * (k - 1)) for k in range(n, 0, -1))
        return ["gelfand", "poly", "--pattern", " / ".join(rows)]

    def gaunt(l):
        return ["wigner", "gaunt", "--l", str(l), str(l), str(l), "--m", "0", "0", "0"]

    def decompose(rows):
        return ["su3", "decompose", "--lam1", str(rows - 1), "--lam2", str(rows + 5)]

    def wide(op, entries):
        return ["gelfand", op, "--h", "1", *["0"] * (entries - 1)]

    def untouched(*args):
        raise AssertionError("kernel reached past the cap")

    assert WIGNER_MAX_TWO_J_SUM % 6 == 0   # so that the gaunt cap is reachable
    with monkeypatch.context() as m:
        m.setattr(manybody, "lipkin_spectrum", untouched)
        m.setattr(unitary, "gelfand_enumerate", untouched)
        m.setattr(unitary, "boson_polynomial", untouched)
        m.setattr(wigner, "gaunt", untouched)
        m.setattr(su3, "su3_decompose_multfree", untouched)
        for argv in (lipkin(LIPKIN_MAX_PARTICLES + 2), lipkin(10 ** 9),
                     enumerate_u2(GELFAND_MAX_PATTERNS + 1),
                     ["gelfand", "enumerate", "--h", "60", "30", "0"],
                     ["gelfand", "enumerate", "--h", "40", "30", "20", "10", "0"],
                     # 17,955 patterns of U(20), 210 entries each
                     ["gelfand", "enumerate", "--h", "2", "1", "1", *["0"] * 17],
                     decompose(SU3_DECOMPOSE_MAX_ROWS + 1), decompose(10 ** 6),
                     *(poly(n, cap + 1) for n, cap in GELFAND_POLY_MAX_TOP_SUM.items()),
                     poly(4, 10 ** 6), poly(max(GELFAND_POLY_MAX_TOP_SUM) + 1, 1), poly(20, 0),
                     gaunt(WIGNER_MAX_TWO_J_SUM // 6 + 1), gaunt(100000)):
            env, code = run(argv)
            assert code == 1 and "cap" in env.message, (argv, env.message)
        # a negative entry would make a kernel exponent negative
        env, code = run(["gelfand", "poly", "--pattern", "1 0 -1 / 0 0 / 0"])
        assert code == 1, env.message
        # a negative lam has no irrep, and no empty table or zero stands for it
        for lams in (("-5", "3"), ("3", "-1")):
            env, code = run(["su3", "decompose", "--lam1", lams[0], "--lam2", lams[1]])
            assert code == 1 and ">= 0" in env.message, (lams, env.message)
        env, code = run(["su3", "isoscalar", "--lam1", "-1", "--lam2", "3", "--lam3", "2",
                         "--mu3", "0", "--chain1", "0", "0", "--chain2", "0", "0",
                         "--chain3", "0", "0"])
        assert code == 1 and ">= 0" in env.message, env.message
    # a negative 2j (or l) labels no state, and no zero stands for it
    with monkeypatch.context() as m:
        for name in ("threej", "clebsch_gordan", "sixj_gf", "sixj_oracle", "ninej", "gaunt"):
            m.setattr(wigner, name, untouched)
        for argv in (["wigner", "3j", "--two-j", "-2", "2", "4", "--two-m", "0", "0", "0"],
                     ["wigner", "cg", "--two-j", "2", "-2", "4", "--two-m", "0", "0", "0"],
                     ["wigner", "6j", "--two-j", "-2", "2", "2", "2", "2", "2"],
                     ["wigner", "6j", "--two-j", "2", "2", "2", "2", "2", "-2",
                      "--route", "oracle"],
                     ["wigner", "9j", "--two-j", "1", "1", "2", "1", "1", "2", "2", "2", "-2"],
                     ["wigner", "gaunt", "--l", "-1", "1", "2", "--m", "0", "0", "0"]):
            env, code = run(argv)
            assert code == 1 and ">= 0" in env.message, (argv, env.message)
    # the Weyl formula itself is refused an --h longer than the cap
    with monkeypatch.context() as m:
        m.setattr(unitary, "weyl_dimension", untouched)
        for op in ("dim", "enumerate"):
            for argv in (wide(op, GELFAND_MAX_ROW + 1),
                         ["gelfand", op, "--h", *map(str, range(999, -1, -1))]):
                env, code = run(argv)
                assert code == 1 and "cap" in env.message, (argv[:3], env.message)
    # manybody overlap, lowdin and thouless refuse their --m and --n-occ
    # before numpy draws the M x M matrix; SLATER_MAX_ORBITALS is the bound
    # SlaterSystem keeps for library callers
    import numpy as np
    from gfkit.cli import SLATER_MAX_ORBITALS
    with pytest.raises(ValueError):
        manybody.SlaterSystem(1, np.eye(SLATER_MAX_ORBITALS + 1).tolist())
    assert manybody.SlaterSystem(1, np.eye(SLATER_MAX_ORBITALS).tolist())
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", untouched)
        for op in ("overlap", "lowdin", "thouless"):
            for m_occ in (["--m", str(SLATER_MAX_ORBITALS + 1)], ["--m", "1000"],
                          ["--m", "-3"], ["--m", "4", "--n-occ", "0"],
                          ["--m", "4", "--n-occ", "5"]):
                env, code = run(["manybody", op, *m_occ])
                assert code == 1 and "n-occ <= m <=" in env.message, (op, m_occ, env.message)
        for n in (CRAMER_MAX_N + 1, 200):
            env, code = run(["manybody", "cramer", "--n", str(n)])
            assert code == 1 and "cap" in env.message, (n, env.message)
        for n_s in (["--n", "-3"], ["--n", "4", "--s", "5"], ["--n", "4", "--s", "-1"]):
            env, code = run(["manybody", "cramer", *n_s])
            assert code == 1 and "s <= n" in env.message, (n_s, env.message)
    assert run(["manybody", "cramer", "--n", str(CRAMER_MAX_N)])[1] == 0
    for op in ("overlap", "lowdin", "thouless"):
        argv = ["manybody", op, "--m", str(SLATER_MAX_ORBITALS), "--n-occ", "5"]
        assert run(argv)[1] == 0, argv
    assert LIPKIN_MAX_PARTICLES % 2 == 0   # the Lipkin model needs even N
    env, code = run(lipkin(LIPKIN_MAX_PARTICLES))
    assert code == 0 and len(env.table["rows"]) == LIPKIN_MAX_PARTICLES + 1
    env, code = run(enumerate_u2(GELFAND_MAX_PATTERNS))
    assert code == 0 and len(env.table["rows"]) == GELFAND_MAX_PATTERNS
    env, code = run(wide("enumerate", GELFAND_MAX_ROW))
    assert code == 0 and len(env.table["rows"]) == GELFAND_MAX_ROW
    env, code = run(wide("dim", GELFAND_MAX_ROW))
    assert code == 0 and env.value_float == GELFAND_MAX_ROW
    env, code = run(decompose(SU3_DECOMPOSE_MAX_ROWS))
    assert code == 0 and len(env.table["rows"]) == SU3_DECOMPOSE_MAX_ROWS
    env, code = run(gaunt(WIGNER_MAX_TWO_J_SUM // 6))
    assert code == 0 and env.value_float != 0
    for n, top in GELFAND_POLY_MAX_TOP_SUM.items():
        env, code = run(poly(n, top))
        assert code == 0 and env.table["rows"] == [["1", f"D1^{top}"]], env.message
    top = GELFAND_POLY_MAX_TOP_SUM[3]
    env, code = run(["gelfand", "poly", "--pattern",
                     f"{top - top // 3} {top // 3} 0 / {top // 2} {top // 4} / {top // 3}"])
    assert code == 0 and env.table["rows"], env.message
    # U(1) has no kernel
    env, code = run(["gelfand", "poly", "--pattern", "3"])
    assert code == 1 and "n >= 2" in env.message, env.message


def test_points_caps_refuse_before_work(monkeypatch):
    # hydrogen position, momentum and verify and oscillator wf and
    # propagator exit 1 below one point and above their documented point
    # caps, the first four above their caps on the recurrence's n and
    # n x points, and verify above its n^2 x points cap, without calling
    # their kernels; exactly at the caps they run.
    from gfkit import oscillator, special
    from gfkit.cli import (HYDROGEN_VERIFY_MAX_POINTS, HYDROGEN_VERIFY_MAX_WORK,
                           PROPAGATOR_MAX_KERNELS, SAMPLES_MAX_DEGREE,
                           SAMPLES_MAX_POINTS, SAMPLES_MAX_WORK)

    def hydrogen(op, points, n=2, l=1):
        return ["hydrogen", op, "--n", str(n), "--l", str(l), "--points", str(points)]

    def wf(points, n=3):
        return ["oscillator", "wf", "--n", str(n), "--points", str(points)]

    # n x points just past its cap at a point count every command accepts
    points = HYDROGEN_VERIFY_MAX_POINTS
    past_work = SAMPLES_MAX_WORK // points + 1
    assert past_work <= SAMPLES_MAX_DEGREE
    recurrence = [argv for n, pts in ((SAMPLES_MAX_DEGREE + 1, 1), (10 ** 9, 1),
                                      (past_work, points))
                  for argv in (wf(pts, n), *(hydrogen(op, pts, n, 0) for op in
                                             ("position", "momentum", "verify")))]

    def propagator(points):
        return ["oscillator", "propagator", "--beta", "1", "--points", str(points)]

    def untouched(*args):
        raise AssertionError("kernel reached past the cap")

    side = math.isqrt(PROPAGATOR_MAX_KERNELS)
    assert side * side == PROPAGATOR_MAX_KERNELS   # so that the cap is reachable
    # every n <= 18 keeps the whole point cap; n = 19 has fewer points
    assert 18 * 18 * HYDROGEN_VERIFY_MAX_POINTS <= HYDROGEN_VERIFY_MAX_WORK
    past_verify = hydrogen("verify", HYDROGEN_VERIFY_MAX_WORK // 19 ** 2 + 1, 19, 0)
    with monkeypatch.context() as m:
        for name in ("hydrogen_radial", "hydrogen_momentum_radial",
                     "fourier_momentum_oracle"):
            m.setattr(special, name, untouched)
        for name in ("ho_wavefunction", "ho_propagator"):
            m.setattr(oscillator, name, untouched)
        for argv in (hydrogen("position", SAMPLES_MAX_POINTS + 1),
                     hydrogen("momentum", SAMPLES_MAX_POINTS + 1),
                     hydrogen("position", 10 ** 12),
                     hydrogen("verify", HYDROGEN_VERIFY_MAX_POINTS + 1),
                     hydrogen("verify", 10 ** 9),
                     wf(SAMPLES_MAX_POINTS + 1), wf(10 ** 12),
                     propagator(side + 1), propagator(10 ** 6), past_verify,
                     *recurrence):
            env, code = run(argv)
            assert code == 1 and "cap" in env.message, (argv, env.message)
        # an empty or negative grid is refused too, not sampled
        for points in (0, -1):
            for argv in (*(hydrogen(op, points) for op in ("position", "momentum", "verify")),
                         wf(points), propagator(points)):
                env, code = run(argv)
                assert code == 1 and "below 1" in env.message, (argv, env.message)
    for argv in (hydrogen("position", SAMPLES_MAX_POINTS),
                 hydrogen("momentum", SAMPLES_MAX_POINTS),
                 hydrogen("verify", HYDROGEN_VERIFY_MAX_POINTS),
                 wf(SAMPLES_MAX_POINTS)):
        env, code = run(argv)
        assert code == 0, (argv, env.message)
    env, code = run(propagator(side))
    assert code == 0 and len(env.table["rows"]) == PROPAGATOR_MAX_KERNELS
    # one run at both recurrence caps; near r = 0 the samples are finite
    assert SAMPLES_MAX_WORK % SAMPLES_MAX_DEGREE == 0
    env, code = run([*hydrogen("position", SAMPLES_MAX_WORK // SAMPLES_MAX_DEGREE,
                               SAMPLES_MAX_DEGREE, 0), "--rmax", "1e-3"])
    assert code == 0 and len(env.table["rows"]) == SAMPLES_MAX_WORK // SAMPLES_MAX_DEGREE


def test_exact_commands_load_no_numpy():
    # Each command imports only its own kernel: in one fresh interpreter,
    # wigner, gelfand and the exact su3 commands (decompose, wigner,
    # isoscalar) load neither numpy nor scipy, and su3 euler, manybody,
    # hurwitz, oscillator and hydrogen position and momentum add numpy but
    # not scipy.
    exact_su3 = [a for a in CORPUS if a[:2] in (["su3", "decompose"], ["su3", "isoscalar"])]
    su3_wigner = ["su3", "wigner", "--lam1", "1", "--lam2", "1", "--lam3", "0", "--mu3", "1",
                  "--a1", "1", "1", "1", "--a2", "-2", "0", "0", "--a3", "-1", "1", "1"]
    stages = [[a for a in CORPUS if a[0] in ("wigner", "gelfand")] + exact_su3 + [su3_wigner],
              [a for a in CORPUS if a[:2] == ["su3", "euler"]
               or a[0] in ("manybody", "hurwitz", "oscillator")
               or a[:2] in (["hydrogen", "position"], ["hydrogen", "momentum"])]]
    assert len(exact_su3) == 2
    assert {"su3 euler", "hydrogen position", "hydrogen momentum"} <= {
        " ".join(a[:2]) for a in stages[1]}
    driver = (
        "import sys\n"
        "from gfkit.cli import run_command\n"
        f"for argvs in {stages!r}:\n"
        "    for argv in argvs:\n"
        "        assert run_command(argv)[1] == 0, argv\n"
        "    print([m for m in ('numpy', 'scipy') if m in sys.modules])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-c", driver], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert res.stdout.splitlines() == ["[]", "['numpy']"]


def test_numeric_commands_load_no_exact_kernel():
    # The package re-exports nothing, so in one fresh interpreter the
    # gelfand, hurwitz, hydrogen, oscillator and manybody commands and a
    # usage error load neither gfkit.exact nor gfkit.wigner.
    groups = ("gelfand", "hurwitz", "hydrogen", "oscillator", "manybody")
    argvs = [a for a in CORPUS if a[0] in groups]
    assert {a[0] for a in argvs} == set(groups)
    driver = (
        "import sys\n"
        "from gfkit.cli import run_command\n"
        f"for argv in {argvs!r}:\n"
        "    assert run_command(argv)[1] == 0, argv\n"
        "assert run_command(['frobnicate'])[1] == 2\n"
        "print([m for m in ('gfkit.exact', 'gfkit.wigner') if m in sys.modules])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-c", driver], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert res.stdout.splitlines() == ["[]"]


if __name__ == "__main__":
    records = [json.dumps(golden_record(a)) for a in CORPUS + ERROR_ARGVS]
    GOLDEN.write_text("[\n" + ",\n".join(records) + "\n]\n")
