import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfkit.cli import ResultEnvelope, render, run_command
from gfkit.exact import parse_sqrt_rational
from gfkit.wigner import threej


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


def test_usage_error():
    env, code = run(["frobnicate"])
    assert code == 2 and env.status == "error"
    env, code = run(["wigner", "3j", "--two-j", "2", "2"])
    assert code == 2


def test_domain_error_exit_one():
    env, code = run(["gelfand", "weight", "--pattern", "2 0 / 3"])
    assert code == 1 and env.status == "error"


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


def test_wigner_size_cap_refuses_before_work():
    # wigner 3j, cg and 6j exit 1 above the documented caps on the sum of
    # |2j|, before the factorial table or the 3j cache is touched; at the
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
    before = len(factorials._table), _threej_core.cache_info()
    for cap, op, route in cases:
        assert cap % 6 == 0   # so that argv(cap, ...) sums to the cap exactly
        env, code = run(argv(cap + 6, op, route))
        assert code == 1 and "cap" in env.message, env.message
    assert (len(factorials._table), _threej_core.cache_info()) == before
    for cap, op, route in cases:
        assert run(argv(cap, op, route))[1] == 0


def test_exact_commands_load_no_numpy():
    # Each command imports only its own kernel: in one fresh interpreter,
    # wigner and gelfand load neither numpy nor scipy, and su3, manybody,
    # hurwitz and oscillator add numpy but not scipy.
    stages = [[a for a in CORPUS if a[0] in groups]
              for groups in (("wigner", "gelfand"),
                             ("su3", "manybody", "hurwitz", "oscillator"))]
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


if __name__ == "__main__":
    records = [json.dumps(golden_record(a)) for a in CORPUS + ERROR_ARGVS]
    GOLDEN.write_text("[\n" + ",\n".join(records) + "\n]\n")
