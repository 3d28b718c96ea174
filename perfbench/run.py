"""gfkit benchmark: run one workload, check every output exactly, print
each metric by name with its unit, and end with one JSON result line.

    python3 perfbench/run.py --workload recoupling-small --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each measurement is a fresh interpreter on
PYTHONPATH=src (worker.py).  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 the run is made twice, untraced and traced, and the
metrics are the per-layer ones plus the tracing overhead.  Full results,
the environment and the spans go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import probe  # noqa: E402
from workloads import NUMERIC_MODULES, OUT_DIR, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3       # set-ups measured per run; setup_s is their median
WORKER_TIMEOUT = 170

LAYERS = ("exact.square_free_split", "exact.SqrtRational.from_square",
          "wigner.threej", "wigner.clebsch_gordan", "wigner.sixj_gf",
          "polytools.TruncatedSeries.inverse", "wigner.ninej",
          "su3.coupling_table", "su3.su3_isoscalar", "polytools.poly_mul",
          "polytools.bargmann_dot", "cli.main", "cli.run_command", "cli.render", "bench.op")
HIT_RATIOS = ("wigner.threej.hit_ratio", "su3.coupling_table.hit_ratio")
EXTRA = (("cli.interpreter.s", "cli.import.s")
         + tuple(f"{m}.s" for m in NUMERIC_MODULES) + ("numpy.s", "scipy.s"))


def percentile(sorted_vals, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def environment(seed):
    def version(pkg):
        try:
            from importlib.metadata import version as v
            return v(pkg)
        except Exception:
            return "absent"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": os.cpu_count(), "seed": seed}


def worker(a, extra=()):
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), *extra]
    before = probe.probe()
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT, check=True)
    res = json.loads(proc.stdout.decode().splitlines()[-1])
    # set-up at reference speed, scaled by the probes on either side of it
    res["raw_setup_s"] = res["setup_s"]
    res["setup_s"] *= 2 * probe.REF_S / (before + res["setup_probe_s"])
    return res


def end_to_end(res, setups):
    lat = sorted(res["lat_s"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["attempted"] / sum(res["lat_s"]), "1/s"),
        "lat_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "lat_tail_ms": (percentile(lat, res["tail_pct"]) * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(plain, traced):
    m = {}
    for name in LAYERS:
        m[f"{name}.s"] = (traced["self_s"].get(name, 0.0), "s")
        m[f"{name}.calls"] = (traced["calls"].get(name, 0), "count")
    for name in HIT_RATIOS:
        m[name] = (traced["hit_ratio"].get(name, 0.0), "ratio")
    for name in EXTRA:
        m[name] = (traced["extra"].get(name, 0.0), "s")
    plain_rate = plain["attempted"] / sum(plain["lat_s"])
    traced_rate = traced["attempted"] / sum(traced["lat_s"])
    m["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    m["trace.ops_per_s"] = (traced_rate, "1/s")
    m["trace.overhead_pct"] = (100 * (plain_rate - traced_rate) / plain_rate, "%")
    m["trace.spans"] = (traced["spans"], "count")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "gfkit", "__init__.py")):
        sys.exit("run from the gfkit repository root: src/gfkit not found")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(a.seed)

    if a.trace:
        plain = worker(a, ["--no-check"])
        spans = os.path.join(OUT_DIR, f"spans-{a.workload}-{a.seed}.json")
        res = worker(a, ["--spans", spans])
        metrics = per_layer(plain, res)
        runs = [plain, res]
    else:
        setups = [worker(a, ["--setup-only"])["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        res = worker(a)
        setups.append(res["setup_s"])
        metrics = end_to_end(res, setups)
        runs = [res]
    attempted, failed = res["attempted"], res["failed"]

    for k, v in env.items():
        print(f"env {k} {v}")
    print(f"ops attempted {attempted} failed {failed} fail_frac {failed / attempted:.6g}")
    print(f"lat_tail_ms is p{res['tail_pct']:g} of {res['attempted']} operations")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    with open(os.path.join(OUT_DIR, f"result-{a.workload}-{a.seed}-trace{a.trace}.json"), "w") as fh:
        json.dump({"env": env, "workload": a.workload, "seconds": a.seconds,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "latency_ms": {f"{kind}p{q:g}": percentile(sorted(res[key]), q) * 1e3
                                  for kind, key in (("", "lat_s"), ("raw_", "raw_lat_s"))
                                  for q in (50, 90, 95, 98, 99, 99.5, 99.9, 99.95, 99.98, 100)},
                   "runs": [{k: v for k, v in r.items() if not k.endswith("lat_s")}
                            for r in runs]},
                  fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
