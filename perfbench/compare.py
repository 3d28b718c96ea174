"""Compare a parent and a change checkout with the benchmark, pair by pair.

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload recoupling-small --metric ops_per_s

Both checkouts must hold the same benchmark.  For every workload in
BENCHMARK.json it makes ten runs of each side,
alternating which side runs first, with the same seed for both runs of a
pair.  The claimed metric on the claimed workload is a gain only if the
change wins at least nine tenths of the pairs (ties count for neither) and
the medians differ by more than the parent's quartile spread.  Every other
end-to-end metric and workload pairing must keep the change's median within
the metric's bound of the parent's; where the parent's own spread is wider
than the bound the pairing is reported unresolved, unless every change run
is better than every parent run.  The report goes to stdout and to
.perfbench_out/compare.json in the change checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10


def benchmark_files(checkout):
    """{relative path: bytes} of BENCHMARK.json and the files under perfbench/."""
    out = {"BENCHMARK.json": open(os.path.join(checkout, "BENCHMARK.json"), "rb").read()}
    top = os.path.join(checkout, "perfbench")
    for root, dirs, files in os.walk(top):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, checkout)] = open(path, "rb").read()
    return out


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    if not res["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed its output check")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartile_spread(vals):
    q = statistics.quantiles(vals, n=4)
    return q[2] - q[0]


def judge_claim(parent, change, better):
    """Win rule and quartile-spread rule for the claimed metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    diff = sign * (statistics.median(change) - statistics.median(parent))
    ok = wins >= 0.9 * len(parent) and diff > quartile_spread(parent)
    return {"verdict": "gain" if ok else "not shown", "wins": wins, "pairs": len(parent),
            "median_diff": diff, "parent_spread": quartile_spread(parent)}


def judge_bound(parent, change, better, bound):
    """Regression check of one metric and workload pairing against its bound."""
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    worse = sign * (pm - cm) / pm        # share of the parent's median lost
    out = {"parent_median": pm, "change_median": cm, "worse_by": worse, "bound": bound}
    if quartile_spread(parent) / pm > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        out["verdict"] = "better" if all_better else "unresolved"
    else:
        out["verdict"] = "regression" if worse > bound else "within bound"
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="workload of the claim")
    ap.add_argument("--metric", required=True, help="end-to-end metric of the claim")
    ap.add_argument("--seed-base", type=int, default=1000,
                    help="first seed; pick seeds not used while writing the change")
    a = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if a.metric not in metrics:
        sys.exit(f"unknown metric {a.metric}")
    workloads = [w["name"] for w in bench["workloads"]]
    if a.workload not in workloads:
        sys.exit(f"unknown workload {a.workload}")

    if benchmark_files(a.parent) != benchmark_files(a.change):
        sys.exit("the two checkouts hold different benchmark code")

    report = {"claim": {"workload": a.workload, "metric": a.metric}, "rows": []}
    for wl in workloads:
        vals = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                vals[side].append(run_once(getattr(a, side), wl, a.seed_base + i,
                                           bench["run_seconds"]))
        for name, m in metrics.items():
            p = [v[name] for v in vals["parent"]]
            c = [v[name] for v in vals["change"]]
            row = {"workload": wl, "metric": name, "parent": p, "change": c}
            if (wl, name) == (a.workload, a.metric):
                row.update(judge_claim(p, c, m["better"]))
            else:
                row.update(judge_bound(p, c, m["better"], m["bound"]))
            report["rows"].append(row)
            print(f"{wl:18s} {name:12s} parent {statistics.median(p):.5g} "
                  f"change {statistics.median(c):.5g} {row['verdict']}", flush=True)
    out_dir = os.path.join(a.change, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "compare.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    bad = [r for r in report["rows"] if r["verdict"] in ("regression", "not shown")]
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
