"""One workload run in a fresh interpreter (started by run.py with
PYTHONPATH=src).  Prints one JSON object on stdout.

Set-up is everything from interpreter start (the parent's monotonic clock
reading, passed as --t0) to the first timed call: imports plus input
generation.  The timed phase is a closed loop with one caller; times are
reported raw and at reference speed (see probe.py).  Outputs are
spooled to a file, so memory does not grow with the number of operations,
and checked after the loop, outside the timed phase, split between this
process and one helper process started with --check-part.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import resource
import subprocess
import sys
import time
from array import array

import probe
from workloads import OUT_DIR, WORKLOADS


class Raised:
    """Spooled in place of the output of an operation that raised."""

    def __init__(self, text):
        self.text = text


def check_spool(wl, ops, path, done, part, parts=2):
    """Failed operations among those with index % parts == part.  Each
    distinct operation is checked against its second route once; a repeat of
    it must return exactly the verified value."""
    failed = 0
    verified = {}
    with open(path, "rb") as fh:
        for i in range(done):
            out = pickle.load(fh)
            if i % parts != part:
                continue
            j = i % len(ops)
            if j not in verified:
                kind, args = ops[j]
                ok = not isinstance(out, Raised) and wl.check(kind, args, out)
                verified[j] = out if ok else None
            if verified[j] is None or out != verified[j]:
                failed += 1
    return failed


def timed_loop(wl, ops, seconds, spool, tracer):
    """Closed loop over the pool: the first operation, which pays the lazy
    caches, then `seconds` more at reference speed, then the rest of the
    unit of work in progress.  Returns the operations' start and end times,
    the speed probe that ran meanwhile, and the phase's start and end."""
    starts, ends = array("d"), array("d")
    op = tracer.wrap("bench.op", wl.run) if tracer else wl.run
    n, done = len(ops), 0
    speed = probe.SpeedProbe()
    speed.start()
    t = phase_start = time.perf_counter()
    while (done == 0 or speed.since_mark(t) < seconds
           or not wl.starts_unit(ops[done % n][0])):
        kind, args = ops[done % n]
        if tracer:
            tracer.current_op = done
        try:
            out = op(kind, args)
        except Exception as exc:  # counted as a failed operation
            out = Raised(repr(exc))
        t1 = time.perf_counter()
        starts.append(t)
        ends.append(t1)
        pickle.dump(out, spool, pickle.HIGHEST_PROTOCOL)
        done += 1
        t = time.perf_counter()
        if done == 1:
            speed.mark(t)
    speed.stop()
    return starts, ends, speed, phase_start, t


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="trace and write spans here")
    ap.add_argument("--no-check", action="store_true",
                    help="skip the output check (untraced twin of a traced run)")
    ap.add_argument("--check-part", nargs=2, metavar=("SPOOL", "DONE"),
                    help="check the odd-indexed outputs of a spool and exit")
    a = ap.parse_args()

    wl = WORKLOADS[a.workload]()
    ops = wl.setup(random.Random(a.seed))
    if a.check_part:
        print(json.dumps({"failed": check_spool(wl, ops, a.check_part[0],
                                                int(a.check_part[1]), part=1)}))
        return
    counters = wl.hit_counters()
    tracer = None
    if a.spans:
        from tracer import Tracer
        tracer = Tracer()
        wl.trace(tracer)
    before = {k: c.cache_info() for k, c in counters.items()}
    setup_s = time.monotonic() - a.t0
    setup_probe = probe.probe()
    if a.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe}))
        return

    spool_path = os.path.join(OUT_DIR, f"spool-{os.getpid()}.bin")
    with open(spool_path, "wb") as spool:
        starts, ends, speed, t0, t1 = timed_loop(wl, ops, a.seconds, spool, tracer)
    done = len(starts)
    ru = resource.getrusage(resource.RUSAGE_CHILDREN if a.workload == "cli-mix"
                            else resource.RUSAGE_SELF)
    result = {"setup_s": setup_s, "setup_probe_s": setup_probe, "attempted": done,
              "elapsed_s": speed.scaled([t0], [t1])[0], "raw_elapsed_s": speed.raw([t0], [t1])[0],
              "probes": len(speed.dur), "probe_median_s": sorted(speed.dur)[len(speed.dur) // 2],
              "peak_rss_mb": ru.ru_maxrss / 1024, "tail_pct": wl.tail_pct}
    if tracer:
        tracer.unpatch()
        result["extra"] = wl.trace_finish(tracer)
        tracer.dump(a.spans)
        result.update(self_s=tracer.self_s, calls=tracer.calls, spans=len(tracer.start),
                      spans_dropped=tracer.dropped)
    after = {k: c.cache_info() for k, c in counters.items()}
    result["hit_ratio"] = {}
    for k in counters:
        h, m = after[k].hits - before[k].hits, after[k].misses - before[k].misses
        result["hit_ratio"][k] = h / (h + m) if h + m else 0.0

    check_start = time.perf_counter()
    failed = 0
    if not a.no_check:
        helper = subprocess.Popen(
            [sys.executable, __file__, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", "0", "--t0", "0", "--check-part", spool_path, str(done)],
            stdout=subprocess.PIPE)
        try:
            failed = check_spool(wl, ops, spool_path, done, part=0)
        finally:
            helper_out, _ = helper.communicate()
        if helper.returncode:
            raise RuntimeError("output check helper failed")
        failed += json.loads(helper_out)["failed"]
    os.remove(spool_path)
    result.update(failed=failed, check_s=time.perf_counter() - check_start,
                  lat_s=speed.scaled(starts, ends), raw_lat_s=speed.raw(starts, ends))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
