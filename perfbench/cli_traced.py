"""Traced stand-in for `python -m gfkit.cli`: wraps run_command and render
from outside, runs gfkit.cli.main on the given argv, and appends the
process's spans and per-layer self times as one JSON line to the file
named by PERFBENCH_CLI_TRACE when it exits.  Its stdout and exit code are
those of the real CLI.
"""
import json
import os
import sys

from tracer import Tracer


def main():
    tracer = Tracer()
    import gfkit.cli as cli
    tracer.patch(cli, "run_command", "cli.run_command")
    tracer.patch(cli, "render", "cli.render")
    code = tracer.wrap("cli.main", cli.main)(sys.argv[1:])
    tracer.unpatch()
    spans = [(tracer.names[tracer.name_id[i]], tracer.parent[i],
              tracer.end[i] - tracer.start[i]) for i in range(len(tracer.start))]
    with open(os.environ["PERFBENCH_CLI_TRACE"], "a") as fh:
        fh.write(json.dumps({"self_s": tracer.self_s, "calls": tracer.calls,
                             "spans": spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
