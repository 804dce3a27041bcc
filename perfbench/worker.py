"""Workload process of the qunravel benchmark: one iteration of a workload,
its CLI commands run one after another in this process.

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the checkout's ``src`` directory, the iteration's run id,
the argv and output directory of each command, and whether to trace.  Each
command is timed around ``cli.main``; outputs are left in place for the
correctness gate, which runs in the parent.
"""

import json
import os
import resource
import sys
import time
import traceback


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from qunravel import cli, kernels

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.run = plan["run"]
        tracer.install()

    commands = []
    for command in plan["commands"]:
        argv = command["argv"]
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a failed operation is counted, not fatal
            code = None
            error = traceback.format_exc()
        commands.append(dict(command, exit_code=code, error=error,
                             seconds=time.perf_counter() - start))

    result = {
        "qunravel_file": cli.__file__,
        "backend": kernels.active_backend(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": sum(c["seconds"] for c in commands),
        "commands": commands,
    }
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics

        written = sum(_tree_bytes(c["out"]) for c in commands)
        result["layers"] = layer_metrics(tracer.spans, written)
        result["spans"] = [list(s) for s in tracer.spans]
        result["untraced"] = tracer.missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
