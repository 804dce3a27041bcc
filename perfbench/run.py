"""qunravel benchmark: closed-loop CLI workloads with a correctness gate.

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 30 --trace 0

Run from the root of a qunravel checkout; the package is imported from its
``src`` directory.  One client runs the workload's CLI commands one after
another for ``--seconds``, each iteration of the workload in a worker
process of its own.  Every output is then gated for correctness.  The last
line printed is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of traced iterations,
alternated with plain ones, named as in BENCHMARK.json.  A full record,
with the environment and, when traced, every span, is written under
``perfbench_runs/``.
"""

import argparse
import functools
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gate
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = "perfbench_runs"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

# Time `import qunravel`, plus the numba JIT warm-up when numba is the backend.
SETUP_CODE = """
import time
start = time.perf_counter()
import qunravel
from qunravel import kernels
if kernels.active_backend() == "numba":
    import numpy as np
    kernels.simulate_chunk(np.array([1, 0], complex), np.zeros((2, 2), complex),
                           np.zeros((1, 2, 2), complex), 1e-3,
                           np.zeros((1, 1, 1)), True, np.array([1]))
print(time.perf_counter() - start)
"""


def worker_env(src):
    """Environment of the workload processes: the checkout's package first
    on the path, and BLAS/OpenMP pools of at most nproc threads."""
    env = dict(os.environ)
    limit = inputs.nproc()
    for var in BLAS_THREAD_VARS:
        try:
            env[var] = str(min(int(env[var]), limit))
        except (KeyError, ValueError):
            env[var] = str(limit)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(env, backend):
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": inputs.nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": _version("numba"),
        "backend": backend,
        "QUNRAVEL_BACKEND": env.get("QUNRAVEL_BACKEND"),
        "thread_env": {var: env[var] for var in BLAS_THREAD_VARS},
    }


def measure_setup(env, deadline):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        samples.append(float(out.stdout.split()[-1]))
    return samples


def run_worker(plan, work, run, trace, env, deadline):
    """One iteration in a fresh worker process; returns its result."""
    commands = []
    for j, argv in enumerate(plan["commands"]):
        out = os.path.join(work, f"run{run}-cmd{j}")
        commands.append({"argv": [out if a == "{out}" else a for a in argv],
                         "out": out})
    plan_path = os.path.join(work, f"plan-{run}.json")
    result_path = os.path.join(work, f"result-{run}.json")
    with open(plan_path, "w") as fh:
        json.dump({"src": env["PYTHONPATH"].split(os.pathsep)[0], "run": run,
                   "commands": commands, "trace": trace}, fh)
    # The CLI's console lines go to stderr; stdout carries only the result.
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    plan_path, result_path], env=env, stdin=subprocess.DEVNULL,
                   stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result_path) as fh:
        result = json.load(fh)
    result["traced"] = trace
    return result


def run_iterations(plan, work, seconds, trace, env, deadline):
    """The closed loop: iterations back to back, each in its own process.

    The next iteration starts only while the last one's duration still fits
    in the window, so a run measures at least one iteration and rarely
    overruns.  A traced run alternates plain and traced iterations and
    measures at least one of each, so that both see the same conditions.
    """
    iterations = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        traced = trace and len(iterations) % 2 == 1
        iterations.append(run_worker(plan, work, len(iterations), traced, env,
                                     deadline))
        last = time.monotonic() - began
        if (len(iterations) >= 1 + trace
                and time.monotonic() - start + last > seconds):
            return iterations


def make_gates(plan):
    """One callable per command of an iteration: output dir -> problems."""
    import numpy as np
    from qunravel import lindblad, verify
    from qunravel.scenario import parse_scenario

    gates = []
    for spec in plan["gates"]:
        if spec["kind"] == "verify":
            gates.append(functools.partial(gate.check_verify,
                                           n_checks=spec["checks"]))
        elif spec["kind"] == "choi":
            gates.append(functools.partial(gate.check_choi, d=spec["dim"],
                                           t=spec["time"]))
        else:
            sc = parse_scenario(spec["scenario"])
            cfg = sc.integration
            times = cfg.record_times()
            exact = lindblad.propagate_exact(
                sc.model(), np.outer(sc.psi0, sc.psi0.conj()), times[-1])
            gates.append(functools.partial(
                gate.check_simulate, d=sc.dim, times=times, exact_final=exact,
                tolerance=verify.statistical_tolerance(sc.trajectories, cfg.dt,
                                                       sc.dim)))
    return gates


def gate_commands(iterations, gates):
    """Annotate every command with its problems; return (attempted, failed)."""
    attempted = failed = 0
    for it in iterations:
        for command, check in zip(it["commands"], gates):
            if command["error"] is not None:
                problems = ["raised"]
            elif command["exit_code"] != 0:
                problems = [f"exit code {command['exit_code']}"]
            else:
                try:
                    problems = check(command["out"])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            command["problems"] = problems
            for problem in problems:
                print(f"gate: {' '.join(command['argv'])}: {problem}",
                      file=sys.stderr)
            attempted += 1
            failed += bool(problems)
            shutil.rmtree(command["out"], ignore_errors=True)
    return attempted, failed


def end_to_end(plain, plan, setup_samples):
    walls = [it["wall_s"] for it in plain]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "msteps_per_s": statistics.median(plan["traj_steps"] / w / 1e6
                                          for w in walls),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
    }


def per_layer(traced, plain):
    metrics = {name: statistics.median(it["layers"][name] for it in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (
        statistics.median(it["wall_s"] for it in traced)
        - statistics.median(it["wall_s"] for it in plain))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qunravel", "__init__.py")):
        sys.exit(f"error: no qunravel sources under {src}; "
                 "run from the root of a qunravel checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")
    sys.path.insert(0, src)
    import qunravel

    if not os.path.abspath(qunravel.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported qunravel from {qunravel.__file__}, not {src}")
    work = os.path.join(root, RUNS_DIR, f"work-{os.getpid()}")
    try:
        plan = inputs.generate(args.workload, args.seed,
                               os.path.join(work, "inputs"), root)
        gates = make_gates(plan)
        env = worker_env(src)
        setup_samples = measure_setup(env, deadline)
        iterations = run_iterations(plan, work, args.seconds, bool(args.trace),
                                    env, deadline)
        attempted, failed = gate_commands(iterations, gates)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    for boundary in traced[0]["untraced"] if traced else ():
        print(f"warning: {boundary} not found, so not traced", file=sys.stderr)

    if args.trace:
        values, listed = per_layer(traced, plain), spec["per_layer"]
    else:
        values, listed = end_to_end(plain, plan, setup_samples), spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        sys.exit("error: computed metrics do not match BENCHMARK.json: "
                 f"{sorted(set(values) ^ {m['name'] for m in listed})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    env_record = environment(env, plain[0]["backend"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env_record, "plan": plan,
              "setup_samples_s": setup_samples, "iterations": iterations,
              "metrics": metrics}
    record_path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}"
                                         f"-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh)

    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced iterations, "
          f"failed_ops {failed} of {attempted} attempted, record {record_path}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
