"""Input generator for the qunravel benchmark.

Every input a workload needs is made here from the workload seed and written
as JSON; the program under test sees only these files.  The same seed gives
the same files.

    python3 perfbench/inputs.py --workload simulate-trace --seed 3 --out DIR

writes the inputs of one workload to DIR and prints its plan as JSON.
"""

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("oracle-d32", "simulate-trace", "verify-suite")

# Workload seed 0 reproduces the bundled suite; other seeds shift every
# per-check seed by a multiplicative-hash step.
DEFAULT_SEED = 0
_SEED_STEP = 2654435761

BUNDLED_SUITE = os.path.join("src", "qunravel", "data", "default_suite.json")


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def derived_seed(bundled, seed):
    return (int(bundled) + _SEED_STEP * int(seed)) % 2 ** 32


def reseed_suite(suite, seed):
    """Copy of a suite whose per-check seeds derive from the workload seed."""
    out = copy.deepcopy(suite)
    for entry in out["checks"]:
        if "seed" in entry:
            entry["seed"] = derived_seed(entry["seed"], seed)
        if "integration" in entry:
            raw = entry["integration"]
            raw["seed"] = derived_seed(raw.get("seed", 0), seed)
    return out


def _steps(t, dt, what):
    k = round(t / dt)
    if k < 1 or abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what}={t} is not a positive multiple of dt={dt}")
    return k


def check_step_grid(suite):
    """Every statistical entry ends on the step grid and checks on it."""
    for entry in suite["checks"]:
        if "integration" not in entry:
            continue
        dt = entry["integration"]["dt"]
        n = _steps(entry["integration"]["t_final"], dt, "t_final")
        times = entry.get("checkpoints", []) + ([entry["t"]] if "t" in entry else [])
        for t in times:
            if _steps(t, dt, "checkpoint") > n:
                raise ValueError(f"checkpoint {t} lies beyond t_final")


def suite_traj_steps(suite):
    """Trajectory-steps one run of the suite integrates (fault runs included)."""
    total = 0
    for entry in suite["checks"]:
        if "integration" not in entry:
            continue
        raw = entry["integration"]
        n_steps = round(raw["t_final"] / raw["dt"])
        ensembles = len(entry.get("freedoms", [None]))
        total += ensembles * entry["trajectories"] * n_steps
    return total


def random_model(rng, d, n_ops):
    """Hermitian H and Lindblad operators of unit spectral norm."""
    from qunravel.scenario import complex_to_pairs

    def gaussian():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    A = gaussian()
    H = (A + A.conj().T) / (2.0 * math.sqrt(d))
    ops = []
    for _ in range(n_ops):
        G = gaussian()
        ops.append(G / np.linalg.norm(G, 2))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return {
        "dim": d,
        "hamiltonian": complex_to_pairs(H),
        "lindblad_ops": [complex_to_pairs(L) for L in ops],
        "freedom": "standard",
        "psi0": complex_to_pairs(psi),
    }


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def generate(workload, seed, out_dir, root="."):
    """Write the workload's inputs to out_dir and return its plan.

    The plan holds the CLI commands of one iteration (with "{out}" standing
    for a fresh output directory), the trajectory-steps one iteration
    integrates, and what the correctness gate checks for each command.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    if workload == "verify-suite":
        with open(os.path.join(root, BUNDLED_SUITE)) as fh:
            suite = reseed_suite(json.load(fh), seed)
        check_step_grid(suite)
        path = os.path.join(out_dir, "suite.json")
        _write(path, suite)
        threads = str(min(2, nproc()))
        commands = [["verify", "--scenario", path, "--out", "{out}",
                     "--threads", threads]]
        gates = [{"kind": "verify", "checks": len(suite["checks"])}]
        traj_steps = suite_traj_steps(suite)
    elif workload == "simulate-trace":
        scenario = random_model(rng, 4, 2)
        scenario["integration"] = {"dt": 0.001, "t_final": 1.0,
                                   "seed": int(rng.integers(2 ** 32))}
        scenario["trajectories"] = 1024
        path = os.path.join(out_dir, "d4.json")
        _write(path, scenario)
        commands = [["simulate", "--scenario", path, "--out", "{out}"]]
        gates = [{"kind": "simulate", "scenario": path}]
        traj_steps = suite_traj_steps({"checks": [scenario]})
    elif workload == "oracle-d32":
        scenario = random_model(rng, 32, 2)
        scenario["integration"] = {"dt": 0.001, "t_final": 0.2,
                                   "seed": int(rng.integers(2 ** 32))}
        scenario["trajectories"] = 128
        scenario["checkpoints"] = [0.05, 0.1, 0.15, 0.2]
        suite = {"checks": [dict(scenario, check="ensemble-vs-exact")]}
        check_step_grid(suite)
        scenario_path = os.path.join(out_dir, "d32.json")
        suite_path = os.path.join(out_dir, "d32_suite.json")
        _write(scenario_path, scenario)
        _write(suite_path, suite)
        commands = [
            ["verify", "--scenario", suite_path, "--out", "{out}"],
            ["choi", "--scenario", scenario_path, "--out", "{out}",
             "--time", "0.2"],
        ]
        gates = [{"kind": "verify", "checks": 1},
                 {"kind": "choi", "dim": 32, "time": 0.2}]
        traj_steps = suite_traj_steps(suite)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": int(seed), "commands": commands,
            "gates": gates, "traj_steps": traj_steps}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    print(json.dumps(generate(args.workload, args.seed, args.out), indent=2))


if __name__ == "__main__":
    main()
