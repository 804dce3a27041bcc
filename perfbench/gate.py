"""Correctness gate of the qunravel benchmark.

Each check reads one command's output directory and returns the list of
problems it found; an empty list means the output is correct.  The checks
run outside the timed region, in the benchmark's own process.
"""

import json
import os

import numpy as np

TRACE_TOL = 1e-9         # |tr(rho) - 1| of a simulated record, |tr(C) - d|
HERMITIAN_TOL = 1e-12    # max |rho - rho^dag| of a simulated record
CHOI_HERMITIAN_TOL = 1e-10
PSD_FLOOR = -1e-10       # smallest eigenvalue allowed for rho


def trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def check_verify(out_dir, n_checks):
    """Every check of the suite reports ok, and every injected fault is caught."""
    with open(os.path.join(out_dir, "report.json")) as fh:
        reports = json.load(fh)
    problems = []
    if len(reports) != n_checks:
        problems.append(f"report has {len(reports)} checks, suite has {n_checks}")
    for i, r in enumerate(reports):
        if r.get("ok") is not True:
            problems.append(f"check {i} ({r.get('check')}): ok is not true")
        if r.get("expect") == "fail" and r.get("pass") is not False:
            problems.append(f"check {i} ({r.get('check')}): injected fault not caught")
    return problems


def read_rho_csv(path, d):
    """Times and density matrices of a ``qunravel simulate`` rho.csv."""
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    pairs = table[:, 1:].reshape(-1, d, d, 2)
    return table[:, 0], pairs[..., 0] + 1j * pairs[..., 1]


def check_simulate(out_dir, d, times, exact_final, tolerance):
    """Every record is a density matrix on the expected time grid, and the
    last one lies within the statistical tolerance of the exact state."""
    got_times, rhos = read_rho_csv(os.path.join(out_dir, "rho.csv"), d)
    if got_times.shape != np.shape(times) or not np.allclose(got_times, times):
        return [f"rho.csv has {got_times.size} records on an unexpected time grid"]
    problems = []
    for t, rho in zip(got_times, rhos):
        trace = np.trace(rho)
        if abs(trace - 1.0) > TRACE_TOL:
            problems.append(f"t={t:g}: trace {trace:.12g}")
        defect = float(np.max(np.abs(rho - rho.conj().T)))
        if defect > HERMITIAN_TOL:
            problems.append(f"t={t:g}: not Hermitian, defect {defect:.3e}")
        else:
            low = float(np.linalg.eigvalsh(rho)[0])
            if low < PSD_FLOOR:
                problems.append(f"t={t:g}: min eigenvalue {low:.3e}")
    distance = trace_distance(rhos[-1], exact_final)
    if distance > tolerance:
        problems.append(f"final trace distance {distance:.4g} to the exact "
                        f"state exceeds {tolerance:.4g}")
    return problems


def check_choi(out_dir, d, t):
    """The Choi matrix is Hermitian with trace d and reported CP."""
    with open(os.path.join(out_dir, "choi.json")) as fh:
        payload = json.load(fh)
    problems = []
    if payload.get("completely_positive") is not True:
        problems.append("completely_positive is not true")
    if payload.get("t") != t:
        problems.append(f"time {payload.get('t')} instead of {t}")
    pairs = np.asarray(payload["choi"], dtype=float)
    if pairs.shape != (d * d, d * d, 2):
        return problems + [f"choi has shape {pairs.shape[:2]}, expected {(d * d,) * 2}"]
    choi = pairs[..., 0] + 1j * pairs[..., 1]
    defect = float(np.max(np.abs(choi - choi.conj().T)))
    if defect > CHOI_HERMITIAN_TOL:
        problems.append(f"not Hermitian, defect {defect:.3e}")
    trace = np.trace(choi)
    if abs(trace - d) > TRACE_TOL:
        problems.append(f"trace {trace:.12g} instead of {d}")
    return problems
