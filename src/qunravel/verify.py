"""Executable checks for the claims the package is built around: the
unraveling generator identity, ensemble-vs-exact agreement, equivalence of
different unravelings, and complete-positivity detection, plus a suite
runner with first-class expected-failure (fault-injection) entries.

Fault injection is a flag on the unraveling (``Unraveling(..., fault=...)``)
that deliberately breaks the one drift/diffusion function every path calls,
so a fault run goes through the same integrator, worker pool and reduction
as a clean one; a harness in which a fault still passes is itself broken.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import hilbert, lindblad, sde
from .lindblad import GKSForm, LindbladModel
from .scenario import ScenarioError, complex_to_pairs, scenario_from_dict
from .unraveling import Unraveling, UnitaryFreedom, generator_term


@dataclass
class VerificationReport:
    name: str
    passed: bool
    measured: dict
    tolerance: float
    seconds: float
    config_hash: str
    expect: str = "pass"

    @property
    def ok(self):
        """True when the outcome matches the expectation (pass, or an
        injected fault that was correctly detected)."""
        return self.passed == (self.expect == "pass")

    def to_dict(self):
        return {
            "check": self.name,
            "pass": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "seconds": round(self.seconds, 4),
            "config_hash": self.config_hash,
            "expect": self.expect,
            "ok": self.ok,
        }


def _canonical(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return complex_to_pairs(obj)
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def config_hash(config):
    """SHA-256 of the canonical JSON form of a configuration mapping."""
    payload = json.dumps(_canonical(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _freedom_config(freedom):
    if isinstance(freedom, str):
        return freedom
    if freedom.matrix is not None:
        return {"matrix": complex_to_pairs(freedom.matrix)}
    return {"phase": freedom.phase}


def _model_config(model):
    return {
        "hamiltonian": complex_to_pairs(model.hamiltonian),
        "lindblad_ops": [complex_to_pairs(L) for L in model.lindblad_ops],
    }


def _cfg_config(cfg):
    return {"dt": cfg.dt, "t_final": cfg.t_final, "seed": cfg.seed,
            "renormalize": cfg.renormalize,
            "record_stride": cfg.record_stride}


def statistical_tolerance(n_trajectories, dt, dim):
    """Union bound of Monte Carlo error and weak order-1 bias:
    3 d / sqrt(M) + 5 dt."""
    return 3.0 * dim / math.sqrt(n_trajectories) + 5.0 * dt


# ---------------------------------------------------------------------------
# random inputs for the deterministic identity checks

def random_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return hilbert.normalize(psi)


def random_hermitian(rng, d, scale=1.0):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (M + hilbert.dagger(M))


def random_unitary(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_model(rng, d, n_ops=None):
    if n_ops is None:
        n_ops = int(rng.integers(1, 3))
    while True:
        H = random_hermitian(rng, d)
        ops = tuple(
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for _ in range(n_ops))
        if hilbert.check_linear_independence(ops, include_identity=True):
            return LindbladModel(H, ops)


def random_freedom(rng, n_ops):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return UnitaryFreedom(matrix=np.eye(n_ops, dtype=complex))
    if kind == 1 and n_ops == 1:
        return UnitaryFreedom(phase=float(rng.uniform(0, 2 * np.pi)))
    N = n_ops + int(rng.integers(0, 3))
    return UnitaryFreedom(matrix=random_unitary(rng, N))


# ---------------------------------------------------------------------------
# deterministic checks

def generator_deviation(u, psi):
    """Max-entry deviation of the one-step generator from the Lindblad RHS.

    Nonzero beyond rounding only when u carries an injected fault.
    """
    rhs = lindblad.lindblad_rhs(u.model, hilbert.outer(psi, psi))
    return float(np.max(np.abs(generator_term(u, psi) - rhs)))


def check_generator_identity(model, freedom, samples=100, seed=0, fault=None,
                             tolerance=1e-10):
    """Non-statistical check of the generator identity at random unit states."""
    t0 = time.perf_counter()
    u = Unraveling(model, freedom, fault=fault)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        worst = max(worst, generator_deviation(u, random_state(rng, u.dim)))
    return VerificationReport(
        name="generator-identity",
        passed=worst <= tolerance,
        measured={"max_deviation": worst, "samples": samples,
                  "fault": fault},
        tolerance=tolerance,
        seconds=time.perf_counter() - t0,
        config_hash=config_hash({
            "check": "generator-identity", "model": _model_config(model),
            "freedom": _freedom_config(u.freedom), "samples": samples,
            "seed": seed, "fault": fault}),
    )


def check_complete_positivity(gks, times, tolerance=1e-10):
    """Diagonalize the Kossakowski matrix; CP generators must give PSD Choi
    matrices at all times, while any negative rate must show up as a
    negative Choi eigenvalue at the smallest time."""
    t0 = time.perf_counter()
    rates, _ops = lindblad.gks_to_lindblad(gks)
    min_rate = min(rates)
    eigs = {}
    for t in times:
        choi = lindblad.gks_choi_matrix(gks, t)
        eigs[t] = float(np.linalg.eigvalsh(choi)[0])
    if min_rate >= -1e-10:
        passed = all(v >= -tolerance for v in eigs.values())
    else:
        passed = eigs[min(times)] < -1e-6
    return VerificationReport(
        name="complete-positivity",
        passed=passed,
        measured={"rates": rates, "min_rate": min_rate,
                  "choi_min_eig": {f"{t:g}": v for t, v in eigs.items()},
                  "cp_expected": bool(min_rate >= -1e-10)},
        tolerance=tolerance,
        seconds=time.perf_counter() - t0,
        config_hash=config_hash({
            "check": "complete-positivity",
            "gks": {"hamiltonian": complex_to_pairs(gks.hamiltonian),
                    "kossakowski": complex_to_pairs(gks.kossakowski)},
            "times": list(times)}),
    )


# ---------------------------------------------------------------------------
# statistical checks

def _checkpoint_steps(checkpoints, cfg):
    steps = []
    for t in checkpoints:
        if t <= 0:
            raise ValueError(f"checkpoint {t} is not positive; the ensemble "
                             f"starts from psi0 at t=0")
        k = int(round(t / cfg.dt))
        if abs(k * cfg.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"checkpoint {t} is not a multiple of dt={cfg.dt}")
        if k > cfg.n_steps:
            raise ValueError(f"checkpoint {t} is past t_final={cfg.t_final}")
        steps.append(k)
    return np.asarray(sorted(set(steps)), dtype=np.int64)


def check_ensemble_vs_exact(model, freedom, psi0, cfg, n_trajectories,
                            checkpoints, threads=1):
    """Trace distance between the Monte Carlo ensemble and the exact state
    exp(t L) rho0 at every checkpoint (one oracle call for all of them)."""
    t0 = time.perf_counter()
    u = Unraveling(model, freedom)
    steps = _checkpoint_steps(checkpoints, cfg)
    est = sde.simulate_ensemble(u, psi0, cfg, n_trajectories, threads=threads,
                                record_steps=steps)
    rho0 = hilbert.outer(psi0, psi0)
    tol = statistical_tolerance(n_trajectories, cfg.dt, u.dim)
    times = steps * cfg.dt
    exact = lindblad.propagate_exact(model, rho0, times)
    distances = {f"{t:g}": hilbert.trace_distance(rho, rho_exact)
                 for t, rho, rho_exact in zip(times, est.rho_hat, exact)}
    passed = all(v <= tol for v in distances.values())
    return VerificationReport(
        name="ensemble-vs-exact",
        passed=passed,
        measured={"trace_distances": distances,
                  "max_distance": max(distances.values()),
                  "n_trajectories": n_trajectories},
        tolerance=tol,
        seconds=time.perf_counter() - t0,
        config_hash=config_hash({
            "check": "ensemble-vs-exact", "model": _model_config(model),
            "freedom": _freedom_config(u.freedom),
            "psi0": complex_to_pairs(psi0), "integration": _cfg_config(cfg),
            "n_trajectories": n_trajectories,
            "checkpoints": list(checkpoints)}),
    )


def check_unraveling_equivalence(model, freedoms, psi0, cfg, n_trajectories,
                                 t, faults=None, threads=1):
    """Pairwise agreement of ensemble density matrices across unravelings of
    one model, each also checked against the exact propagator.

    faults, when given, is a per-freedom list of injector names (or None);
    fault runs skip renormalization so that drift faults stay visible.
    """
    t0 = time.perf_counter()
    if len(freedoms) < 2 and faults is None:
        raise ValueError("need at least two freedoms to compare")
    if faults is None:
        faults = [None] * len(freedoms)
    if len(faults) != len(freedoms):
        raise ValueError(f"{len(faults)} faults given for {len(freedoms)} "
                         f"freedoms")
    unravelings = [Unraveling(model, f, fault=x)
                   for f, x in zip(freedoms, faults)]
    steps = _checkpoint_steps([t], cfg)
    rhos = []
    for i, u in enumerate(unravelings):
        # distinct sub-seed per entry so ensembles are independent draws
        cfg_i = replace(cfg, seed=(cfg.seed + 7919 * i) % 2 ** 64)
        if u.fault is not None:
            cfg_i = replace(cfg_i, renormalize=False)
        est = sde.simulate_ensemble(u, psi0, cfg_i, n_trajectories,
                                    threads=threads, record_steps=steps)
        rhos.append(est.rho_hat[-1])
    tol = statistical_tolerance(n_trajectories, cfg.dt, model.dim)
    exact = lindblad.propagate_exact(model, hilbert.outer(psi0, psi0), t)
    pairwise = {}
    for i in range(len(rhos)):
        for j in range(i + 1, len(rhos)):
            pairwise[f"{i}-{j}"] = hilbert.trace_distance(rhos[i], rhos[j])
    vs_exact = {str(i): hilbert.trace_distance(r, exact)
                for i, r in enumerate(rhos)}
    passed = (all(v <= 2 * tol for v in pairwise.values())
              and all(v <= tol for v in vs_exact.values()))
    return VerificationReport(
        name="unraveling-equivalence",
        passed=passed,
        measured={"pairwise": pairwise, "vs_exact": vs_exact,
                  "faults": faults, "t": t},
        tolerance=tol,
        seconds=time.perf_counter() - t0,
        config_hash=config_hash({
            "check": "unraveling-equivalence", "model": _model_config(model),
            "freedoms": [_freedom_config(u.freedom) for u in unravelings],
            "faults": faults, "psi0": complex_to_pairs(psi0),
            "integration": _cfg_config(cfg),
            "n_trajectories": n_trajectories, "t": t}),
    )


# ---------------------------------------------------------------------------
# suite runner

def _entry_scenario(entry):
    try:
        return scenario_from_dict(entry)
    except ScenarioError as exc:
        raise ScenarioError(f"check {entry.get('check', '?')!r}: {exc}") from None


def _run_check(kind, entry, threads):
    if kind == "generator-identity":
        sc = _entry_scenario(entry)
        return check_generator_identity(
            sc.model(), sc.freedom_spec,
            samples=int(entry.get("samples", 100)),
            seed=int(entry.get("seed", 0)),
            fault=entry.get("fault"))
    if kind == "ensemble-vs-exact":
        sc = _entry_scenario(entry)
        return check_ensemble_vs_exact(
            sc.model(), sc.freedom_spec, sc.psi0, sc.integration,
            sc.trajectories, sc.checkpoints, threads=threads)
    if kind == "unraveling-equivalence":
        sc = _entry_scenario(entry)
        freedoms = entry.get("freedoms", [sc.freedom_spec])
        return check_unraveling_equivalence(
            sc.model(), freedoms, sc.psi0, sc.integration,
            sc.trajectories, float(entry["t"]),
            faults=entry.get("faults"), threads=threads)
    if kind == "complete-positivity":
        sc = _entry_scenario(entry)
        if sc.gks is None:
            raise ScenarioError("complete-positivity check needs a gks block")
        return check_complete_positivity(
            sc.gks, [float(t) for t in entry.get("times", [0.1, 1.0])])
    raise ScenarioError(f"unknown check type {kind!r}")


def run_suite(config, threads=1):
    """Execute the named checks of a suite configuration in declared order.

    config is a dict (or a path to a JSON file) with a "checks" list; each
    entry combines scenario fields with "check" and optional "expect"
    ("pass" by default, "fail" for fault-injection entries).  An entry the
    checks reject as input (an unknown fault, a faults list that does not
    match the freedoms, a checkpoint off the step grid or not positive)
    raises ScenarioError.
    """
    if isinstance(config, (str, bytes)) or hasattr(config, "__fspath__"):
        with open(config) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(
                    f"suite: invalid JSON at line {exc.lineno}: {exc.msg}"
                ) from None
    reports = []
    for entry in config.get("checks", []):
        kind = entry.get("check")
        try:
            report = _run_check(kind, entry, threads)
        except ValueError as exc:
            # plain ValueError is input validation; ScenarioError and
            # LinAlgError are subclasses and pass through unchanged
            if type(exc) is not ValueError:
                raise
            raise ScenarioError(f"check {kind!r}: {exc}") from None
        report.expect = entry.get("expect", "pass")
        reports.append(report)
    return reports


def suite_ok(reports):
    return all(r.ok for r in reports)
