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
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import hilbert, lindblad, sde
from .scenario import (ENSEMBLE_KEYS, MODEL_KEYS, ScenarioError, _integer,
                       _known, _number, _numbers, _require, complex_to_pairs,
                       read_json, scenario_from_dict)
from .tolerances import TOL
from .unraveling import Unraveling, generator_term


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


def _jsonable(obj):
    """json.dumps hook: numpy arrays and scalars and complex numbers as
    plain lists and numbers (complex values as [re, im] pairs)."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return complex_to_pairs(obj)
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def config_hash(config):
    """SHA-256 of the canonical JSON form of a configuration mapping."""
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"),
                         default=_jsonable)
    return hashlib.sha256(payload.encode()).hexdigest()


def _freedom_config(freedom):
    if freedom.matrix is not None:
        return {"matrix": complex_to_pairs(freedom.matrix)}
    return {"phase": freedom.phase}


def _model_config(model):
    return {
        "hamiltonian": complex_to_pairs(model.hamiltonian),
        "lindblad_ops": [complex_to_pairs(L) for L in model.lindblad_ops],
    }


def _label(t):
    """A time's key in a report: 12 digits keep apart any two points of a
    step grid, whose dt is at least t_final/1e8."""
    return f"{t:.12g}"


def statistical_tolerance(n_trajectories, dt, dim):
    """Union bound of Monte Carlo error and weak order-1 bias:
    3 d / sqrt(M) + 5 dt."""
    return 3.0 * dim / math.sqrt(n_trajectories) + 5.0 * dt


# ---------------------------------------------------------------------------
# random states for the generator identity check

def random_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return hilbert.normalize(psi)


# ---------------------------------------------------------------------------
# deterministic checks

def generator_deviation(u, psi):
    """Max-entry deviation of the one-step generator from the Lindblad RHS.

    Nonzero beyond rounding only when u carries an injected fault.
    """
    rhs = lindblad.lindblad_rhs(u.model, hilbert.outer(psi, psi))
    return float(np.max(np.abs(generator_term(u, psi) - rhs)))


def check_generator_identity(model, freedom, samples=100, seed=0, fault=None):
    """Non-statistical check of the generator identity at random unit states."""
    t0 = time.perf_counter()
    u = Unraveling(model, freedom, fault=fault)
    rng = np.random.default_rng(seed)
    deviations = [generator_deviation(u, random_state(rng, u.dim))
                  for _ in range(samples)]
    # np.max carries a NaN through, so a non-finite deviation fails the check
    worst = float(np.max(deviations, initial=0.0))
    return VerificationReport(
        name="generator-identity",
        passed=worst <= TOL.generator_match,
        measured={"max_deviation": worst, "samples": samples,
                  "fault": fault},
        tolerance=TOL.generator_match,
        seconds=time.perf_counter() - t0,
        config_hash=config_hash({
            "check": "generator-identity", "model": _model_config(model),
            "freedom": _freedom_config(u.freedom), "samples": samples,
            "seed": seed, "fault": fault}),
    )


def check_complete_positivity(gks, times):
    """Diagonalize the Kossakowski matrix; a CP generator's Choi matrices
    have no eigenvalue below TOL.psd_floor at any time, while a negative
    rate must show up as a negative Choi eigenvalue at the smallest time."""
    if not len(times):
        raise ValueError("times must not be empty")
    t0 = time.perf_counter()
    rates, _ops = lindblad.gks_to_lindblad(gks)
    min_rate = min(rates)
    eigs = {}
    for t in times:
        choi = lindblad.gks_choi_matrix(gks, t)
        eigs[t] = float(np.linalg.eigvalsh(choi)[0])
    if min_rate >= TOL.psd_floor:
        passed = all(v >= TOL.psd_floor for v in eigs.values())
    else:
        passed = eigs[min(times)] < -1e-6
    return VerificationReport(
        name="complete-positivity",
        passed=passed,
        measured={"rates": rates, "min_rate": min_rate,
                  "choi_min_eig": {_label(t): v for t, v in eigs.items()},
                  "cp_expected": bool(min_rate >= TOL.psd_floor)},
        tolerance=-TOL.psd_floor,
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
        if not t > 0:       # NaN included
            raise ValueError(f"checkpoint {t} is not positive; the ensemble "
                             f"starts from psi0 at t=0")
        if t == np.inf:
            raise ValueError(f"checkpoint {t} is past t_final={cfg.t_final}")
        k = int(round(t / cfg.dt))
        if abs(k * cfg.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"checkpoint {t} is not a multiple of dt={cfg.dt}")
        if k > cfg.n_steps:
            raise ValueError(f"checkpoint {t} is past t_final={cfg.t_final}")
        steps.append(k)
    return np.asarray(sorted(set(steps)), dtype=np.int64)


def _monte_carlo(name, model, unravelings, psi0, cfg, n_trajectories, times,
                 threads, **config):
    """The one Monte Carlo comparison: each unraveling's ensemble against
    exp(t L) rho0 (one oracle call for every time) and against each other
    ensemble, at every time.

    Member i runs at seed cfg.seed + 7919 i, so the ensembles are
    independent draws; a faulty member skips renormalization, so that drift
    faults stay visible.  The check passes when every distance to the exact
    state is at most tol = statistical_tolerance(M, dt, d) and every
    pairwise distance at most 2 tol.  Its measured dict holds only
    ``"vacuous": true``, when the loosest bound it applies (2 tol with
    pairs, else tol) is at least 1, which no two density matrices exceed.
    config adds the check's own fields to those hashed here.  Returns the
    report, the times, each member's distances to the exact states and each
    pair's distances, keyed "i-j".
    """
    t0 = time.perf_counter()
    steps = _checkpoint_steps(times, cfg)
    times = steps * cfg.dt
    rhos = []
    for i, u in enumerate(unravelings):
        cfg_i = replace(cfg, seed=(cfg.seed + 7919 * i) % 2 ** 64,
                        renormalize=cfg.renormalize and u.fault is None)
        rhos.append(sde.simulate_ensemble(u, psi0, cfg_i, n_trajectories,
                                          threads=threads,
                                          record_steps=steps).rho_hat)
    exact = lindblad.propagate_exact(model, hilbert.outer(psi0, psi0), times)
    vs_exact = [[hilbert.trace_distance(r, e) for r, e in zip(rho, exact)]
                for rho in rhos]
    pairwise = {f"{i}-{j}": [hilbert.trace_distance(a, b)
                             for a, b in zip(rhos[i], rhos[j])]
                for i, j in itertools.combinations(range(len(rhos)), 2)}
    tol = statistical_tolerance(n_trajectories, cfg.dt, model.dim)
    passed = (all(v <= tol for row in vs_exact for v in row)
              and all(v <= 2 * tol for row in pairwise.values() for v in row))
    loosest = 2 * tol if pairwise else tol
    report = VerificationReport(
        name=name,
        passed=passed,
        measured={"vacuous": True} if loosest >= 1 else {},
        tolerance=tol,
        seconds=time.perf_counter() - t0,
        config_hash=config_hash({
            "check": name, "model": _model_config(model),
            "psi0": complex_to_pairs(psi0), "integration": asdict(cfg),
            "n_trajectories": n_trajectories, **config}),
    )
    return report, times, vs_exact, pairwise


def check_ensemble_vs_exact(model, freedom, psi0, cfg, n_trajectories,
                            checkpoints, threads=1):
    """Trace distance between the Monte Carlo ensemble and the exact state
    exp(t L) rho0 at every checkpoint."""
    u = Unraveling(model, freedom)
    report, times, (distances,), _ = _monte_carlo(
        "ensemble-vs-exact", model, [u], psi0, cfg, n_trajectories,
        checkpoints, threads, freedom=_freedom_config(u.freedom),
        checkpoints=list(checkpoints))
    report.measured.update(
        trace_distances={_label(t): v for t, v in zip(times, distances)},
        max_distance=max(distances), n_trajectories=n_trajectories)
    return report


def check_unraveling_equivalence(model, freedoms, psi0, cfg, n_trajectories,
                                 t, faults=None, threads=1):
    """Pairwise agreement of ensemble density matrices across unravelings of
    one model, each also checked against the exact propagator.

    faults, when given, is a per-freedom list of injector names (or None);
    fault runs skip renormalization so that drift faults stay visible.
    """
    if len(freedoms) < 2 and faults is None:
        raise ValueError("need at least two freedoms to compare")
    if faults is None:
        faults = [None] * len(freedoms)
    if len(faults) != len(freedoms):
        raise ValueError(f"{len(faults)} faults given for {len(freedoms)} "
                         f"freedoms")
    unravelings = [Unraveling(model, f, fault=x)
                   for f, x in zip(freedoms, faults)]
    report, _, vs_exact, pairwise = _monte_carlo(
        "unraveling-equivalence", model, unravelings, psi0, cfg,
        n_trajectories, [t], threads,
        freedoms=[_freedom_config(u.freedom) for u in unravelings],
        faults=faults, t=t)
    report.measured.update(
        pairwise={pair: v for pair, (v,) in pairwise.items()},
        vs_exact={str(i): v for i, (v,) in enumerate(vs_exact)},
        faults=faults, t=t)
    return report


# ---------------------------------------------------------------------------
# suite runner

def _names(values, name, null=False):
    """A list of strings; with null set, also null or a list with nulls."""
    if null and values is None or isinstance(values, list) and all(
            isinstance(v, str) or null and v is None for v in values):
        return values
    raise ScenarioError(f"{name}: must be a list of strings"
                        f"{' or nulls' if null else ''}, got {values!r}")


# the keys each check reads besides the model's, "check" and "expect": a
# scenario key it does not read is rejected, not silently ignored
_CHECK_KEYS = {
    "generator-identity": ("freedom", "samples", "seed", "fault"),
    "ensemble-vs-exact": ("freedom",) + ENSEMBLE_KEYS + ("checkpoints",),
    "unraveling-equivalence": ("freedom",) + ENSEMBLE_KEYS
                              + ("freedoms", "t", "faults"),
    "complete-positivity": ("gks", "times")}


def _run_check(kind, entry, threads):
    if not isinstance(kind, str) or kind not in _CHECK_KEYS:
        raise ScenarioError(f"unknown check type {kind!r}")
    ensemble = kind in ("ensemble-vs-exact", "unraveling-equivalence")
    sc = scenario_from_dict(
        entry, ("check", "expect") + MODEL_KEYS + _CHECK_KEYS[kind],
        ENSEMBLE_KEYS if ensemble else ())
    if kind == "generator-identity":
        return check_generator_identity(
            sc.model(), sc.freedom_spec,
            samples=_integer(entry.get("samples", 100), "samples"),
            seed=_integer(entry.get("seed", 0), "seed", minimum=0),
            fault=entry.get("fault"))
    if kind == "ensemble-vs-exact":
        return check_ensemble_vs_exact(
            sc.model(), sc.freedom_spec, sc.psi0, sc.integration,
            sc.trajectories, sc.checkpoints, threads=threads)
    if kind == "unraveling-equivalence":
        freedoms = _names(entry.get("freedoms", [sc.freedom_spec]), "freedoms")
        t = _number(_require(entry, "t"), "t")
        faults = _names(entry.get("faults"), "faults", null=True)
        return check_unraveling_equivalence(
            sc.model(), freedoms, sc.psi0, sc.integration, sc.trajectories,
            t, faults=faults, threads=threads)
    if sc.gks is None:          # complete-positivity
        raise ScenarioError("needs a gks block")
    return check_complete_positivity(
        sc.gks, _numbers(entry.get("times", [0.1, 1.0]), "times"))


def run_suite(config, threads=1):
    """Execute the named checks of a suite configuration in declared order.

    config is a dict (or a path to a JSON file) with a non-empty "checks"
    list of objects, each the model fields with "check", optional "expect"
    ("pass" by default, "fail" for fault-injection entries) and the fields
    its check reads (``_CHECK_KEYS``); any other shape or key, such as a
    scenario field the check does not read, or any other expect, raises
    ScenarioError.  An entry the checks reject as input
    (an unknown fault, a faults list that does not match the freedoms, a
    checkpoint off the step grid or not positive, an ensemble check without
    "trajectories") raises ScenarioError naming the check.
    """
    if isinstance(config, (str, bytes)) or hasattr(config, "__fspath__"):
        config = read_json(config, "suite")
    checks = config.get("checks") if isinstance(config, dict) else None
    if not (isinstance(checks, list) and checks
            and all(isinstance(entry, dict) for entry in checks)):
        raise ScenarioError("suite: must be an object whose 'checks' is a "
                            "non-empty list of objects")
    _known(config, ("checks",), "suite")
    reports = []
    for entry in checks:
        kind = entry.get("check")
        expect = entry.get("expect", "pass")
        if expect not in ("pass", "fail"):
            raise ScenarioError(f"check {kind!r}: expect: must be 'pass' or "
                                f"'fail', got {expect!r}")
        try:
            report = _run_check(kind, entry, threads)
        except ValueError as exc:
            # a plain ValueError or a ScenarioError is an input error; other
            # subclasses, such as LinAlgError, pass through unchanged
            if type(exc) not in (ValueError, ScenarioError):
                raise
            raise ScenarioError(f"check {kind!r}: {exc}") from None
        report.expect = expect
        reports.append(report)
    return reports


def suite_ok(reports):
    return all(r.ok for r in reports)
