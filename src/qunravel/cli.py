"""Batch front-end: parse scenario files, run simulations or verification
suites, and emit CSV/JSON artifacts for external plotting.

Exit codes: 0 ok, 1 verification failure, 2 usage or parse error.
"""

import argparse
import dataclasses
import json
import os
import sys
from collections import deque

import numpy as np

from . import hilbert, lindblad, observables, sde, verify
from .scenario import Scenario, ScenarioError, complex_to_pairs, parse_scenario
from .tolerances import TOL
from .unraveling import Unraveling

_FMT = "%.17g"   # lossless double round-trip
# Compact, sorted-key JSON through the C encoder.  The payloads are trees of
# lists, dicts and numbers, never circular, so the cycle check is skipped.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                         check_circular=False).encode


def _fmt(x):
    return _FMT % float(x)


def _write_csv(path, header_fields, columns, rows):
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in header_fields) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _conjugate_text(text):
    """Negate every imaginary part of a compact [[re, im], ...] list.

    Inside a pair the only comma precedes the imaginary part, so a minus
    sign is put after it and a doubled one cancelled; signed zeros flip
    too, exactly as float.__repr__ would print the conjugate.
    """
    return (text.replace("],[", "]|[").replace(",", ",-")
            .replace(",--", ",").replace("]|[", "],["))


def _rows(M):
    """Yield the _json(complex_to_pairs(row)) text of each row of square M.

    Each row is formatted from its diagonal on.  Below the diagonal a
    Hermitian matrix repeats the rows above, conjugated, so the text of
    every entry right of the diagonal is held, conjugated, for the row it
    mirrors into.  A row takes that held text only where its part left of
    the diagonal is finite and bit-equal to the conjugate of the column
    above (NaN prints without a sign); otherwise that part is formatted
    as well.  The bytes are the same either way, for any matrix.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    held = deque([] for _ in range(len(M)))   # text for rows i, i+1, ...
    for i, row in enumerate(M):
        prefix = held.popleft()
        tail = _json(complex_to_pairs(row[i:]))
        mirrored = _conjugate_text(tail)[2:-2].split("],[")[1:]
        for below, entry in zip(held, mirrored):
            below.append(entry)
        if not i:
            yield tail
            continue
        lower = row[:i]
        if (np.isfinite(lower).all()
                and np.array_equal(lower.view(np.uint64),
                                   M[:i, i].conj().view(np.uint64))):
            head = "[[" + "],[".join(prefix) + "]"
        else:
            head = _json(complex_to_pairs(lower))[:-1]
        yield head + "," + tail[1:]


def _write_json(path, payload):
    """Write payload as compact JSON with sorted keys.

    _json takes the C encoder (json.dump never does).  An ndarray
    value of a dict payload, a square complex matrix, is written one row
    at a time as nested [re, im] pairs (see _rows), so it is never held
    as one string.
    """
    with open(path, "w") as fh:
        if not isinstance(payload, dict):
            fh.write(_json(payload))
        else:
            fh.write("{")
            for i, key in enumerate(sorted(payload)):
                fh.write(("," if i else "") + _json(key) + ":")
                value = payload[key]
                if isinstance(value, np.ndarray):
                    fh.write("[")
                    for j, row in enumerate(_rows(value)):
                        fh.write(("," if j else "") + row)
                    fh.write("]")
                else:
                    fh.write(_json(value))
            fh.write("}")
        fh.write("\n")


def _scenario_hash(scenario, seed):
    return verify.config_hash({"scenario": scenario.to_dict(), "seed": seed})


def _load(args):
    scenario = parse_scenario(args.scenario)
    if args.seed is not None:
        if scenario.integration is None:
            raise ScenarioError("scenario has no integration block to seed")
        try:
            scenario.integration = dataclasses.replace(scenario.integration,
                                                       seed=args.seed)
        except ValueError as exc:
            raise ScenarioError(f"--seed: {exc}") from None
    if args.no_renormalize and scenario.integration is not None:
        scenario.integration = dataclasses.replace(scenario.integration,
                                                   renormalize=False)
    return scenario


def cmd_simulate(args):
    scenario = _load(args)
    if scenario.psi0 is None or scenario.integration is None:
        raise ScenarioError("simulate needs psi0 and an integration block")
    u = scenario.unraveling()
    cfg = scenario.integration
    est = sde.simulate_ensemble(u, scenario.psi0, cfg, scenario.trajectories,
                                threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    chash = _scenario_hash(scenario, cfg.seed)
    d = u.dim
    columns = ["time"]
    for i in range(d):
        for j in range(d):
            columns += [f"rho_{i}{j}_re", f"rho_{i}{j}_im"]
    rows = []
    for t, rho in zip(est.times, est.rho_hat):
        row = [t]
        for i in range(d):
            for j in range(d):
                row += [rho[i, j].real, rho[i, j].imag]
        rows.append(row)
    _write_csv(os.path.join(args.out, "rho.csv"),
               [("config_hash", chash), ("seed", cfg.seed)], columns, rows)
    summary = {
        "config_hash": chash,
        "seed": cfg.seed,
        "trajectories": est.n_trajectories,
        "times": est.times.tolist(),
        "std_error": est.std_error.tolist(),
        "norm_drift_max": est.norm_drift_max,
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    return 0


def cmd_verify(args):
    reports = verify.run_suite(args.scenario, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "report.json"),
                [r.to_dict() for r in reports])
    for r in reports:
        status = "ok" if r.ok else "FAILED"
        print(f"{r.name}: pass={r.passed} expect={r.expect} -> {status}")
    return 0 if verify.suite_ok(reports) else 1


def cmd_diagonalize(args):
    scenario = _load(args)
    if scenario.gks is None:
        raise ScenarioError("diagonalize needs a gks block")
    rates, ops = lindblad.gks_to_lindblad(scenario.gks)
    os.makedirs(args.out, exist_ok=True)
    payload = {
        "config_hash": _scenario_hash(scenario, 0),
        "rates": rates,
        "completely_positive": bool(min(rates) >= TOL.psd_floor),
        "lindblad_ops": [complex_to_pairs(L) for L in ops],
    }
    _write_json(os.path.join(args.out, "diagonal.json"), payload)
    return 0


def cmd_choi(args):
    scenario = _load(args)
    if not 0 < args.time < np.inf:
        raise ScenarioError(f"--time must be positive and finite, "
                            f"got {args.time}")
    os.makedirs(args.out, exist_ok=True)
    if scenario.gks is not None:
        choi = lindblad.gks_choi_matrix(scenario.gks, args.time)
    else:
        choi = lindblad.choi_matrix(scenario.model(), args.time)
    min_eig = float(np.linalg.eigvalsh(choi)[0])
    payload = {
        "config_hash": _scenario_hash(scenario, 0),
        "t": args.time,
        "min_eigenvalue": min_eig,
        "completely_positive": bool(min_eig >= TOL.psd_floor),
        "choi": choi,
    }
    _write_json(os.path.join(args.out, "choi.json"), payload)
    return 0


def cmd_variance_scan(args):
    scenario = _load(args)
    if scenario.psi0 is None or scenario.integration is None:
        raise ScenarioError("variance-scan needs psi0 and an integration block")
    model = scenario.model()
    if model.n_ops != 1:
        raise ScenarioError("variance-scan requires exactly one Lindblad op")
    L = model.lindblad_ops[0]
    if not hilbert.is_hermitian(L):
        raise ScenarioError(
            f"lindblad_ops[0]: variance-scan needs a Hermitian operator, max "
            f"violation {hilbert.hermiticity_defect(L):.3e}")
    phases = scenario.variance_phases or [0.0, np.pi / 4, np.pi / 2]
    cfg = scenario.integration
    chash = _scenario_hash(scenario, cfg.seed)
    curves = []
    for f in phases:
        u = Unraveling(model, f"phase:{f}")
        est = sde.simulate_ensemble(
            u, scenario.psi0, cfg, scenario.trajectories,
            threads=args.threads,
            reducers={"V": lambda psi: observables._variance(psi, L).sum()})
        curves.append(est.means["V"])
    os.makedirs(args.out, exist_ok=True)
    columns = ["time"] + [f"mean_V_f={f:g}" for f in phases]
    rows = [[t] + [c[r] for c in curves] for r, t in enumerate(est.times)]
    _write_csv(os.path.join(args.out, "variance_scan.csv"),
               [("config_hash", chash), ("seed", cfg.seed)], columns, rows)
    return 0


def _threads(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qunravel",
        description="Diffusive unravelings of Lindblad master equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario/suite JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--threads", type=_threads, default=1,
                       help="at most this many forked worker processes; "
                            "1 starts none")
        p.add_argument("--no-renormalize", action="store_true")

    common(sub.add_parser("simulate", help="run a trajectory ensemble"))
    common(sub.add_parser("verify", help="run a verification suite"))
    common(sub.add_parser("diagonalize", help="diagonalize a GKS form"))
    p_choi = sub.add_parser("choi", help="Choi matrix of the propagator")
    common(p_choi)
    p_choi.add_argument("--time", type=float, default=1.0)
    common(sub.add_parser("variance-scan",
                          help="mean collapse variance over a phase grid"))
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "diagonalize": cmd_diagonalize,
    "choi": cmd_choi,
    "variance-scan": cmd_variance_scan,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
