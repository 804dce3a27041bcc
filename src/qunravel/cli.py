"""Batch front-end: parse scenario files, run simulations or verification
suites, and emit CSV/JSON artifacts for external plotting.

Every command takes --scenario and --out; simulate and variance-scan also
take --seed and --threads, verify --threads, and choi --time.  A scenario
turns renormalization off with "renormalize": false in its integration block.

Exit codes: 0 ok, 1 verification failure, 2 usage or parse error or a norm
blow-up (then no output is written).
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import hilbert, lindblad, sde, verify
from .scenario import (ENSEMBLE_KEYS, ScenarioError, complex_to_pairs,
                       parse_scenario)
from .tolerances import TOL
from .unraveling import Unraveling

_FMT = "%.17g"   # lossless double round-trip
_TILE = 64       # rows per choi.json formatting task
# Compact, sorted-key JSON through the C encoder.  The payloads are trees of
# lists, dicts and numbers, never circular, so the cycle check is skipped.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                         check_circular=False).encode


def _write_csv(path, header_fields, columns, rows):
    # one % per row, of a line format that repeats _FMT once per column
    line = ",".join([_FMT] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in header_fields) + "\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % tuple(row)
                      for row in np.asarray(rows, dtype=float).tolist())


def _conjugated_entries(text):
    """The entries of a compact [[re, im], ...] list, without brackets,
    each with its imaginary part negated.

    Inside a pair the only comma precedes the imaginary part, so a minus
    sign is put after every comma and a doubled one cancelled; the "],["
    between pairs becomes "],-[", on which the entries are split.  Signed
    zeros flip too, exactly as float.__repr__ would print the conjugate.
    """
    return text[2:-2].replace(",", ",-").replace(",--", ",").split("],-[")


def _mirrors(lower, upper):
    """Whether lower is finite and bit-equal to upper's conjugate transpose
    (NaN prints without a sign, so a conjugated NaN's text would be wrong)."""
    return bool(np.isfinite(lower).all()) and np.array_equal(
        lower.view(np.uint64),
        np.ascontiguousarray(upper.T.conj()).view(np.uint64))


def _tile_text(M, b):
    """Text of tile row b of square M, as lines: each of its rows from
    column b*_TILE on, as a compact list, then each later row's entries in
    those columns, as "re,im],[re,im..." without the outer brackets.

    A row inside the diagonal tile takes the conjugated text of the column
    above it where that is a mirror (see _mirrors), as does each tile below
    as a whole; what is not a mirror is formatted.  The lines come as one
    newline-joined string (JSON numbers hold no line break), so a forked
    task returns one object, which the caller's main thread splits where
    its allocator reuses the memory the matrix freed; a string per row
    would grow the malloc arena of the pool's result thread instead.
    """
    n = len(M)
    b0, b1 = b * _TILE, min(n, (b + 1) * _TILE)
    lines, conj = [], []
    for i in range(b0, b1):
        tail = _json(complex_to_pairs(M[i, i:]))
        conj.append(_conjugated_entries(tail))
        if i > b0:
            lower = M[i, b0:i]
            if _mirrors(lower, M[b0:i, i]):
                head = "[[" + "],[".join(
                    c[i - k] for k, c in enumerate(conj[:-1], b0)) + "]"
            else:
                head = _json(complex_to_pairs(lower))[:-1]
            tail = head + "," + tail[1:]
        lines.append(tail)
    for c0 in range(b1, n, _TILE):
        c1 = min(n, c0 + _TILE)
        lower = M[c0:c1, b0:b1]
        if _mirrors(lower, M[b0:b1, c0:c1]):
            columns = zip(*(c[c0 - k:c1 - k] for k, c in enumerate(conj, b0)))
            lines.extend("],[".join(column) for column in columns)
        else:
            lines.extend(_json(complex_to_pairs(row))[2:-2] for row in lower)
    return "\n".join(lines)


def _cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rows(M):
    """Yield the _json(complex_to_pairs(row)) text of each row of square M.

    Each row is formatted from its diagonal on, in tasks of _TILE rows.
    Below the diagonal a Hermitian matrix repeats the rows above,
    conjugated, so a task also hands each later row, as conjugated and
    transposed text, its entries in the task's columns (see _tile_text).
    The bytes are the same either way, for any matrix.

    The tasks run through sde._fork_map, in up to one forked worker per CPU
    of this process's affinity set.  Once the workers are forked this
    generator keeps no reference to M, so the caller's last reference is
    the matrix's last.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    n = len(M)
    tiles = -(-n // _TILE)
    texts = sde._fork_map(functools.partial(_tile_text, M), range(tiles),
                          _cpu_count())
    del M
    left = [[] for _ in range(n)]     # each row's text left of its tile
    # split through map, so that no task's text stays bound while its rows
    # are yielded
    for b, lines in enumerate(map(str.splitlines, texts)):
        b0, b1 = b * _TILE, min(n, (b + 1) * _TILE)
        for i in range(b1, n):
            left[i].append(lines[i - b0])
        for i in range(b0, b1):
            row, pieces, left[i] = lines[i - b0], left[i], None
            if pieces:
                row = "[[" + "],[".join(pieces) + "]," + row[1:]
            yield row


def _write_json(path, payload):
    """Write payload as compact JSON with sorted keys (see _json)."""
    with open(path, "w") as fh:
        fh.write(_json(payload) + "\n")


def _scenario_hash(scenario, seed):
    return verify.config_hash({"scenario": scenario.to_dict(), "seed": seed})


def _load(args):
    """An ensemble command's scenario, ENSEMBLE_KEYS given, --seed applied."""
    scenario = parse_scenario(args.scenario, required=ENSEMBLE_KEYS)
    if args.seed is not None:
        try:
            scenario.integration = dataclasses.replace(scenario.integration,
                                                       seed=args.seed)
        except ValueError as exc:
            raise ScenarioError(f"--seed: {exc}") from None
    return scenario


def cmd_simulate(args):
    scenario = _load(args)
    u = scenario.unraveling()
    cfg = scenario.integration
    est = sde.simulate_ensemble(u, scenario.psi0, cfg, scenario.trajectories,
                                threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    chash = _scenario_hash(scenario, cfg.seed)
    d = u.dim
    columns = ["time"] + [f"rho_{i}{j}_{part}" for i in range(d)
                          for j in range(d) for part in ("re", "im")]
    rho = np.ascontiguousarray(est.rho_hat).reshape(len(est.times), -1)
    rows = np.column_stack([est.times, rho.view(float)])
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
    scenario = parse_scenario(args.scenario)
    if scenario.gks is None:
        raise ScenarioError("diagonalize needs a gks block")
    rates, ops = lindblad.gks_to_lindblad(scenario.gks)
    if not np.isfinite(rates).all():    # JSON has no Infinity
        raise ScenarioError(f"gks: kossakowski eigenvalues overflow: {rates}")
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
    scenario = parse_scenario(args.scenario)
    if not 0 < args.time < np.inf:
        raise ScenarioError(f"--time must be positive and finite, "
                            f"got {args.time}")
    try:
        if scenario.gks is not None:
            choi = lindblad.gks_choi_matrix(scenario.gks, args.time)
        else:
            choi = lindblad.choi_matrix(scenario.model(), args.time)
    except ValueError as exc:
        # a propagator that is not finite; LinAlgError passes through
        if type(exc) is not ValueError:
            raise
        raise ScenarioError(str(exc)) from None
    os.makedirs(args.out, exist_ok=True)
    min_eig = float(np.linalg.eigvalsh(choi)[0])
    payload = {
        "config_hash": _scenario_hash(scenario, 0),
        "t": args.time,
        "min_eigenvalue": min_eig,
        "completely_positive": bool(min_eig >= TOL.psd_floor),
    }
    rows = _rows(choi)
    del choi    # the writer frees it once its workers hold copies
    # as _write_json would write payload with the matrix under "choi", the
    # first key, but one row at a time, never holding the text as a whole
    with open(os.path.join(args.out, "choi.json"), "w") as fh:
        fh.write('{"choi":[')
        for j, row in enumerate(rows):
            fh.write(("," if j else "") + row)
        fh.write("]," + _json(payload)[1:] + "\n")
    return 0


def cmd_variance_scan(args):
    scenario = _load(args)
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
            reducers={"V": lambda s: hilbert.variance(
                np.moveaxis(s, 0, -1), L).sum(-1)})
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


_SEED = ("--seed", dict(type=int, default=None,
                        help="override the scenario seed"))
_THREADS = ("--threads", dict(type=_threads, default=1, help="at most this "
                              "many forked worker processes; 1 starts none"))

# name: (function, help, the flags it takes besides --scenario and --out)
_COMMANDS = {
    "simulate": (cmd_simulate, "run a trajectory ensemble",
                 [_SEED, _THREADS]),
    "verify": (cmd_verify, "run a verification suite", [_THREADS]),
    "diagonalize": (cmd_diagonalize, "diagonalize a GKS form", []),
    "choi": (cmd_choi, "Choi matrix of the propagator",
             [("--time", dict(type=float, default=1.0))]),
    "variance-scan": (cmd_variance_scan,
                      "mean collapse variance over a phase grid",
                      [_SEED, _THREADS]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qunravel",
        description="Diffusive unravelings of Lindblad master equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario/suite JSON")
        p.add_argument("--out", required=True, help="output directory")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][0](args)
    except (ScenarioError, sde.NormBlowupError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
