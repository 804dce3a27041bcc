"""Scenario and suite file handling.

One structured JSON format is used everywhere.  Complex matrices are nested
arrays of [re, im] pairs, never strings, so files round-trip bit-exactly and
stay language-neutral.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import hilbert
from .lindblad import GKSForm, LindbladModel
from .sde import IntegrationConfig
from .unraveling import Unraveling, parse_freedom


class ScenarioError(ValueError):
    """Raised for malformed scenario files; the message names the field."""


def complex_to_pairs(M):
    """Nested [re, im] representation of a complex array."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], axis=-1).tolist()


def pairs_to_complex(data, name="value"):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{name}: not a numeric [re, im] array: {exc}") from None
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ScenarioError(f"{name}: innermost entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


@dataclass
class Scenario:
    dim: int
    hamiltonian: np.ndarray
    lindblad_ops: list
    freedom_spec: str = "standard"
    psi0: np.ndarray = None
    integration: IntegrationConfig = None
    trajectories: int = 1
    checkpoints: list = field(default_factory=list)
    gks: GKSForm = None
    variance_phases: list = field(default_factory=list)

    def model(self):
        return LindbladModel(self.hamiltonian, tuple(self.lindblad_ops))

    def unraveling(self):
        return Unraveling(self.model(), self.freedom_spec)

    def to_dict(self):
        out = {
            "dim": self.dim,
            "hamiltonian": complex_to_pairs(self.hamiltonian),
            "lindblad_ops": [complex_to_pairs(L) for L in self.lindblad_ops],
            "freedom": self.freedom_spec,
        }
        if self.psi0 is not None:
            out["psi0"] = complex_to_pairs(self.psi0)
        if self.integration is not None:
            out["integration"] = {
                "dt": self.integration.dt,
                "t_final": self.integration.t_final,
                "seed": self.integration.seed,
                "renormalize": self.integration.renormalize,
                "record_stride": self.integration.record_stride,
            }
        out["trajectories"] = self.trajectories
        if self.checkpoints:
            out["checkpoints"] = list(self.checkpoints)
        if self.gks is not None:
            out["gks"] = {
                "hamiltonian": complex_to_pairs(self.gks.hamiltonian),
                "kossakowski": complex_to_pairs(self.gks.kossakowski),
                "basis": [complex_to_pairs(F) for F in self.gks.basis_ops],
            }
        if self.variance_phases:
            out["variance_phases"] = list(self.variance_phases)
        return out


def _require(data, key):
    if key not in data:
        raise ScenarioError(f"missing required field {key!r}")
    return data[key]


def scenario_from_dict(data):
    dim = int(_require(data, "dim"))
    H = pairs_to_complex(_require(data, "hamiltonian"), "hamiltonian")
    if H.shape != (dim, dim):
        raise ScenarioError(f"hamiltonian: shape {H.shape}, expected ({dim}, {dim})")
    defect = hilbert.hermiticity_defect(H)
    if defect > 1e-12:
        raise ScenarioError(f"hamiltonian: not Hermitian, max violation {defect:.3e}")
    ops = []
    for i, raw in enumerate(data.get("lindblad_ops", [])):
        L = pairs_to_complex(raw, f"lindblad_ops[{i}]")
        if L.shape != (dim, dim):
            raise ScenarioError(
                f"lindblad_ops[{i}]: shape {L.shape}, expected ({dim}, {dim})")
        ops.append(L)

    freedom_spec = data.get("freedom", "standard")
    try:
        parse_freedom(freedom_spec, len(ops))
    except ValueError as exc:
        raise ScenarioError(f"freedom: {exc}") from None

    psi0 = None
    if "psi0" in data:
        psi0 = pairs_to_complex(data["psi0"], "psi0")
        if psi0.shape != (dim,):
            raise ScenarioError(f"psi0: shape {psi0.shape}, expected ({dim},)")
        dev = abs(hilbert.norm2(psi0) - 1.0)
        if dev > 1e-9:
            raise ScenarioError(f"psi0: not normalized, |norm^2 - 1| = {dev:.3e}")

    integration = None
    if "integration" in data:
        raw = data["integration"]
        try:
            integration = IntegrationConfig(
                dt=float(_require(raw, "dt")),
                t_final=float(_require(raw, "t_final")),
                seed=int(raw.get("seed", 0)),
                renormalize=bool(raw.get("renormalize", True)),
                record_stride=int(raw.get("record_stride", 1)),
            )
        except ValueError as exc:
            raise ScenarioError(f"integration: {exc}") from None

    gks = None
    if "gks" in data:
        raw = data["gks"]
        basis = tuple(
            pairs_to_complex(F, f"gks.basis[{i}]")
            for i, F in enumerate(raw.get("basis", [])))
        try:
            gks = GKSForm(
                hamiltonian=pairs_to_complex(_require(raw, "hamiltonian"),
                                             "gks.hamiltonian"),
                kossakowski=pairs_to_complex(_require(raw, "kossakowski"),
                                             "gks.kossakowski"),
                basis_ops=basis,
            )
        except ValueError as exc:
            raise ScenarioError(f"gks: {exc}") from None

    scenario = Scenario(
        dim=dim, hamiltonian=H, lindblad_ops=ops, freedom_spec=freedom_spec,
        psi0=psi0, integration=integration,
        trajectories=int(data.get("trajectories", 1)),
        checkpoints=[float(t) for t in data.get("checkpoints", [])],
        gks=gks,
        variance_phases=[float(f) for f in data.get("variance_phases", [])],
    )
    try:
        scenario.model()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return scenario


def parse_scenario(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(data)
