"""Scenario and suite file handling.

One structured JSON format is used everywhere.  Complex matrices are nested
arrays of [re, im] pairs, never strings, so files round-trip bit-exactly and
stay language-neutral.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import hilbert
from .lindblad import GKSForm, LindbladModel
from .sde import IntegrationConfig
from .tolerances import TOL
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
            out["integration"] = asdict(self.integration)
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


def _known(data, keys, name=None):
    """Check that data is an object whose every key is in keys; a misspelt
    key would otherwise leave its default in force without a word."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{name or 'scenario'}: must be an object, "
                            f"got {data!r}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ScenarioError(f"{name + ': ' if name else ''}unknown key "
                            f"{', '.join(map(repr, unknown))}")


def _is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _integer(value, name, minimum=1):
    """A count or seed given as a JSON number: an integral value of at
    least minimum (1 or 0)."""
    if (not _is_number(value)
            or isinstance(value, float) and not value.is_integer()
            or value < minimum):
        kind = "positive" if minimum else "non-negative"
        raise ScenarioError(f"{name}: must be a {kind} integer, "
                            f"got {value!r}")
    return int(value)


def _number(value, name):
    """A JSON number, as a float."""
    if not _is_number(value):
        raise ScenarioError(f"{name}: must be a number, got {value!r}")
    return float(value)


def _numbers(values, name):
    """A list of JSON numbers, as floats."""
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{name}: must be a list of numbers, "
                            f"got {values!r}")
    return [_number(value, f"{name}[{i}]") for i, value in enumerate(values)]


def _matrices(values, name):
    """A JSON list of complex matrices; any other value is rejected, not
    iterated into misleading errors."""
    if not isinstance(values, list):
        raise ScenarioError(f"{name}: must be a list, got {values!r}")
    return [pairs_to_complex(v, f"{name}[{i}]") for i, v in enumerate(values)]


def _integration(raw):
    """The integration block: dt and t_final numbers, seed a non-negative
    integer, renormalize a boolean and record_stride a positive integer."""
    _known(raw, ("dt", "t_final", "seed", "renormalize", "record_stride"),
           "integration")
    renormalize = raw.get("renormalize", True)
    if not isinstance(renormalize, bool):
        raise ScenarioError(f"integration.renormalize: must be true or "
                            f"false, got {renormalize!r}")
    fields = dict(
        dt=_number(_require(raw, "dt"), "integration.dt"),
        t_final=_number(_require(raw, "t_final"), "integration.t_final"),
        seed=_integer(raw.get("seed", 0), "integration.seed", minimum=0),
        renormalize=renormalize,
        record_stride=_integer(raw.get("record_stride", 1),
                               "integration.record_stride"))
    try:
        return IntegrationConfig(**fields)
    except ValueError as exc:
        raise ScenarioError(f"integration: {exc}") from None


# a model's keys, and every key a scenario may have
MODEL_KEYS = ("dim", "hamiltonian", "lindblad_ops")
SCENARIO_KEYS = MODEL_KEYS + ("freedom", "psi0", "integration",
                              "trajectories", "checkpoints", "gks",
                              "variance_phases")


# the keys every ensemble run needs: without "trajectories" one trajectory
# would give a statistical tolerance no distance exceeds
ENSEMBLE_KEYS = ("trajectories", "psi0", "integration")


def scenario_from_dict(data, keys=SCENARIO_KEYS, required=()):
    """The Scenario of a JSON object each of whose keys is in keys; each
    key in required must be in it."""
    _known(data, keys)
    for key in required:
        _require(data, key)
    dim = _integer(_require(data, "dim"), "dim")
    H = pairs_to_complex(_require(data, "hamiltonian"), "hamiltonian")
    if H.shape != (dim, dim):
        raise ScenarioError(f"hamiltonian: shape {H.shape}, expected ({dim}, {dim})")
    defect = hilbert.hermiticity_defect(H)
    if defect > TOL.hermitian:
        raise ScenarioError(f"hamiltonian: not Hermitian, max violation {defect:.3e}")
    ops = _matrices(data.get("lindblad_ops", []), "lindblad_ops")
    for i, L in enumerate(ops):
        if L.shape != (dim, dim):
            raise ScenarioError(
                f"lindblad_ops[{i}]: shape {L.shape}, expected ({dim}, {dim})")

    freedom_spec = data.get("freedom", "standard")
    if not isinstance(freedom_spec, str):
        raise ScenarioError(f"freedom: must be a string, got {freedom_spec!r}")
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
        if not dev <= TOL.unit_norm:    # NaN fails too
            raise ScenarioError(f"psi0: not normalized, |norm^2 - 1| = {dev:.3e}")

    integration = None
    if "integration" in data:
        integration = _integration(data["integration"])

    gks = None
    if "gks" in data:
        raw = data["gks"]
        _known(raw, ("hamiltonian", "kossakowski", "basis"), "gks")
        basis = tuple(_matrices(raw.get("basis", []), "gks.basis"))
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

    variance_phases = _numbers(data.get("variance_phases", []),
                               "variance_phases")
    for i, f in enumerate(variance_phases):
        if not np.isfinite(f):
            raise ScenarioError(f"variance_phases[{i}]: must be finite, "
                                f"got {f}")

    scenario = Scenario(
        dim=dim, hamiltonian=H, lindblad_ops=ops, freedom_spec=freedom_spec,
        psi0=psi0, integration=integration,
        trajectories=_integer(data.get("trajectories", 1), "trajectories"),
        checkpoints=_numbers(data.get("checkpoints", []), "checkpoints"),
        gks=gks, variance_phases=variance_phases,
    )
    try:
        scenario.model()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return scenario


def read_json(path, name):
    """The JSON in the file at path; bad UTF-8 or JSON is a ScenarioError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{name}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at "
                                f"byte {exc.start}") from None


def parse_scenario(path, required=()):
    """The scenario at path; each key in required must be in the file."""
    return scenario_from_dict(read_json(path, path), required=required)
