"""Tests for scenario parsing, diagnostics, and round-tripping."""

import importlib.resources
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunravel.lindblad import gell_mann_basis
from qunravel.scenario import (SCENARIO_KEYS, Scenario, ScenarioError,
                               complex_to_pairs, pairs_to_complex,
                               parse_scenario, scenario_from_dict)

MINIMAL = {
    "dim": 2,
    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "lindblad_ops": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    ],
    "freedom": "standard",
    "psi0": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
    "integration": {"dt": 0.001, "t_final": 0.1, "seed": 7},
    "trajectories": 50,
    "checkpoints": [0.05, 0.1],
}


def test_complex_pairs_round_trip():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(pairs_to_complex(complex_to_pairs(M)), M)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.array_equal(pairs_to_complex(complex_to_pairs(v)), v)


def pairs_by_loop(M):
    """Reference: the element-by-element nested [re, im] representation."""
    M = np.asarray(M, dtype=complex)
    if M.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in M]
    return [pairs_by_loop(row) for row in M]


@pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 3, 2)])
def test_complex_to_pairs_matches_loop_and_keeps_negative_zero(shape):
    rng = np.random.default_rng(len(shape))
    M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    M.flat[0] = complex(-0.0, -0.0)
    M.flat[1] = complex(-0.0, 0.0)
    pairs = complex_to_pairs(M)
    # json spells out the sign of zero, so equal text means equal floats
    assert json.dumps(pairs) == json.dumps(pairs_by_loop(M))
    assert np.asarray(pairs).shape == shape + (2,)
    assert json.dumps(complex_to_pairs(M.reshape(-1)[:2])) \
        == "[[-0.0, -0.0], [-0.0, 0.0]]"


def test_pairs_to_complex_diagnostics():
    with pytest.raises(ScenarioError, match="psi0"):
        pairs_to_complex([[1.0, 2.0, 3.0]], "psi0")
    with pytest.raises(ScenarioError, match="numeric"):
        pairs_to_complex([["a", "b"]], "field")


def test_minimal_scenario_parses():
    sc = scenario_from_dict(MINIMAL)
    assert sc.dim == 2
    assert sc.trajectories == 50
    assert sc.checkpoints == [0.05, 0.1]
    model = sc.model()
    assert model.n_ops == 1
    u = sc.unraveling()
    assert u.noise_count == 1
    assert sc.integration.seed == 7


def test_missing_field_is_named():
    bad = dict(MINIMAL)
    del bad["hamiltonian"]
    with pytest.raises(ScenarioError, match="hamiltonian"):
        scenario_from_dict(bad)


def test_non_hermitian_hamiltonian_reports_violation():
    bad = json.loads(json.dumps(MINIMAL))
    bad["hamiltonian"][0][1] = [1.0, 0.0]   # upper off-diagonal only
    with pytest.raises(ScenarioError, match="not Hermitian.*violation"):
        scenario_from_dict(bad)


def test_unnormalized_psi0_reports_deviation():
    bad = json.loads(json.dumps(MINIMAL))
    bad["psi0"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ScenarioError, match="psi0: not normalized"):
        scenario_from_dict(bad)


def test_shape_mismatch_names_the_operator():
    bad = json.loads(json.dumps(MINIMAL))
    bad["lindblad_ops"] = [[[[1.0, 0.0]]]]
    with pytest.raises(ScenarioError, match=r"lindblad_ops\[0\]"):
        scenario_from_dict(bad)


def test_bad_freedom_spec_is_reported():
    bad = json.loads(json.dumps(MINIMAL))
    bad["freedom"] = "diosi-complex"
    bad["lindblad_ops"] = []
    with pytest.raises(ScenarioError, match="freedom"):
        scenario_from_dict(bad)


def test_non_string_freedom_is_reported():
    bad = json.loads(json.dumps(MINIMAL))
    bad["freedom"] = 5
    with pytest.raises(ScenarioError, match="^freedom: must be a string, "
                       "got 5$"):
        scenario_from_dict(bad)


def test_bad_integration_block():
    bad = json.loads(json.dumps(MINIMAL))
    for dt in (-1.0, float("nan")):
        bad["integration"] = {"dt": dt, "t_final": 1.0}
        with pytest.raises(ScenarioError, match="integration: dt and t_final "
                                                "must be positive"):
            scenario_from_dict(bad)


@pytest.mark.parametrize("field, value, message", [
    ("dt", None, "dt: must be a number"),
    ("dt", "0.001", "dt: must be a number"),
    ("t_final", [0.1], "t_final: must be a number"),
    ("t_final", True, "t_final: must be a number"),
    ("seed", [1], "seed: must be a non-negative integer"),
    ("seed", 1.5, "seed: must be a non-negative integer"),
    ("seed", -1, "seed: must be a non-negative integer"),
    ("seed", "7", "seed: must be a non-negative integer"),
    ("seed", False, "seed: must be a non-negative integer"),
    ("renormalize", "false", "renormalize: must be true or false"),
    ("renormalize", 0, "renormalize: must be true or false"),
    ("renormalize", None, "renormalize: must be true or false"),
    ("record_stride", 0, "record_stride: must be a positive integer"),
    ("record_stride", 2.5, "record_stride: must be a positive integer"),
    ("record_stride", "10", "record_stride: must be a positive integer"),
])
def test_bad_integration_field_is_rejected(field, value, message):
    bad = json.loads(json.dumps(MINIMAL))
    bad["integration"][field] = value
    with pytest.raises(ScenarioError, match=r"^integration\." + message):
        scenario_from_dict(bad)


@pytest.mark.parametrize("block", [[0.001, 0.1], 0.001, None])
def test_integration_block_must_be_an_object(block):
    bad = dict(MINIMAL, integration=block)
    with pytest.raises(ScenarioError, match="integration: must be an object"):
        scenario_from_dict(bad)


@pytest.mark.parametrize("where, key", [
    (None, "trajectoires"), ("integration", "sed"), ("gks", "kossakowsky")])
def test_an_unknown_key_is_rejected_by_name(where, key):
    # a misspelt key would leave its default in force: seed 0, one trajectory
    bad = json.loads(json.dumps(MINIMAL))
    bad["gks"] = {"hamiltonian": bad["hamiltonian"],
                  "kossakowski": complex_to_pairs(np.eye(3))}
    (bad[where] if where else bad)[key] = 5
    prefix = f"{where}: " if where else ""
    with pytest.raises(ScenarioError, match=f"^{prefix}unknown key '{key}'$"):
        scenario_from_dict(bad)
    del (bad[where] if where else bad)[key]
    scenario_from_dict(bad)
    # a caller's own keys are let through
    scenario_from_dict(dict(bad, check="ensemble-vs-exact"),
                       SCENARIO_KEYS + ("check",))


@pytest.mark.parametrize("data", [[MINIMAL], 5, "dim"])
def test_a_scenario_must_be_an_object(data):
    with pytest.raises(ScenarioError, match="^scenario: must be an object"):
        scenario_from_dict(data)


def test_integration_fields_are_read_as_given():
    data = json.loads(json.dumps(MINIMAL))
    data["integration"].update(dt=1, t_final=2, seed=2 ** 64 - 1,
                               renormalize=False, record_stride=4.0)
    cfg = scenario_from_dict(data).integration
    assert (cfg.dt, cfg.t_final, cfg.seed, cfg.renormalize,
            cfg.record_stride) == (1.0, 2.0, 2 ** 64 - 1, False, 4)
    assert type(cfg.dt) is float and type(cfg.record_stride) is int
    data["integration"] = {"dt": 0.001, "t_final": 0.1}
    cfg = scenario_from_dict(data).integration
    assert (cfg.seed, cfg.renormalize, cfg.record_stride) == (0, True, 1)


@pytest.mark.parametrize("count", [0, -5, 2.7, True, "40", None])
def test_bad_trajectory_count_is_rejected(count):
    bad = json.loads(json.dumps(MINIMAL))
    bad["trajectories"] = count
    with pytest.raises(ScenarioError, match="trajectories: must be a "
                                            "positive integer"):
        scenario_from_dict(bad)


@pytest.mark.parametrize("dim", ["two", "2", 2.5, 0, True, None])
def test_bad_dim_is_rejected(dim):
    bad = json.loads(json.dumps(MINIMAL))
    bad["dim"] = dim
    with pytest.raises(ScenarioError, match="dim: must be a positive integer"):
        scenario_from_dict(bad)


def test_integral_dim_is_accepted():
    data = json.loads(json.dumps(MINIMAL))
    data["dim"] = 2.0
    assert scenario_from_dict(data).dim == 2


@pytest.mark.parametrize("field", ["checkpoints", "variance_phases"])
@pytest.mark.parametrize("values, message", [
    (["a"], r"\[0\]: must be a number"),
    ([0.05, None], r"\[1\]: must be a number"),
    ([True], r"\[0\]: must be a number"),
    (0.05, ": must be a list of numbers"),
])
def test_non_numeric_time_lists_are_rejected(field, values, message):
    bad = json.loads(json.dumps(MINIMAL))
    bad[field] = values
    with pytest.raises(ScenarioError, match=field + message):
        scenario_from_dict(bad)


def test_integral_trajectory_count_is_accepted():
    data = json.loads(json.dumps(MINIMAL))
    data["trajectories"] = 40.0
    assert scenario_from_dict(data).trajectories == 40
    del data["trajectories"]
    assert scenario_from_dict(data).trajectories == 1


def test_invalid_json_reports_line_number(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dim": 2,\n  oops\n}\n')
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario(path)


def test_text_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(bytes.fromhex("fffe7b7d"))
    with pytest.raises(ScenarioError, match=f"^{path}: not UTF-8 text: "):
        parse_scenario(path)


def test_required_keys_must_be_in_the_file(tmp_path):
    data = json.loads(json.dumps(MINIMAL))
    data.pop("trajectories", None)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert parse_scenario(path).trajectories == 1
    with pytest.raises(ScenarioError,
                       match="^missing required field 'trajectories'$"):
        parse_scenario(path, required=("trajectories",))
    data["trajectories"] = 7
    path.write_text(json.dumps(data))
    assert parse_scenario(path, required=("trajectories",)).trajectories == 7


def write_scenario(scenario, path):
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_round_trip_through_file(tmp_path):
    sc = scenario_from_dict(MINIMAL)
    path = tmp_path / "scenario.json"
    write_scenario(sc, path)
    back = parse_scenario(path)
    assert back.to_dict() == sc.to_dict()
    assert np.array_equal(back.psi0, sc.psi0)
    assert back.integration == sc.integration


def test_gks_block_round_trip():
    data = json.loads(json.dumps(MINIMAL))
    s2 = 1.0 / np.sqrt(2.0)
    data["gks"] = {
        "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "kossakowski": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        "basis": [
            [[[0.0, 0.0], [s2, 0.0]], [[s2, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, -s2]], [[0.0, s2], [0.0, 0.0]]],
        ],
    }
    sc = scenario_from_dict(data)
    assert sc.gks is not None
    assert sc.gks.kossakowski.shape == (2, 2)
    back = scenario_from_dict(sc.to_dict())
    assert np.array_equal(back.gks.kossakowski, sc.gks.kossakowski)


def test_gks_block_diagnostics():
    data = json.loads(json.dumps(MINIMAL))
    data["gks"] = {
        "hamiltonian": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "kossakowski": [[[1.0, 0.0]]],
    }
    with pytest.raises(ScenarioError, match="gks"):
        scenario_from_dict(data)


def test_bundled_scenario_is_valid():
    ref = importlib.resources.files("qunravel") / "data" / "dephasing.json"
    sc = scenario_from_dict(json.loads(ref.read_text()))
    assert sc.dim == 2
    assert sc.trajectories >= 1000
    assert sc.variance_phases


def test_bundled_suite_is_well_formed():
    ref = importlib.resources.files("qunravel") / "data" / "default_suite.json"
    suite = json.loads(ref.read_text())
    kinds = {entry["check"] for entry in suite["checks"]}
    assert {"generator-identity", "ensemble-vs-exact",
            "unraveling-equivalence", "complete-positivity"} <= kinds
    assert any(entry.get("expect") == "fail" for entry in suite["checks"])


def bundled_dephasing():
    ref = importlib.resources.files("qunravel") / "data" / "dephasing.json"
    return json.loads(ref.read_text())


def gks_scenario():
    zero = complex_to_pairs(np.zeros((2, 2)))
    return {"dim": 2, "hamiltonian": zero, "lindblad_ops": [],
            "gks": {"hamiltonian": zero,
                    "kossakowski": complex_to_pairs(np.diag([1.0, 0.5, 0.25])),
                    "basis": [complex_to_pairs(F) for F in gell_mann_basis(2)]}}


def key_paths(data):
    """Every key of data, and every key of an object nested in it."""
    for key, value in data.items():
        yield (key,)
        if isinstance(value, dict):
            yield from ((key, sub) for sub in value)


REPLACEABLE = [(build, path) for build in (bundled_dephasing, gks_scenario)
               for path in key_paths(build())]
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=12), st.sampled_from(["phase:0.7", "unitary:5", "[]"]),
    st.just([]), st.just({}))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REPLACEABLE), WRONG_VALUES)
def test_a_replaced_key_parses_or_raises_a_scenario_error(where, value):
    # an uncaught exception would make the CLI exit 1, the code it keeps
    # for a failed verification, instead of 2 with the key named
    build, path = where
    data = build()
    block = data
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    try:
        scenario_from_dict(data)
    except ScenarioError:
        pass


@pytest.mark.parametrize("where, value", [
    ("lindblad_ops", 5), ("lindblad_ops", {"0": MINIMAL["lindblad_ops"][0]}),
    ("lindblad_ops", None), ("gks.basis", 5), ("gks.basis", "F")],
    ids=["lindblad_ops-5", "lindblad_ops-object", "lindblad_ops-null",
         "gks.basis-5", "gks.basis-string"])
def test_a_matrix_list_that_is_not_a_list_is_named(where, value):
    data = gks_scenario()
    if where == "gks.basis":
        data["gks"]["basis"] = value
    else:
        data[where] = value
    with pytest.raises(ScenarioError, match=f"^{where}: must be a list, got "):
        scenario_from_dict(data)
