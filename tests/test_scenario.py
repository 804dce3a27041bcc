"""Tests for scenario parsing, diagnostics, and round-tripping."""

import importlib.resources
import json

import numpy as np
import pytest

from qunravel.scenario import (Scenario, ScenarioError, complex_to_pairs,
                               pairs_to_complex, parse_scenario,
                               scenario_from_dict)

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


def test_bad_integration_block():
    bad = json.loads(json.dumps(MINIMAL))
    bad["integration"] = {"dt": -1.0, "t_final": 1.0}
    with pytest.raises(ScenarioError, match="integration"):
        scenario_from_dict(bad)


def test_invalid_json_reports_line_number(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dim": 2,\n  oops\n}\n')
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario(path)


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
