"""Tests for the verification harness: hashing, checks, fault injection,
and the suite runner."""

import hashlib
import importlib.resources
import json
from types import SimpleNamespace

import numpy as np
import pytest

from qunravel import verify
from qunravel.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger
from qunravel.lindblad import GKSForm, LindbladModel
from qunravel.scenario import (ScenarioError, complex_to_pairs,
                               pairs_to_complex, scenario_from_dict)
from qunravel.sde import IntegrationConfig
from qunravel.unraveling import Unraveling
from qunravel.verify import (check_complete_positivity, check_ensemble_vs_exact,
                             check_generator_identity,
                             check_unraveling_equivalence, config_hash,
                             generator_deviation, random_state, run_suite,
                             statistical_tolerance, suite_ok)

from randomized import (random_freedom, random_hermitian, random_model,
                        random_unitary)

DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def test_config_hash_is_stable_and_key_order_insensitive():
    a = config_hash({"x": 1, "y": [1.0, 2.0]})
    b = config_hash({"y": [1.0, 2.0], "x": 1})
    assert a == b
    assert len(a) == 64
    assert config_hash({"x": 2}) != a
    # numpy and complex payloads are canonicalized, not repr()'d
    assert config_hash({"m": np.eye(2)}) == config_hash({"m": [[1.0, 0.0],
                                                               [0.0, 1.0]]})
    assert config_hash({"z": 1 + 2j}) == config_hash({"z": [1.0, 2.0]})


def canonical_by_recursion(obj):
    """Reference: the recursive canonical form config_hash used to build."""
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
        return {k: canonical_by_recursion(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical_by_recursion(v) for v in obj]
    return obj


def hash_by_recursion(config):
    payload = json.dumps(canonical_by_recursion(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def numpy_flavoured(obj, rng):
    """Swap plain values for the numpy and complex values callers pass."""
    if isinstance(obj, dict):
        return {k: numpy_flavoured(v, rng) for k, v in obj.items()}
    if isinstance(obj, list):
        if obj and all(isinstance(v, list) and len(v) == 2
                       and all(isinstance(x, float) for x in v) for v in obj):
            if rng.random() < 0.5:
                return pairs_to_complex(obj)     # a complex ndarray
        out = [numpy_flavoured(v, rng) for v in obj]
        return tuple(out) if rng.random() < 0.2 else out
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return np.int64(obj) if rng.random() < 0.5 else obj
    if isinstance(obj, float):
        return [np.float64, np.float32, float][rng.integers(3)](obj)
    return obj


def test_config_hash_matches_the_recursive_canonical_form():
    rng = np.random.default_rng(19)
    ref = importlib.resources.files("qunravel") / "data" / "default_suite.json"
    entries = json.loads(ref.read_text())["checks"]
    for _ in range(4):
        for entry in entries:
            config = numpy_flavoured(entry, rng)
            assert config_hash(config) == hash_by_recursion(config)
    special = {"z": complex(-0.0, 5e-324), "w": np.complex128(1e16 - 1e-05j),
               "m": np.array([[np.nan, np.inf], [-0.0, 1e300]]),
               "v": (np.float32(0.1), np.int32(-3), None, True, "s")}
    assert config_hash(special) == hash_by_recursion(special)

    # a GKS scenario with a dense Kossakowski matrix, as cli hashes it
    d = 6
    H = random_hermitian(rng, d)
    H -= np.trace(H) / d * np.eye(d)
    M = rng.normal(size=(d * d - 1,) * 2) + 1j * rng.normal(size=(d * d - 1,) * 2)
    scenario = scenario_from_dict({
        "dim": d, "hamiltonian": complex_to_pairs(H), "lindblad_ops": [],
        "gks": {"hamiltonian": complex_to_pairs(H),
                "kossakowski": complex_to_pairs(M @ M.conj().T)}})
    for config in [{"scenario": scenario.to_dict(), "seed": 0},
                   {"hamiltonian": scenario.gks.hamiltonian,
                    "kossakowski": scenario.gks.kossakowski,
                    "basis": scenario.gks.basis_ops, "seed": np.int64(0)}]:
        assert config_hash(config) == hash_by_recursion(config)
    with pytest.raises(TypeError):
        config_hash({"x": object()})


def test_statistical_tolerance_formula():
    assert statistical_tolerance(10000, 1e-3, 2) == pytest.approx(0.065)
    assert statistical_tolerance(100, 0.0, 3) == pytest.approx(0.9)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        U = random_unitary(rng, n)
        assert np.max(np.abs(dagger(U) @ U - np.eye(n))) < 1e-12


def test_random_model_and_state_are_well_formed():
    rng = np.random.default_rng(1)
    for _ in range(5):
        model = random_model(rng, 3)
        assert model.dim == 3
        psi = random_state(rng, 3)
        assert abs(np.vdot(psi, psi) - 1.0) < 1e-12
        freedom = random_freedom(rng, model.n_ops)
        Unraveling(model, freedom)   # must not raise


def test_generator_deviation_clean_vs_faulty():
    rng = np.random.default_rng(2)
    psi = random_state(rng, 2)
    assert generator_deviation(Unraveling(DEPHASING, "diosi-complex"),
                               psi) < 1e-13
    for fault in ("drop_ell2", "zero_ell_in_B"):
        u = Unraveling(DEPHASING, "diosi-complex", fault=fault)
        assert generator_deviation(u, psi) > 1e-3
    with pytest.raises(ValueError, match="unknown fault"):
        Unraveling(DEPHASING, "diosi-complex", fault="nope")
    # the ensemble path and the suite runner reject it before simulating
    cfg = IntegrationConfig(dt=1e-3, t_final=0.1, seed=8, renormalize=False)
    with pytest.raises(ValueError, match="unknown fault"):
        check_unraveling_equivalence(DEPHASING, ["standard", "standard"],
                                     PLUS, cfg, 10, 0.1,
                                     faults=[None, "drop_ell"])
    with pytest.raises(ValueError, match="1 faults given for 2 freedoms"):
        check_unraveling_equivalence(DEPHASING, ["standard", "standard"],
                                     PLUS, cfg, 10, 0.1, faults=[None])
    entry = {"check": "unraveling-equivalence", "dim": 2,
             "hamiltonian": complex_to_pairs(np.zeros((2, 2))),
             "lindblad_ops": [complex_to_pairs(SIGMA_Z)],
             "freedoms": ["standard", "standard"],
             "psi0": complex_to_pairs(PLUS),
             "integration": {"dt": 1e-3, "t_final": 0.1, "seed": 8},
             "trajectories": 10, "t": 0.1, "expect": "fail"}
    for faults, message in (([None, "drop_ell"], "unknown fault"),
                            ([None], "faults given")):
        with pytest.raises(ScenarioError, match=message):
            run_suite({"checks": [dict(entry, faults=faults)]})


def test_check_generator_identity_report():
    report = check_generator_identity(DEPHASING, "standard", samples=50, seed=1)
    assert report.passed and report.ok
    assert report.measured["max_deviation"] < 1e-12
    assert report.to_dict()["check"] == "generator-identity"
    faulty = check_generator_identity(DEPHASING, "standard", samples=50,
                                      seed=1, fault="drop_ell2")
    assert not faulty.passed
    faulty.expect = "fail"
    assert faulty.ok


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_deviation_fails_the_generator_identity(monkeypatch, bad):
    # max(worst, nan) keeps worst; the check must not pass over a NaN
    deviations = iter([1e-16, bad, 2e-16])
    monkeypatch.setattr(verify, "generator_deviation",
                        lambda u, psi: next(deviations))
    report = check_generator_identity(DEPHASING, "standard", samples=3)
    assert not report.passed
    assert not np.isfinite(report.measured["max_deviation"])


def test_check_complete_positivity_both_ways():
    cp = check_complete_positivity(GKSForm(np.zeros((2, 2)), np.eye(3)),
                                   [0.1, 1.0])
    assert cp.passed
    assert cp.measured["cp_expected"]
    non_cp = check_complete_positivity(
        GKSForm(np.zeros((2, 2)), np.diag([1.0, -0.5]).astype(complex),
                basis_ops=(SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2))),
        [0.05])
    assert non_cp.passed   # "passed" = the negative rate was detected
    assert not non_cp.measured["cp_expected"]
    assert min(non_cp.measured["rates"]) < 0


def test_check_ensemble_vs_exact_small_run():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.5, seed=4, record_stride=100)
    report = check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg, 2000,
                                     [0.25, 0.5])
    assert report.passed
    assert report.measured["max_distance"] <= report.tolerance


def test_check_ensemble_vs_exact_makes_one_oracle_call(monkeypatch):
    calls = []
    original = verify.lindblad.propagate_exact

    def counting(model, rho0, t):
        calls.append(np.array(t, dtype=float))
        return original(model, rho0, t)

    monkeypatch.setattr(verify.lindblad, "propagate_exact", counting)
    cfg = IntegrationConfig(dt=1e-3, t_final=0.5, seed=4)
    report = check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg, 50,
                                     [0.5, 0.125, 0.25])
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.array([125, 250, 500]) * 1e-3)
    assert list(report.measured["trace_distances"]) == ["0.125", "0.25", "0.5"]


def test_checkpoints_equal_to_six_digits_are_each_checked(monkeypatch):
    # 1.000001 and 1.000002 print alike with "%g"; the ensemble is exact at
    # the later one and a whole state off at the earlier one
    def ensemble(u, psi0, cfg, n, threads, record_steps):
        rho0 = np.outer(psi0, psi0.conj())
        exact = verify.lindblad.propagate_exact(u.model, rho0,
                                                record_steps * cfg.dt)
        exact[0] = np.diag([1.0, 0.0])
        return SimpleNamespace(rho_hat=exact)

    monkeypatch.setattr(verify.sde, "simulate_ensemble", ensemble)
    cfg = IntegrationConfig(dt=1e-6, t_final=1.000002, seed=4)
    report = check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg,
                                     10 ** 6, [1.000001, 1.000002])
    distances = report.measured["trace_distances"]
    assert list(distances) == ["1.000001", "1.000002"]
    assert distances["1.000001"] > 0.4 > report.tolerance
    assert report.measured["max_distance"] == distances["1.000001"]
    assert not report.passed


def test_check_ensemble_vs_exact_rejects_off_grid_checkpoint():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.5, seed=4)
    with pytest.raises(ValueError, match="multiple of dt"):
        check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg, 10, [0.2505])
    with pytest.raises(ValueError, match="checkpoint 1.0 is past t_final=0.5"):
        check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg, 10,
                                [0.25, 1.0])


def test_non_positive_checkpoints_are_rejected():
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=4)
    for checkpoints in ([0.0, 0.05], [0.0], [-0.05, 0.1], [np.nan]):
        with pytest.raises(ValueError, match="is not positive"):
            check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg, 10,
                                    checkpoints)
    # an infinite checkpoint once escaped as an OverflowError
    with pytest.raises(ValueError, match="checkpoint inf is past t_final"):
        check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg, 10,
                                [0.05, np.inf])
    with pytest.raises(ValueError, match="checkpoint 0.0 is not positive"):
        check_unraveling_equivalence(DEPHASING, ["standard", "standard"],
                                     PLUS, cfg, 10, 0.0)
    base = {"dim": 2, "hamiltonian": complex_to_pairs(np.zeros((2, 2))),
            "lindblad_ops": [complex_to_pairs(SIGMA_Z)],
            "psi0": complex_to_pairs(PLUS),
            "integration": {"dt": 1e-2, "t_final": 0.1, "seed": 4},
            "trajectories": 10}
    entries = [dict(base, check="ensemble-vs-exact", freedom="standard",
                    checkpoints=[0.0, 0.05]),
               dict(base, check="unraveling-equivalence",
                    freedoms=["standard", "standard"], t=0.0)]
    for entry in entries:
        with pytest.raises(ScenarioError,
                           match=f"check '{entry['check']}': checkpoint 0.0 "
                                 f"is not positive"):
            run_suite({"checks": [entry]})


def test_check_unraveling_equivalence_clean():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.3, seed=6)
    report = check_unraveling_equivalence(
        DEPHASING, ["standard", "linear-potential"], PLUS, cfg, 2000, 0.3)
    assert report.passed
    assert set(report.measured["pairwise"]) == {"0-1"}
    with pytest.raises(ValueError, match="two freedoms"):
        check_unraveling_equivalence(DEPHASING, ["standard"], PLUS, cfg,
                                     10, 0.3)


@pytest.mark.parametrize("fault", ["drop_ell2", "zero_ell_in_B"])
def test_fault_injection_is_detected(fault):
    cfg = IntegrationConfig(dt=1e-3, t_final=1.0, seed=8, renormalize=False)
    report = check_unraveling_equivalence(
        DEPHASING, ["standard", "standard"], PLUS, cfg, 2000, 1.0,
        faults=[None, fault])
    assert not report.passed   # the injected fault must break agreement
    report.expect = "fail"
    assert report.ok


def test_fault_run_is_thread_count_invariant():
    cfg = IntegrationConfig(dt=1e-2, t_final=0.5, seed=8, renormalize=False)
    runs = [check_unraveling_equivalence(
                DEPHASING, ["standard", "standard"], PLUS, cfg, 600, 0.5,
                faults=["drop_ell2", "zero_ell_in_B"],
                threads=threads).measured
            for threads in (1, 2)]
    assert runs[0] == runs[1]


def test_run_suite_dispatch_and_expected_failures():
    H = complex_to_pairs(np.zeros((2, 2)))
    sz = complex_to_pairs(SIGMA_Z)
    suite = {"checks": [
        {"check": "generator-identity", "dim": 2, "hamiltonian": H,
         "lindblad_ops": [sz], "freedom": "diosi-complex", "samples": 20,
         "seed": 0},
        {"check": "generator-identity", "dim": 2, "hamiltonian": H,
         "lindblad_ops": [sz], "freedom": "standard", "samples": 20,
         "seed": 0, "fault": "zero_ell_in_B", "expect": "fail"},
        {"check": "complete-positivity", "dim": 2, "hamiltonian": H,
         "lindblad_ops": [],
         "gks": {"hamiltonian": H,
                 "kossakowski": complex_to_pairs(np.eye(3))},
         "times": [0.1, 1.0]},
    ]}
    reports = run_suite(suite)
    assert [r.name for r in reports] == ["generator-identity",
                                         "generator-identity",
                                         "complete-positivity"]
    assert suite_ok(reports)
    assert [r.expect for r in reports] == ["pass", "fail", "pass"]


def suite_entry(check, **fields):
    """An entry of check with the scenario keys it reads, and fields."""
    H = complex_to_pairs(np.zeros((2, 2)))
    entry = {"check": check, "dim": 2, "hamiltonian": H,
             "lindblad_ops": [complex_to_pairs(SIGMA_Z)]}
    if check in ("ensemble-vs-exact", "unraveling-equivalence"):
        entry.update(psi0=complex_to_pairs(PLUS),
                     integration={"dt": 1e-2, "t_final": 0.1, "seed": 4},
                     trajectories=10)
    if check == "unraveling-equivalence":
        entry.update(freedoms=["standard", "standard"], t=0.1)
    if check == "complete-positivity":
        entry.update(lindblad_ops=[], gks={
            "hamiltonian": H, "kossakowski": complex_to_pairs(np.eye(3))})
    entry.update(fields)
    return entry


BAD_ENTRIES = [
    (suite_entry("generator-identity", samples=[5]),
     "samples: must be a positive integer"),
    (suite_entry("generator-identity", samples=0),
     "samples: must be a positive integer"),
    (suite_entry("generator-identity", samples=2.5),
     "samples: must be a positive integer"),
    (suite_entry("generator-identity", seed=-1),
     "seed: must be a non-negative integer"),
    (suite_entry("generator-identity", seed=1.5),
     "seed: must be a non-negative integer"),
    (suite_entry("generator-identity", seed="0"),
     "seed: must be a non-negative integer"),
    (suite_entry("unraveling-equivalence", t="0.1"), "t: must be a number"),
    (suite_entry("unraveling-equivalence", t=None), "t: must be a number"),
    ({k: v for k, v in suite_entry("unraveling-equivalence").items()
      if k != "t"}, "missing required field 't'"),
    (suite_entry("complete-positivity", times=["0.1"]),
     r"times\[0\]: must be a number"),
    (suite_entry("complete-positivity", times=0.1),
     "times: must be a list of numbers"),
    (suite_entry("complete-positivity", times=[]), "times must not be empty"),
    (suite_entry("ensemble-vs-exact", checkpoints=[0.1],
                 integration={"dt": 1e-2, "t_final": 0.1, "seed": [4]}),
     r"integration\.seed: must be a non-negative integer"),
    (suite_entry("unraveling-equivalence", freedoms=["standard", 1]),
     "freedoms: must be a list of strings, got"),
    (suite_entry("unraveling-equivalence", freedoms="standard"),
     "freedoms: must be a list of strings, got"),
    (suite_entry("unraveling-equivalence", faults=5),
     "faults: must be a list of strings or nulls, got 5"),
    (suite_entry("unraveling-equivalence", faults=[None, 1]),
     "faults: must be a list of strings or nulls"),
    (suite_entry("unraveling-equivalence", freedoms=["unitary:[[", "standard"]),
     r"unitary: must be JSON rows of \[re, im\] pairs"),
    (suite_entry("unraveling-equivalence",
                 freedoms=["unitary:[[1]]", "standard"]),
     r"unitary: must be JSON rows of \[re, im\] pairs"),
    (suite_entry("generator-identity", fault="drop_ell2", expect="pas"),
     "expect: must be 'pass' or 'fail', got 'pas'"),
    (suite_entry("complete-positivity", expect=None),
     "expect: must be 'pass' or 'fail', got None"),
    (suite_entry("generator-identity", freedom=5),
     "freedom: must be a string, got 5"),
    # one trajectory by default would give a tolerance of 3 d + 5 dt
    ({k: v for k, v in suite_entry("ensemble-vs-exact",
                                   checkpoints=[0.1]).items()
      if k != "trajectories"}, "missing required field 'trajectories'"),
    ({k: v for k, v in suite_entry("unraveling-equivalence").items()
      if k != "trajectories"}, "missing required field 'trajectories'"),
    # an ensemble without psi0 or an integration block has nothing to run
    *[({k: v for k, v in entry.items() if k != key},
       f"missing required field '{key}'")
      for entry in (suite_entry("ensemble-vs-exact", checkpoints=[0.1]),
                    suite_entry("unraveling-equivalence"))
      for key in ("psi0", "integration")],
]


@pytest.mark.parametrize("entry, message", BAD_ENTRIES)
def test_run_suite_rejects_bad_entry_fields(entry, message):
    with pytest.raises(ScenarioError,
                       match=f"^check '{entry['check']}': {message}"):
        run_suite({"checks": [entry]})


@pytest.mark.parametrize("suite", [
    [1], {"checks": 5}, {"checks": [suite_entry("generator-identity"), 5]},
    {}, {"checks": []}])
def test_run_suite_rejects_malformed_suites(suite):
    with pytest.raises(ScenarioError, match="^suite: must be an object whose "
                       "'checks' is a non-empty list of objects$"):
        run_suite(suite)


def test_run_suite_entry_fields_are_read_as_given():
    # integral values of any JSON number type give the same check and hash
    plain = run_suite({"checks": [
        suite_entry("generator-identity", samples=20, seed=3),
        suite_entry("unraveling-equivalence", t=0.1),
        suite_entry("complete-positivity", times=[0.1, 1])]})
    floats = run_suite({"checks": [
        suite_entry("generator-identity", samples=20.0, seed=3.0),
        suite_entry("unraveling-equivalence", t=0.1),
        suite_entry("complete-positivity", times=[0.1, 1.0])]})
    assert ([r.config_hash for r in plain]
            == [r.config_hash for r in floats])
    assert plain[0].measured["samples"] == 20


@pytest.mark.parametrize("trajectories, vacuous", [(36, True), (64, False)])
def test_ensemble_vs_exact_flags_a_bound_no_distance_can_exceed(trajectories,
                                                                vacuous):
    # d = 2, dt = 0.01: tol = 6 / sqrt(M) + 0.05 is at least 1 for M = 36,
    # and no trace distance between density matrices exceeds 1
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=3)
    r = check_ensemble_vs_exact(DEPHASING, "standard", PLUS, cfg,
                                trajectories, [0.1])
    assert (r.tolerance >= 1) == vacuous
    assert r.measured.get("vacuous") is (True if vacuous else None)


@pytest.mark.parametrize("trajectories, vacuous, freedoms", [
    pytest.param(100, True, ["standard", "diosi-complex"], id="100-True"),
    pytest.param(400, False, ["standard", "diosi-complex"], id="400-False"),
    pytest.param(100, False, ["standard"], id="one-member-100-False"),
])
def test_equivalence_flags_a_pairwise_bound_no_distance_can_exceed(
        trajectories, vacuous, freedoms):
    # tol = 6 / sqrt(M) + 0.05: 0.65 for M = 100, whose pairwise bound 2 tol
    # is above 1, and 0.35 for M = 400; one member has no pairwise bound,
    # and its distance to the exact state can exceed 0.65
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=3)
    r = check_unraveling_equivalence(DEPHASING, freedoms, PLUS, cfg,
                                     trajectories, 0.1,
                                     faults=[None] * len(freedoms))
    assert r.tolerance < 1
    assert r.measured.get("vacuous") is (True if vacuous else None)


def test_the_d32_oracle_entry_is_vacuous_and_the_bundled_suite_is_not(
        tmp_path):
    # the benchmark's d = 32 ensemble entry: M = 128, dt = 1e-3, tol 8.49
    d = 32
    rng = np.random.default_rng(32)
    model = random_model(rng, d, n_ops=2)
    psi0 = random_state(rng, d)
    entry = {"check": "ensemble-vs-exact", "dim": d,
             "hamiltonian": complex_to_pairs(model.hamiltonian),
             "lindblad_ops": [complex_to_pairs(L) for L in model.lindblad_ops],
             "psi0": complex_to_pairs(psi0),
             "integration": {"dt": 1e-3, "t_final": 0.2, "seed": 5},
             "trajectories": 128, "checkpoints": [0.05, 0.1, 0.15, 0.2]}
    report, = run_suite({"checks": [entry]})
    assert report.tolerance == pytest.approx(8.49, abs=5e-3)
    assert report.to_dict()["measured"]["vacuous"] is True
    assert report.config_hash == (
        "e53ed93cef99c454b3c056de45c1016f4771b2a2d29c24c3e0aafddab66d2dc9")
    ref = importlib.resources.files("qunravel") / "data" / "default_suite.json"
    reports = run_suite(json.loads(ref.read_text()))
    assert suite_ok(reports)
    assert not [r.name for r in reports if "vacuous" in r.measured]
    # every bundled entry's configuration hashes as it always has
    assert [r.config_hash for r in reports] == [
        "695b694a8566ec32d8098f347cc8f44a2be2de989b79e13f257cbf4514721aa6",
        "6d96eeadf21af57c489b7aae6331b71d5b1e1a8601f802383508aeb5e6df174e",
        "dd339926c383f36a39708b2fd530d38fd348dd9a1d29e13151920852659fa7c6",
        "5777bbb962ce061112af4548192f90e9ca0ad189599c4bfdf834d688cfb77a8d",
        "0e8c0274f04e423e4f9445807487a93c683df0eb7b87cb349e3cde022176abb3",
        "f71645cf58dbd071b0a334aea9eeef5957ac3b04141a94b2562b2ad3d0dbf6f9"]


def test_run_suite_rejects_unknown_check():
    with pytest.raises(ScenarioError, match="unknown check"):
        run_suite({"checks": [{"check": "nope"}]})


def test_run_suite_requires_gks_for_cp_check():
    H = complex_to_pairs(np.zeros((2, 2)))
    with pytest.raises(ScenarioError, match="gks"):
        run_suite({"checks": [{"check": "complete-positivity", "dim": 2,
                               "hamiltonian": H, "lindblad_ops": []}]})
