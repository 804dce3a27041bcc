"""End-to-end CLI tests running the entry point in-process."""

import json
import tracemalloc

import numpy as np
import pytest

from qunravel import cli, lindblad
from qunravel.hilbert import SIGMA_Z
from qunravel.scenario import complex_to_pairs, pairs_to_complex, parse_scenario

from randomized import random_model

S2 = 1.0 / np.sqrt(2.0)


def small_scenario(**overrides):
    data = {
        "dim": 2,
        "hamiltonian": complex_to_pairs(np.zeros((2, 2))),
        "lindblad_ops": [complex_to_pairs(SIGMA_Z)],
        "freedom": "standard",
        "psi0": complex_to_pairs(np.array([S2, S2])),
        "integration": {"dt": 0.001, "t_final": 0.05, "seed": 3,
                        "record_stride": 25},
        "trajectories": 40,
    }
    data.update(overrides)
    return data


def gks_block():
    """A d=2 GKS form whose Kossakowski matrix has a negative eigenvalue."""
    return {
        "hamiltonian": complex_to_pairs(np.zeros((2, 2))),
        "kossakowski": complex_to_pairs(np.diag([1.0, -0.5]).astype(complex)),
        "basis": [complex_to_pairs(np.array([[0, 1], [1, 0]]) * S2),
                  complex_to_pairs(np.array([[0, -1j], [1j, 0]]) * S2)],
    }


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_simulate_writes_csv_and_summary(tmp_path):
    scn = write(tmp_path, small_scenario())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out)]) == 0
    lines = (out / "rho.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "seed=3" in lines[0]
    assert lines[1].split(",")[0] == "time"
    assert len(lines) == 2 + 2   # header, columns, two record times
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trajectories"] == 40
    assert summary["seed"] == 3
    assert len(summary["config_hash"]) == 64
    assert summary["norm_drift_max"] > 0


def test_simulate_is_deterministic_across_runs(tmp_path):
    scn = write(tmp_path, small_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out2),
                     "--threads", "4"]) == 0
    assert (out1 / "rho.csv").read_bytes() == (out2 / "rho.csv").read_bytes()


def assert_compact_sorted_json(path):
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_config_hash_is_pinned(tmp_path):
    # Literal hash of this scenario; any change to the canonical form of a
    # scenario (pairs, key order, float text) breaks it.
    H = np.array([[0.5, 0.25 - 0.125j], [0.25 + 0.125j, -0.5]])
    L = np.array([[0.0, 1.0], [-0.0, -1j]])
    scn = write(tmp_path, small_scenario(
        hamiltonian=complex_to_pairs(H), lindblad_ops=[complex_to_pairs(L)],
        psi0=complex_to_pairs(np.array([S2, -S2 * 1j]))))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_hash"] == (
        "406010884477687acc0ad529cf256d0bc7584f9adf20fc9658b0c25da50dd07e")
    assert_compact_sorted_json(out / "summary.json")


def test_seed_override_changes_hash_and_data(tmp_path):
    scn = write(tmp_path, small_scenario())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--scenario", scn, "--out", str(out1)])
    cli.main(["simulate", "--scenario", scn, "--out", str(out2),
              "--seed", "99"])
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["config_hash"] != s2["config_hash"]
    assert s2["seed"] == 99
    assert (out1 / "rho.csv").read_bytes() != (out2 / "rho.csv").read_bytes()


def test_verify_suite_pass_and_fail_exit_codes(tmp_path, capsys):
    H = complex_to_pairs(np.zeros((2, 2)))
    sz = complex_to_pairs(SIGMA_Z)
    good = {"checks": [
        {"check": "generator-identity", "dim": 2, "hamiltonian": H,
         "lindblad_ops": [sz], "freedom": "standard", "samples": 10},
        {"check": "generator-identity", "dim": 2, "hamiltonian": H,
         "lindblad_ops": [sz], "freedom": "standard", "samples": 10,
         "fault": "drop_ell2", "expect": "fail"},
    ]}
    scn = write(tmp_path, good, "suite.json")
    out = tmp_path / "out"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["ok"] for r in report] == [True, True]
    assert_compact_sorted_json(out / "report.json")
    printed = capsys.readouterr().out
    assert printed.count("-> ok") == 2

    # an undetected-fault expectation flips the exit code
    bad = {"checks": [
        {"check": "generator-identity", "dim": 2, "hamiltonian": H,
         "lindblad_ops": [sz], "freedom": "standard", "samples": 10,
         "expect": "fail"},
    ]}
    scn_bad = write(tmp_path, bad, "suite_bad.json")
    assert cli.main(["verify", "--scenario", scn_bad,
                     "--out", str(tmp_path / "out2")]) == 1


@pytest.mark.parametrize("fields, message", [
    ({"check": "generator-identity", "samples": [5]},
     "check 'generator-identity': samples: must be a positive integer"),
    ({"check": "generator-identity", "seed": 1.5},
     "check 'generator-identity': seed: must be a non-negative integer"),
    ({"check": "unraveling-equivalence", "freedoms": ["standard"] * 2},
     "check 'unraveling-equivalence': missing required field 't'"),
    ({"check": "complete-positivity", "gks": gks_block(), "lindblad_ops": [],
      "times": ["1"]},
     "check 'complete-positivity': times[0]: must be a number"),
])
def test_bad_suite_entry_exits_2(tmp_path, capsys, fields, message):
    scn = write(tmp_path, {"checks": [small_scenario(**fields)]}, "suite.json")
    out = tmp_path / "out"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite", [[1], {"checks": 5}, {"checks": [5]}])
def test_malformed_suite_exits_2(tmp_path, capsys, suite):
    scn = write(tmp_path, suite, "suite.json")
    out = tmp_path / "out"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out)]) == 2
    assert ("error: suite: must be an object whose 'checks' is a list of "
            "objects") in capsys.readouterr().err
    assert not out.exists()


def test_parse_errors_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    assert cli.main(["simulate", "--scenario", str(broken),
                     "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["simulate", "--scenario", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2
    # usage errors from argparse also map to exit code 2
    assert cli.main(["simulate"]) == 2


@pytest.mark.parametrize("command", ["simulate", "variance-scan"])
@pytest.mark.parametrize("count", [0, -5, 2.7])
def test_bad_trajectory_count_exits_2(tmp_path, capsys, command, count):
    scn = write(tmp_path, small_scenario(trajectories=count))
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert "error: trajectories: must be a positive integer" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "choi"])
@pytest.mark.parametrize("field, value, message", [
    ("dim", "two", "dim: must be a positive integer"),
    ("dim", 2.5, "dim: must be a positive integer"),
    ("checkpoints", [0.01, "later"], "checkpoints[1]: must be a number"),
    ("variance_phases", ["pi"], "variance_phases[0]: must be a number"),
])
def test_bad_scenario_field_exits_2(tmp_path, capsys, command, field, value,
                                    message):
    scn = write(tmp_path, small_scenario(**{field: value}))
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("dt", None, "integration.dt: must be a number"),
    ("seed", [1], "integration.seed: must be a non-negative integer"),
    ("seed", 1.5, "integration.seed: must be a non-negative integer"),
    ("renormalize", "false", "integration.renormalize: must be true or false"),
    ("record_stride", 0, "integration.record_stride: must be a positive "
                         "integer"),
])
def test_bad_integration_field_exits_2(tmp_path, capsys, field, value,
                                       message):
    data = small_scenario()
    data["integration"][field] = value
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_override_out_of_range_exits_2(tmp_path, capsys, seed):
    scn = write(tmp_path, small_scenario())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out),
                     "--seed", seed]) == 2
    assert "error: --seed: seed must fit in 64 unsigned bits" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-1", "1.5", "two"])
def test_bad_thread_count_is_a_usage_error(tmp_path, capsys, threads):
    scn = write(tmp_path, small_scenario())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out),
                     "--threads", threads]) == 2
    assert "argument --threads" in capsys.readouterr().err
    assert not out.exists()


def test_diagonalize_command(tmp_path):
    data = small_scenario()
    data["gks"] = gks_block()
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["diagonalize", "--scenario", scn, "--out", str(out)]) == 0
    payload = json.loads((out / "diagonal.json").read_text())
    assert payload["rates"] == pytest.approx([1.0, -0.5])
    assert payload["completely_positive"] is False
    assert len(payload["lindblad_ops"]) == 2
    assert_compact_sorted_json(out / "diagonal.json")


def test_choi_command_model_and_gks(tmp_path):
    scn = write(tmp_path, small_scenario())
    out = tmp_path / "out"
    assert cli.main(["choi", "--scenario", scn, "--out", str(out),
                     "--time", "0.5"]) == 0
    payload = json.loads((out / "choi.json").read_text())
    assert payload["completely_positive"] is True
    assert payload["t"] == 0.5
    # the artifact holds exactly the floats of the library's Choi matrix
    choi = lindblad.choi_matrix(parse_scenario(scn).model(), 0.5)
    assert np.array_equal(pairs_to_complex(payload["choi"]), choi)
    assert payload["min_eigenvalue"] == float(np.linalg.eigvalsh(choi)[0])
    assert_compact_sorted_json(out / "choi.json")

    data = small_scenario()
    data["gks"] = gks_block()
    scn2 = write(tmp_path, data, "gks.json")
    out2 = tmp_path / "out2"
    assert cli.main(["choi", "--scenario", scn2, "--out", str(out2),
                     "--time", "0.05"]) == 0
    payload2 = json.loads((out2 / "choi.json").read_text())
    assert payload2["completely_positive"] is False
    assert payload2["min_eigenvalue"] < -1e-6
    choi2 = lindblad.gks_choi_matrix(parse_scenario(scn2).gks, 0.05)
    assert np.array_equal(pairs_to_complex(payload2["choi"]), choi2)


def plain_rows(M):
    """Reference: each row formatted in full, as the C encoder prints it."""
    return [cli._json(complex_to_pairs(row)) for row in M]


def bit_hermitian(rng, n):
    """A random matrix whose lower triangle is the exact conjugate of its
    upper one; the diagonal's imaginary parts are +0.0."""
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lower = np.tril_indices(n, -1)
    M[lower] = M.T.conj()[lower]
    M[np.diag_indices(n)] = M.diagonal().real
    return M


def formatted_entries(monkeypatch):
    """Count the complex entries _rows hands to complex_to_pairs."""
    count = [0]

    def counting(M):
        count[0] += np.size(M)
        return complex_to_pairs(M)

    monkeypatch.setattr(cli, "complex_to_pairs", counting)
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 40])
def test_rows_format_a_hermitian_matrix_once_with_the_same_bytes(
        monkeypatch, n):
    M = bit_hermitian(np.random.default_rng(n), n)
    expected = plain_rows(M)
    count = formatted_entries(monkeypatch)
    assert list(cli._rows(M)) == expected
    assert count[0] == n * (n + 1) // 2


def test_rows_mirror_signed_zeros_subnormals_and_exponents(monkeypatch):
    M = bit_hermitian(np.random.default_rng(5), 6)
    upper = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
             complex(5e-324, -2.5e-320), complex(1e-05, 1e+16),
             complex(-1.5e+300, 1e22), complex(0.1, -7e-08)]
    for (i, j), z in zip(zip(*np.triu_indices(6, 1)), upper):
        M[i, j], M[j, i] = z, z.conjugate()
    M[0, 0] = complex(3.0, -0.0)   # the diagonal is never mirrored
    expected = plain_rows(M)
    for text in ["[0.0,0.0]", "[-0.0,-0.0]", "[-0.0,0.0]", "[0.0,-0.0]",
                 "5e-324", "2.5e-320", "[1e-05,-1e+16]", "[3.0,-0.0]"]:
        assert text in "".join(expected)
    count = formatted_entries(monkeypatch)
    assert list(cli._rows(M)) == expected
    assert count[0] == 6 * 7 // 2


def test_rows_format_what_is_not_a_finite_exact_mirror(monkeypatch):
    rng = np.random.default_rng(9)
    general = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    flipped = bit_hermitian(rng, 7)
    flipped.view(np.uint64).reshape(7, 14)[5, 2 * 2 + 1] ^= 1
    nonfinite = bit_hermitian(rng, 7)
    for (i, j), z in [((0, 3), complex(np.nan, np.inf)),
                      ((1, 2), complex(np.inf, -np.inf)),
                      ((4, 6), complex(-np.inf, np.nan))]:
        nonfinite[i, j], nonfinite[j, i] = z, np.conj(z)
    for M, extra in [(general, 21), (flipped, 5), (nonfinite, 3 + 2 + 6)]:
        expected = plain_rows(M)
        count = formatted_entries(monkeypatch)
        assert list(cli._rows(M)) == expected
        # every row whose lower part is not an exact mirror is formatted
        # in full: extra counts the entries left of its diagonal
        assert count[0] == 28 + extra
    assert "NaN" in plain_rows(nonfinite)[3]


def test_choi_file_is_the_plain_per_row_text(tmp_path):
    model = random_model(np.random.default_rng(8), 8, 2)
    d8 = {"dim": 8, "hamiltonian": complex_to_pairs(model.hamiltonian),
          "lindblad_ops": [complex_to_pairs(L) for L in model.lindblad_ops]}
    gks = dict(small_scenario(), gks=gks_block())
    for data, time in [(d8, 0.2), (gks, 0.05)]:
        scn = write(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main(["choi", "--scenario", scn, "--out", str(out),
                         "--time", str(time)]) == 0
        scenario = parse_scenario(scn)
        choi = (lindblad.gks_choi_matrix(scenario.gks, time) if scenario.gks
                else lindblad.choi_matrix(scenario.model(), time))
        text = (out / "choi.json").read_text()
        payload = dict(json.loads(text), choi=complex_to_pairs(choi))
        assert text == cli._json(payload) + "\n"


@pytest.mark.parametrize("time", ["0", "-0.5", "nan", "inf"])
def test_choi_rejects_non_positive_time(tmp_path, capsys, time):
    scn = write(tmp_path, small_scenario())
    out = tmp_path / "out"
    assert cli.main(["choi", "--scenario", scn, "--out", str(out),
                     "--time", time]) == 2
    assert "error: --time must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_variance_scan_command(tmp_path, threads):
    # 600 trajectories make three chunks, so threads=2 forks two workers
    data = small_scenario(trajectories=600)
    data["variance_phases"] = [0.0, np.pi / 2]
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["variance-scan", "--scenario", scn, "--out", str(out),
                     "--threads", str(threads)]) == 0
    text = (out / "variance_scan.csv").read_bytes()
    lines = text.decode().splitlines()
    assert lines[1].split(",") == ["time", "mean_V_f=0", "mean_V_f=1.5708"]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    # f = pi/2 conserves the variance exactly for this model; f = 0 collapses
    assert np.allclose(rows[:, 2], 1.0, atol=1e-9)
    assert rows[-1, 1] < 1.0
    serial = tmp_path / "serial"
    assert cli.main(["variance-scan", "--scenario", scn, "--out", str(serial),
                     "--threads", "1"]) == 0
    assert (serial / "variance_scan.csv").read_bytes() == text


def test_variance_scan_rejects_a_non_hermitian_operator(tmp_path, capsys,
                                                        monkeypatch):
    # sigma_minus is a valid Lindblad operator, but V = <L^2> - <L>^2 needs
    # a Hermitian one: an input error, found before any trajectory runs
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a scan it should have rejected")

    monkeypatch.setattr(cli.sde, "simulate_ensemble", no_simulation)
    sigma_minus = np.array([[0, 1], [0, 0]], dtype=complex)
    scn = write(tmp_path, small_scenario(
        lindblad_ops=[complex_to_pairs(sigma_minus)]))
    out = tmp_path / "out"
    assert cli.main(["variance-scan", "--scenario", scn, "--out", str(out),
                     "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert "lindblad_ops[0]" in err and "Hermitian" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "variance-scan", "verify"])
def test_a_norm_blowup_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # H = diag(0, 1e308) overflows every state in the first dt = 4 step
    data = small_scenario(
        hamiltonian=complex_to_pairs(np.diag([0.0, 1e308])),
        integration={"dt": 4.0, "t_final": 12.0, "seed": 3},
        trajectories=8)
    if command == "verify":
        data = {"checks": [dict(data, check="ensemble-vs-exact",
                                checkpoints=[12.0])]}
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: state norm collapsed below")
    assert "non-finite in 8 trajectories" in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_variance_scan_memory_does_not_grow_with_the_ensemble(tmp_path):
    # 1024 trajectories recorded at 500 steps: keeping their (M, R, d)
    # states would take 16.4 MB; their per-chunk sums take 144 kB
    data = small_scenario(trajectories=1024, variance_phases=[0.0])
    data["integration"] = {"dt": 1e-3, "t_final": 0.5, "seed": 3,
                           "record_stride": 1}
    scn = write(tmp_path, data)
    kept = 1024 * 500 * 2 * 16
    tracemalloc.start()
    try:
        assert cli.main(["variance-scan", "--scenario", scn,
                         "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kept / 2


def test_missing_blocks_are_reported(tmp_path):
    data = small_scenario()
    del data["psi0"]
    scn = write(tmp_path, data)
    assert cli.main(["simulate", "--scenario", scn,
                     "--out", str(tmp_path / "o")]) == 2
    data2 = small_scenario()
    scn2 = write(tmp_path, data2, "nogks.json")
    assert cli.main(["diagonalize", "--scenario", scn2,
                     "--out", str(tmp_path / "o2")]) == 2
