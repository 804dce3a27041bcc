"""End-to-end CLI tests running the entry point in-process."""

import concurrent.futures
import copy
import importlib.resources
import json
import os
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# the scenario keys a generator-identity or complete-positivity check does
# not read, and so rejects
UNREAD = {"generator-identity": ("psi0", "integration", "trajectories", "gks"),
          "complete-positivity": ("freedom", "psi0", "integration",
                                  "trajectories")}


def trimmed(entry):
    """A suite entry without the scenario keys its check does not read."""
    unread = UNREAD.get(entry["check"], ())
    return {key: value for key, value in entry.items() if key not in unread}


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def bundled(name):
    ref = importlib.resources.files("qunravel") / "data" / name
    return json.loads(ref.read_text())


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


@pytest.mark.parametrize("command", ["simulate", "variance-scan"])
def test_seed_flag_writes_the_bytes_of_that_seed_in_the_file(tmp_path,
                                                             command):
    flagged, edited = tmp_path / "flagged", tmp_path / "edited"
    data = small_scenario()
    scn = write(tmp_path, data)
    data["integration"]["seed"] = 99
    scn99 = write(tmp_path, data, "seed99.json")
    assert cli.main([command, "--scenario", scn, "--out", str(flagged),
                     "--seed", "99"]) == 0
    assert cli.main([command, "--scenario", scn99, "--out", str(edited)]) == 0
    names = sorted(path.name for path in flagged.iterdir())
    assert names == sorted(path.name for path in edited.iterdir())
    for name in names:
        assert (flagged / name).read_bytes() == (edited / name).read_bytes()


# every flag a command takes is one it reads; each of these it does not
@pytest.mark.parametrize("command, flag", [
    ("diagonalize", "--seed"), ("diagonalize", "--threads"),
    ("diagonalize", "--no-renormalize"), ("choi", "--seed"),
    ("choi", "--threads"), ("choi", "--no-renormalize"), ("verify", "--seed"),
    ("verify", "--no-renormalize"), ("simulate", "--no-renormalize"),
    ("variance-scan", "--no-renormalize")])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command,
                                                  flag):
    data = dict(small_scenario(), gks=gks_block())
    if command == "verify":
        data = {"checks": [trimmed(dict(data, check="generator-identity",
                                        samples=5))]}
    scn = write(tmp_path, data)
    # the scenario is one the command runs without the flag
    assert cli.main([command, "--scenario", scn,
                     "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    value = [] if flag == "--no-renormalize" else ["2"]
    assert cli.main([command, "--scenario", scn, "--out", str(out), flag,
                     *value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err
    assert not out.exists()


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
    ({"check": "unraveling-equivalence", "freedoms": ["standard", 1],
      "t": 0.05},
     "check 'unraveling-equivalence': freedoms: must be a list of strings"),
    ({"check": "unraveling-equivalence", "freedoms": ["unitary:[[", "standard"],
      "t": 0.05},
     "check 'unraveling-equivalence': unitary: must be JSON rows of [re, im] "
     "pairs"),
    ({"check": "generator-identity", "fault": "drop_ell2", "expect": "pas"},
     "check 'generator-identity': expect: must be 'pass' or 'fail', got "
     "'pas'"),
    ({"check": "ensemble-vs-exact", "checkpoints": [0.05],
      "trajectories": None},
     "check 'ensemble-vs-exact': trajectories: must be a positive integer"),
])
def test_bad_suite_entry_exits_2(tmp_path, capsys, fields, message):
    scn = write(tmp_path, {"checks": [trimmed(small_scenario(**fields))]},
                "suite.json")
    out = tmp_path / "out"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite", [[1], {"checks": 5}, {"checks": [5]}, {},
                                   {"checks": []}])
def test_malformed_suite_exits_2(tmp_path, capsys, suite):
    scn = write(tmp_path, suite, "suite.json")
    out = tmp_path / "out"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out)]) == 2
    assert ("error: suite: must be an object whose 'checks' is a non-empty "
            "list of objects") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["unitary:[[1]]", "unitary:[["])
def test_malformed_unitary_freedom_exits_2(tmp_path, capsys, spec):
    scn = write(tmp_path, small_scenario(freedom=spec))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", scn, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: freedom: unitary: must be JSON rows of [re, im] pairs: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "choi", "verify"])
def test_a_unitary_with_fewer_rows_than_operators_exits_2(tmp_path, capsys,
                                                          command):
    # it once passed the parser, and simulate raised "noise count 1 <
    # operator count 2" with a traceback and exit 1
    data = small_scenario(
        lindblad_ops=[complex_to_pairs(SIGMA_Z),
                      complex_to_pairs(np.array([[0, 1], [1, 0]]))],
        freedom="unitary:[[[1,0]]]")
    if command == "verify":
        data = {"checks": [dict(data, check="ensemble-vs-exact")]}
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert ("freedom: unitary: 1 rows, fewer than the 2 Lindblad ops"
            in capsys.readouterr().err)
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
    ("freedom", 5, "freedom: must be a string, got 5"),
    # non-finite values once ran into a norm blow-up that blamed the step
    # size, or left a traceback
    ("freedom", "phase:nan", "freedom: phase must be finite, got nan"),
    ("freedom", "phase:-inf", "freedom: phase must be finite, got -inf"),
    ("variance_phases", [0.0, float("inf")],
     "variance_phases[1]: must be finite, got inf"),
    ("psi0", [[float("nan"), 0.0], [S2, 0.0]], "psi0: not normalized"),
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


def writer_matrix(kind, n):
    """A matrix of one kind and the number of entries below its diagonal
    that _rows must format, not mirror: a lower tile, or a row's part of
    a diagonal tile, that is not a finite exact mirror."""
    rng = np.random.default_rng(n)
    if kind == "general":
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), \
            n * (n - 1) // 2
    M = bit_hermitian(rng, n)
    # entry (n - 1, 1) lies in the lower tile of the last tile row and the
    # first tile column, and that whole tile is formatted
    corner = (n - (n - 1) // cli._TILE * cli._TILE) * cli._TILE
    if kind == "flipped":
        M.view(np.uint64).reshape(n, 2 * n)[n - 1, 2 * 1 + 1] ^= 1
        return M, corner
    if kind == "nonfinite":
        for (i, j), z in [((0, 3), complex(np.nan, np.inf)),
                          ((1, n - 1), complex(np.inf, -np.nan))]:
            M[i, j], M[j, i] = z, np.conj(z)
        return M, 3 + corner     # and row 3 inside the first diagonal tile
    return M, 0


def fork_pools(monkeypatch, cpus):
    """Give this process `cpus` CPUs; returns the worker count of every
    process pool then started."""
    monkeypatch.setattr(cli.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    started = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        started.append(max_workers)
        return pool_class(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("kind", ["hermitian", "general", "flipped",
                                  "nonfinite"])
@pytest.mark.parametrize("n", [65, 128, 130, 200])
def test_rows_are_the_plain_text_across_tiles_and_workers(monkeypatch, n,
                                                          kind, cpus):
    M, formatted_below = writer_matrix(kind, n)
    expected = plain_rows(M)
    started = fork_pools(monkeypatch, cpus)
    count = formatted_entries(monkeypatch)
    assert list(cli._rows(M)) == expected
    tiles = -(-n // cli._TILE)
    if cpus == 1:
        assert started == []
        assert count[0] == n * (n + 1) // 2 + formatted_below
    else:
        # the forked workers format every entry, this process none
        assert started == [min(cpus, tiles)]
        assert count[0] == 0


def test_rows_let_go_of_the_matrix_once_the_workers_are_forked(monkeypatch):
    M = bit_hermitian(np.random.default_rng(3), 130)
    expected = plain_rows(M)
    started = fork_pools(monkeypatch, 2)
    matrix = weakref.ref(M)
    rows = cli._rows(M)
    del M
    first = next(rows)
    assert started == [2] and matrix() is None
    assert [first] + list(rows) == expected


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


@pytest.mark.parametrize("command", ["simulate", "variance-scan", "verify"])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    scn = tmp_path / "scenario.json"
    scn.write_bytes(bytes.fromhex("fffe7b7d"))
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", str(scn), "--out", str(out)]) == 2
    assert f"error: {scn}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "variance-scan"])
def test_an_ensemble_command_needs_the_trajectory_count(tmp_path, capsys,
                                                        command):
    data = small_scenario()
    del data["trajectories"]
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert ("error: missing required field 'trajectories'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("key", ["psi0", "integration"])
def test_an_ensemble_input_without_its_state_or_steps_exits_2(tmp_path,
                                                              capsys, key):
    # each ensemble entry of the bundled suite, and each ensemble command's
    # scenario, names the missing key instead of raising
    entries = [entry for entry in bundled("default_suite.json")["checks"]
               if entry["check"] in ("ensemble-vs-exact",
                                     "unraveling-equivalence")]
    assert len(entries) == 3
    inputs = [("verify", {"checks": [entry]}, f"check {entry['check']!r}: ")
              for entry in entries]
    inputs += [(command, small_scenario(), "")
               for command in ("simulate", "variance-scan")]
    for command, data, prefix in inputs:
        del (data["checks"][0] if command == "verify" else data)[key]
        scn = write(tmp_path, data)
        out = tmp_path / "out"
        assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
        assert (f"error: {prefix}missing required field '{key}'\n"
                in capsys.readouterr().err)
        assert not out.exists()


def suite_of(**fields):
    """A one-entry ensemble-vs-exact suite on small_scenario, with fields."""
    return {"checks": [small_scenario(check="ensemble-vs-exact",
                                      checkpoints=[0.05], **fields)]}


@pytest.mark.parametrize("command, data, message", [
    ("simulate",
     small_scenario(integration={"dt": 0.001, "t_final": 0.05, "sed": 5}),
     "integration: unknown key 'sed'"),
    ("simulate", small_scenario(trajectoires=40),
     "unknown key 'trajectoires'"),
    ("verify", suite_of(trajectoires=40),
     "check 'ensemble-vs-exact': unknown key 'trajectoires'"),
    ("verify", suite_of(t=0.05),          # read only by another check
     "check 'ensemble-vs-exact': unknown key 't'"),
    ("verify", dict(suite_of(), chekcs=[]), "suite: unknown key 'chekcs'"),
    ("choi", small_scenario(gks=dict(gks_block(), kosakowski=[])),
     "gks: unknown key 'kosakowski'"),
])
def test_an_unknown_key_exits_2_and_is_named(tmp_path, capsys, command, data,
                                             message):
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "diagonalize", "choi",
                                     "verify"])
@pytest.mark.parametrize("data, message", [
    (small_scenario(lindblad_ops=5), "lindblad_ops: must be a list, got 5"),
    (small_scenario(gks=dict(gks_block(), basis=5)),
     "gks.basis: must be a list, got 5"),
], ids=["lindblad_ops", "gks.basis"])
def test_a_matrix_list_that_is_not_a_list_exits_2(tmp_path, capsys, command,
                                                  data, message):
    if command == "verify":
        data = {"checks": [trimmed(dict(data, check="complete-positivity"))]}
        message = f"check 'complete-positivity': {message}"
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


# each scenario key the bundled entry's check does not read
@pytest.mark.parametrize("check, key", [
    *[("generator-identity", key) for key in (
        "psi0", "integration", "trajectories", "checkpoints", "gks",
        "variance_phases")],
    ("ensemble-vs-exact", "gks"), ("ensemble-vs-exact", "variance_phases"),
    *[("unraveling-equivalence", key) for key in (
        "checkpoints", "gks", "variance_phases")],
    *[("complete-positivity", key) for key in (
        "freedom", "psi0", "integration", "trajectories", "checkpoints",
        "variance_phases")]])
def test_a_suite_entry_key_its_check_does_not_read_exits_2(tmp_path, capsys,
                                                           check, key):
    # an unread key would be ignored without a word: checkpoints added to
    # an unraveling-equivalence entry would leave it checked at t alone
    donor = dict(bundled("dephasing.json"), gks=gks_block(),
                 checkpoints=[0.1, 0.5])
    entry = next(e for e in bundled("default_suite.json")["checks"]
                 if e["check"] == check)
    assert key not in entry
    entry[key] = donor[key]
    scn = write(tmp_path, {"checks": [entry]}, "suite.json")
    out = tmp_path / "out"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out)]) == 2
    assert (f"error: check {check!r}: unknown key {key!r}\n"
            in capsys.readouterr().err)
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command", ["diagonalize", "choi", "verify"])
@pytest.mark.parametrize("part, value", [
    ("kossakowski", NAN), ("kossakowski", INF), ("basis", NAN),
    ("hamiltonian", NAN)])
def test_a_gks_form_with_non_finite_data_exits_2(tmp_path, capsys, command,
                                                 part, value):
    # NaN fails no "x > tol" check: diag(NaN, 1, 1) was diagonalized into
    # rates [NaN, 1, 1], which is not JSON
    gks = {"hamiltonian": np.zeros((2, 2)), "kossakowski": np.eye(3),
           "basis": lindblad.gell_mann_basis(2)}
    gks[part] = np.array(gks[part], dtype=complex)
    target = gks[part][0] if part == "basis" else gks[part]
    target[0, 0] = value
    data = {"dim": 2, "hamiltonian": complex_to_pairs(np.zeros((2, 2))),
            "lindblad_ops": [], "gks": {
                "hamiltonian": complex_to_pairs(gks["hamiltonian"]),
                "kossakowski": complex_to_pairs(gks["kossakowski"]),
                "basis": [complex_to_pairs(F) for F in gks["basis"]]}}
    if command == "verify":
        data = {"checks": [dict(data, check="complete-positivity")]}
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", scn, "--out", str(out)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


HUGE = complex_to_pairs(np.diag([1e300, -1e300]).astype(complex))
# a PSD Kossakowski matrix whose superoperator's norm overflows
NEAR_MAX = complex_to_pairs(np.array([[1.7e308, 1.7e308, 0],
                                      [1.7e308, 1.7e308, 0],
                                      [0, 0, 1]], dtype=complex))


NEAR_MAX_GKS = small_scenario(gks={
    "hamiltonian": complex_to_pairs(np.zeros((2, 2))), "kossakowski": NEAR_MAX})


@pytest.mark.parametrize("command, data, message", [
    ("choi", small_scenario(hamiltonian=HUGE), "propagator at t=1"),
    ("choi", NEAR_MAX_GKS, "propagator at t=1"),
    ("verify", {"checks": [{
        "check": "complete-positivity", "dim": 2,
        "hamiltonian": complex_to_pairs(np.zeros((2, 2))), "lindblad_ops": [],
        "gks": dict(gks_block(), hamiltonian=HUGE)}]}, "propagator at t=1"),
    ("diagonalize", NEAR_MAX_GKS, "kossakowski eigenvalues overflow")])
def test_a_generator_that_overflows_exits_2(tmp_path, capsys, command, data,
                                            message):
    # exp(t L) of a generator near the float range is not finite: eigvalsh
    # of its Choi matrix raised LinAlgError, or the scaling step
    # OverflowError, each exiting 1 like a failed verification; an infinite
    # rate was written to diagonal.json as Infinity, which is not JSON
    scn = write(tmp_path, data)
    out = tmp_path / "out"
    args = ["--time", "1"] if command == "choi" else []
    assert cli.main([command, "--scenario", scn, "--out", str(out),
                     *args]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_misspelt_trajectory_count_cannot_pass_a_fault(tmp_path, capsys):
    # the bundled drop_ell2 entry with its count misspelt would run one
    # trajectory, whose tolerance 3 d + 5 dt no trace distance can exceed;
    # the misspelt key is rejected by name
    ref = importlib.resources.files("qunravel") / "data" / "default_suite.json"
    suite = json.loads(ref.read_text())
    entry, = [e for e in suite["checks"] if e.get("faults")]
    entry["trajectoires"] = entry.pop("trajectories")
    entry["expect"] = "pass"
    scn = write(tmp_path, {"checks": [entry]}, "suite.json")
    out = tmp_path / "out"
    assert cli.main(["verify", "--scenario", scn, "--out", str(out)]) == 2
    assert ("error: check 'unraveling-equivalence': unknown key "
            "'trajectoires'" in capsys.readouterr().err)
    assert not out.exists()


# (command, input) pairs to mutate: the bundled scenario under each command
# that reads one, and each bundled suite entry, all at 64 trajectories
MUTATION_SOURCES = (
    [(command, dict(bundled("dephasing.json"), trajectories=64))
     for command in ("simulate", "variance-scan", "choi")]
    + [("verify", dict(entry, trajectories=64) if "trajectories" in entry
        else entry) for entry in bundled("default_suite.json")["checks"]])
ENSEMBLE_ENTRY = next(entry for _, entry in MUTATION_SOURCES
                      if entry.get("check") == "ensemble-vs-exact")
# a value of each JSON type, for retyping a key
JSON_VALUES = [None, True, 0, 1.5, "x", [], {}]


@st.composite
def mutants(draw):
    """A source with one key, at the top or one level down, dropped,
    renamed or given a value of another type."""
    command, data = draw(st.sampled_from(MUTATION_SOURCES))
    data = copy.deepcopy(data)
    holder, key = draw(st.sampled_from(
        [(data, key) for key in data]
        + [(value, key) for value in data.values() if isinstance(value, dict)
           for key in value]))
    value = holder.pop(key)
    how = draw(st.sampled_from(["drop", "rename", "retype"]))
    if how == "rename":
        holder[key + "_"] = value
    elif how == "retype":
        holder[key] = draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(value)]))
    return command, data


@settings(max_examples=200, deadline=None)
@example(mutant=("verify", {key: value for key, value
                            in ENSEMBLE_ENTRY.items() if key != "integration"}))
@given(mutant=mutants())
def test_a_mutated_bundled_input_exits_0_1_or_2(mutant):
    # an input error exits 2 with a message, never with a traceback, which
    # would exit 1 like a failed verification
    command, data = mutant
    if command == "verify":
        data = {"checks": [data]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        assert cli.main([command, "--scenario", path,
                         "--out", os.path.join(tmp, "out")]) in (0, 1, 2)
