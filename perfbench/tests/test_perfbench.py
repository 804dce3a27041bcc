"""Tests of the benchmark itself: metric names, self time, span parents,
input generation and the correctness gate.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import sys
import threading
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_and_workload_names_follow_the_rule(spec):
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RULE.fullmatch(name), name


def test_name_rule_rejects_bad_names():
    for bad in ("", ".hidden", "has space", "a/b", "x" * 65, "kernels:calls"):
        assert not NAME_RULE.fullmatch(bad), bad


def test_layer_metrics_cover_exactly_the_per_layer_list(spec):
    produced = set(tracing.layer_metrics([], 0)) | {"trace.overhead_s"}
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_workloads_match_the_generator(spec):
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)


def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent, 0, 0, {})


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.union_length([(4, 5), (0, 10)]) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),     # pool thread A
        _span(3, 2.0, 6.0, parent=1),     # pool thread B, overlaps A
        _span(4, 8.0, 9.0, parent=1),
        _span(5, 2.5, 3.5, parent=2),     # grandchild: only its parent sees it
        _span(6, 9.5, 12.0, parent=1),    # clipped to the parent's end
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0 + 0.5))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)


def test_pool_thread_spans_attach_to_the_open_ensemble():
    tracer = tracing.Tracer()

    def kernel():
        return tracer.call("kernels.simulate_chunk", lambda: None, (), {})

    def ensemble():
        workers = [threading.Thread(target=kernel) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()

    tracer.call("cli.main", tracer.call,
                ("sde.simulate_ensemble", ensemble, (), {}), {})
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    ens, = by_name["sde.simulate_ensemble"]
    main, = by_name["cli.main"]
    assert ens.parent == main.id
    assert [s.parent for s in by_name["kernels.simulate_chunk"]] == [ens.id] * 2
    after = tracer.call("kernels.simulate_chunk", lambda: None, (), {})
    assert after is None and tracer.spans[-1].parent is None


def test_wrap_binds_arguments_by_name_and_skips_missing_boundaries():
    fake = types.ModuleType("fake")

    def simulate_chunk(psi0, K, rotated, dt, dW, renormalize, record_steps,
                       backend=None):
        return None, None, None, np.array([0, 1, 0], dtype=np.uint8)

    fake.simulate_chunk = simulate_chunk
    tracer = tracing.Tracer()
    tracer.wrap(fake, "simulate_chunk", "kernels.simulate_chunk",
                tracing._kernel_counts)
    tracer.wrap(fake, "gone", "fake.gone")
    fake.simulate_chunk(np.zeros(2), None, None, 0.1, dW=np.zeros((3, 5, 1)),
                        renormalize=True, record_steps=None)
    metrics = tracing.layer_metrics(tracer.spans, 0)
    assert metrics["kernels.traj_steps"] == 15
    assert metrics["kernels.dW_bytes_computed"] == 15 * 8
    assert metrics["kernels.blowup_ratio"] == pytest.approx(1 / 3)
    assert tracer.missing == ["fake.gone"]
    tracer.uninstall()
    assert fake.simulate_chunk is simulate_chunk


def test_spans_are_recorded_when_the_call_raises():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.call("kernels.simulate_chunk", boom, (), {})
    assert tracer.spans[0].info == {}
    assert tracing.layer_metrics(tracer.spans, 0)["kernels.calls"] == 1


def test_seed_zero_reproduces_the_bundled_suite():
    with open(os.path.join(ROOT, inputs.BUNDLED_SUITE)) as fh:
        bundled = json.load(fh)
    assert inputs.reseed_suite(bundled, inputs.DEFAULT_SEED) == bundled
    other = inputs.reseed_suite(bundled, 5)
    assert other != bundled and inputs.reseed_suite(bundled, 5) == other


def test_step_grid_check_rejects_off_grid_checkpoints():
    entry = {"check": "ensemble-vs-exact", "trajectories": 1,
             "integration": {"dt": 0.3, "t_final": 0.9},
             "checkpoints": [0.6, 0.9]}
    inputs.check_step_grid({"checks": [entry]})
    for bad in ({"checkpoints": [0.5]}, {"integration": {"dt": 0.3, "t_final": 1.0}},
                {"checkpoints": [1.2]}):
        with pytest.raises(ValueError):
            inputs.check_step_grid({"checks": [dict(entry, **bad)]})


def test_generator_is_a_function_of_the_seed(tmp_path):
    plans = [inputs.generate("simulate-trace", seed, tmp_path / str(i), ROOT)
             for i, seed in enumerate((3, 3, 4))]
    files = [open(p["gates"][0]["scenario"]).read() for p in plans]
    assert files[0] == files[1] != files[2]


# --- the correctness gate flags corrupted outputs -------------------------

def _write_report(path, **change):
    reports = [
        {"check": "ensemble-vs-exact", "pass": True, "expect": "pass", "ok": True},
        {"check": "unraveling-equivalence", "pass": False, "expect": "fail",
         "ok": True},
    ]
    reports[0].update(change)
    with open(path / "report.json", "w") as fh:
        json.dump(reports, fh)


def test_gate_verify(tmp_path):
    _write_report(tmp_path)
    assert gate.check_verify(tmp_path, 2) == []
    assert gate.check_verify(tmp_path, 3)
    _write_report(tmp_path, ok=False)
    assert gate.check_verify(tmp_path, 2)


def _write_rho(path, rhos, times):
    d = rhos[0].shape[0]
    columns = ["time"] + [f"rho_{i}{j}_{p}" for i in range(d) for j in range(d)
                          for p in ("re", "im")]
    with open(path / "rho.csv", "w") as fh:
        fh.write("# config_hash=x seed=0\n" + ",".join(columns) + "\n")
        for t, rho in zip(times, rhos):
            row = [t] + [v for z in rho.ravel() for v in (z.real, z.imag)]
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def test_gate_simulate(tmp_path):
    times = np.array([0.1, 0.2])
    rho = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
    _write_rho(tmp_path, [rho, rho], times)
    assert gate.check_simulate(tmp_path, 2, times, rho, 0.01) == []
    assert gate.check_simulate(tmp_path, 2, times, np.diag([1.0, 0.0]), 0.01)
    assert gate.check_simulate(tmp_path, 2, np.array([0.1, 0.3]), rho, 0.01)
    _write_rho(tmp_path, [rho * 1.1, rho], times)
    problems = gate.check_simulate(tmp_path, 2, times, rho, 0.01)
    assert any("trace" in p for p in problems)
    not_psd = np.array([[1.2, 0.0], [0.0, -0.2]])
    _write_rho(tmp_path, [not_psd, rho], times)
    assert gate.check_simulate(tmp_path, 2, times, rho, 0.01)


def _write_choi(path, choi, cp=True, t=0.2):
    from qunravel.scenario import complex_to_pairs

    with open(path / "choi.json", "w") as fh:
        json.dump({"t": t, "completely_positive": cp,
                   "choi": complex_to_pairs(choi)}, fh)


def test_gate_choi(tmp_path):
    bell = np.zeros(4)
    bell[[0, 3]] = 1.0
    choi = np.outer(bell, bell).astype(complex)   # identity channel, d = 2
    _write_choi(tmp_path, choi)
    assert gate.check_choi(tmp_path, 2, 0.2) == []
    _write_choi(tmp_path, choi, cp=False)
    assert gate.check_choi(tmp_path, 2, 0.2) == ["completely_positive is not true"]
    _write_choi(tmp_path, 1.5 * choi)
    assert gate.check_choi(tmp_path, 2, 0.2)
    skew = choi.copy()
    skew[0, 1] = 1e-3j
    _write_choi(tmp_path, skew)
    assert gate.check_choi(tmp_path, 2, 0.2)
