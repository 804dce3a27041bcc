"""Tests for the integration layer: configs, RNG streams, trajectories,
ensembles, and parallel reproducibility."""

import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from qunravel import kernels, sde, verify
from qunravel.hilbert import SIGMA_Z
from qunravel.lindblad import LindbladModel
from qunravel.sde import (IntegrationConfig, NormBlowupError, simulate_ensemble,
                          simulate_trajectory, trajectory_rng)
from qunravel.unraveling import Unraveling

from randomized import random_model

DEPHASING = Unraveling(LindbladModel(np.zeros((2, 2)), (SIGMA_Z,)), "standard")
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def wiener_increments(rng, n, dt):
    """n independent Gaussian increments with mean 0 and variance dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return rng.normal(0.0, np.sqrt(dt), size=n)


ENSEMBLE_ARRAYS = ("times", "rho_hat", "std_error", "norm_drift",
                   "norm_drift_mean", "final_states")
# a nonlinear per-record statistic: <P_0>^2 = |psi_0|^4 per trajectory
P0_SQUARED = {"p0^2": lambda psi: (np.abs(psi[:, 0]) ** 4).sum()}


def ensemble_bytes(est):
    """The bytes of every array of an ensemble, reducer means included."""
    arrays = {name: getattr(est, name) for name in ENSEMBLE_ARRAYS}
    arrays.update(est.means)
    return {name: array.tobytes() for name, array in arrays.items()}


def test_integration_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(dt=2.0, t_final=1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(dt=1e-10, t_final=1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(dt=0.1, t_final=1.0, record_stride=0)
    with pytest.raises(ValueError):
        IntegrationConfig(dt=0.1, t_final=1.0, seed=-1)
    with pytest.raises(ValueError, match="multiple of dt"):
        IntegrationConfig(dt=0.3, t_final=1.0)   # would stop at t = 0.9
    cfg = IntegrationConfig(dt=0.1, t_final=1.0)
    assert cfg.n_steps == 10


def test_record_steps_always_include_final():
    cfg = IntegrationConfig(dt=0.1, t_final=1.0, record_stride=3)
    assert cfg.record_steps().tolist() == [3, 6, 9, 10]
    cfg = IntegrationConfig(dt=0.1, t_final=1.0, record_stride=100)
    assert cfg.record_steps().tolist() == [10]
    assert np.allclose(cfg.record_times(), [1.0])


def test_trajectory_rng_is_a_pure_function_of_seed_and_index():
    a = trajectory_rng(42, 7).normal(size=16)
    b = trajectory_rng(42, 7).normal(size=16)
    c = trajectory_rng(42, 8).normal(size=16)
    d = trajectory_rng(43, 7).normal(size=16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def philox_state_bytes(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tobytes(), s["state"]["key"].tobytes(),
            s["buffer"].tobytes(), s["buffer_pos"], s["has_uint32"],
            s["uinteger"])


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("index", [0, 7, 2 ** 40 + 3, 2 ** 64 - 1])
def test_trajectory_rng_is_philox_keyed_by_seed_and_index(seed, index):
    # the key is handed over as the seed sequence's state: same key, counter
    # and stream as Philox(key=...), without drawing OS entropy
    got = trajectory_rng(seed, index)
    key = np.array([seed, index], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key))
    assert got.bit_generator.state["state"]["key"].tobytes() == key.tobytes()
    assert philox_state_bytes(got) == philox_state_bytes(ref)
    assert (got.standard_normal(1000).tobytes()
            == ref.standard_normal(1000).tobytes())
    assert philox_state_bytes(got) == philox_state_bytes(ref)


def test_wiener_increment_moments():
    rng = trajectory_rng(0, 0)
    dW = wiener_increments(rng, 200_000, 0.01)
    assert abs(np.mean(dW)) < 3 * 0.1 / np.sqrt(200_000)
    assert np.var(dW) == pytest.approx(0.01, rel=0.02)
    with pytest.raises(ValueError):
        wiener_increments(rng, 10, 0.0)


def test_step_matches_manual_euler_update():
    dt, dw = 1e-3, 0.02
    states, _, _, status = kernels.simulate_chunk(
        PLUS, DEPHASING.K, DEPHASING.rotated, dt, np.full((1, 1, 1), dw),
        True, np.array([1]))
    assert status.tolist() == [0]
    # manual update at |+>: ell = 0, K = -I/2
    raw = PLUS - 0.5 * dt * PLUS + dw * (SIGMA_Z @ PLUS)
    assert np.allclose(states[0, 0], raw / np.linalg.norm(raw), atol=1e-14)


def test_simulate_trajectory_records_initial_state():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.1, seed=5, record_stride=20)
    traj = simulate_trajectory(DEPHASING, PLUS, cfg)
    assert traj.times[0] == 0.0
    assert np.allclose(traj.states[0], PLUS)
    assert traj.times[-1] == pytest.approx(0.1)
    norms = np.sum(np.abs(traj.states) ** 2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    assert 0.0 < traj.norm_drift_mean <= traj.norm_drift_max


def test_simulate_trajectory_rejects_unnormalized_input():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.01)
    with pytest.raises(ValueError, match="normalized"):
        simulate_trajectory(DEPHASING, np.array([1.0, 1.0]), cfg)
    with pytest.raises(TypeError):
        simulate_trajectory(DEPHASING.model, PLUS, cfg)


def test_ensemble_is_thread_count_invariant():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.2, seed=11, record_stride=50)
    serial = simulate_ensemble(DEPHASING, PLUS, cfg, 600, threads=1,
                               chunk_size=128)
    parallel = simulate_ensemble(DEPHASING, PLUS, cfg, 600, threads=4,
                                 chunk_size=128)
    assert np.array_equal(serial.rho_hat, parallel.rho_hat)
    assert np.array_equal(serial.final_states, parallel.final_states)
    assert np.array_equal(serial.norm_drift, parallel.norm_drift)


def test_ensemble_trajectory_streams_do_not_depend_on_chunking():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.1, seed=3, record_stride=100)
    a = simulate_ensemble(DEPHASING, PLUS, cfg, 100, chunk_size=7)
    b = simulate_ensemble(DEPHASING, PLUS, cfg, 100, chunk_size=64)
    assert np.array_equal(a.final_states, b.final_states)
    for bad in (0, -5):
        with pytest.raises(ValueError, match="chunk_size"):
            simulate_ensemble(DEPHASING, PLUS, cfg, 100, chunk_size=bad)


def test_ensemble_mean_is_a_density_matrix():
    cfg = IntegrationConfig(dt=1e-3, t_final=0.5, seed=1, record_stride=250)
    est = simulate_ensemble(DEPHASING, PLUS, cfg, 500)
    for rho in est.rho_hat:
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] > -1e-12
    assert est.std_error.shape == est.times.shape
    assert np.all(est.std_error >= 0.0)
    assert np.all(est.std_error <= 1.0 / np.sqrt(500))


# a reducer that keeps the projector |psi><psi| of each state at every record
PROJECTORS = {"P": lambda psi: np.einsum("bi,bj->ij", psi, psi.conj())}


@pytest.mark.parametrize("threads", [1, 2])
def test_rho_hat_is_the_mean_projector_of_the_kept_states(threads):
    cfg = IntegrationConfig(dt=1e-2, t_final=0.2, seed=21, record_stride=4)
    est = simulate_ensemble(DEPHASING, PLUS, cfg, 601, threads=threads,
                            chunk_size=128, reducers=PROJECTORS)
    assert est.means["P"].shape == est.rho_hat.shape
    assert np.max(np.abs(est.rho_hat - est.means["P"])) < 1e-13
    finals = est.final_states
    ref = np.einsum("bi,bj->ij", finals, finals.conj()) / 601
    assert np.max(np.abs(est.rho_hat[-1] - ref)) < 1e-13


def test_keeping_states_does_not_change_rho_hat():
    cfg = IntegrationConfig(dt=1e-2, t_final=0.2, seed=22, record_stride=4)
    dropped = simulate_ensemble(DEPHASING, PLUS, cfg, 601, chunk_size=128)
    kept = simulate_ensemble(DEPHASING, PLUS, cfg, 601, chunk_size=128,
                             reducers=P0_SQUARED)
    assert dropped.means == {}
    assert kept.rho_hat.tobytes() == dropped.rho_hat.tobytes()
    assert kept.final_states.tobytes() == dropped.final_states.tobytes()
    # at the last record each mean is a plain average over the final states
    p0_squared = np.mean(np.abs(dropped.final_states[:, 0]) ** 4)
    assert kept.means["p0^2"].shape == dropped.times.shape
    assert kept.means["p0^2"][-1] == pytest.approx(p0_squared, abs=1e-14)
    with pytest.raises(ValueError, match="reserved"):
        simulate_ensemble(DEPHASING, PLUS, cfg, 10,
                          reducers={"_projectors": P0_SQUARED["p0^2"]})


def test_blowup_raises_with_trajectory_index():
    # at |+> the dephasing drift is -psi/2, so a dt = 2 step with zero noise
    # lands exactly on the zero vector
    cfg = IntegrationConfig(dt=2.0, t_final=2.0, seed=2, renormalize=False)
    zero_noise = [np.zeros((3, 1, 1))]
    with pytest.raises(NormBlowupError, match="in 3 trajectories") as err:
        simulate_ensemble(DEPHASING, PLUS, cfg, 3, chunk_size=3,
                          dW_chunks=zero_noise)
    assert err.value.trajectory_index == 0


def test_an_overflowing_norm_raises_naming_every_trajectory():
    # H = diag(0, 1e308) overflows every state in the first dt = 4 step,
    # so the norms go infinite, then NaN, and never fall below the floor
    u = Unraveling(LindbladModel(np.diag([0.0, 1e308]), (SIGMA_Z,)),
                   "standard")
    cfg = IntegrationConfig(dt=4.0, t_final=12.0, seed=3)
    with pytest.raises(NormBlowupError, match="non-finite in 8 trajectories"
                       ) as err:
        simulate_ensemble(u, PLUS, cfg, 8)
    assert err.value.trajectory_indices == list(range(8))


def test_a_reducer_keeps_its_floating_point_warnings():
    # the kernel silences its own 0/0 and overflow warnings, not those of a
    # reducer it calls at a record step
    probed = []

    def zero_by_zero(psi):
        if not probed:                  # the probe call at psi0
            probed.append(psi)
            return np.float64(0.0)
        return np.float64(0.0) / 0.0

    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=1)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        simulate_ensemble(DEPHASING, PLUS, cfg, 4,
                          reducers={"nan": zero_by_zero})


def test_blowup_reports_every_trajectory_in_global_indices(monkeypatch,
                                                          tmp_path):
    # With zero noise a trajectory steps onto the zero vector, with dW = 1
    # onto |-> (unit norm).  Sixteen chunks of 3 make two batches of eight
    # at threads=2; blow up rows of the second and fourth chunk of each
    # batch.  Every kernel call logs its process and waits at a barrier for
    # the other batch, so the two batches run at once in two processes.
    cfg = IntegrationConfig(dt=2.0, t_final=2.0, seed=2, renormalize=False)
    n, second = 48, 24                  # second: first trajectory of batch two
    blown = [4, 9, 11, second + 4, second + 9, second + 11]
    dW = np.ones((n, 1, 1))
    dW[blown] = 0.0
    log = tmp_path / "pids"
    barrier = multiprocessing.get_context("fork").Barrier(2)
    kernel = kernels.simulate_chunk

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        barrier.wait(timeout=60)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(kernels, "simulate_chunk", logged)
    with pytest.raises(NormBlowupError, match="in 6 trajectories") as err:
        simulate_ensemble(DEPHASING, PLUS, cfg, n, threads=2, chunk_size=3,
                          dW_chunks=np.split(dW, n // 3))
    assert err.value.trajectory_indices == blown
    assert err.value.trajectory_index == 4
    pids = log.read_text().split()
    assert len(pids) == 2 and len(set(pids)) == 2
    assert str(os.getpid()) not in pids


def test_a_dying_worker_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(kernels, "simulate_chunk", lambda *a, **k: os._exit(3))
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=4)
    with pytest.raises(BrokenProcessPool):
        simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=2, chunk_size=8)


@pytest.mark.parametrize("n_chunks, chunk_bytes, threads", [
    (1, 100, 1), (16, 100, 1), (16, 100, 2), (5, 100, 4), (3, 100, 8),
    (16, 100, 0), (40, sde._BATCH_BYTES // 3, 2), (7, 2 * sde._BATCH_BYTES, 4)])
def test_batch_layout_takes_whole_chunks_under_the_byte_cap(n_chunks,
                                                            chunk_bytes,
                                                            threads):
    batches, workers = sde._batch_layout(n_chunks, chunk_bytes, threads)
    # consecutive runs of whole chunks covering every chunk once
    assert batches[0][0] == 0 and batches[-1][1] == n_chunks
    assert all(c1 > c0 for c0, c1 in batches)
    assert all(a[1] == b[0] for a, b in zip(batches, batches[1:]))
    assert workers == min(max(threads, 1), len(batches))
    per_batch = -(-n_chunks // max(threads, 1))
    for c0, c1 in batches:
        assert c1 - c0 <= per_batch
        assert c1 - c0 == 1 or (c1 - c0) * chunk_bytes <= sde._BATCH_BYTES
    if chunk_bytes * per_batch <= sde._BATCH_BYTES:
        # the cap does not bind: one batch per worker, all but the last full
        assert all(c1 - c0 == per_batch for c0, c1 in batches[:-1])


def test_one_thread_or_one_batch_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=4)
    # eight chunks in one process; one chunk leaves one batch at threads=4
    simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=1, chunk_size=8)
    simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=4)
    with pytest.raises(AssertionError, match="forked"):
        simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=2, chunk_size=8)


def _final_states_at_two_threads():
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=4)
    return simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=2,
                             chunk_size=8).final_states


def test_a_daemonic_worker_runs_its_batches_in_process():
    # a daemonic process may not start children, so a caller's own pool
    # worker asking for threads=2 runs every batch itself
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply_async(_final_states_at_two_threads).get(60)
    assert np.array_equal(inside, _final_states_at_two_threads())


def test_import_does_not_load_multiprocessing():
    # the worker pool imports multiprocessing on first use, not at import
    src = os.path.dirname(os.path.dirname(sde.__file__))
    code = ("import sys, qunravel; "
            "sys.exit('multiprocessing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


@pytest.mark.parametrize("steps, noise_count", [(300, 2), (128, 1), (5, 3)])
def test_block_drawn_increments_equal_one_draw(steps, noise_count):
    dt = 1e-3
    lazy = sde._Increments(17, 40, 3, steps, noise_count, dt)
    assert lazy.shape == (3, steps, noise_count)
    blocks = [lazy[:, s0:s0 + kernels.STEP_BLOCK]
              for s0 in range(0, steps, kernels.STEP_BLOCK)]
    drawn = np.concatenate(blocks, axis=1)
    for i in range(3):
        # byte for byte, so a -0.0 from the scaling would show
        one = trajectory_rng(17, 40 + i).normal(0.0, np.sqrt(dt),
                                                size=(steps, noise_count))
        assert drawn[i].tobytes() == one.tobytes()
    with pytest.raises(IndexError, match="in order"):
        lazy[:, 0:kernels.STEP_BLOCK]


@pytest.mark.parametrize("n", [601, 2100])
def test_batched_ensemble_is_thread_count_invariant(n):
    # Chunks of 128 make 5 and 17 chunks: threads=2 runs batches of 3 + 2
    # and 9 + 8 chunks, threads=4 batches of 2 + 2 + 1 and 5 + 5 + 5 + 2,
    # each batch in a worker process of its own.
    model = random_model(np.random.default_rng(4), 4, n_ops=2)
    u = Unraveling(model, "standard")
    psi0 = verify.random_state(np.random.default_rng(5), 4)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.2, seed=31, record_stride=3)
    runs = [simulate_ensemble(u, psi0, cfg, n, threads=threads,
                              reducers=P0_SQUARED, chunk_size=128)
            for threads in (1, 2, 4)]
    for run in runs[1:]:
        assert ensemble_bytes(run) == ensemble_bytes(runs[0])


def test_a_one_trajectory_batch_is_thread_count_invariant():
    # 257 trajectories in chunks of 128 leave a last chunk of one, which
    # threads=3 runs as a batch of its own
    cfg = IntegrationConfig(dt=1e-2, t_final=0.3, seed=5, record_stride=10)
    psi0 = verify.random_state(np.random.default_rng(6), 2)
    runs = [simulate_ensemble(DEPHASING, psi0, cfg, 257, threads=threads,
                              chunk_size=128, reducers=P0_SQUARED)
            for threads in (1, 3)]
    assert ensemble_bytes(runs[1]) == ensemble_bytes(runs[0])
    # and a lone trajectory takes the bits of its row in the ensemble
    lone = simulate_trajectory(DEPHASING, psi0, cfg, trajectory_index=256)
    assert lone.states[-1].tobytes() == runs[0].final_states[256].tobytes()


def test_given_increments_are_thread_count_invariant():
    # 1000 trajectories in chunks of 96 end in a ragged chunk of 40; the
    # workers read their chunks of dW from the memory they were forked with
    cfg = IntegrationConfig(dt=2e-2, t_final=0.4, seed=5, record_stride=5)
    n, chunk = 1000, 96
    rng = np.random.default_rng(77)
    dW = rng.normal(0.0, np.sqrt(cfg.dt), size=(n, cfg.n_steps, 1))
    chunks = [dW[lo:lo + chunk] for lo in range(0, n, chunk)]
    runs = [simulate_ensemble(DEPHASING, PLUS, cfg, n, threads=threads,
                              reducers=P0_SQUARED, chunk_size=chunk,
                              dW_chunks=chunks)
            for threads in (1, 2, 4)]
    for run in runs[1:]:
        assert ensemble_bytes(run) == ensemble_bytes(runs[0])


def test_ensemble_memory_does_not_grow_with_steps():
    # a materialized dW for 256 trajectories x 8192 steps would take 16.8 MB
    cfg = IntegrationConfig(dt=1e-4, t_final=0.8192, seed=6,
                            record_stride=1024)
    n, steps = 256, cfg.n_steps
    tracemalloc.start()
    try:
        simulate_ensemble(DEPHASING, PLUS, cfg, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * steps * 1 * 8 / 8


def test_record_steps_override():
    cfg = IntegrationConfig(dt=1e-2, t_final=1.0, seed=9)
    est = simulate_ensemble(DEPHASING, PLUS, cfg, 20,
                            record_steps=[50, 100])
    assert np.allclose(est.times, [0.5, 1.0])
    assert est.rho_hat.shape == (2, 2, 2)
    # past n_steps, not strictly increasing, or before the first step
    for bad in ([50, 101], [50, 50], [60, 50], [0, 50], []):
        with pytest.raises(ValueError, match="record_steps"):
            simulate_ensemble(DEPHASING, PLUS, cfg, 4, record_steps=bad)


def test_dw_chunks_reproduce_default_streams():
    # 300 steps cross two step-block boundaries
    cfg = IntegrationConfig(dt=1e-3, t_final=0.3, seed=13)
    n, chunk = 30, 16
    chunks = []
    lo = 0
    while lo < n:
        count = min(chunk, n - lo)
        dW = np.empty((count, cfg.n_steps, 1))
        for i in range(count):
            rng = trajectory_rng(cfg.seed, lo + i)
            dW[i] = rng.normal(0.0, np.sqrt(cfg.dt), size=(cfg.n_steps, 1))
        chunks.append(dW)
        lo += count
    explicit = simulate_ensemble(DEPHASING, PLUS, cfg, n, chunk_size=chunk,
                                 dW_chunks=chunks)
    default = simulate_ensemble(DEPHASING, PLUS, cfg, n, chunk_size=chunk)
    assert np.array_equal(explicit.final_states, default.final_states)
    assert np.array_equal(explicit.rho_hat, default.rho_hat)
    with pytest.raises(ValueError, match="chunk layout"):
        simulate_ensemble(DEPHASING, PLUS, cfg, n, chunk_size=chunk,
                          dW_chunks=chunks[:1])
