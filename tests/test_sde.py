"""Tests for the integration layer: configs, RNG streams, trajectories,
ensembles, and parallel reproducibility."""

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from qunravel import kernels, sde, verify
from qunravel.hilbert import SIGMA_Z
from qunravel.lindblad import LindbladModel
from qunravel.sde import (IntegrationConfig, NormBlowupError, simulate_ensemble,
                          trajectory_rng)
from qunravel.unraveling import UnitaryFreedom, Unraveling

from randomized import random_model, scaled_model

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
P0_SQUARED = {"p0^2": lambda s: (np.abs(s[0]) ** 4).sum(-1)}


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


@pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, True, "1", np.float64(1.0)],
                         ids=["1.5", "1.9", "1.0", "True", "str", "float64"])
def test_a_seed_that_is_not_an_integer_is_rejected(seed):
    # each would run seed 1's Philox stream under a config hash that records
    # another value
    with pytest.raises(ValueError, match="as an integer, got"):
        IntegrationConfig(dt=0.1, t_final=1.0, seed=seed)


def test_numpy_integer_seeds_are_accepted():
    for seed in (np.int64(7), np.uint64(7), np.uint8(7)):
        assert IntegrationConfig(dt=0.1, t_final=1.0, seed=seed).seed == 7


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
    final, _, _, status = kernels.simulate_chunk(
        PLUS, DEPHASING.K, DEPHASING.rotated, dt, np.full((1, 1, 1), dw),
        True, np.array([1]))
    assert status.tolist() == [0]
    # manual update at |+>: ell = 0, K = -I/2
    raw = PLUS - 0.5 * dt * PLUS + dw * (SIGMA_Z @ PLUS)
    assert np.allclose(final[0], raw / np.linalg.norm(raw), atol=1e-14)


def test_ensemble_is_thread_count_invariant(monkeypatch):
    monkeypatch.setattr(sde, "_CHUNK", 128)
    cfg = IntegrationConfig(dt=1e-3, t_final=0.2, seed=11, record_stride=50)
    serial = simulate_ensemble(DEPHASING, PLUS, cfg, 600, threads=1)
    parallel = simulate_ensemble(DEPHASING, PLUS, cfg, 600, threads=4)
    assert np.array_equal(serial.rho_hat, parallel.rho_hat)
    assert np.array_equal(serial.final_states, parallel.final_states)
    assert np.array_equal(serial.norm_drift, parallel.norm_drift)


def test_ensemble_trajectory_streams_do_not_depend_on_chunking(monkeypatch):
    cfg = IntegrationConfig(dt=1e-3, t_final=0.1, seed=3, record_stride=100)
    monkeypatch.setattr(sde, "_CHUNK", 7)
    a = simulate_ensemble(DEPHASING, PLUS, cfg, 100)
    monkeypatch.setattr(sde, "_CHUNK", 64)
    b = simulate_ensemble(DEPHASING, PLUS, cfg, 100)
    assert np.array_equal(a.final_states, b.final_states)


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
PROJECTORS = {"P": lambda s: np.einsum("icb,jcb->cij", s, s.conj())}


@pytest.mark.parametrize("threads", [1, 2])
def test_rho_hat_is_the_mean_projector_of_the_kept_states(threads,
                                                          monkeypatch):
    monkeypatch.setattr(sde, "_CHUNK", 128)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.2, seed=21, record_stride=4)
    est = simulate_ensemble(DEPHASING, PLUS, cfg, 601, threads=threads,
                            reducers=PROJECTORS)
    assert est.means["P"].shape == est.rho_hat.shape
    assert np.max(np.abs(est.rho_hat - est.means["P"])) < 1e-13
    finals = est.final_states
    ref = np.einsum("bi,bj->ij", finals, finals.conj()) / 601
    assert np.max(np.abs(est.rho_hat[-1] - ref)) < 1e-13


def row_major_rho_hat(states, chunk):
    """rho_hat from the (M, d) states as the row-major reduction makes it:
    each chunk's einsum("bi,bj->ij"), added in chunk order, over M."""
    total = np.zeros((states.shape[1],) * 2, dtype=complex)
    for lo in range(0, len(states), chunk):
        part = states[lo:lo + chunk]
        total += np.einsum("bi,bj->ij", part, part.conj())
    return total / len(states)


def row_major_projectors(s):
    # a reducer is given a read-only (d, chunks, rows) view; the reference
    # sums each chunk's C-contiguous (rows, d) states
    assert s.ndim == 3 and not s.flags.writeable
    return np.array([np.einsum("bi,bj->ij", rows, rows.conj())
                     for rows in np.ascontiguousarray(s.transpose(1, 2, 0))])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 32])
def test_rho_hat_has_the_bits_of_the_row_major_reduction(d, threads,
                                                         monkeypatch):
    # rho_hat is reduced from the kernel's component-major states, full
    # chunks in one batched einsum and a short last chunk on its own; its
    # bits are those of the row-major sums, at the last record over the
    # final states and at every record through a caller's reducer
    rng = np.random.default_rng(40 + d)
    model = (LindbladModel(np.array([[0.5]]), ()) if d == 1
             else scaled_model(rng, d))
    u = Unraveling(model, "standard")
    psi0 = verify.random_state(rng, d)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.04, seed=8, record_stride=2)
    for M in (1, 255, 256, 601, 1000):
        for chunk in (1, 7, 128, 256):
            monkeypatch.setattr(sde, "_CHUNK", chunk)
            plain = simulate_ensemble(u, psi0, cfg, M, threads=threads)
            expected = row_major_rho_hat(plain.final_states, chunk)
            assert plain.rho_hat[-1].tobytes() == expected.tobytes(), \
                (M, chunk)
            reduced = simulate_ensemble(
                u, psi0, cfg, M, threads=threads,
                reducers={"P": row_major_projectors})
            assert reduced.means["P"].tobytes() == plain.rho_hat.tobytes(), \
                (M, chunk)


def test_keeping_states_does_not_change_rho_hat(monkeypatch):
    monkeypatch.setattr(sde, "_CHUNK", 128)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.2, seed=22, record_stride=4)
    dropped = simulate_ensemble(DEPHASING, PLUS, cfg, 601)
    kept = simulate_ensemble(DEPHASING, PLUS, cfg, 601, reducers=P0_SQUARED)
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
    with pytest.raises(NormBlowupError, match="in 3 trajectories") as err:
        simulate_ensemble(DEPHASING, PLUS, cfg, 3, dW=np.zeros((3, 1, 1)))
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

    def zero_by_zero(s):
        if not probed:                  # the probe call at psi0
            probed.append(s)
            return np.zeros(s.shape[1])
        return np.zeros(s.shape[1]) / 0.0

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
    monkeypatch.setattr(sde, "_CHUNK", 3)
    with pytest.raises(NormBlowupError, match="in 6 trajectories") as err:
        simulate_ensemble(DEPHASING, PLUS, cfg, n, threads=2, dW=dW)
    assert err.value.trajectory_indices == blown
    assert err.value.trajectory_index == 4
    pids = log.read_text().split()
    assert len(pids) == 2 and len(set(pids)) == 2
    assert str(os.getpid()) not in pids


def test_a_dying_worker_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(kernels, "simulate_chunk", lambda *a, **k: os._exit(3))
    monkeypatch.setattr(sde, "_CHUNK", 8)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=4)
    with pytest.raises(BrokenProcessPool):
        simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=2)


@pytest.mark.parametrize("n_chunks, chunk_bytes, threads", [
    (1, 100, 1), (16, 100, 1), (16, 100, 2), (5, 100, 4), (3, 100, 8),
    (16, 100, 0), (40, sde._BATCH_BYTES // 3, 2), (7, 2 * sde._BATCH_BYTES, 4)])
def test_batch_layout_takes_whole_chunks_under_the_byte_cap(n_chunks,
                                                            chunk_bytes,
                                                            threads):
    batches = sde._batch_layout(n_chunks, chunk_bytes, threads)
    # consecutive runs of whole chunks covering every chunk once
    assert batches[0][0] == 0 and batches[-1][1] == n_chunks
    assert all(c1 > c0 for c0, c1 in batches)
    assert all(a[1] == b[0] for a, b in zip(batches, batches[1:]))
    per_batch = -(-n_chunks // max(threads, 1))
    for c0, c1 in batches:
        assert c1 - c0 <= per_batch
        assert c1 - c0 == 1 or (c1 - c0) * chunk_bytes <= sde._BATCH_BYTES
    if chunk_bytes * per_batch <= sde._BATCH_BYTES:
        # the cap does not bind: one batch per worker, all but the last full
        assert all(c1 - c0 == per_batch for c0, c1 in batches[:-1])


def test_fork_map_starts_no_more_workers_than_items(monkeypatch):
    import concurrent.futures

    pool = concurrent.futures.ProcessPoolExecutor
    started = []

    def recording(max_workers, **kwargs):
        started.append(max_workers)
        return pool(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    assert list(sde._fork_map(abs, [-1, -2], 8)) == [1, 2]
    assert list(sde._fork_map(abs, [-3], 8)) == [3]
    assert started == [2]


def test_one_thread_or_one_batch_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=4)
    # eight chunks in one process; one chunk leaves one batch at threads=4
    simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=4)
    monkeypatch.setattr(sde, "_CHUNK", 8)
    simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=1)
    with pytest.raises(AssertionError, match="forked"):
        simulate_ensemble(DEPHASING, PLUS, cfg, 64, threads=2)


def test_callers_on_many_threads_each_fork_their_own_job(monkeypatch):
    # _fork_map hands a pool its job through one module global, so four
    # threads forking pools at once, with a short switch interval, must
    # each get their own model's bits
    models = [Unraveling(random_model(np.random.default_rng(k), 2, n_ops=1),
                         "standard") for k in range(4)]
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=3)
    monkeypatch.setattr(sde, "_CHUNK", 8)
    serial = [simulate_ensemble(u, PLUS, cfg, 64).rho_hat for u in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            forked = [None] * len(models)

            def run(k):
                forked[k] = simulate_ensemble(models[k], PLUS, cfg, 64,
                                              threads=2).rho_hat

            callers = [threading.Thread(target=run, args=(k,))
                       for k in range(len(models))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
            assert not any(caller.is_alive() for caller in callers)
            for a, b in zip(forked, serial):
                assert a is not None and a.tobytes() == b.tobytes()
    finally:
        sys.setswitchinterval(interval)


def _final_states_at_two_threads():
    cfg = IntegrationConfig(dt=1e-2, t_final=0.1, seed=4)
    return simulate_ensemble(DEPHASING, PLUS, cfg, 64,
                             threads=2).final_states


def test_a_daemonic_worker_runs_its_batches_in_process(monkeypatch):
    # a daemonic process may not start children, so a caller's own pool
    # worker asking for threads=2 runs every batch itself
    monkeypatch.setattr(sde, "_CHUNK", 8)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply_async(_final_states_at_two_threads).get(60)
    assert np.array_equal(inside, _final_states_at_two_threads())


def test_import_does_not_load_multiprocessing(tmp_path):
    # the worker pool imports multiprocessing on first use, not at import,
    # and a one-worker simulate or a one-tile choi never uses it
    src = os.path.dirname(os.path.dirname(sde.__file__))
    data = os.path.join(src, "qunravel", "data", "dephasing.json")
    code = ("import sys, qunravel\n"
            "from qunravel import cli\n"
            "assert 'multiprocessing' not in sys.modules\n"
            f"assert cli.main(['simulate', '--scenario', {data!r}, "
            f"'--out', {str(tmp_path)!r}, '--threads', '1']) == 0\n"
            f"assert cli.main(['choi', '--scenario', {data!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0\n"
            "sys.exit('multiprocessing' in sys.modules\n"
            "         or 'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0
    assert (tmp_path / "rho.csv").exists()
    assert (tmp_path / "choi.json").exists()


@pytest.mark.parametrize("given_dW", [False, True])
def test_trajectories_stop_at_the_last_record_step(monkeypatch, given_dW):
    # a run of 1000 steps recorded only at step 250 steps 250 times, with
    # the bits of a run that ends there, on drawn and on given increments
    long = IntegrationConfig(dt=1e-3, t_final=1.0, seed=8)
    short = IntegrationConfig(dt=1e-3, t_final=0.25, seed=8)
    dW = np.random.default_rng(3).normal(0.0, np.sqrt(long.dt),
                                         size=(64, long.n_steps, 1))
    steps = []
    kernel = kernels.simulate_chunk

    def counting(psi0, K, rotated, dt, dW, *args, **kwargs):
        steps.append(np.shape(dW)[1])
        return kernel(psi0, K, rotated, dt, dW, *args, **kwargs)

    monkeypatch.setattr(kernels, "simulate_chunk", counting)
    monkeypatch.setattr(sde, "_CHUNK", 32)
    runs = []
    for cfg in (long, short):
        given = dW[:, :cfg.n_steps] if given_dW else None
        runs.append(simulate_ensemble(DEPHASING, PLUS, cfg, 64, dW=given,
                                      record_steps=[250]))
    assert steps == [250, 250]
    assert runs[0].rho_hat.tobytes() == runs[1].rho_hat.tobytes()


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
def test_batched_ensemble_is_thread_count_invariant(n, monkeypatch):
    # Chunks of 128 make 5 and 17 chunks: threads=2 runs batches of 3 + 2
    # and 9 + 8 chunks, threads=4 batches of 2 + 2 + 1 and 5 + 5 + 5 + 2,
    # each batch in a worker process of its own.
    model = random_model(np.random.default_rng(4), 4, n_ops=2)
    u = Unraveling(model, "standard")
    psi0 = verify.random_state(np.random.default_rng(5), 4)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.2, seed=31, record_stride=3)
    monkeypatch.setattr(sde, "_CHUNK", 128)
    runs = [simulate_ensemble(u, psi0, cfg, n, threads=threads,
                              reducers=P0_SQUARED)
            for threads in (1, 2, 4)]
    for run in runs[1:]:
        assert ensemble_bytes(run) == ensemble_bytes(runs[0])


def test_a_one_trajectory_batch_is_thread_count_invariant(monkeypatch):
    # 257 trajectories in chunks of 128 leave a last chunk of one, which
    # threads=3 runs as a batch of its own
    monkeypatch.setattr(sde, "_CHUNK", 128)
    cfg = IntegrationConfig(dt=1e-2, t_final=0.3, seed=5, record_stride=10)
    psi0 = verify.random_state(np.random.default_rng(6), 2)
    runs = [simulate_ensemble(DEPHASING, psi0, cfg, 257, threads=threads,
                              reducers=P0_SQUARED)
            for threads in (1, 3)]
    assert ensemble_bytes(runs[1]) == ensemble_bytes(runs[0])
    # and a lone trajectory takes the bits of its row in the ensemble
    lone = kernels.simulate_chunk(
        psi0, DEPHASING.K, DEPHASING.rotated, cfg.dt,
        sde._Increments(cfg.seed, 256, 1, cfg.n_steps, 1, cfg.dt), True,
        cfg.record_steps())[0]
    assert lone[0].tobytes() == runs[0].final_states[256].tobytes()


def test_given_increments_are_thread_count_invariant(monkeypatch):
    # 1000 trajectories in chunks of 96 end in a ragged chunk of 40; the
    # workers read their rows of dW from the memory they were forked with
    cfg = IntegrationConfig(dt=2e-2, t_final=0.4, seed=5, record_stride=5)
    n = 1000
    monkeypatch.setattr(sde, "_CHUNK", 96)
    rng = np.random.default_rng(77)
    dW = rng.normal(0.0, np.sqrt(cfg.dt), size=(n, cfg.n_steps, 1))
    runs = [simulate_ensemble(DEPHASING, PLUS, cfg, n, threads=threads,
                              reducers=P0_SQUARED, dW=dW)
            for threads in (1, 2, 4)]
    for run in runs[1:]:
        assert ensemble_bytes(run) == ensemble_bytes(runs[0])


def test_a_real_orthogonal_member_is_the_standard_one_on_rotated_noise():
    # member O has B'_k = sum_j O_kj B_j and, O being real orthogonal, the
    # standard drift, so on increments dW it steps as the standard member
    # does on dW @ O; O is not symmetric, so dW @ O.T drives another path
    c, s = np.cos(0.6), np.sin(0.6)
    O = np.array([[c, -s], [s, c]])
    rng = np.random.default_rng(21)
    model = scaled_model(rng, 3)
    psi0 = verify.random_state(rng, 3)
    cfg = IntegrationConfig(dt=1e-3, t_final=1.0, seed=2)
    n = 200
    dW = rng.normal(0.0, np.sqrt(cfg.dt), size=(n, cfg.n_steps, 2))

    def final_states(freedom, increments):
        return simulate_ensemble(Unraveling(model, freedom), psi0, cfg, n,
                                 dW=increments).final_states

    mixed = final_states(UnitaryFreedom(matrix=O.astype(complex)), dW)
    assert np.abs(mixed - final_states("standard", dW @ O)).max() < 1e-12
    assert np.abs(mixed - final_states("standard", dW @ O.T)).max() > 0.1


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


def test_dw_chunks_reproduce_default_streams(monkeypatch):
    # 300 steps cross two step-block boundaries
    cfg = IntegrationConfig(dt=1e-3, t_final=0.3, seed=13)
    n, chunk = 30, 16
    monkeypatch.setattr(sde, "_CHUNK", chunk)
    dW = np.empty((n, cfg.n_steps, 1))
    for i in range(n):
        rng = trajectory_rng(cfg.seed, i)
        dW[i] = rng.normal(0.0, np.sqrt(cfg.dt), size=(cfg.n_steps, 1))
    explicit = simulate_ensemble(DEPHASING, PLUS, cfg, n, dW=dW)
    default = simulate_ensemble(DEPHASING, PLUS, cfg, n)
    assert np.array_equal(explicit.final_states, default.final_states)
    assert np.array_equal(explicit.rho_hat, default.rho_hat)
    with pytest.raises(ValueError, match="16 rows for 30 trajectories"):
        simulate_ensemble(DEPHASING, PLUS, cfg, n, dW=dW[:chunk])
