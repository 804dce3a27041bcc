"""Tests for the stepping kernel: the reference step with and without
faults, recording, blow-up."""

import numpy as np
import pytest

from qunravel import kernels
from qunravel.hilbert import SIGMA_Z
from qunravel.kernels import simulate_chunk
from qunravel.lindblad import LindbladModel
from qunravel.unraveling import Unraveling

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def dephasing_inputs(batch=8, steps=50, dt=1e-2, seed=0):
    u = Unraveling(LindbladModel(np.zeros((2, 2)), (SIGMA_Z,)), "standard")
    rng = np.random.default_rng(seed)
    dW = rng.normal(0.0, np.sqrt(dt), size=(batch, steps, 1))
    return PLUS, u.K, u.rotated, dt, dW


def reference_step(psi, K, rotated, dt, dw, renormalize, fault=None):
    """Direct transcription of the kernel contract, one step, one trajectory.

    Under a fault the functionals are taken on the normalized state."""
    phi = psi / np.linalg.norm(psi) if fault is not None else psi
    new = psi + dt * (K @ psi)
    for k in range(rotated.shape[0]):
        Lpsi = rotated[k] @ psi
        lk = np.real(np.vdot(phi, rotated[k] @ phi))
        new = new + dt * lk * Lpsi
        if fault != "drop_ell2":
            new = new - dt * 0.5 * lk * lk * psi
        if fault == "zero_ell_in_B":
            new = new + dw[k] * Lpsi
        else:
            new = new + dw[k] * (Lpsi - lk * psi)
    if renormalize:
        new = new / np.linalg.norm(new)
    return new


@pytest.mark.parametrize("fault, renormalize", [
    pytest.param(None, False, id="False"),
    pytest.param(None, True, id="True"),
    pytest.param("drop_ell2", False, id="drop_ell2-False"),
    pytest.param("zero_ell_in_B", False, id="zero_ell_in_B-False"),
])
def test_numpy_kernel_matches_reference_loop(fault, renormalize):
    psi0, K, rotated, dt, dW = dephasing_inputs(batch=3, steps=20)
    record = np.arange(1, 21, dtype=np.int64)
    states, drift_max, drift_mean, status = simulate_chunk(
        psi0, K, rotated, dt, dW, renormalize, record, fault=fault)
    assert not status.any()
    for b in range(3):
        psi = psi0.copy()
        for s in range(20):
            psi = reference_step(psi, K, rotated, dt, dW[b, s], renormalize,
                                 fault)
            assert np.allclose(states[b, s], psi, atol=1e-13)
    assert np.all(drift_max >= drift_mean)
    assert np.all(drift_mean > 0)


def test_recording_selects_requested_steps():
    psi0, K, rotated, dt, dW = dephasing_inputs(batch=2, steps=30)
    full = simulate_chunk(psi0, K, rotated, dt, dW, True,
                          np.arange(1, 31, dtype=np.int64))
    sparse = simulate_chunk(psi0, K, rotated, dt, dW, True,
                            np.array([10, 30], dtype=np.int64))
    assert np.array_equal(sparse[0][:, 0], full[0][:, 9])
    assert np.array_equal(sparse[0][:, 1], full[0][:, 29])


def test_step_blocks_and_record_hook_do_not_change_states(monkeypatch):
    # 300 steps read as blocks of 128, 128 and 44
    psi0, K, rotated, dt, dW = dephasing_inputs(batch=3, steps=300)
    record = np.arange(1, 301, dtype=np.int64)
    states, drift_max, drift_mean, _ = simulate_chunk(psi0, K, rotated, dt,
                                                      dW, True, record)
    seen = []
    hooked = simulate_chunk(psi0, K, rotated, dt, dW, True, record,
                            on_record=lambda r, psi: seen.append((r, psi)))
    assert hooked[0] is None
    assert [r for r, _ in seen] == list(range(300))
    assert np.array_equal(np.stack([psi for _, psi in seen], axis=1), states)
    monkeypatch.setattr(kernels, "STEP_BLOCK", 1000)
    whole = simulate_chunk(psi0, K, rotated, dt, dW, True, record)
    for a, b in zip(whole, (states, drift_max, drift_mean)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [float, complex])
def test_row_sum_equals_numpy_sum_bit_for_bit(dtype):
    rng = np.random.default_rng(3)
    for d in range(1, 10):
        for batch in (1, 7, 300):
            scale = 10.0 ** rng.integers(-12, 12, (batch, d))
            x = rng.normal(size=(batch, d)) * scale
            if dtype is complex:
                x = x + 1j * rng.normal(size=(batch, d))
            x[rng.random((batch, d)) < 0.3] = -0.0
            expected = np.sum(x, axis=1)
            assert kernels._row_sum(x).tobytes() == expected.tobytes()


def test_blowup_sets_status_flag():
    # K = -I/dt sends psi to exactly zero in one Euler step, which must trip
    # the norm floor and freeze the last state
    K = -np.eye(2, dtype=complex)
    rotated = np.zeros((0, 2, 2), dtype=complex)
    dW = np.zeros((1, 3, 0))
    states, _, _, status = simulate_chunk(PLUS, K, rotated, 1.0, dW, False,
                                          np.array([3], dtype=np.int64))
    assert status[0] == 1
    assert np.array_equal(states[0, 0], PLUS)


def test_renormalized_states_have_unit_norm():
    psi0, K, rotated, dt, dW = dephasing_inputs(batch=4, steps=100)
    states, _, _, status = simulate_chunk(psi0, K, rotated, dt, dW, True,
                                          np.array([100], dtype=np.int64))
    assert not status.any()
    norms = np.sum(np.abs(states[:, 0]) ** 2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
