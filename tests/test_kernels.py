"""Tests for the stepping kernel: the reference step with and without
faults, recording, blow-up."""

import numpy as np
import pytest

from qunravel import kernels, verify
from qunravel.hilbert import SIGMA_Z
from qunravel.kernels import simulate_chunk
from qunravel.lindblad import LindbladModel
from qunravel.unraveling import Unraveling

from randomized import random_hermitian

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


def random_inputs(d, n_ops, batch, steps, dt=1e-2, seed=0):
    """Kernel inputs of a random model, built directly so that d = 1 works.

    From d = 16 on the operators are scaled by 1/sqrt(d), which keeps their
    norms, and so every state of a dozen unrenormalized steps, finite."""
    rng = np.random.default_rng(seed)
    rotated = 0.5 * (rng.normal(size=(n_ops, d, d))
                     + 1j * rng.normal(size=(n_ops, d, d)))
    if d >= 16:
        rotated /= np.sqrt(d)
    K = (-1j * random_hermitian(rng, d)
         - 0.5 * np.einsum("kji,kjl->il", rotated.conj(), rotated))
    dW = rng.normal(0.0, np.sqrt(dt), size=(batch, steps, n_ops))
    return verify.random_state(rng, d), K, rotated, dt, dW


@pytest.mark.parametrize("fault, renormalize", [
    (None, True), (None, False), ("drop_ell2", False),
    ("zero_ell_in_B", False)])
def test_leading_rows_do_not_depend_on_the_batch_width(fault, renormalize):
    # the same trajectories in a narrow and a wide call must take the same
    # bits; a product whose BLAS blocking follows the batch would not
    for d in list(range(1, 10)) + [16, 32, 64]:
        for n_ops in (1, 2, 3):
            psi0, K, rotated, dt, dW = random_inputs(d, n_ops, 300, 12,
                                                     seed=d)
            record = np.array([5, 12], dtype=np.int64)
            wide = simulate_chunk(psi0, K, rotated, dt, dW, renormalize,
                                  record, fault=fault)
            # compare finite states only: no row may have blown up
            assert not wide[3].any(), (d, n_ops)
            for k in (1, 37):
                narrow = simulate_chunk(psi0, K, rotated, dt, dW[:k],
                                        renormalize, record, fault=fault)
                assert not narrow[3].any(), (d, n_ops, k)
                for a, b in zip(narrow, wide):
                    assert a.tobytes() == b[:k].tobytes(), (d, n_ops, k)


def runs_with_a_bad_increment(renormalize, step, value):
    """Two runs of a 9-row batch, the second with row 3's increment at the
    0-based `step` set to `value`.

    With L = I under the zero_ell_in_B fault, B = psi and the drift is
    -i 1e-5 H psi, so an increment x scales the state by about 1 + x."""
    rng = np.random.default_rng(4)
    d, dt = 4, 1e-2
    K = -0.5 * np.eye(d) - 1e-5j * random_hermitian(rng, d)
    rotated = np.eye(d, dtype=complex)[None]
    psi0 = verify.random_state(rng, d)
    dW = rng.normal(0.0, np.sqrt(dt), size=(9, 200, 1))
    bad = dW.copy()
    bad[3, step] = value
    record = np.arange(1, 201, 7, dtype=np.int64)
    return [simulate_chunk(psi0, K, rotated, dt, x, renormalize, record,
                           fault="zero_ell_in_B") for x in (dW, bad)]


def assert_row_3_flagged_alone(runs):
    # the other rows keep the bits they get in a batch where nothing blows up
    assert not runs[0][3].any()
    assert runs[1][3].tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0]
    keep = np.arange(9) != 3
    for a, b in zip(*runs):
        assert a[keep].tobytes() == b[keep].tobytes()


@pytest.mark.parametrize("renormalize", [True, False])
def test_a_blowup_mid_block_leaves_the_other_rows_unchanged(renormalize):
    # an increment of -1 sends row 3's norm below the floor at step 41
    assert_row_3_flagged_alone(runs_with_a_bad_increment(renormalize, 40,
                                                         -1.0))


@pytest.mark.parametrize("renormalize", [True, False])
@pytest.mark.parametrize("step, value", [
    pytest.param(40, np.nan, id="nan-mid-block"),
    pytest.param(199, 1e200, id="inf-at-the-last-step")])
def test_a_non_finite_norm_is_flagged_alone(step, value, renormalize):
    # a NaN norm fails every comparison with the floor, and an infinite one
    # passes it; both must be flagged all the same
    assert_row_3_flagged_alone(runs_with_a_bad_increment(renormalize, step,
                                                         value))


def test_blowup_sets_status_flag():
    # K = -I/dt sends psi to exactly zero in one Euler step, which must trip
    # the norm floor
    K = -np.eye(2, dtype=complex)
    rotated = np.zeros((0, 2, 2), dtype=complex)
    dW = np.zeros((1, 3, 0))
    _, _, _, status = simulate_chunk(PLUS, K, rotated, 1.0, dW, False,
                                     np.array([3], dtype=np.int64))
    assert status.tolist() == [1]
    assert status.dtype == np.uint8


def test_renormalized_states_have_unit_norm():
    psi0, K, rotated, dt, dW = dephasing_inputs(batch=4, steps=100)
    states, _, _, status = simulate_chunk(psi0, K, rotated, dt, dW, True,
                                          np.array([100], dtype=np.int64))
    assert not status.any()
    norms = np.sum(np.abs(states[:, 0]) ** 2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
