"""Tests for the stepping kernel: the reference step with and without
faults, recording, blow-up, and the one-step quadrature mean and second
moment."""

import itertools

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from qunravel import kernels, lindblad, verify
from qunravel.hilbert import SIGMA_Z
from qunravel.kernels import simulate_chunk
from qunravel.lindblad import LindbladModel
from qunravel.unraveling import UnitaryFreedom, Unraveling

from randomized import (random_hermitian, random_model, random_unitary,
                        scaled_model)

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def stored(psi0, K, rotated, dt, dW, renormalize, record_steps, fault=None):
    """simulate_chunk with the states its hook is handed, each view kept
    past its step, stacked into a (batch, R, d) array that takes the place
    of the final states in the returned tuple."""
    seen = []
    _, drift_max, drift_mean, status = simulate_chunk(
        psi0, K, rotated, dt, dW, renormalize, record_steps, fault=fault,
        on_record=lambda r, psi: seen.append(psi.T))
    return np.stack(seen, axis=1), drift_max, drift_mean, status


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


def mixed_inputs(batch=8, steps=50, dt=1e-2, seed=0):
    """d = 3, two random operators mixed into three noise channels by a
    random unitary: every channel has its own increment and operator."""
    rng = np.random.default_rng(seed)
    u = Unraveling(random_model(rng, 3, n_ops=2),
                   UnitaryFreedom(matrix=random_unitary(rng, 3)))
    dW = rng.normal(0.0, np.sqrt(dt), size=(batch, steps, 3))
    return verify.random_state(rng, 3), u.K, u.rotated, dt, dW


@pytest.mark.parametrize("inputs, fault, renormalize", [
    pytest.param(dephasing_inputs, None, False, id="False"),
    pytest.param(dephasing_inputs, None, True, id="True"),
    pytest.param(dephasing_inputs, "drop_ell2", False, id="drop_ell2-False"),
    pytest.param(dephasing_inputs, "zero_ell_in_B", False,
                 id="zero_ell_in_B-False"),
    pytest.param(mixed_inputs, None, True, id="mixed-d3-True"),
])
def test_numpy_kernel_matches_reference_loop(inputs, fault, renormalize):
    psi0, K, rotated, dt, dW = inputs(batch=3, steps=20)
    record = np.arange(1, 21, dtype=np.int64)
    states, drift_max, drift_mean, status = stored(
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
    full = stored(psi0, K, rotated, dt, dW, True,
                  np.arange(1, 31, dtype=np.int64))
    sparse = stored(psi0, K, rotated, dt, dW, True,
                    np.array([10, 30], dtype=np.int64))
    assert np.array_equal(sparse[0][:, 0], full[0][:, 9])
    assert np.array_equal(sparse[0][:, 1], full[0][:, 29])


def test_step_blocks_and_record_hook_do_not_change_states(monkeypatch):
    # 300 steps read as blocks of 128, 128 and 44
    psi0, K, rotated, dt, dW = dephasing_inputs(batch=3, steps=300)
    record = np.arange(1, 301, dtype=np.int64)
    states, drift_max, drift_mean, _ = stored(psi0, K, rotated, dt, dW,
                                              True, record)
    seen = []
    hooked = simulate_chunk(psi0, K, rotated, dt, dW, True, record,
                            on_record=lambda r, psi: seen.append((r, psi)))
    assert np.array_equal(hooked[0], states[:, -1])
    assert [r for r, _ in seen] == list(range(300))
    # the hook gets the kernel's component-major (d, batch) states
    assert np.array_equal(np.stack([psi.T for _, psi in seen], axis=1),
                          states)
    monkeypatch.setattr(kernels, "STEP_BLOCK", 1000)
    whole = stored(psi0, K, rotated, dt, dW, True, record)
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
            wide = stored(psi0, K, rotated, dt, dW, renormalize, record,
                          fault=fault)
            # compare finite states only: no row may have blown up
            assert not wide[3].any(), (d, n_ops)
            for k in (1, 37):
                narrow = stored(psi0, K, rotated, dt, dW[:k], renormalize,
                                record, fault=fault)
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
    return [stored(psi0, K, rotated, dt, x, renormalize, record,
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


@pytest.mark.parametrize("hook", [False, True])
@pytest.mark.parametrize("channels, steps", [(2, 20), (4, 20), (3, 19)])
def test_increments_must_fill_every_channel_and_record(channels, steps,
                                                        hook):
    # three noise channels recorded up to step 20: dW with fewer or more
    # channels, or fewer steps, would drop an operator's noise or leave
    # records unwritten
    psi0, K, rotated, dt, _ = mixed_inputs(batch=4, steps=20)
    dW = np.zeros((4, steps, channels))
    on_record = (lambda r, psi: None) if hook else None
    with pytest.raises(ValueError, match="noise channels and reach every"):
        simulate_chunk(psi0, K, rotated, dt, dW, True,
                       np.array([10, 20], dtype=np.int64),
                       on_record=on_record)


def test_renormalized_states_have_unit_norm():
    psi0, K, rotated, dt, dW = dephasing_inputs(batch=4, steps=100)
    states, _, _, status = stored(psi0, K, rotated, dt, dW, True,
                                  np.array([100], dtype=np.int64))
    assert not status.any()
    norms = np.sum(np.abs(states[:, 0]) ** 2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature of one step: the weak-error oracle without noise

def quadrature_step(u, psi, dt, q):
    """The kernel's renormalized one-step states from psi at the nodes of
    the q^N-node tensor-product Gauss-Hermite rule, and their weights: node
    x, scaled by sqrt(dt), is the increment of each channel."""
    x, w = hermegauss(q)
    N = u.rotated.shape[0]
    dW = np.sqrt(dt) * np.array(list(itertools.product(x, repeat=N)))
    weights = np.prod(list(itertools.product(w / w.sum(), repeat=N)), axis=1)
    states, _, _, status = stored(psi, u.K, u.rotated, dt, dW[:, None, :],
                                  True, np.array([1], dtype=np.int64))
    assert not status.any()
    return weights, states[:, 0]


def quadrature_mean(u, psi, dt, q=24):
    """The expectation of the kernel's one-step psi' psi'^dag, and the
    largest | ||psi'|| - 1 |, by quadrature_step's rule.

    With renormalization the step is not a polynomial in dW, hence q = 24.
    """
    weights, out = quadrature_step(u, psi, dt, q)
    mean = np.einsum("r,ri,rj->ij", weights, out, out.conj())
    return mean, np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0))


DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
# the member of each quadrature case, built with the test's generator
QUADRATURE_MEMBERS = {
    "standard": lambda rng: Unraveling(DEPHASING, "standard"),
    "diosi-complex": lambda rng: Unraveling(DEPHASING, "diosi-complex"),
    "phase:0.7": lambda rng: Unraveling(DEPHASING, "phase:0.7"),
    "d3-n2-N3": lambda rng: Unraveling(
        scaled_model(rng, 3, n_ops=2),
        UnitaryFreedom(matrix=random_unitary(rng, 3))),
    "d32-N1": lambda rng: Unraveling(scaled_model(rng, 32, n_ops=1)),
}


@pytest.mark.parametrize("member", QUADRATURE_MEMBERS)
def test_one_step_quadrature_mean_has_local_error_of_order_dt2(member):
    # Every member shares the Lindblad mean, so from a generic state the
    # quadrature mean of one Euler-Maruyama step differs from exp(dt L) P
    # only at O(dt^2): the error falls about 4x per halving of dt.  A
    # defect that costs the step its weak order, such as a channel driven
    # by another channel's increment, leaves an O(dt) error that halves.
    rng = np.random.default_rng(31)
    u = QUADRATURE_MEMBERS[member](rng)
    psi = verify.random_state(rng, u.dim)
    P = np.outer(psi, psi.conj())
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        mean, norm_error = quadrature_mean(u, psi, dt)
        assert norm_error <= 1e-12
        exact = lindblad.propagate_exact(u.model, P, dt)
        errors.append(np.max(np.abs(mean - exact)))
    assert errors[0] >= 3 * errors[1] and errors[1] >= 3 * errors[2], errors


def member_moment(u, psi):
    """C(psi) = lim E[dP (x) dP] / dt of member u at the unit state psi:

        sum_jl [S_jl a_j (x) a_l + conj(S_jl) a_j^dag (x) a_l^dag]
          + sum_j (a_j (x) a_j^dag + a_j^dag (x) a_j),

    with S = u^T u, a_j = c_j psi^dag and c_j = (L_j - <psi, L_j psi>) psi
    over the unrotated, zero-padded operators.  It depends on the member
    only through u^T u, and not on the phase gauge of B_k."""
    N = u.noise_count
    ops = list(u.model.lindblad_ops)
    ops += [np.zeros((u.dim, u.dim), dtype=complex)] * (N - len(ops))
    a = [np.outer(L @ psi - np.vdot(psi, L @ psi) * psi, psi.conj())
         for L in ops]
    umat = u.freedom.as_matrix()
    S = umat.T @ umat
    C = sum(S[j, l] * np.kron(a[j], a[l])
            + np.conj(S[j, l]) * np.kron(a[j].conj().T, a[l].conj().T)
            for j in range(N) for l in range(N))
    return C + sum(np.kron(aj, aj.conj().T) + np.kron(aj.conj().T, aj)
                   for aj in a)


# the member of each member-identity case, and its state (None: generic)
MEMBER_IDENTITY_CASES = {
    "diosi-complex-plus": (
        lambda rng: Unraveling(DEPHASING, "diosi-complex"), PLUS),
    "diosi-complex": (
        lambda rng: Unraveling(DEPHASING, "diosi-complex"), None),
    "phase:0.7": (lambda rng: Unraveling(DEPHASING, "phase:0.7"), None),
    "d3-n2-N2": (lambda rng: Unraveling(
        scaled_model(rng, 3, n_ops=2),
        UnitaryFreedom(matrix=random_unitary(rng, 2))), None),
    "d4-n2-N3": (lambda rng: Unraveling(
        scaled_model(rng, 4, n_ops=2),
        UnitaryFreedom(matrix=random_unitary(rng, 3))), None),
}


@pytest.mark.parametrize("case", MEMBER_IDENTITY_CASES)
def test_one_step_quadrature_second_moment_is_the_members_own(case):
    # The mean cannot tell members apart; the projector's second moment
    # can.  By quadrature, E[dP (x) dP] / dt of one kernel step differs
    # from the member's C(psi) only at O(dt): the defect halves with dt.
    # A step that drives some channel with another's increment is another
    # member's, or none, and its defect does not fall.
    rng = np.random.default_rng(32)
    build, psi = MEMBER_IDENTITY_CASES[case]
    u = build(rng)
    if psi is None:
        psi = verify.random_state(rng, u.dim)
    P = np.outer(psi, psi.conj())
    C = member_moment(u, psi)
    defects = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        weights, out = quadrature_step(u, psi, dt, q=8)
        dP = np.einsum("ri,rj->rij", out, out.conj()) - P
        moment = np.einsum("r,rij,rkl->ikjl", weights, dP, dP)
        defects.append(np.max(np.abs(moment.reshape(C.shape) / dt - C)))
    assert (defects[0] >= 1.8 * defects[1]
            and defects[1] >= 1.8 * defects[2]), defects
