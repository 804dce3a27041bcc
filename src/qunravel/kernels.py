"""The zero-gauge drift and diffusion, and the Euler-Maruyama stepping loop
built on it.

:func:`drift_diffusion` is the one place the unraveling formula is written:
given the constant matrix K = -iH - (1/2) sum L_k^dag L_k and the rotated
operators L_k, it maps a batch of states to

    A psi = K psi + sum_k (ell_k L_k psi - ell_k^2 psi / 2),
    B_k   = L_k psi - ell_k psi,          ell_k = Re <psi, L_k psi>.

``unraveling.drift_vector``/``diffusion_vectors``/``generator_term`` call it
with a batch of one; :func:`simulate_chunk` calls it once per step.  An
optional fault ("drop_ell2" or "zero_ell_in_B") removes the -ell_k^2/2 drift
term or the -ell_k psi part of B_k; under a fault the functionals are taken
on the normalized state, which keeps the (trace non-preserving) faulty
dynamics integrable without renormalization.

Kernel contract: given a shared initial state and Wiener increments dW of
shape (batch, steps, N), advance each trajectory with

    psi' = psi + dt * A psi + sum_k B_k dW_k,

optionally renormalizing after each step.  dW is read one block of
:data:`STEP_BLOCK` steps at a time, as ``dW[:, s0:s1]``, so it may be an
array or an object that draws each block on demand.  Outputs per trajectory:
the states at the requested record steps (or, with ``on_record``, one call
per record step instead), the max and mean pre-renormalization deviation
|  ||psi'||^2 - 1 |, and a status flag (0 ok, 1 norm blow-up).  A blown-up
trajectory keeps its last state.
"""

import numpy as np

from .tolerances import TOL

_BLOWUP2 = TOL.blowup_norm ** 2

FAULTS = ("drop_ell2", "zero_ell_in_B")

# steps of dW read at once: bounds the increments held to batch*STEP_BLOCK*N
STEP_BLOCK = 128


def active_backend():
    """Name of the stepping backend; numpy is the only one."""
    return "numpy"


def _row_sum(x):
    """``np.sum(x, axis=1)`` bit for bit, without numpy's per-row loop.

    numpy adds a row of fewer than 8 scalars (real and imaginary parts count
    separately) one element after another onto +0.0, which slices over the
    batch reproduce at a fraction of the cost; longer rows are summed
    pairwise and go to ``np.sum``.
    """
    if x.shape[1] * (2 if np.iscomplexobj(x) else 1) >= 8:
        return np.sum(x, axis=1)
    total = 0.0 + x[:, 0]
    for i in range(1, x.shape[1]):
        total += x[:, i]
    return total


def drift_diffusion(psi, K, rotated, fault=None):
    """Zero-gauge drift and diffusion of a batch of states.

    Parameters
    ----------
    psi : (b, d) complex
    K : (d, d) complex, the constant linear drift part
    rotated : (N, d, d) complex
    fault : None or one of :data:`FAULTS`

    Returns
    -------
    A : (b, d) complex
    B : (N, b, d) complex
    """
    A = psi @ K.T
    B = psi @ rotated.transpose(0, 2, 1)        # L_k psi, (N, b, d)
    if fault is not None:
        n2 = _row_sum(np.abs(psi) ** 2)
    for k in range(B.shape[0]):
        Lpsi = B[k]
        lk = _row_sum(np.conj(psi) * Lpsi).real
        if fault is not None:
            lk = lk / n2
        A += lk[:, None] * Lpsi
        if fault != "drop_ell2":
            A -= 0.5 * (lk * lk)[:, None] * psi
        if fault != "zero_ell_in_B":
            Lpsi -= lk[:, None] * psi
    return A, B


def simulate_chunk(psi0, K, rotated, dt, dW, renormalize, record_steps,
                   fault=None, on_record=None):
    """Advance a batch of trajectories from a common initial state.

    Parameters
    ----------
    psi0 : (d,) complex
    K : (d, d) complex, the constant linear drift part
    rotated : (N, d, d) complex
    dt : float
    dW : (batch, steps, N) float, or any object with that ``shape`` whose
        ``dW[:, s0:s1]`` gives the increments of steps s0..s1-1; blocks are
        read once each, in order
    renormalize : bool
    record_steps : (R,) int, strictly increasing 1-based step counts
    fault : None or one of :data:`FAULTS`, see :func:`drift_diffusion`
    on_record : None or a callable ``on_record(r, psi)`` given the (batch, d)
        states at record step r; when set, no states are stored

    Returns
    -------
    states : (batch, R, d) complex, or None when on_record is given
    drift_max : (batch,) float, max per-step |  ||psi'||^2 - 1 |
    drift_mean : (batch,) float, mean per-step |  ||psi'||^2 - 1 |
    status : (batch,) uint8
    """
    psi0 = np.ascontiguousarray(psi0, dtype=np.complex128)
    K = np.ascontiguousarray(K, dtype=np.complex128)
    rotated = np.ascontiguousarray(rotated, dtype=np.complex128)
    record_steps = np.ascontiguousarray(record_steps, dtype=np.int64)
    batch, steps, N = np.shape(dW)
    d = psi0.size
    R = record_steps.size
    states = None
    if on_record is None:
        states = np.zeros((batch, R, d), dtype=np.complex128)

        def on_record(r, psi):
            states[:, r, :] = psi
    drift_max = np.zeros(batch)
    drift_sum = np.zeros(batch)
    status = np.zeros(batch, dtype=np.uint8)
    alive = np.ones(batch, dtype=bool)

    psi = np.broadcast_to(psi0, (batch, d)).copy()
    rec = 0
    for s0 in range(0, steps, STEP_BLOCK):
        block = np.ascontiguousarray(dW[:, s0:s0 + STEP_BLOCK], dtype=np.float64)
        for j in range(block.shape[1]):
            A, B = drift_diffusion(psi, K, rotated, fault)
            new = psi + dt * A
            for k in range(N):
                new += block[:, j, k][:, None] * B[k]
            n2 = _row_sum(np.abs(new) ** 2)
            dev = np.abs(n2 - 1.0)
            drift_max = np.where(alive & (dev > drift_max), dev, drift_max)
            drift_sum = np.where(alive, drift_sum + dev, drift_sum)
            blown = alive & (n2 < _BLOWUP2)
            status[blown] = 1
            alive &= ~blown
            if renormalize:
                safe = np.where(n2 > 0.0, np.sqrt(n2), 1.0)
                new = new / safe[:, None]
            psi = np.where(alive[:, None], new, psi)
            if rec < R and s0 + j + 1 == record_steps[rec]:
                on_record(rec, psi)
                rec += 1
    return states, drift_max, drift_sum / steps, status
