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

Kernel contract: given a shared initial state and a pregenerated
Wiener-increment array dW of shape (batch, steps, N), advance each
trajectory with

    psi' = psi + dt * A psi + sum_k B_k dW_k,

optionally renormalizing after each step.  Outputs per trajectory: the
states at the requested record steps, the max and mean pre-renormalization
deviation |  ||psi'||^2 - 1 |, and a status flag (0 ok, 1 norm blow-up).  A
blown-up trajectory keeps its last state.
"""

import numpy as np

from .tolerances import TOL

_BLOWUP2 = TOL.blowup_norm ** 2

FAULTS = ("drop_ell2", "zero_ell_in_B")


def active_backend():
    """Name of the stepping backend; numpy is the only one."""
    return "numpy"


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
        n2 = np.sum(np.abs(psi) ** 2, axis=1)
    for k in range(B.shape[0]):
        Lpsi = B[k]
        lk = np.sum(np.conj(psi) * Lpsi, axis=1).real
        if fault is not None:
            lk = lk / n2
        A += lk[:, None] * Lpsi
        if fault != "drop_ell2":
            A -= 0.5 * (lk * lk)[:, None] * psi
        if fault != "zero_ell_in_B":
            Lpsi -= lk[:, None] * psi
    return A, B


def simulate_chunk(psi0, K, rotated, dt, dW, renormalize, record_steps,
                   fault=None):
    """Advance a batch of trajectories from a common initial state.

    Parameters
    ----------
    psi0 : (d,) complex
    K : (d, d) complex, the constant linear drift part
    rotated : (N, d, d) complex
    dt : float
    dW : (batch, steps, N) float
    renormalize : bool
    record_steps : (R,) int, strictly increasing 1-based step counts
    fault : None or one of :data:`FAULTS`, see :func:`drift_diffusion`

    Returns
    -------
    states : (batch, R, d) complex
    drift_max : (batch,) float, max per-step |  ||psi'||^2 - 1 |
    drift_mean : (batch,) float, mean per-step |  ||psi'||^2 - 1 |
    status : (batch,) uint8
    """
    psi0 = np.ascontiguousarray(psi0, dtype=np.complex128)
    K = np.ascontiguousarray(K, dtype=np.complex128)
    rotated = np.ascontiguousarray(rotated, dtype=np.complex128)
    dW = np.ascontiguousarray(dW, dtype=np.float64)
    record_steps = np.ascontiguousarray(record_steps, dtype=np.int64)
    batch, steps, N = dW.shape
    d = psi0.size
    R = record_steps.size
    states = np.zeros((batch, R, d), dtype=np.complex128)
    drift_max = np.zeros(batch)
    drift_sum = np.zeros(batch)
    status = np.zeros(batch, dtype=np.uint8)
    alive = np.ones(batch, dtype=bool)

    psi = np.broadcast_to(psi0, (batch, d)).copy()
    rec = 0
    for s in range(steps):
        A, B = drift_diffusion(psi, K, rotated, fault)
        new = psi + dt * A
        for k in range(N):
            new += dW[:, s, k][:, None] * B[k]
        n2 = np.sum(np.abs(new) ** 2, axis=1)
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
        if rec < R and s + 1 == record_steps[rec]:
            states[:, rec, :] = psi
            rec += 1
    return states, drift_max, drift_sum / steps, status
