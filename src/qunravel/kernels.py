"""The zero-gauge drift and diffusion, and the Euler-Maruyama stepping loop
built on it.

:func:`drift_diffusion` is the one place the unraveling formula is written:
given the constant matrix K = -iH - (1/2) sum L_k^dag L_k and the rotated
operators L_k, it maps a batch of states to

    A psi = K psi + sum_k (ell_k L_k psi - ell_k^2 psi / 2),
    B_k   = L_k psi - ell_k psi,          ell_k = Re <psi, L_k psi>.

``unraveling.generator_term`` calls it with a batch of one;
:func:`simulate_chunk` calls it once per step.  An optional fault
("drop_ell2" or "zero_ell_in_B") removes the -ell_k^2/2 drift term or the
-ell_k psi part of B_k; under a fault the functionals are taken on the
normalized state, which keeps the (trace non-preserving) faulty dynamics
integrable without renormalization.

Kernel contract: given a shared initial state and Wiener increments dW of
shape (batch, steps, N), advance each trajectory with

    psi' = psi + dt * A psi + sum_k B_k dW_k,

optionally renormalizing after each step.  dW is read one block of
:data:`STEP_BLOCK` steps at a time, as ``dW[:, s0:s1]``, so it may be an
array or an object that draws each block on demand.  The states at the
requested record steps go out only through the ``on_record`` hook, one call
per record step.  Outputs per trajectory: the state after the last step,
the max and mean pre-renormalization deviation |  ||psi'||^2 - 1 |, and a
status flag: 1 when the pre-renormalization norm fell below the blow-up
floor, was NaN or was infinite at any step, else 0.
A flagged trajectory is not frozen: it runs on, and its states and drifts
are meaningless; the library's callers raise on any flag.

Inside the kernel the states are component-major, a (d, batch) array, so
that every elementwise operation runs over the batch rather than over d = 2
to 4 components.  Each trajectory's bits do not depend on the batch width,
and so not on the thread count: the products K psi and L_k psi are the same
(batch, d) @ (d, d) BLAS call, transposed afterwards (:func:`_apply`); a sum
over d is a column sum, which adds each column in one fixed order whatever
the width.  Every row takes the same step, blown up or not, so a blow-up
changes no other row's bits.  ``on_record`` is handed this layout itself, a
read-only (d, batch) view with no copy made, so that a reduction over the
batch reads each component contiguously; each step makes a new state array,
so a view kept past its step still holds that step's states.
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


def _apply(M, psi):
    """M psi for a (..., d, d) M and a (d, b) batch, as a contiguous
    (..., d, b) array.

    It is computed as psi^T M^T, the same (b, d) @ (d, d) product as in the
    row-major layout, so each state's bits do not depend on the batch width;
    ``M @ psi`` would let BLAS block the columns differently.
    """
    return np.ascontiguousarray(
        np.swapaxes(psi.T @ np.swapaxes(M, -1, -2), -1, -2))


def drift_diffusion(psi, K, rotated, fault=None):
    """Zero-gauge drift and diffusion of a batch of states.

    Parameters
    ----------
    psi : (d, b) complex, one state per column
    K : (d, d) complex, the constant linear drift part
    rotated : (N, d, d) complex
    fault : None or one of :data:`FAULTS`

    Returns
    -------
    A : (d, b) complex
    B : (N, d, b) complex
    """
    A = _apply(K, psi)
    B = _apply(rotated, psi)                    # L_k psi, (N, d, b)
    if fault is not None:
        n2 = (np.abs(psi) ** 2).sum(axis=0)
    for k in range(B.shape[0]):
        Lpsi = B[k]
        lk = (np.conj(psi) * Lpsi).sum(axis=0).real
        if fault is not None:
            lk = lk / n2
        A += lk * Lpsi
        if fault != "drop_ell2":
            A -= 0.5 * (lk * lk) * psi
        if fault != "zero_ell_in_B":
            Lpsi -= lk * psi
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
        read once each, in order.  N must be len(rotated) and steps at least
        the last record step, else ValueError
    renormalize : bool
    record_steps : (R,) int, strictly increasing 1-based step counts
    fault : None or one of :data:`FAULTS`, see :func:`drift_diffusion`
    on_record : None or a callable ``on_record(r, psi)`` given the states
        at record step r as a read-only (d, batch) view, column b holding
        trajectory b: the kernel's own component-major layout, not copied;
        without it only the final states come out

    Returns
    -------
    final : (batch, d) complex, the states after the last step of dW
    drift_max : (batch,) float, max per-step |  ||psi'||^2 - 1 |
    drift_mean : (batch,) float, mean per-step |  ||psi'||^2 - 1 |
    status : (batch,) uint8, 1 where a norm blew up (see module docstring)
    """
    psi0 = np.ascontiguousarray(psi0, dtype=np.complex128)
    K = np.ascontiguousarray(K, dtype=np.complex128)
    rotated = np.ascontiguousarray(rotated, dtype=np.complex128)
    record_steps = np.ascontiguousarray(record_steps, dtype=np.int64)
    batch, steps, N = np.shape(dW)
    if N != len(rotated) or np.any(record_steps > steps):
        raise ValueError(f"dW of shape {np.shape(dW)} must have {len(rotated)}"
                         f" noise channels and reach every record step")
    d = psi0.size
    R = record_steps.size if on_record else 0   # record steps handed out
    # numpy hands a one-row product to gemv, whose bits differ from a row of
    # gemm's; a lone trajectory is stepped beside a noiseless copy instead
    width = max(batch, 2)
    drift_max = np.zeros(width)
    drift_sum = np.zeros(width)
    # every norm at or above the floor so far; False once NaN or below it
    above = np.ones(width, dtype=bool)

    # component-major: psi[i] holds component i of every trajectory
    psi = np.empty((d, width), dtype=np.complex128)
    psi[:] = psi0[:, None]
    rec = 0
    caller_errors = np.geterr()
    # a row that divides 0 by 0 or overflows is flagged, and runs on
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s0 in range(0, steps, STEP_BLOCK):
            block = np.asarray(dW[:, s0:s0 + STEP_BLOCK], dtype=np.float64)
            # (s, N, width), transposed a cache-sized tile of rows at a time
            incs = np.zeros(block.shape[1:] + (width,))
            for i in range(0, batch, 64):
                incs[..., i:i + 64] = block[i:i + 64].transpose(1, 2, 0)
            for j, increments in enumerate(incs):
                new, B = drift_diffusion(psi, K, rotated, fault)
                new *= dt
                new += psi
                for k in range(N):
                    B[k] *= increments[k]
                    new += B[k]
                n2 = (np.abs(new) ** 2).sum(axis=0)
                above &= n2 >= _BLOWUP2
                dev = np.abs(n2 - 1.0)
                np.fmax(drift_max, dev, out=drift_max)
                drift_sum += dev
                if renormalize:
                    new /= np.sqrt(n2)
                psi = new
                if rec < R and s0 + j + 1 == record_steps[rec]:
                    # the hook keeps the caller's floating-point warnings
                    view = psi[:, :batch]
                    view.flags.writeable = False
                    with np.errstate(**caller_errors):
                        on_record(rec, view)
                    rec += 1
    # an infinite norm at any step left an infinite drift_max
    status = ~(above & (drift_max < np.inf))
    return (psi[:, :batch].T.copy(), drift_max[:batch],
            drift_sum[:batch] / steps, status[:batch].astype(np.uint8))
