"""Dense complex linear algebra over C^d (d <= 64) and the algebraic predicates
the rest of the package relies on.

Operators and states are plain numpy arrays (complex128): operators are (d, d),
states are (d,).  All functions are pure; nothing mutates its inputs.
"""

import numpy as np

from .tolerances import TOL

MAX_DIM = 64

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_operator(M, dim=None):
    """Validate and return M as a (d, d) complex array."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"operator must be square, got shape {M.shape}")
    if M.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {M.shape[0]} exceeds supported maximum {MAX_DIM}")
    if dim is not None and M.shape[0] != dim:
        raise ValueError(f"operator has dim {M.shape[0]}, expected {dim}")
    return M


def as_state(psi, dim=None):
    """Validate and return psi as a (d,) complex array."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size > MAX_DIM:
        raise ValueError(f"dimension {psi.size} exceeds supported maximum {MAX_DIM}")
    if dim is not None and psi.size != dim:
        raise ValueError(f"state has dim {psi.size}, expected {dim}")
    return psi


def dagger(M):
    """Conjugate transpose."""
    return np.conj(np.asarray(M)).T


def hermiticity_defect(M):
    """Max entrywise |M - M^dag| (diagnostic, never repaired silently); NaN
    when an entry is NaN or infinite."""
    M = np.asarray(M)
    with np.errstate(invalid="ignore"):     # inf - inf
        return float(np.max(np.abs(M - dagger(M)))) if M.size else 0.0


def is_hermitian(M):
    return hermiticity_defect(M) <= TOL.hermitian


def norm2(psi):
    """Squared 2-norm of a state."""
    return float(np.real(np.vdot(psi, psi)))


def is_normalized(psi):
    return abs(norm2(psi) - 1.0) <= TOL.unit_norm


def normalize(psi):
    n = np.sqrt(norm2(psi))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(psi, dtype=complex) / n


def outer(psi, phi):
    """|psi><phi| as a dense operator."""
    psi = as_state(psi)
    phi = as_state(phi, dim=psi.size)
    return np.outer(psi, np.conj(phi))


def variance(psi, L):
    """V = <L^2> - <L>^2 for a Hermitian (d, d) L at each unit state of a
    (..., d) batch, as an array of shape (...)."""
    L = as_operator(L)
    if not is_hermitian(L):
        raise ValueError("L must be Hermitian")
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim == 0 or psi.shape[-1] != L.shape[0]:
        raise ValueError(f"states of shape {psi.shape} do not have dim "
                         f"{L.shape[0]}")
    Lpsi = psi @ L.T
    mean = np.sum(np.conj(psi) * Lpsi, axis=-1).real
    second = np.sum(np.abs(Lpsi) ** 2, axis=-1)
    return second - mean * mean


def trace_distance(rho, sigma):
    """Half the sum of singular values of rho - sigma."""
    rho = as_operator(rho)
    sigma = as_operator(sigma, dim=rho.shape[0])
    s = np.linalg.svd(rho - sigma, compute_uv=False)
    return 0.5 * float(np.sum(s))


def check_linear_independence(ops):
    """True iff the identity and the vectorized operators are linearly
    independent: the minimum eigenvalue of their Gram matrix must exceed
    TOL.independence times its maximum eigenvalue."""
    ops = [as_operator(M) for M in ops]
    if not ops:
        return True
    d = ops[0].shape[0]
    V = np.array([np.eye(d, dtype=complex).ravel()]
                 + [as_operator(M, dim=d).ravel() for M in ops])
    w = np.linalg.eigvalsh(V @ np.conj(V).T)
    return bool(w[0] > TOL.independence * w[-1])
