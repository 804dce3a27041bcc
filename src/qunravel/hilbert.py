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
    """Max entrywise |M - M^dag| (diagnostic, never repaired silently)."""
    M = np.asarray(M)
    return float(np.max(np.abs(M - dagger(M)))) if M.size else 0.0


def is_hermitian(M, tol=TOL.hermitian):
    return hermiticity_defect(M) <= tol


def norm2(psi):
    """Squared 2-norm of a state."""
    return float(np.real(np.vdot(psi, psi)))


def is_normalized(psi, tol=TOL.unit_norm):
    return abs(norm2(psi) - 1.0) <= tol


def normalize(psi):
    n = np.sqrt(norm2(psi))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return np.asarray(psi, dtype=complex) / n


def expectation(psi, M):
    """<psi, M psi>.  Complex in general; real for Hermitian M."""
    psi = as_state(psi)
    M = as_operator(M, dim=psi.size)
    return complex(np.vdot(psi, M @ psi))


def outer(psi, phi):
    """|psi><phi| as a dense operator."""
    psi = as_state(psi)
    phi = as_state(phi, dim=psi.size)
    return np.outer(psi, np.conj(phi))


def trace_distance(rho, sigma):
    """Half the sum of singular values of rho - sigma."""
    rho = as_operator(rho)
    sigma = as_operator(sigma, dim=rho.shape[0])
    s = np.linalg.svd(rho - sigma, compute_uv=False)
    return 0.5 * float(np.sum(s))


def check_linear_independence(ops, include_identity=False, rtol=TOL.independence):
    """True iff the vectorized operators (optionally with the identity
    prepended) are linearly independent.

    Independence is judged on the Gram matrix of the vectorized operators:
    its minimum eigenvalue must exceed rtol times its maximum eigenvalue.
    """
    ops = [as_operator(M) for M in ops]
    if not ops and not include_identity:
        return True
    d = ops[0].shape[0] if ops else None
    vecs = []
    if include_identity:
        if d is None:
            return True
        vecs.append(np.eye(d, dtype=complex).ravel())
    for M in ops:
        M = as_operator(M, dim=d)
        d = M.shape[0]
        vecs.append(M.ravel())
    V = np.array(vecs)
    gram = V @ np.conj(V).T
    w = np.linalg.eigvalsh(gram)
    if w[-1] <= 0.0:
        return False
    return bool(w[0] > rtol * w[-1])
