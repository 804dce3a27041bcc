"""Random operators, models and unitary freedoms for the tests.

Random states come from ``verify.random_state``, which the generator
identity check draws its samples with.
"""

import numpy as np

from qunravel import hilbert
from qunravel.lindblad import LindbladModel
from qunravel.unraveling import UnitaryFreedom


def random_hermitian(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (M + hilbert.dagger(M))


def random_unitary(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_model(rng, d, n_ops=None):
    if n_ops is None:
        n_ops = int(rng.integers(1, 3))
    while True:
        H = random_hermitian(rng, d)
        ops = tuple(
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            for _ in range(n_ops))
        if hilbert.check_linear_independence(ops):
            return LindbladModel(H, ops)


def scaled_model(rng, d, scale=1.0, n_ops=2):
    """random_model with H and each operator of unit spectral norm, so that
    the generator's norm does not grow with d, then the operators times
    scale."""
    m = random_model(rng, d, n_ops=n_ops)
    unit = [A / np.linalg.norm(A, 2) for A in (m.hamiltonian,) + m.lindblad_ops]
    return LindbladModel(unit[0], tuple(scale * L for L in unit[1:]))


def random_freedom(rng, n_ops):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return UnitaryFreedom(matrix=np.eye(n_ops, dtype=complex))
    if kind == 1 and n_ops == 1:
        return UnitaryFreedom(phase=float(rng.uniform(0, 2 * np.pi)))
    N = n_ops + int(rng.integers(0, 3))
    return UnitaryFreedom(matrix=random_unitary(rng, N))
