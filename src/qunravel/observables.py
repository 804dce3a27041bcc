"""Derived quantities: collapse variance, the real-coordinate Fokker-Planck
diffusion matrix at a point, and Born-statistics classification of
trajectory ensembles.
"""

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .tolerances import TOL
from .unraveling import diffusion_vectors


def variance(psi, L):
    """V = <L^2> - <L>^2 for Hermitian L at a unit state: a float for one
    (d,) state, an array of shape (...) for a (..., d) batch of states."""
    L = hilbert.as_operator(L)
    if not hilbert.is_hermitian(L):
        raise ValueError("L must be Hermitian")
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 2:
        psi = hilbert.as_state(psi, dim=L.shape[0])
    elif psi.shape[-1] != L.shape[0]:
        raise ValueError(f"states have dim {psi.shape[-1]}, "
                         f"expected {L.shape[0]}")
    v = _variance(psi, L)
    return float(v) if v.ndim == 0 else v


def _variance(psi, L):
    """:func:`variance` of a (..., d) complex batch for a (d, d) complex L
    already checked to be Hermitian, as an array of shape (...)."""
    Lpsi = psi @ L.T
    mean = np.sum(np.conj(psi) * Lpsi, axis=-1).real
    second = np.sum(np.abs(Lpsi) ** 2, axis=-1)
    return second - mean * mean


def _real_coords(vec):
    return np.concatenate([np.real(vec), np.imag(vec)])


def diffusion_matrix(u, psi):
    """D = sum_k b_k b_k^T with b_k the real-coordinate image of B_k(psi),
    as a (2d, 2d) real symmetric PSD array: index i in [0, d) is Re(psi_i),
    index d + i is Im(psi_i).

    Invariant under u -> o u for real orthogonal o; genuinely complex
    mixings can change it.
    """
    psi = hilbert.as_state(psi, dim=u.dim)
    D = np.zeros((2 * u.dim, 2 * u.dim))
    for B in diffusion_vectors(u, psi):
        b = _real_coords(B)
        D += np.outer(b, b)
    return D


def spectral_sectors(L):
    """Eigenvalue sectors of a Hermitian operator.

    Eigenvalues within TOL.spectral_gap of each other share a sector
    (collapse selects eigenspaces, not basis vectors, under degeneracy).
    Returns (sector eigenvalues, projectors).
    """
    L = hilbert.as_operator(L)
    if not hilbert.is_hermitian(L):
        raise ValueError("L must be Hermitian")
    w, V = np.linalg.eigh(L)
    values = []
    projectors = []
    i = 0
    d = L.shape[0]
    while i < d:
        j = i
        while j + 1 < d and w[j + 1] - w[j] <= TOL.spectral_gap:
            j += 1
        P = np.zeros((d, d), dtype=complex)
        for k in range(i, j + 1):
            P += np.outer(V[:, k], np.conj(V[:, k]))
        values.append(float(np.mean(w[i:j + 1])))
        projectors.append(P)
        i = j + 1
    return values, projectors


@dataclass
class BornReport:
    outcomes: list                 # sector eigenvalues
    frequencies: np.ndarray        # empirical fraction per sector
    predicted: np.ndarray          # ||P_n psi0||^2, or None if psi0 not given
    counts: np.ndarray
    unclassified: int
    n_total: int
    std_errors: np.ndarray         # binomial error per sector

    @property
    def unclassified_fraction(self):
        return self.unclassified / self.n_total


def born_statistics(final_states, L, tol=TOL.classify, psi0=None):
    """Classify final states into eigenvalue sectors of L and compare the
    empirical frequencies against the Born weights ||P_n psi0||^2.

    A state lands in sector n when <psi, P_n psi> > 1 - tol; anything else
    is counted as unclassified (reported, never an error).
    """
    values, projectors = spectral_sectors(L)
    if len(values) > 1 and np.min(np.diff(sorted(values))) <= 10 * tol:
        raise ValueError("eigenvalue sectors closer than 10*tol; lower tol")
    states = np.asarray(final_states, dtype=complex)
    n_total = states.shape[0]
    # weights[n, m] = Re <psi_m, P_n psi_m>, for every sector and state
    Ppsi = states @ np.transpose(projectors, (0, 2, 1))
    weights = np.sum(np.conj(states) * Ppsi, axis=-1).real
    best = np.argmax(weights, axis=0)
    classified = np.take_along_axis(weights, best[None], 0)[0] > 1.0 - tol
    counts = np.bincount(best[classified], minlength=len(values))
    unclassified = int(n_total - classified.sum())
    freqs = counts / n_total
    predicted = None
    if psi0 is not None:
        psi0 = hilbert.as_state(psi0, dim=L.shape[0])
        predicted = np.array(
            [float(np.real(np.vdot(psi0, P @ psi0))) for P in projectors])
    errors = np.sqrt(np.maximum(freqs * (1 - freqs), 0.0) / n_total)
    return BornReport(outcomes=values, frequencies=freqs, predicted=predicted,
                      counts=counts, unclassified=unclassified,
                      n_total=n_total, std_errors=errors)
