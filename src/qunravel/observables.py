"""Derived quantities: collapse variance and its drift law, the real-coordinate
Fokker-Planck diffusion matrix at a point, Born-statistics classification of
trajectory ensembles, and the projective collapse map.
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
    Lpsi = psi @ L.T
    mean = np.sum(np.conj(psi) * Lpsi, axis=-1).real
    second = np.sum(np.abs(Lpsi) ** 2, axis=-1)
    v = second - mean * mean
    return float(v) if v.ndim == 0 else v


def variance_drift(psi, L, f):
    """Deterministic part of dV for the scalar-phase family: -4 cos^2(f) V^2.

    Vanishes at f = pi/2 (the linear unraveling does not collapse) and is
    maximal at f = 0.
    """
    v = variance(psi, L)
    c = np.cos(f)
    return -4.0 * c * c * v * v


def _real_coords(vec):
    return np.concatenate([np.real(vec), np.imag(vec)])


@dataclass
class DiffusionMatrix:
    """2d x 2d real symmetric PSD matrix over (coordinate, {Re, Im}) indices.

    Layout: index i in [0, d) is Re(psi_i), index d + i is Im(psi_i).
    """

    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0] // 2


def diffusion_matrix(u, psi):
    """D = sum_k b_k b_k^T with b_k the real-coordinate image of B_k(psi).

    Invariant under u -> o u for real orthogonal o; genuinely complex
    mixings can change it.
    """
    psi = hilbert.as_state(psi, dim=u.dim)
    D = np.zeros((2 * u.dim, 2 * u.dim))
    for B in diffusion_vectors(u, psi):
        b = _real_coords(B)
        D += np.outer(b, b)
    return DiffusionMatrix(matrix=D)


def spectral_sectors(L, gap=TOL.spectral_gap):
    """Eigenvalue sectors of a Hermitian operator.

    Eigenvalues within `gap` of each other share a sector (collapse selects
    eigenspaces, not basis vectors, under degeneracy).  Returns
    (sector eigenvalues, projectors).
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
        while j + 1 < d and w[j + 1] - w[j] <= gap:
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
    counts = np.zeros(len(values), dtype=int)
    unclassified = 0
    for psi in states:
        weights = [float(np.real(np.vdot(psi, P @ psi))) for P in projectors]
        best = int(np.argmax(weights))
        if weights[best] > 1.0 - tol:
            counts[best] += 1
        else:
            unclassified += 1
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


def projective_collapse(psi, projectors, weights):
    """The collapse map T: sum_n p_n P_n |psi><psi| P_n / ||P_n psi||^2.

    Requires a complete orthogonal projector family and nonnegative weights
    summing to one; terms with ||P_n psi||^2 < 1e-14 are skipped.  With Born
    weights p_n = ||P_n psi||^2 the map is the unique ensemble-linear choice.
    """
    psi = hilbert.as_state(psi)
    d = psi.size
    projectors = [hilbert.as_operator(P, dim=d) for P in projectors]
    total = sum(projectors)
    if np.max(np.abs(total - np.eye(d))) > TOL.hermitian:
        raise ValueError("projectors must sum to the identity")
    for a, P in enumerate(projectors):
        for b, Q in enumerate(projectors):
            expect = P if a == b else np.zeros((d, d))
            if np.max(np.abs(P @ Q - expect)) > TOL.hermitian:
                raise ValueError(f"projectors {a},{b} not orthogonal")
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < -TOL.trace_one) or abs(weights.sum() - 1.0) > TOL.trace_one:
        raise ValueError("weights must be nonnegative and sum to one")
    out = np.zeros((d, d), dtype=complex)
    for p, P in zip(weights, projectors):
        Ppsi = P @ psi
        n2 = float(np.real(np.vdot(Ppsi, Ppsi)))
        if n2 < 1e-14:
            continue
        out += p * np.outer(Ppsi, np.conj(Ppsi)) / n2
    return out

