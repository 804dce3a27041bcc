"""Tests for variance, diffusion matrices and Born statistics."""

import numpy as np
import pytest

from qunravel.hilbert import SIGMA_Z, normalize
from qunravel.lindblad import LindbladModel
from qunravel.observables import (born_statistics, diffusion_matrix,
                                  spectral_sectors, variance)
from qunravel.unraveling import UnitaryFreedom, Unraveling

DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def test_variance_oracle_values():
    # [TRIVIAL] sz has variance 1 at |+> and 0 on eigenstates
    assert variance(PLUS, SIGMA_Z) == pytest.approx(1.0)
    assert variance([1.0, 0.0], SIGMA_Z) == pytest.approx(0.0)
    psi = normalize([np.sqrt(0.3), np.sqrt(0.7)])
    assert variance(psi, SIGMA_Z) == pytest.approx(4 * 0.3 * 0.7)
    with pytest.raises(ValueError, match="Hermitian"):
        variance(PLUS, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_variance_of_a_batch_is_the_variance_of_each_state():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    L = G + G.conj().T
    states = rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    V = variance(states, L)
    assert V.shape == (5, 4)
    for idx in np.ndindex(5, 4):
        assert V[idx] == pytest.approx(variance(states[idx], L), abs=1e-13)
    assert isinstance(variance(states[0, 0], L), float)
    with pytest.raises(ValueError, match="dim"):
        variance(states, SIGMA_Z)


def test_diffusion_matrix_is_psd_and_correct_shape():
    u = Unraveling(DEPHASING, "standard")
    D = diffusion_matrix(u, PLUS)
    assert D.shape == (4, 4)
    assert np.allclose(D, D.T)
    assert np.linalg.eigvalsh(D)[0] >= -1e-14
    # standard unraveling at a real state: purely real diffusion directions
    assert np.allclose(D[2:, 2:], 0.0)


def test_diffusion_matrix_real_orthogonal_invariance():
    rng = np.random.default_rng(0)
    u1 = Unraveling(DEPHASING, "diosi-complex")
    M = rng.normal(size=(2, 2))
    o, _ = np.linalg.qr(M)
    u2 = Unraveling(DEPHASING,
                    UnitaryFreedom(matrix=o @ u1.freedom.as_matrix()))
    psi = normalize(rng.normal(size=2) + 1j * rng.normal(size=2))
    assert np.allclose(diffusion_matrix(u1, psi), diffusion_matrix(u2, psi),
                       atol=1e-13)


def test_diffusion_matrix_complex_phase_changes_it():
    u_std = Unraveling(DEPHASING, "standard")
    u_lin = Unraveling(DEPHASING, "linear-potential")
    gap = np.max(np.abs(diffusion_matrix(u_std, PLUS)
                        - diffusion_matrix(u_lin, PLUS)))
    assert gap > 1e-3


def test_spectral_sectors_groups_degenerate_eigenvalues():
    L = np.diag([1.0, 1.0, -1.0]).astype(complex)
    values, projectors = spectral_sectors(L)
    assert values == pytest.approx([-1.0, 1.0])
    assert np.trace(projectors[0]).real == pytest.approx(1.0)
    assert np.trace(projectors[1]).real == pytest.approx(2.0)
    assert np.allclose(sum(projectors), np.eye(3))
    with pytest.raises(ValueError, match="Hermitian"):
        spectral_sectors(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_born_statistics_classifies_eigenstates():
    finals = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], PLUS])
    report = born_statistics(finals, SIGMA_Z, psi0=PLUS)
    # sectors in ascending eigenvalue order: -1 then +1
    assert report.outcomes == pytest.approx([-1.0, 1.0])
    assert report.counts.tolist() == [2, 1]
    assert report.unclassified == 1
    assert report.unclassified_fraction == pytest.approx(0.25)
    assert report.predicted == pytest.approx([0.5, 0.5])
    assert report.n_total == 4


def born_counts_by_loop(states, L, tol):
    """counts and unclassified, one state and one sector at a time."""
    _, projectors = spectral_sectors(L)
    counts = np.zeros(len(projectors), dtype=int)
    unclassified = 0
    for psi in states:
        weights = [float(np.real(np.vdot(psi, P @ psi))) for P in projectors]
        best = int(np.argmax(weights))
        if weights[best] > 1.0 - tol:
            counts[best] += 1
        else:
            unclassified += 1
    return counts.tolist(), unclassified


def test_born_statistics_matches_the_per_state_loop():
    rng = np.random.default_rng(11)
    tol = 1e-3
    L = np.diag([2.0, 2.0, -1.0, 0.5]).astype(complex)
    # random states, and states whose best sector weight sits just above
    # or below 1 - tol, in the degenerate sector and in a simple one
    states = [rng.normal(size=4) + 1j * rng.normal(size=4)
              for _ in range(100)]
    # nearly collapsed states, whose weights straddle the threshold
    states += [np.eye(4)[rng.integers(4)]
               + 0.02 * (rng.normal(size=4) + 1j * rng.normal(size=4))
               for _ in range(300)]
    for sector in ([0, 1], [2]):
        for w in (1 - tol - 1e-9, 1 - tol + 1e-9, 1 - tol / 2, 1.0):
            inside = np.zeros(4, dtype=complex)
            inside[sector] = rng.normal(size=len(sector)) + 1j
            outside = rng.normal(size=4) * 1j
            outside[sector] = 0.0
            states.append(np.sqrt(w) * inside / np.linalg.norm(inside)
                          + np.sqrt(1 - w) * outside / np.linalg.norm(outside))
    states = np.array([psi / np.linalg.norm(psi) for psi in states])
    report = born_statistics(states, L, tol=tol)
    counts, unclassified = born_counts_by_loop(states, L, tol)
    assert report.counts.tolist() == counts
    assert report.unclassified == unclassified
    assert unclassified > 100 and min(counts) > 5
    assert report.counts.dtype == int


def test_born_statistics_rejects_too_close_sectors():
    L = np.diag([0.0, 1e-5]).astype(complex)
    with pytest.raises(ValueError, match="sectors"):
        born_statistics(np.array([[1.0, 0.0]]), L, tol=1e-3)

