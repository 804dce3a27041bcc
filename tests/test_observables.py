"""Tests for variance, diffusion matrices, Born statistics, collapse map."""

import numpy as np
import pytest

from qunravel.hilbert import SIGMA_Z, normalize, outer
from qunravel.lindblad import LindbladModel
from qunravel.observables import (born_statistics, diffusion_matrix,
                                  projective_collapse, spectral_sectors,
                                  variance, variance_drift)
from qunravel.unraveling import UnitaryFreedom, Unraveling

DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def born_weights(psi, projectors):
    """p_n = ||P_n psi||^2."""
    return np.array([float(np.real(np.vdot(psi, P @ psi))) for P in projectors])


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


def test_variance_drift_phase_family():
    V = variance(PLUS, SIGMA_Z)
    assert variance_drift(PLUS, SIGMA_Z, 0.0) == pytest.approx(-4.0 * V * V)
    assert variance_drift(PLUS, SIGMA_Z, np.pi / 4) == pytest.approx(-2.0 * V * V)
    assert variance_drift(PLUS, SIGMA_Z, np.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_diffusion_matrix_is_psd_and_correct_shape():
    u = Unraveling(DEPHASING, "standard")
    D = diffusion_matrix(u, PLUS)
    assert D.matrix.shape == (4, 4)
    assert D.dim == 2
    assert np.allclose(D.matrix, D.matrix.T)
    assert np.linalg.eigvalsh(D.matrix)[0] >= -1e-14
    # standard unraveling at a real state: purely real diffusion directions
    assert np.allclose(D.matrix[2:, 2:], 0.0)


def test_diffusion_matrix_real_orthogonal_invariance():
    rng = np.random.default_rng(0)
    u1 = Unraveling(DEPHASING, "diosi-complex")
    M = rng.normal(size=(2, 2))
    o, _ = np.linalg.qr(M)
    u2 = Unraveling(DEPHASING,
                    UnitaryFreedom(matrix=o @ u1.freedom.as_matrix()))
    psi = normalize(rng.normal(size=2) + 1j * rng.normal(size=2))
    assert np.allclose(diffusion_matrix(u1, psi).matrix,
                       diffusion_matrix(u2, psi).matrix, atol=1e-13)


def test_diffusion_matrix_complex_phase_changes_it():
    u_std = Unraveling(DEPHASING, "standard")
    u_lin = Unraveling(DEPHASING, "linear-potential")
    gap = np.max(np.abs(diffusion_matrix(u_std, PLUS).matrix
                        - diffusion_matrix(u_lin, PLUS).matrix))
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


def test_born_statistics_rejects_too_close_sectors():
    L = np.diag([0.0, 1e-5]).astype(complex)
    with pytest.raises(ValueError, match="sectors"):
        born_statistics(np.array([[1.0, 0.0]]), L, tol=1e-3)


def test_projective_collapse_with_born_weights():
    projs = [np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)]
    psi = normalize([np.sqrt(0.3), np.sqrt(0.7)])
    p = born_weights(psi, projs)
    assert p == pytest.approx([0.3, 0.7])
    rho = projective_collapse(psi, projs, p)
    assert np.allclose(rho, np.diag([0.3, 0.7]))
    # collapse map with Born weights equals sum_n P rho P
    raw = outer(psi, psi)
    assert np.allclose(rho, sum(P @ raw @ P for P in projs))


def test_projective_collapse_validation():
    psi = PLUS
    good = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    with pytest.raises(ValueError, match="identity"):
        projective_collapse(psi, [np.diag([1.0, 0.0])], [1.0])
    with pytest.raises(ValueError, match="orthogonal"):
        projective_collapse(psi, [np.eye(2) / 2, np.eye(2) / 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="weights"):
        projective_collapse(psi, good, [0.9, 0.4])
    with pytest.raises(ValueError, match="weights"):
        projective_collapse(psi, good, [-0.2, 1.2])


def test_projective_collapse_skips_null_sectors():
    psi = np.array([1.0, 0.0])
    projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    rho = projective_collapse(psi, projs, [1.0, 0.0])
    assert np.allclose(rho, np.diag([1.0, 0.0]))
