"""Unit tests for the dense linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunravel import hilbert
from qunravel.hilbert import (SIGMA_X, SIGMA_Y, SIGMA_Z, as_operator, dagger,
                              check_linear_independence, hermiticity_defect,
                              is_hermitian, is_normalized, norm2, normalize,
                              outer, trace_distance, variance)
from qunravel.tolerances import TOL


def density_matrix_defects(rho):
    """(hermiticity defect, |trace - 1|, min eigenvalue of the hermitized
    matrix) of rho."""
    rho = as_operator(rho)
    herm = hermiticity_defect(rho)
    tr = abs(np.trace(rho) - 1.0)
    w = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    return herm, float(tr), float(w[0])


def is_density_matrix(rho):
    herm, tr, wmin = density_matrix_defects(rho)
    return herm <= TOL.hermitian and tr <= 1e-12 and wmin >= TOL.psd_floor


def random_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return normalize(psi)


def test_pauli_matrices_are_hermitian_and_involutive():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert is_hermitian(s)
        assert np.allclose(s @ s, np.eye(2))
    # su(2) commutation: [sx, sy] = 2i sz
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)


def test_as_operator_rejects_non_square_and_oversized():
    with pytest.raises(ValueError):
        hilbert.as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hilbert.as_operator(np.zeros((65, 65)))
    with pytest.raises(ValueError):
        hilbert.as_operator(np.eye(2), dim=3)


def test_as_state_shape_checks():
    assert hilbert.as_state([1, 0]).shape == (2,)
    with pytest.raises(ValueError):
        hilbert.as_state(np.zeros(65))
    with pytest.raises(ValueError):
        hilbert.as_state([1, 0], dim=3)


def test_dagger_and_hermiticity_defect():
    M = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    assert np.allclose(dagger(M), np.conj(M).T)
    assert hermiticity_defect(M) == pytest.approx(np.abs(2 + 1j))
    assert hermiticity_defect(M + dagger(M)) == 0.0


def test_normalize_and_norm2():
    psi = np.array([3.0, 4.0])
    assert norm2(psi) == pytest.approx(25.0)
    assert is_normalized(normalize(psi))
    with pytest.raises(ValueError):
        normalize(np.zeros(2))


def test_outer_is_rank_one_projector_on_unit_states():
    psi = normalize(np.array([1.0, 2.0 - 1j, 0.5]))
    P = outer(psi, psi)
    assert np.allclose(P @ P, P)
    assert np.trace(P) == pytest.approx(1.0)


def test_variance_oracle_values():
    # [TRIVIAL] sz has variance 1 at |+> and 0 on eigenstates
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert variance(plus, SIGMA_Z) == pytest.approx(1.0)
    assert variance([1.0, 0.0], SIGMA_Z) == pytest.approx(0.0)
    psi = normalize([np.sqrt(0.3), np.sqrt(0.7)])
    assert variance(psi, SIGMA_Z) == pytest.approx(4 * 0.3 * 0.7)
    with pytest.raises(ValueError, match="Hermitian"):
        variance(plus, np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    with pytest.raises(ValueError, match="dim"):
        variance(states, SIGMA_Z)


def test_trace_distance_oracle_orthogonal_pure_states():
    # [TRIVIAL] orthogonal pure states are at distance one
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(rho, sigma) == pytest.approx(1.0)
    assert trace_distance(rho, rho) == 0.0


def test_trace_distance_diagonal_is_total_variation():
    # [TRIVIAL] for commuting density matrices the trace distance reduces to
    # half the l1 distance of the spectra
    rho = np.diag([0.7, 0.3]).astype(complex)
    sigma = np.diag([0.4, 0.6]).astype(complex)
    assert trace_distance(rho, sigma) == pytest.approx(0.3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_trace_distance_metric_properties(seed, d):
    rng = np.random.default_rng(seed)
    states = [outer(s, s) for s in (random_state(rng, d) for _ in range(3))]
    a, b, c = states
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))
    assert trace_distance(a, b) <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
    assert 0.0 <= trace_distance(a, b) <= 1.0 + 1e-12


def test_density_matrix_predicates():
    assert is_density_matrix(np.diag([0.5, 0.5]))
    assert not is_density_matrix(np.diag([1.5, -0.5]))
    assert not is_density_matrix(np.diag([0.6, 0.6]))
    herm, tr, wmin = density_matrix_defects(np.diag([1.5, -0.5]))
    assert herm == 0.0
    assert tr == pytest.approx(0.0)
    assert wmin == pytest.approx(-0.5)


def test_linear_independence_gram_criterion():
    assert check_linear_independence([SIGMA_X, SIGMA_Z])
    assert not check_linear_independence([SIGMA_Z, 2 * SIGMA_Z])
    # the identity is always prepended: sigma_z is independent of it, the
    # identity itself is not
    assert check_linear_independence([SIGMA_Z])
    assert not check_linear_independence([np.eye(2)])
