"""Tests for the deterministic generator: RHS, superoperator, Choi, GKS."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qunravel import hilbert, lindblad
from qunravel.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger
from qunravel.lindblad import (GKSForm, LindbladModel, choi_matrix,
                               gell_mann_basis, gks_choi_matrix, gks_liouvillian,
                               gks_to_lindblad, lindblad_rhs,
                               liouvillian, propagate_exact, unvec, vec)
from qunravel.verify import random_hermitian, random_model

DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def gks_rhs(g, rho):
    """GKS form of the generator:
    sum_ij c_ij (F_i rho F_j^dag - (1/2){F_j^dag F_i, rho})."""
    rho = hilbert.as_operator(rho, dim=g.dim)
    out = -1j * (g.hamiltonian @ rho - rho @ g.hamiltonian)
    c = g.kossakowski
    F = g.basis_ops
    for i in range(len(F)):
        for j in range(len(F)):
            if c[i, j] == 0.0:
                continue
            FjdFi = dagger(F[j]) @ F[i]
            out = out + c[i, j] * (F[i] @ rho @ dagger(F[j])
                                   - 0.5 * (FjdFi @ rho + rho @ FjdFi))
    return out


def random_rho(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ dagger(M)
    return rho / np.trace(rho)


def test_model_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        LindbladModel(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="independent"):
        LindbladModel(np.zeros((2, 2)), (SIGMA_Z, 2 * SIGMA_Z))
    with pytest.raises(ValueError, match="independent"):
        # proportional to the identity is excluded as well
        LindbladModel(np.zeros((2, 2)), (np.eye(2),))
    assert DEPHASING.dim == 2 and DEPHASING.n_ops == 1


def test_lindblad_rhs_dephasing_oracle():
    # [DERIVED] sz rho sz - rho at rho = |+><+| equals [[0, -1], [-1, 0]]
    rho = hilbert.outer(PLUS, PLUS)
    rhs = lindblad_rhs(DEPHASING, rho)
    assert np.allclose(rhs, np.array([[0.0, -1.0], [-1.0, 0.0]]), atol=1e-14)


def test_lindblad_rhs_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        H = 0.5 * (H + dagger(H))
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        model = LindbladModel(H, (L,))
        rhs = lindblad_rhs(model, random_rho(rng, d))
        assert abs(np.trace(rhs)) < 1e-12
        assert hilbert.hermiticity_defect(rhs) < 1e-12


def test_liouvillian_matches_rhs_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        model = LindbladModel(0.5 * (H + dagger(H)),
                              (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),))
        Lmat = liouvillian(model)
        rho = random_rho(rng, d)
        assert np.allclose(unvec(Lmat @ vec(rho), d),
                           lindblad_rhs(model, rho), atol=1e-12)


def test_liouvillian_dephasing_spectrum():
    # [DERIVED] column-major basis {|0><0|, |1><0|, |0><1|, |1><1|}:
    # populations frozen, coherences decay at rate 2
    Lmat = liouvillian(DEPHASING)
    assert np.allclose(Lmat, np.diag([0.0, -2.0, -2.0, 0.0]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_vec_kron_identity(seed, d):
    # vec(A rho B) = (B^T kron A) vec(rho) in column-major convention
    rng = np.random.default_rng(seed)
    A, B, rho = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                 for _ in range(3))
    assert np.allclose(np.kron(B.T, A) @ vec(rho), vec(A @ rho @ B))
    assert np.allclose(unvec(vec(rho), d), rho)


def test_propagate_exact_dephasing_coherence_decay():
    # [DERIVED] rho01(t) = (1/2) e^{-2t}
    rho0 = hilbert.outer(PLUS, PLUS)
    for t in (0.25, 0.5, 1.0, 2.0):
        rho = propagate_exact(DEPHASING, rho0, t)
        assert abs(rho[0, 1] - 0.5 * np.exp(-2.0 * t)) < 1e-10
        assert abs(rho[0, 0] - 0.5) < 1e-12
    assert np.allclose(propagate_exact(DEPHASING, rho0, 0.0), rho0)
    with pytest.raises(ValueError):
        propagate_exact(DEPHASING, rho0, -1.0)


def test_propagate_exact_negative_rate_leaves_cp_cone():
    rho0 = hilbert.outer(PLUS, PLUS)
    rho = propagate_exact(DEPHASING, rho0, 1.0, rates=[-1.0])
    # coherence growth e^{2t} pushes an eigenvalue negative
    assert np.linalg.eigvalsh(rho)[0] < -1.0


def dense_propagation(model, rho0, t, rates=None):
    """Reference oracle: the full d^2 x d^2 propagator applied to vec(rho0)."""
    P = expm(t * liouvillian(model, rates=rates))
    return unvec(P @ vec(rho0), model.dim)


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("rates", [None, [1.0, -0.4]])
def test_propagate_exact_sequence_matches_dense_expm(d, rates):
    rng = np.random.default_rng(100 + d)
    model = random_model(rng, d, n_ops=2)
    rho0 = random_rho(rng, d)
    times = [0.7, 0.0, 0.3, 0.7, 1.2, 0.3]     # unsorted, repeated, t = 0
    got = propagate_exact(model, rho0, times, rates=rates)
    assert got.shape == (len(times), d, d)
    for t, rho in zip(times, got):
        assert np.max(np.abs(rho - dense_propagation(model, rho0, t, rates))) \
            < 1e-13
    assert np.array_equal(got[1], rho0)
    assert np.array_equal(got[0], got[3]) and np.array_equal(got[2], got[5])


def test_propagate_exact_scalar_and_sequence_shapes():
    rng = np.random.default_rng(3)
    model = random_model(rng, 3, n_ops=1)
    rho0 = random_rho(rng, 3)
    for t in (0.4, np.float64(0.4), np.array(0.4), 0):
        assert propagate_exact(model, rho0, t).shape == (3, 3)
    assert propagate_exact(model, rho0, [0.4]).shape == (1, 3, 3)
    assert propagate_exact(model, rho0, np.array([0.4, 0.2])).shape == (2, 3, 3)
    assert propagate_exact(model, rho0, []).shape == (0, 3, 3)
    assert np.max(np.abs(propagate_exact(model, rho0, 0.4)
                         - dense_propagation(model, rho0, 0.4))) < 1e-13


@pytest.mark.parametrize("times", [-1.0, [-0.1, 0.2, 0.3], [0.1, 0.2, -0.3],
                                   [0.1, -1e-12, 0.3], [0.1, np.nan],
                                   [np.inf], np.inf])
def test_propagate_exact_rejects_negative_or_non_finite_times(times):
    rho0 = hilbert.outer(PLUS, PLUS)
    with pytest.raises(ValueError, match="nonnegative"):
        propagate_exact(DEPHASING, rho0, times)


def test_propagate_exact_rejects_2d_times():
    with pytest.raises(ValueError, match="1-D"):
        propagate_exact(DEPHASING, hilbert.outer(PLUS, PLUS), [[0.1, 0.2]])


def test_import_does_not_load_sparse_linalg():
    # the oracle imports scipy.sparse.linalg on first use, not at import
    src = os.path.dirname(os.path.dirname(lindblad.__file__))
    code = ("import sys, qunravel; "
            "sys.exit('scipy.sparse.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_choi_matrix_identity_channel():
    # trivial model: Choi of exp(tL) with L = 0 is d |Omega><Omega|
    model = LindbladModel(np.zeros((2, 2)))
    choi = choi_matrix(model, 1.0)
    omega = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(choi, 2.0 * np.outer(omega, omega), atol=1e-12)
    assert np.trace(choi) == pytest.approx(2.0)
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            choi_matrix(model, t)


def test_choi_matrix_dephasing_is_psd_with_trace_d():
    choi = choi_matrix(DEPHASING, 0.7)
    assert hilbert.hermiticity_defect(choi) < 1e-12
    assert np.trace(choi).real == pytest.approx(2.0)
    assert np.linalg.eigvalsh(choi)[0] >= -1e-12


def choi_by_matrix_units(P, d):
    """Choi matrix whose block (i, j) is the propagated matrix unit |i><j|."""
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = unvec(P @ vec(unit), d)
    return choi


@pytest.mark.parametrize("d", [2, 5])
def test_choi_reshuffle_equals_matrix_unit_loop(d):
    rng = np.random.default_rng(d)
    model = random_model(rng, d, n_ops=2)
    P = expm(0.3 * liouvillian(model))
    assert np.array_equal(choi_matrix(model, 0.3), choi_by_matrix_units(P, d))
    H = random_hermitian(rng, d)
    g = GKSForm(H - np.trace(H) / d * np.eye(d),
                random_hermitian(rng, d * d - 1))
    P = expm(0.3 * gks_liouvillian(g))
    assert np.array_equal(gks_choi_matrix(g, 0.3), choi_by_matrix_units(P, d))


def test_gell_mann_basis_orthonormal_traceless():
    for d in (2, 3, 4):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for a, F in enumerate(basis):
            assert abs(np.trace(F)) < 1e-14
            assert hilbert.is_hermitian(F)
            for b, G in enumerate(basis):
                g = np.trace(dagger(F) @ G)
                assert abs(g - (1.0 if a == b else 0.0)) < 1e-12


def test_gks_form_validation():
    with pytest.raises(ValueError, match="traceless"):
        GKSForm(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="shape"):
        GKSForm(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        GKSForm(np.zeros((2, 2)), np.eye(3) + 1j * np.diag([1, 0, 0]))
    with pytest.raises(ValueError, match="orthonormal"):
        GKSForm(np.zeros((2, 2)), np.eye(2),
                basis_ops=(SIGMA_X, SIGMA_X))


def test_gks_liouvillian_matches_gks_rhs():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = GKSForm(0.3 * SIGMA_Z, 0.5 * (c + dagger(c)))
    Lmat = gks_liouvillian(g)
    rho = random_rho(rng, 2)
    assert np.allclose(unvec(Lmat @ vec(rho), 2), gks_rhs(g, rho), atol=1e-12)


def test_gks_to_lindblad_round_trip_identity_kossakowski():
    g = GKSForm(np.zeros((2, 2)), np.eye(3))
    rates, ops = gks_to_lindblad(g)
    assert rates == pytest.approx([1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    rho = random_rho(rng, 2)
    recon = sum(c * lindblad._dissipator(L, rho) for c, L in zip(rates, ops))
    assert np.allclose(recon, gks_rhs(g, rho), atol=1e-12)


def test_gks_to_lindblad_reports_negative_rates():
    g = GKSForm(np.zeros((2, 2)), np.diag([1.0, -0.5]).astype(complex),
                basis_ops=(SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2)))
    rates, ops = gks_to_lindblad(g)
    assert rates == pytest.approx([1.0, -0.5])
    assert len(ops) == 2


def test_gks_to_lindblad_is_deterministic():
    rng = np.random.default_rng(9)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = GKSForm(np.zeros((2, 2)), 0.5 * (c + dagger(c)))
    r1, o1 = gks_to_lindblad(g)
    r2, o2 = gks_to_lindblad(g)
    assert r1 == r2
    for a, b in zip(o1, o2):
        assert np.array_equal(a, b)


def test_gks_choi_matrix_flags_non_cp():
    g = GKSForm(np.zeros((2, 2)), np.diag([1.0, -0.5]).astype(complex),
                basis_ops=(SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2)))
    assert np.linalg.eigvalsh(gks_choi_matrix(g, 0.05))[0] < -1e-6
    g_cp = GKSForm(np.zeros((2, 2)), np.eye(3))
    assert np.linalg.eigvalsh(gks_choi_matrix(g_cp, 0.5))[0] >= -1e-12
    with pytest.raises(ValueError, match="positive"):
        gks_choi_matrix(g_cp, 0.0)
