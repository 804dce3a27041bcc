"""Tests for the deterministic generator: RHS, superoperator, Choi, GKS."""

import json
import os
import subprocess
import sys
import tracemalloc

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
                               liouvillian, propagate_exact)

from randomized import (random_hermitian, random_model, random_unitary,
                        scaled_model)

DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def vec(rho):
    """Column-major vectorization, the convention of liouvillian()."""
    return np.asarray(rho, dtype=complex).ravel(order="F")


def unvec(v, d):
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


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


def dense_propagation(model, rho0, t):
    """Reference oracle: the full d^2 x d^2 propagator applied to vec(rho0)."""
    P = expm(t * liouvillian(model))
    return unvec(P @ vec(rho0), model.dim)


@pytest.mark.parametrize("d", [2, 5])
def test_propagate_exact_sequence_matches_dense_expm(d):
    rng = np.random.default_rng(100 + d)
    model = random_model(rng, d, n_ops=2)
    rho0 = random_rho(rng, d)
    times = [0.7, 0.0, 0.3, 0.7, 1.2, 0.3]     # unsorted, repeated, t = 0
    got = propagate_exact(model, rho0, times)
    assert got.shape == (len(times), d, d)
    for t, rho in zip(times, got):
        assert np.max(np.abs(rho - dense_propagation(model, rho0, t))) < 1e-13
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


NO_SCIPY = """
import json, sys

sys.modules["scipy"] = None        # any scipy import now fails
from qunravel import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = [name for name, module in sys.modules.items()
          if module is not None and name.split(".")[0] == "scipy"]
print(json.dumps([codes, loaded]))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # the package is numpy-only: every command, the oracle's propagation
    # and Choi matrices included, runs in a process that cannot load scipy
    from qunravel.scenario import complex_to_pairs

    src = os.path.dirname(os.path.dirname(lindblad.__file__))
    data = os.path.join(src, "qunravel", "data")
    with open(os.path.join(data, "dephasing.json")) as fh:
        scenario = json.load(fh)
    scenario["trajectories"] = 40
    scenario["integration"]["t_final"] = 0.05
    small = tmp_path / "dephasing.json"
    small.write_text(json.dumps(scenario))
    zero = complex_to_pairs(np.zeros((2, 2)))
    gks = tmp_path / "gks.json"
    gks.write_text(json.dumps({
        "dim": 2, "hamiltonian": zero, "lindblad_ops": [],
        "gks": {"hamiltonian": zero,
                "kossakowski": complex_to_pairs(np.diag([1.0, 0.5, 0.25]))}}))
    commands = [
        ["simulate", "--scenario", str(small), "--out", str(tmp_path / "s")],
        ["variance-scan", "--scenario", str(small),
         "--out", str(tmp_path / "v")],
        ["diagonalize", "--scenario", str(gks), "--out", str(tmp_path / "g")],
        ["choi", "--scenario", str(gks), "--out", str(tmp_path / "c")],
        ["choi", "--scenario", str(small), "--out", str(tmp_path / "d")],
        ["verify", "--scenario", os.path.join(data, "default_suite.json"),
         "--out", str(tmp_path / "r")],
    ]
    run = subprocess.run([sys.executable, "-c", NO_SCIPY,
                          json.dumps(commands)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(commands) and loaded == []
    assert json.loads((tmp_path / "c" / "choi.json").read_text())[
        "completely_positive"] is True


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
    # The Choi matrix is gathered from the real propagator on the Hermitian
    # basis, so it matches the dense complex expm to rounding, not bit for
    # bit; a layout error would be O(1).  It is exactly Hermitian.
    rng = np.random.default_rng(d)
    model = random_model(rng, d, n_ops=2)
    P = expm(0.3 * liouvillian(model))
    choi = choi_matrix(model, 0.3)
    assert np.max(np.abs(choi - choi_by_matrix_units(P, d))) < 1e-13
    assert np.array_equal(choi, choi.conj().T)
    H = random_hermitian(rng, d)
    g = GKSForm(H - np.trace(H) / d * np.eye(d),
                random_hermitian(rng, d * d - 1))
    P = expm(0.3 * gks_liouvillian(g))
    choi = gks_choi_matrix(g, 0.3)
    assert np.max(np.abs(choi - choi_by_matrix_units(P, d))) < 1e-13
    assert np.array_equal(choi, choi.conj().T)


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


# ---------------------------------------------------------------------------
# The kron-free generator and the real Hermitian-basis representation.

def kron_liouvillian(H, ops, rates):
    """Reference: the column-major Liouvillian summed from kron products."""
    d = H.shape[0]
    I = np.eye(d, dtype=complex)
    mat = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for c, L in zip(rates, ops, strict=True):
        Ldag_L = dagger(L) @ L
        mat = mat + c * (np.kron(np.conj(L), L)
                         - 0.5 * np.kron(I, Ldag_L)
                         - 0.5 * np.kron(Ldag_L.T, I))
    return mat


def kron_gks_liouvillian(g):
    """Reference: the GKS superoperator as a double loop of kron products."""
    d = g.dim
    I = np.eye(d, dtype=complex)
    H = g.hamiltonian
    mat = -1j * (np.kron(I, H) - np.kron(H.T, I))
    c = g.kossakowski
    F = g.basis_ops
    for i in range(len(F)):
        for j in range(len(F)):
            if c[i, j] == 0.0:
                continue
            FjdFi = dagger(F[j]) @ F[i]
            mat = mat + c[i, j] * (np.kron(np.conj(F[j]), F[i])
                                   - 0.5 * np.kron(I, FjdFi)
                                   - 0.5 * np.kron(FjdFi.T, I))
    return mat


def hermitian_basis(d):
    """T: columns vec((E_ij + E_ji)/sqrt2), vec(i(E_ji - E_ij)/sqrt2) for
    i < j, then vec(E_ii), written out from the definition."""
    mats = []
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for i, j in pairs:
        B = np.zeros((d, d), dtype=complex)
        B[i, j] = B[j, i] = 1 / np.sqrt(2)
        mats.append(B)
    for i, j in pairs:
        B = np.zeros((d, d), dtype=complex)
        B[j, i], B[i, j] = 1j / np.sqrt(2), -1j / np.sqrt(2)
        mats.append(B)
    for i in range(d):
        B = np.zeros((d, d), dtype=complex)
        B[i, i] = 1.0
        mats.append(B)
    return mats, np.stack([vec(B) for B in mats], axis=1)


def gks_cases(rng, d):
    """GKS forms at dimension d: dense PSD, dense indefinite (non-CP),
    sparse, and a dense one on a rotated, non-Hermitian basis."""
    n = d * d - 1
    H = random_hermitian(rng, d)
    H = H - np.trace(H) / d * np.eye(d)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sparse = np.zeros((n, n), dtype=complex)
    sparse[0, 0], sparse[-1, -1] = 0.7, -0.2
    if n > 1:
        sparse[0, n - 1], sparse[n - 1, 0] = 0.3j, -0.3j
    U = random_unitary(rng, n)
    rotated = tuple(np.einsum("lk,lab->kab", U, np.array(gell_mann_basis(d))))
    return [GKSForm(H, M @ dagger(M) / n),
            GKSForm(H, random_hermitian(rng, n)),
            GKSForm(H, sparse),
            GKSForm(H, random_hermitian(rng, n), basis_ops=rotated)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_generator_matches_kron_reference(d):
    rng = np.random.default_rng(50 + d)
    for n_ops in (0, 1, 3):
        if d == 1 and n_ops:
            continue                    # no traceless operator on C^1
        model = random_model(rng, d, n_ops=n_ops)
        H = model.hamiltonian
        ops = np.asarray(model.lindblad_ops, dtype=complex).reshape(-1, d, d)
        expected = kron_liouvillian(H, ops, np.ones(n_ops))
        assert np.max(np.abs(liouvillian(model) - expected)) < 1e-13
        # rates of either sign, as the GKS round trip rebuilds generators
        rates = rng.normal(size=n_ops)
        rebuilt = lindblad._generator(H, ops, rates[:, None, None] * ops)
        assert np.max(np.abs(rebuilt.reshape(d * d, d * d)
                             - kron_liouvillian(H, ops, rates))) < 1e-13
    if d > 1:
        for g in gks_cases(rng, d):
            assert np.max(np.abs(gks_liouvillian(g)
                                 - kron_gks_liouvillian(g))) < 1e-13


def test_hermitian_basis_is_orthonormal_and_hermitian():
    for d in (1, 2, 3, 5):
        mats, T = hermitian_basis(d)
        assert all(hilbert.is_hermitian(B) for B in mats)
        assert np.max(np.abs(dagger(T) @ T - np.eye(d * d))) < 1e-15
        # the index sets the gathers use are those of the definition
        p, q, e = lindblad._pairs(d)
        k = np.arange(p.size)
        r = 1 / np.sqrt(2)
        assert np.count_nonzero(T) == 4 * k.size + d
        assert np.allclose(T[p, k], r) and np.allclose(T[q, k], r)
        assert np.allclose(T[p, k.size + k], -1j * r)
        assert np.allclose(T[q, k.size + k], 1j * r)
        assert np.array_equal(T[e, 2 * k.size + np.arange(d)], np.ones(d))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_real_generator_is_the_hermitian_basis_projection(d):
    rng = np.random.default_rng(d)
    _, T = hermitian_basis(d)
    superops = [liouvillian(random_model(rng, d, n_ops=2))]
    superops += [gks_liouvillian(g) for g in gks_cases(rng, d)]
    for L in superops:
        full = dagger(T) @ L @ T
        # the dropped imaginary part is rounding error ...
        assert np.max(np.abs(full.imag)) < 1e-13 * max(1.0, np.abs(L).max())
        # ... and the gathers compute the real part
        S = lindblad._real_superop(L, d)
        assert S.dtype == float
        assert np.max(np.abs(S - full.real)) < 1e-13


@pytest.mark.parametrize("d", [1, 2, 4])
def test_propagate_exact_non_hermitian_rho0_matches_dense_expm(d):
    rng = np.random.default_rng(200 + d)
    model = random_model(rng, d, n_ops=min(2, d * d - 1))
    rho0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    times = [0.5, 0.0, 1.1]
    got = propagate_exact(model, rho0, times)
    for t, rho in zip(times, got):
        assert np.max(np.abs(rho - dense_propagation(model, rho0, t))) < 1e-13
    assert np.array_equal(got[1], rho0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gks_choi_matrix_matches_dense_expm(d):
    rng = np.random.default_rng(300 + d)
    for g in gks_cases(rng, d):
        P = expm(0.4 * kron_gks_liouvillian(g))
        choi = gks_choi_matrix(g, 0.4)
        assert np.max(np.abs(choi - choi_by_matrix_units(P, d))) < 1e-13
        assert np.array_equal(choi, choi.conj().T)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_stays_within_a_few_superoperators():
    # a complex d^2 x d^2 superoperator is 16 d^4 bytes; the Choi matrix
    # (six real d^2 x d^2 buffers in the Pade exponential, whose c X terms
    # go through a 64-row scratch) stays below 3.25 of them, and the
    # matrix-free propagation, O(N d^2), below a quarter
    d = 16
    superop = 16 * d ** 4
    rng = np.random.default_rng(16)
    model = random_model(rng, d, n_ops=2)
    rho0 = random_rho(rng, d)
    assert traced_peak(lambda: choi_matrix(model, 0.2)) < 3.25 * superop
    assert traced_peak(lambda: propagate_exact(
        model, rho0, [0.1, 0.2, 0.3, 0.4])) < 0.25 * superop


def test_choi_gather_holds_no_block_of_the_propagator_size():
    # gathered a row block at a time, the Choi layout of a precomputed real
    # propagator costs little more than the Choi matrix itself
    d = 32
    superop = 16 * d ** 4
    model = random_model(np.random.default_rng(32), d, n_ops=2)
    R = lindblad._expm(lindblad._real_superop(liouvillian(model), d), 0.2)
    out = []
    assert traced_peak(lambda: out.append(lindblad._choi_of(R, d))) < (
        1.25 * superop)
    assert np.array_equal(out[0].view(np.uint64),
                          choi_matrix(model, 0.2).view(np.uint64))


# ---------------------------------------------------------------------------
# the numpy oracle against scipy, which only the tests import

def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
def test_propagate_exact_matches_scipy(d):
    from scipy.sparse.linalg import expm_multiply

    rng = np.random.default_rng(500 + d)
    rho0 = random_rho(rng, d)
    rho0 = 0.5 * (rho0 + dagger(rho0))           # exactly Hermitian
    skew = rho0 + 0.3j * random_hermitian(rng, d)
    # the second model is drawn and not used, so that the later cases'
    # models stay those of the same seed
    model, _, skew_model = (scaled_model(rng, d) for _ in range(3))
    cases = [(model, rho0, [0.7, 0.0, 0.3, 1.2]),
             (skew_model, skew, [0.4, 1.1]),
             (scaled_model(rng, d, scale=10.0), rho0, [1.0])]  # stiff
    for model, rho, times in cases:
        L = liouvillian(model)
        got = propagate_exact(model, rho, times)
        for t, state in zip(times, got):
            want = unvec(expm_multiply(t * L, vec(rho)), d)
            assert relative_error(state, want) < 1e-13, t
        if rho is rho0:
            assert np.array_equal(got, got.conj().swapaxes(1, 2))


def reshuffled_choi(P, d):
    """choi[i d + a, j d + b] = P[a + b d, i + j d], by one transpose."""
    return P.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
def test_choi_matrices_match_scipy(d):
    rng = np.random.default_rng(600 + d)
    model = scaled_model(rng, d)
    for t in (0.2, 1.0, 5.0):             # 0 to 5 squarings
        P = expm(t * liouvillian(model))
        if d <= 3:
            assert np.array_equal(reshuffled_choi(P, d),
                                  choi_by_matrix_units(P, d))
        assert relative_error(choi_matrix(model, t),
                              reshuffled_choi(P, d)) < 1e-13
    if d <= 8:
        for g in gks_cases(rng, d):
            P = expm(0.4 * gks_liouvillian(g))
            assert relative_error(gks_choi_matrix(g, 0.4),
                                  reshuffled_choi(P, d)) < 1e-13
