"""Tests for the drift/diffusion construction across the unitary freedom."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunravel import hilbert, kernels, lindblad
from qunravel.hilbert import SIGMA_X, SIGMA_Z, dagger, normalize
from qunravel.lindblad import LindbladModel
from qunravel.scenario import complex_to_pairs
from qunravel.unraveling import (DIOSI_COMPLEX_U, UnitaryFreedom, Unraveling,
                                 generator_term, parse_freedom,
                                 standard_freedom)

from randomized import (random_hermitian, random_model, random_unitary,
                        scaled_model)

DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


def ell(psi, Lk):
    """(1/2)<psi, (L^dag + L) psi> = Re <psi, L psi>; real in the zero gauge."""
    return float(np.real(np.vdot(psi, Lk @ psi)))


def random_state(rng, d):
    return normalize(rng.normal(size=d) + 1j * rng.normal(size=d))


def test_complex_noise_matrix_is_unitary():
    u = DIOSI_COMPLEX_U
    assert np.allclose(dagger(u) @ u, np.eye(2), atol=1e-15)
    # first column packages one complex Wiener process as two real ones
    assert np.allclose(u[:, 0], np.array([1.0, 1j]) / np.sqrt(2.0))


def test_unitary_freedom_validation():
    with pytest.raises(ValueError, match="exactly one"):
        UnitaryFreedom()
    with pytest.raises(ValueError, match="exactly one"):
        UnitaryFreedom(matrix=np.eye(2), phase=0.0)
    with pytest.raises(ValueError, match="unitary"):
        UnitaryFreedom(matrix=2.0 * np.eye(2))
    f = UnitaryFreedom(phase=np.pi / 3)
    assert f.noise_count == 1
    assert np.allclose(f.as_matrix(), [[np.exp(1j * np.pi / 3)]])


def test_parse_freedom_presets():
    assert np.allclose(parse_freedom("standard", 2).as_matrix(), np.eye(2))
    assert np.allclose(parse_freedom("diosi-complex", 1).as_matrix(),
                       DIOSI_COMPLEX_U)
    assert parse_freedom("linear-potential", 1).phase == pytest.approx(np.pi / 2)
    assert parse_freedom("phase:0.7", 1).phase == pytest.approx(0.7)
    u = parse_freedom('unitary:[[[0,0],[1,0]],[[1,0],[0,0]]]', 2)
    assert np.allclose(u.as_matrix(), np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match="exactly one Lindblad"):
        parse_freedom("diosi-complex", 2)
    with pytest.raises(ValueError, match="unknown freedom"):
        parse_freedom("bogus", 1)


@pytest.mark.parametrize("spec", ["phase:nan", "phase:inf", "phase:-inf"])
def test_a_non_finite_phase_is_rejected(spec):
    # a NaN phase once ran every trajectory into a norm blow-up and passed
    # the generator identity with a deviation of 0.0
    with pytest.raises(ValueError, match="phase must be finite"):
        parse_freedom(spec, 1)


@pytest.mark.parametrize("spec", [
    "unitary:[[", "unitary:5", "unitary:[[1]]", 'unitary:[[["1", 0]]]',
    "unitary:[[[1, 0, 0]]]", "unitary:[[[1, 0]], []]", "unitary:[[[NaN, 0]]]"])
def test_a_malformed_unitary_spec_is_a_plain_value_error(spec):
    with pytest.raises(ValueError, match="unitary") as info:
        parse_freedom(spec, 1)
    assert type(info.value) is ValueError


def test_a_unitary_spec_keeps_every_bit():
    spec = 'unitary:[[[-0.0, 0.6], [0.8, -0.0]], [[0.8, 0.0], [-0.0, 0.6]]]'
    u = np.array([[complex(-0.0, 0.6), complex(0.8, -0.0)],
                  [complex(0.8, 0.0), complex(-0.0, 0.6)]])
    assert np.array_equal(parse_freedom(spec, 2).matrix.view(np.uint64),
                          u.view(np.uint64))


def test_unraveling_pads_with_zero_operators():
    u3 = UnitaryFreedom(matrix=np.eye(3, dtype=complex))
    u = Unraveling(DEPHASING, u3)
    assert u.noise_count == 3
    # identity freedom: the rotated operators are L, 0, 0
    assert np.allclose(u.rotated[0], SIGMA_Z)
    assert np.allclose(u.rotated[1:], 0.0)
    # padding must not change the invariant sum L^dag L: with H = 0,
    # K = -(1/2) sz^dag sz = -I/2
    assert np.allclose(u.K, -0.5 * np.eye(2))
    with pytest.raises(ValueError, match="noise count"):
        Unraveling(LindbladModel(np.zeros((2, 2)), (SIGMA_Z, SIGMA_X)),
                   UnitaryFreedom(matrix=np.eye(1, dtype=complex)))


def test_dephasing_drift_and_diffusion_oracle():
    # [DERIVED] at psi = |+>: ell = <sz> = 0, so A psi = -psi/2 and B = sz psi
    u = Unraveling(DEPHASING, "standard")
    assert ell(PLUS, u.rotated[0]) == pytest.approx(0.0)
    A, B = kernels.drift_diffusion(PLUS[:, None], u.K, u.rotated)
    assert np.allclose(A[:, 0], -0.5 * PLUS)
    assert B.shape == (1, 2, 1)
    assert np.allclose(B[0, :, 0], np.array([1.0, -1.0]) / np.sqrt(2.0))


def test_ell_is_real_and_gauge_zero():
    rng = np.random.default_rng(1)
    u = Unraveling(DEPHASING, "diosi-complex")
    for _ in range(20):
        psi = random_state(rng, 2)
        _, Bs = kernels.drift_diffusion(psi[:, None], u.K, u.rotated)
        for B in Bs[:, :, 0]:
            # zero-gauge condition: Re<psi, B_k> = 0
            assert abs(np.real(np.vdot(psi, B))) < 1e-12


def test_linear_potential_has_no_deterministic_collapse():
    # at f = pi/2 the rotated operator is i sz, ell vanishes identically for
    # Hermitian L, and the noise acts as a random potential
    u = Unraveling(DEPHASING, "linear-potential")
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = random_state(rng, 2)
        assert abs(ell(psi, u.rotated[0])) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(["standard", "diosi-complex", "linear-potential",
                        "phase:0.9"]))
def test_generator_identity_presets(seed, spec):
    # |A><psi| + |psi><A| + sum |B_k><B_k| must equal the Lindblad RHS for
    # every member of the family
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    L = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    model = LindbladModel(0.5 * (H + dagger(H)), (L,))
    u = Unraveling(model, spec)
    psi = random_state(rng, 2)
    rhs = lindblad.lindblad_rhs(model, hilbert.outer(psi, psi))
    assert np.max(np.abs(generator_term(u, psi) - rhs)) < 1e-12


def test_generator_identity_with_padded_noise():
    rng = np.random.default_rng(4)
    L = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    model = LindbladModel(np.zeros((3, 3)), (L,))
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(M)
    u = Unraveling(model, UnitaryFreedom(matrix=Q))
    psi = random_state(rng, 3)
    rhs = lindblad.lindblad_rhs(model, hilbert.outer(psi, psi))
    assert np.max(np.abs(generator_term(u, psi) - rhs)) < 1e-12


@pytest.mark.parametrize("n_ops, N", [(2, 2), (2, 4)])
def test_a_unitary_spec_mixes_the_padded_operators_by_its_rows(n_ops, N):
    # rotated[k] = sum_j u[k, j] L_j, the definition; u is complex and the
    # n x n block of u^T u is not real, so neither the transpose nor the
    # conjugate of u names the same member
    rng = np.random.default_rng(12)
    model = random_model(rng, 3, n_ops)
    assert np.abs(model.hamiltonian.imag).max() > 0.1
    u = random_unitary(rng, N)
    assert np.abs((u.T @ u)[:n_ops, :n_ops].imag).max() > 0.1
    spec = "unitary:" + json.dumps(complex_to_pairs(u))
    padded = np.zeros((N, 3, 3), dtype=complex)
    padded[:n_ops] = model.lindblad_ops
    np.testing.assert_allclose(Unraveling(model, spec).rotated,
                               np.einsum("kj,jab->kab", u, padded),
                               rtol=1e-14, atol=1e-15)


def test_standard_freedom_default():
    u = Unraveling(DEPHASING)
    assert np.allclose(u.freedom.as_matrix(), np.eye(1))
    assert standard_freedom(0).noise_count == 1


# No-signalling at the generator.  G(psi) = |A><psi| + |psi><A|
# + sum_k |B_k><B_k| must be a linear map of P = |psi><psi|, or two ensembles
# with the same rho drift apart and the choice of ensemble signals (Gisin,
# Phys. Lett. A 143, 1 (1990)).  The map is fitted from G alone, with no
# model and no oracle, and only then compared with the Liouvillian.
LINEARITY_TOL = 1e-12


def fitted_generator(generator, d, rng):
    """The d^2 x d^2 least-squares X with vec(P) X = vec(generator(psi)) on
    2 d^2 random pure states (vec column-major, one state per row), and its
    largest entrywise miss on d^2 fresh ones."""
    def sample(m):
        states = [random_state(rng, d) for _ in range(m)]
        P = np.array([np.outer(s, s.conj()).ravel(order="F") for s in states])
        G = np.array([generator(s).ravel(order="F") for s in states])
        return P, G

    P, G = sample(2 * d * d)
    X = np.linalg.lstsq(P, G, rcond=None)[0]
    P, G = sample(d * d)
    return X, float(np.max(np.abs(P @ X - G)))


def random_member(rng, d, n, N):
    """A unit-norm random model with n operators and a random N x N
    unitary mixing, given as a unitary: spec."""
    model = scaled_model(rng, d, n_ops=n)
    spec = "unitary:" + json.dumps(complex_to_pairs(random_unitary(rng, N)))
    return model, spec


MEMBERS = ["standard", "diosi-complex", "linear-potential", "phase:0.9",
           "random-N=n", "random-N>n"]


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
@pytest.mark.parametrize("member", MEMBERS)
def test_the_generator_is_linear_in_the_projector(d, member):
    rng = np.random.default_rng([d, MEMBERS.index(member)])
    if member == "random-N=n":
        model, spec = random_member(rng, d, 2, 2)
    elif member == "random-N>n":
        model, spec = random_member(rng, d, 2, 4)
    else:
        model = scaled_model(rng, d, n_ops=2 if member == "standard" else 1)
        spec = member
    u = Unraveling(model, spec)
    X, residual = fitted_generator(lambda psi: generator_term(u, psi), d, rng)
    assert residual <= LINEARITY_TOL
    # the map read off the unraveling is the model's Liouvillian
    assert np.max(np.abs(X.T - lindblad.liouvillian(model))) <= LINEARITY_TOL


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("broken", ["drop_ell2", "zero_ell_in_B", "weinberg"])
def test_a_nonlinear_generator_fails_the_linearity_fit(d, broken):
    rng = np.random.default_rng([d, len(MEMBERS)])
    model, spec = random_member(rng, d, 2, 3)
    if broken == "weinberg":
        # a member plus the norm-preserving Weinberg drift
        # -i eps <psi, F psi> F psi, F Hermitian of unit norm, eps = 1e-4
        u = Unraveling(model, spec)
        F = random_hermitian(rng, d)
        F /= np.linalg.norm(F, 2)

        def generator(psi):
            dA = -1e-4j * np.vdot(psi, F @ psi).real * (F @ psi)
            return (generator_term(u, psi) + np.outer(dA, psi.conj())
                    + np.outer(psi, dA.conj()))
    else:
        u = Unraveling(model, spec, fault=broken)

        def generator(psi):
            return generator_term(u, psi)
    _, residual = fitted_generator(generator, d, rng)
    assert residual > LINEARITY_TOL
