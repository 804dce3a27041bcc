"""Tests for the drift/diffusion construction across the unitary freedom."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qunravel import hilbert, lindblad
from qunravel.hilbert import SIGMA_X, SIGMA_Z, dagger, normalize
from qunravel.lindblad import LindbladModel
from qunravel.unraveling import (DIOSI_COMPLEX_U, UnitaryFreedom, Unraveling,
                                 diffusion_vectors, drift_vector,
                                 generator_term, parse_freedom, standard_freedom)

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


def test_unraveling_pads_with_zero_operators():
    u3 = UnitaryFreedom(matrix=np.eye(3, dtype=complex))
    u = Unraveling(DEPHASING, u3)
    assert u.noise_count == 3
    # identity freedom: the rotated operators are L, 0, 0
    assert np.allclose(u.rotated[0], SIGMA_Z)
    assert np.allclose(u.rotated[1:], 0.0)
    # padding must not change the invariant sum L^dag L
    assert np.allclose(u.ldag_l_sum, np.eye(2))
    with pytest.raises(ValueError, match="noise count"):
        Unraveling(LindbladModel(np.zeros((2, 2)), (SIGMA_Z, SIGMA_X)),
                   UnitaryFreedom(matrix=np.eye(1, dtype=complex)))


def test_dephasing_drift_and_diffusion_oracle():
    # [DERIVED] at psi = |+>: ell = <sz> = 0, so A psi = -psi/2 and B = sz psi
    u = Unraveling(DEPHASING, "standard")
    assert ell(PLUS, u.rotated[0]) == pytest.approx(0.0)
    assert np.allclose(drift_vector(u, PLUS), -0.5 * PLUS)
    (B,) = diffusion_vectors(u, PLUS)
    assert np.allclose(B, np.array([1.0, -1.0]) / np.sqrt(2.0))


def test_ell_is_real_and_gauge_zero():
    rng = np.random.default_rng(1)
    u = Unraveling(DEPHASING, "diosi-complex")
    for _ in range(20):
        psi = random_state(rng, 2)
        for B in diffusion_vectors(u, psi):
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


def test_standard_freedom_default():
    u = Unraveling(DEPHASING)
    assert np.allclose(u.freedom.as_matrix(), np.eye(1))
    assert standard_freedom(0).noise_count == 1
