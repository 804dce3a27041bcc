"""Diffusive unravelings of Lindblad master equations.

Library and CLI for the full family of collapse-model stochastic
Schroedinger equations related by the unitary noise-mixing freedom, with
exact Lindblad propagation as the oracle and verification checks for
the generator identity, ensemble equivalence and complete positivity.
"""

from .hilbert import (SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, outer, trace_distance,
                      variance)
from .lindblad import (GKSForm, LindbladModel, choi_matrix, gks_to_lindblad,
                       lindblad_rhs, liouvillian, propagate_exact)
from .sde import EnsembleEstimate, IntegrationConfig, simulate_ensemble
from .unraveling import UnitaryFreedom, Unraveling, parse_freedom

__version__ = "0.1.0"

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "dagger", "outer", "trace_distance",
    "variance",
    "GKSForm", "LindbladModel", "choi_matrix", "gks_to_lindblad",
    "lindblad_rhs", "liouvillian", "propagate_exact",
    "EnsembleEstimate", "IntegrationConfig", "simulate_ensemble",
    "UnitaryFreedom", "Unraveling", "parse_freedom",
]
