"""Diffusive unravelings of Lindblad master equations.

Library and CLI for the full family of collapse-model stochastic
Schroedinger equations related by the unitary noise-mixing freedom, with
exact Lindblad propagation as the oracle and verification checks for
ensemble equivalence, Born statistics, and complete positivity.
"""

from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, outer, trace_distance
from .lindblad import (GKSForm, LindbladModel, choi_matrix, gks_to_lindblad,
                       lindblad_rhs, liouvillian, propagate_exact)
from .observables import born_statistics, diffusion_matrix, variance
from .sde import EnsembleEstimate, IntegrationConfig, simulate_ensemble
from .unraveling import (UnitaryFreedom, Unraveling, diffusion_vectors,
                         parse_freedom)

__version__ = "0.1.0"

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "dagger", "outer", "trace_distance",
    "GKSForm", "LindbladModel", "choi_matrix", "gks_to_lindblad",
    "lindblad_rhs", "liouvillian", "propagate_exact", "born_statistics",
    "diffusion_matrix", "variance",
    "EnsembleEstimate", "IntegrationConfig", "simulate_ensemble",
    "UnitaryFreedom", "Unraveling", "diffusion_vectors", "parse_freedom",
]
