"""Single source of truth for the numerical tolerances used across the package."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-12          # max entrywise |M - M^dag|
    unit_norm: float = 1e-9           # |norm^2 - 1| for a normalized state
    psd_floor: float = -1e-10         # minimum eigenvalue allowed for rho / Choi
    unitary: float = 1e-12            # max entrywise |u^dag u - 1|
    independence: float = 1e-10       # relative Gram-eigenvalue cutoff
    generator_match: float = 1e-10    # unraveling generator vs Lindblad RHS
    blowup_norm: float = 1e-6         # ||psi'|| below this aborts a trajectory


TOL = Tolerances()
