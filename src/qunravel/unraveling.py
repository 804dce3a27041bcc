"""Drift and diffusion operators for the whole family of diffusive unravelings
of a Lindblad equation, parameterized by the unitary noise-mixing freedom.

For a model with n Lindblad operators and N >= n real Wiener processes
(L_{n+1} = ... = L_N = 0), a constant N x N unitary u defines rotated
operators L_k^u = sum_j u_kj L_j and, at a unit state psi,

    ell_k  = Re <psi, L_k^u psi>
    B_k    = L_k^u psi - ell_k psi
    A psi  = -i H psi - (1/2) sum_k (L_k^dag L_k psi - 2 ell_k L_k^u psi
                                     + ell_k^2 psi)

The global-phase gauge functionals are fixed to zero, which makes every
ell_k real.  The formula itself is evaluated in one place,
``kernels.drift_diffusion``; the functions here call it at a single state.  The scalar-phase family (n = 1, u = [e^{if}]) interpolates
between the standard collapse dynamics (f = 0) and a linear random-potential
evolution with no collapse (f = pi/2).
"""

import json
from dataclasses import dataclass

import numpy as np

from . import hilbert, kernels
from .lindblad import LindbladModel
from .tolerances import TOL

# Unitary completion of the complex-noise mixing: its first column
# (1, i)/sqrt(2) packages one complex Wiener process (W_1 + i W_2)/sqrt(2)
# as two real ones.
DIOSI_COMPLEX_U = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class UnitaryFreedom:
    """Constant N x N unitary u, or the scalar phase e^{if} when n = 1."""

    matrix: np.ndarray = None
    phase: float = None

    def __post_init__(self):
        if (self.matrix is None) == (self.phase is None):
            raise ValueError("specify exactly one of matrix or phase")
        if self.matrix is not None:
            u = np.asarray(self.matrix, dtype=complex)
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ValueError("u must be a square matrix")
            defect = np.max(np.abs(hilbert.dagger(u) @ u - np.eye(u.shape[0])))
            if defect > TOL.unitary:
                raise ValueError(f"u not unitary: max defect {defect:.3e}")
            object.__setattr__(self, "matrix", u)
        else:
            object.__setattr__(self, "phase", float(self.phase))

    @property
    def noise_count(self):
        return 1 if self.matrix is None else self.matrix.shape[0]

    def as_matrix(self):
        if self.matrix is not None:
            return self.matrix
        return np.array([[np.exp(1j * self.phase)]], dtype=complex)


def standard_freedom(n):
    """u = identity: the usual collapse unraveling."""
    return UnitaryFreedom(matrix=np.eye(max(n, 1), dtype=complex))


def parse_freedom(spec, n):
    """Resolve a freedom preset string against a model with n Lindblad ops.

    Accepted: "standard", "diosi-complex", "linear-potential", "phase:<f>",
    "unitary:<json rows of [re, im] pairs>".
    """
    if spec == "standard":
        return standard_freedom(n)
    if spec == "diosi-complex":
        if n != 1:
            raise ValueError("diosi-complex preset requires exactly one Lindblad op")
        return UnitaryFreedom(matrix=DIOSI_COMPLEX_U)
    if spec == "linear-potential":
        if n != 1:
            raise ValueError("linear-potential preset requires exactly one Lindblad op")
        return UnitaryFreedom(phase=np.pi / 2)
    if spec.startswith("phase:"):
        if n != 1:
            raise ValueError("scalar phase requires exactly one Lindblad op")
        return UnitaryFreedom(phase=float(spec.split(":", 1)[1]))
    if spec.startswith("unitary:"):
        rows = json.loads(spec.split(":", 1)[1])
        u = np.array([[complex(re, im) for re, im in row] for row in rows])
        return UnitaryFreedom(matrix=u)
    raise ValueError(f"unknown freedom spec {spec!r}")


class Unraveling:
    """A LindbladModel together with a noise-mixing freedom.

    Precomputes the stacked rotated operators (N, d, d), the
    (unitary-invariant) sum L_k^dag L_k and the constant drift matrix
    K = -iH - (1/2) sum L_k^dag L_k.  fault, when set to one of
    ``kernels.FAULTS``, deliberately breaks the drift or diffusion
    construction everywhere this unraveling is used; the verification
    harness must catch it.
    """

    def __init__(self, model, freedom=None, fault=None):
        if not isinstance(model, LindbladModel):
            raise TypeError("model must be a LindbladModel")
        if fault is not None and fault not in kernels.FAULTS:
            raise ValueError(f"unknown fault {fault!r}; expected one of "
                             f"{', '.join(kernels.FAULTS)}")
        if freedom is None:
            freedom = standard_freedom(model.n_ops)
        if isinstance(freedom, str):
            freedom = parse_freedom(freedom, model.n_ops)
        if freedom.noise_count < model.n_ops:
            raise ValueError(
                f"noise count {freedom.noise_count} < operator count {model.n_ops}")
        self.model = model
        self.freedom = freedom
        self.fault = fault
        d = model.dim
        N = freedom.noise_count
        padded = list(model.lindblad_ops)
        padded += [np.zeros((d, d), dtype=complex)] * (N - len(padded))
        u = freedom.as_matrix()
        self.rotated = np.array(
            [sum(u[k, j] * padded[j] for j in range(N)) for k in range(N)],
            dtype=complex)
        self.ldag_l_sum = sum(
            (hilbert.dagger(L) @ L for L in padded),
            start=np.zeros((d, d), dtype=complex))
        self.K = -1j * model.hamiltonian - 0.5 * self.ldag_l_sum

    @property
    def dim(self):
        return self.model.dim

    @property
    def noise_count(self):
        return self.freedom.noise_count


def _drift_diffusion(u, psi):
    psi = hilbert.as_state(psi, dim=u.dim)
    A, B = kernels.drift_diffusion(psi[:, None], u.K, u.rotated, u.fault)
    return psi, A[:, 0], B[:, :, 0]


def diffusion_vectors(u, psi):
    """B_k(psi) = L_k^u psi - ell_k psi.  Each satisfies Re<psi, B_k> = 0."""
    return list(_drift_diffusion(u, psi)[2])


def drift_vector(u, psi):
    """A(psi) psi in the zero gauge.

    The first drift term uses the unrotated sum L_k^dag L_k (invariant under
    the unitary mixing); the cross term uses the rotated operators.
    """
    return _drift_diffusion(u, psi)[1]


def generator_term(u, psi):
    """|A><psi| + |psi><A| + sum_k |B_k><B_k| at a unit state.

    Equals lindblad_rhs(model, |psi><psi|) for every member of the family;
    this identity is the core correctness check.
    """
    psi, A, B = _drift_diffusion(u, psi)
    out = hilbert.outer(A, psi) + hilbert.outer(psi, A)
    for Bk in B:
        out = out + hilbert.outer(Bk, Bk)
    return out
