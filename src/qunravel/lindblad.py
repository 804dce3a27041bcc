"""Deterministic side of the theory: the Lindblad generator, its superoperator
and Choi representations, exact propagation, and the GKS diagonalization step.

Vectorization convention is column-major (Fortran order), so for d = 2 the
vectorized basis order is {|0><0|, |1><0|, |0><1|, |1><1|} and
vec(A rho B) = (B^T kron A) vec(rho).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import hilbert
from .tolerances import TOL


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian H plus Lindblad operators L_k (rates all one).

    Construction enforces Hermitian H and linear independence of
    {1, L_1, ..., L_n}.
    """

    hamiltonian: np.ndarray
    lindblad_ops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        H = hilbert.as_operator(self.hamiltonian)
        if not hilbert.is_hermitian(H):
            raise ValueError(
                f"H not Hermitian: max defect {hilbert.hermiticity_defect(H):.3e}")
        ops = tuple(hilbert.as_operator(L, dim=H.shape[0]) for L in self.lindblad_ops)
        if ops and not hilbert.check_linear_independence(ops, include_identity=True):
            raise ValueError("{1, L_1, ..., L_n} must be linearly independent")
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "lindblad_ops", ops)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @property
    def n_ops(self):
        return len(self.lindblad_ops)


def gell_mann_basis(d):
    """Generalized Gell-Mann basis of traceless operators on C^d, orthonormal
    under Tr(F_i^dag F_j) = delta_ij.

    Order: symmetric pairs (i<j), antisymmetric pairs (i<j), then diagonal.
    Returns a list of d^2 - 1 arrays.
    """
    basis = []
    s = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            F = np.zeros((d, d), dtype=complex)
            F[i, j] = s
            F[j, i] = s
            basis.append(F)
    for i in range(d):
        for j in range(i + 1, d):
            F = np.zeros((d, d), dtype=complex)
            F[i, j] = -1j * s
            F[j, i] = 1j * s
            basis.append(F)
    for l in range(1, d):
        F = np.zeros((d, d), dtype=complex)
        F[np.arange(l), np.arange(l)] = 1.0
        F[l, l] = -float(l)
        basis.append(F / np.sqrt(l * (l + 1)))
    return basis


@dataclass(frozen=True)
class GKSForm:
    """Pre-diagonal master-equation data: traceless Hermitian H, a traceless
    orthonormal operator basis F_i, and a Hermitian coefficient matrix c_ij.

    c is NOT required positive semidefinite; detecting that is the point.
    """

    hamiltonian: np.ndarray
    kossakowski: np.ndarray
    basis_ops: tuple = ()

    def __post_init__(self):
        H = hilbert.as_operator(self.hamiltonian)
        d = H.shape[0]
        if not hilbert.is_hermitian(H):
            raise ValueError("GKS Hamiltonian must be Hermitian")
        if abs(np.trace(H)) > TOL.hermitian:
            raise ValueError("GKS Hamiltonian must be traceless")
        basis = self.basis_ops or tuple(gell_mann_basis(d))
        basis = tuple(hilbert.as_operator(F, dim=d) for F in basis)
        for a, F in enumerate(basis):
            if abs(np.trace(F)) > TOL.hermitian:
                raise ValueError(f"basis op {a} is not traceless")
            for b, G in enumerate(basis):
                g = np.trace(hilbert.dagger(F) @ G)
                if abs(g - (1.0 if a == b else 0.0)) > 1e-10:
                    raise ValueError(f"basis ops {a},{b} not orthonormal: {g}")
        c = np.asarray(self.kossakowski, dtype=complex)
        if c.shape != (len(basis), len(basis)):
            raise ValueError(
                f"kossakowski shape {c.shape} does not match basis size {len(basis)}")
        if hilbert.hermiticity_defect(c) > TOL.hermitian:
            raise ValueError("kossakowski matrix must be Hermitian")
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "kossakowski", c)
        object.__setattr__(self, "basis_ops", basis)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


def _dissipator(L, rho, Ldag_L=None):
    Ldag = hilbert.dagger(L)
    if Ldag_L is None:
        Ldag_L = Ldag @ L
    return L @ rho @ Ldag - 0.5 * (Ldag_L @ rho + rho @ Ldag_L)


def lindblad_rhs(model, rho, rates=None):
    """Right-hand side -i[H, rho] + sum_k c_k D[L_k](rho).

    rates defaults to all ones; negative rates are allowed so non-CP
    generators can be represented and then flagged.
    """
    H = model.hamiltonian
    rho = hilbert.as_operator(rho, dim=H.shape[0])
    out = -1j * (H @ rho - rho @ H)
    if rates is None:
        rates = np.ones(len(model.lindblad_ops))
    for c, L in zip(rates, model.lindblad_ops):
        out = out + c * _dissipator(L, rho)
    return out


def vec(rho):
    """Column-major vectorization."""
    return np.asarray(rho, dtype=complex).ravel(order="F")


def unvec(v, d):
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


def _liouvillian_matrix(H, ops, rates):
    d = H.shape[0]
    I = np.eye(d, dtype=complex)
    mat = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for c, L in zip(rates, ops):
        Ldag_L = hilbert.dagger(L) @ L
        mat = mat + c * (np.kron(np.conj(L), L)
                         - 0.5 * np.kron(I, Ldag_L)
                         - 0.5 * np.kron(Ldag_L.T, I))
    return mat


def liouvillian(model, rates=None):
    """d^2 x d^2 matrix form of the generator on column-major vec(rho)."""
    if rates is None:
        rates = np.ones(len(model.lindblad_ops))
    return _liouvillian_matrix(model.hamiltonian, model.lindblad_ops, rates)


def gks_liouvillian(g):
    """Superoperator of a GKS generator, without diagonalizing first."""
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
            FjdFi = hilbert.dagger(F[j]) @ F[i]
            mat = mat + c[i, j] * (np.kron(np.conj(F[j]), F[i])
                                   - 0.5 * np.kron(I, FjdFi)
                                   - 0.5 * np.kron(FjdFi.T, I))
    return mat


def propagate_exact(model, rho0, t, rates=None):
    """exp(t L) applied to rho0: the bias-free oracle against which Monte
    Carlo ensembles are judged; no ODE stepping is involved.

    t is a scalar, giving a (d, d) state, or a 1-D sequence of times, giving
    an (n, d, d) array in the order given.  The Liouvillian is built once and
    only its action on vec(rho0) is computed (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33 (2011) 488), each time reached from the previous one in
    sorted order.
    """
    # Imported here: scipy.sparse.linalg adds ~3.5 MB to the resident size
    # of every process that imports qunravel, and most never call the oracle.
    from scipy.sparse.linalg import expm_multiply

    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D sequence, got shape "
                         f"{times.shape}")
    if not np.all((times >= 0) & (times < np.inf)):
        raise ValueError("t must be finite and nonnegative")
    d = model.dim
    v = vec(hilbert.as_operator(rho0, dim=d))
    flat = times.reshape(-1)
    out = np.empty((flat.size, d, d), dtype=complex)
    superop = None
    reached = 0.0
    for i in np.argsort(flat, kind="stable"):
        if flat[i] > reached:
            if superop is None:
                superop = liouvillian(model, rates=rates)
            v = expm_multiply((flat[i] - reached) * superop, v)
            reached = flat[i]
        out[i] = unvec(v, d)
    return out[0] if times.ndim == 0 else out


def _choi(t, d, build_superop):
    # Block (i, j) of the Choi matrix is the image of |i><j|, i.e. column
    # i + j d of the propagator P unvec'd: choi[i d + a, j d + b] =
    # P[a + b d, i + j d].  The full propagator is needed, so this stays a
    # dense exponential.  The superoperator is built only after t is
    # checked, and is freed as soon as it is scaled, before expm.
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    P = expm(t * build_superop())
    return (P.reshape(d, d, d, d, order="F").transpose(2, 0, 3, 1)
            .reshape(d * d, d * d))


def choi_matrix(model, t, rates=None):
    """Choi matrix of exp(t L): block (i, j) is the image of |i><j|, read off
    the propagator by reshuffling its indices.

    Hermitian with trace d; positive semidefinite iff the channel is CP.
    """
    return _choi(t, model.dim, lambda: liouvillian(model, rates=rates))


def gks_choi_matrix(g, t):
    return _choi(t, g.dim, lambda: gks_liouvillian(g))


def gks_to_lindblad(g):
    """Diagonalize the Kossakowski matrix: c = U diag(c_k) U^dag with
    L_k = sum_i U[i, k] F_i, so the generator becomes sum_k c_k D[L_k].

    Returns (rates, ops) with rates sorted descending; ties are broken by
    lexicographic order of the eigenvector entries' real parts.  Negative
    rates are reported, not rejected (they flag a non-CP generator).
    """
    c = g.kossakowski
    w, U = np.linalg.eigh(c)
    order = sorted(
        range(len(w)),
        key=lambda k: (-w[k], tuple(np.real(U[:, k]))),
    )
    rates = [float(w[k]) for k in order]
    ops = []
    for k in order:
        L = np.zeros((g.dim, g.dim), dtype=complex)
        for i, F in enumerate(g.basis_ops):
            L = L + U[i, k] * F
        ops.append(L)
    return rates, ops
