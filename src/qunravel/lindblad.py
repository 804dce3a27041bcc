"""Deterministic side of the theory: the Lindblad generator, its superoperator
and Choi representations, exact propagation, and the GKS diagonalization step.

Vectorization convention is column-major (Fortran order), so for d = 2 the
vectorized basis order is {|0><0|, |1><0|, |0><1|, |1><1|} and
vec(A rho B) = (B^T kron A) vec(rho).

The Lindblad and GKS superoperators come from one kron-free builder.  Exact
propagation is matrix-free; the Choi matrix works in real arithmetic: the
generator preserves Hermiticity, so on the orthonormal Hermitian operator
basis it is a real d^2 x d^2 matrix, with a quarter of the flops and half the
memory of the complex one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
        if not hilbert.check_linear_independence(ops):
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
        # each check is written so that NaN fails it
        if not abs(np.trace(H)) <= TOL.hermitian:
            raise ValueError("GKS Hamiltonian must be traceless")
        basis = self.basis_ops or tuple(gell_mann_basis(d))
        basis = tuple(hilbert.as_operator(F, dim=d) for F in basis)
        flat = np.reshape(basis, (len(basis), d * d))
        traces = flat[:, ::d + 1].sum(axis=1)
        bad = np.flatnonzero(~(np.abs(traces) <= TOL.hermitian))
        if bad.size:
            raise ValueError(f"basis op {bad[0]} is not traceless")
        gram = flat.conj() @ flat.T         # Tr(F_a^dag F_b)
        bad = np.argwhere(~(np.abs(gram - np.eye(len(basis))) <= 1e-10))
        if bad.size:
            a, b = bad[0]
            raise ValueError(f"basis ops {a},{b} not orthonormal: {gram[a, b]}")
        c = np.asarray(self.kossakowski, dtype=complex)
        if c.shape != (len(basis), len(basis)):
            raise ValueError(
                f"kossakowski shape {c.shape} does not match basis size {len(basis)}")
        if not hilbert.hermiticity_defect(c) <= TOL.hermitian:
            raise ValueError("kossakowski matrix must be finite and "
                             "Hermitian")
        object.__setattr__(self, "hamiltonian", H)
        object.__setattr__(self, "kossakowski", c)
        object.__setattr__(self, "basis_ops", basis)

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


def _dissipator(L, rho):
    Ldag = hilbert.dagger(L)
    Ldag_L = Ldag @ L
    return L @ rho @ Ldag - 0.5 * (Ldag_L @ rho + rho @ Ldag_L)


def lindblad_rhs(model, rho):
    """Right-hand side -i[H, rho] + sum_k D[L_k](rho), written out term by
    term: the reference the generator identity is checked against."""
    H = model.hamiltonian
    rho = hilbert.as_operator(rho, dim=H.shape[0])
    out = -1j * (H @ rho - rho @ H)
    for L in model.lindblad_ops:
        out = out + _dissipator(L, rho)
    return out


def _generator(H, A, B):
    """Superoperator of rho -> G rho + rho G^dag + sum_k B_k rho A_k^dag, with
    G = -iH - (1/2) sum_k A_k^dag B_k, as a C-order (d, d, d, d) array
    M[b, a, j, i].  Its (d^2, d^2) reshape, row a + b d and column i + j d,
    is I kron G + conj(G) kron I + sum_k conj(A_k) kron B_k; it is filled
    one row block at a time, with no kron temporaries.
    """
    d = H.shape[0]
    Ac = np.asarray(A, dtype=complex).reshape(-1, d, d).conj()
    B = np.asarray(B, dtype=complex).reshape(-1, d, d)
    G = -1j * H - 0.5 * (Ac.reshape(-1, d).T @ B.reshape(-1, d))
    M = np.empty((d, d, d, d), dtype=complex)
    Bf = B.reshape(-1, d * d)
    for b in range(d):
        # M[b, a, j, i] = sum_k conj(A_k)[b, j] B_k[a, i]
        M[b] = (Ac[:, b, :].T @ Bf).reshape(d, d, d).transpose(1, 0, 2)
    k = np.arange(d)
    M[k, :, k, :] += G             # delta_bj G[a, i]
    M[:, k, :, k] += G.conj()      # conj(G)[b, j] delta_ai
    return M


def liouvillian(model):
    """d^2 x d^2 matrix form of the generator on column-major vec(rho)."""
    ops = model.lindblad_ops
    return _generator(model.hamiltonian, ops, ops).reshape(model.dim ** 2, -1)


def gks_liouvillian(g):
    """Superoperator of a GKS generator, without diagonalizing first: the
    jump operators sum_i c_ij F_i rho F_j^dag pair A_j = F_j with
    B_j = sum_i c_ij F_i."""
    d = g.dim
    F = np.asarray(g.basis_ops).reshape(-1, d * d)
    B = g.kossakowski.T @ F
    return _generator(g.hamiltonian, F, B).reshape(d * d, d * d)


# Real representation.  A Hermiticity-preserving map is a real matrix on the
# orthonormal Hermitian basis {(E_ij + E_ji)/sqrt2, i(E_ji - E_ij)/sqrt2 (i < j),
# E_ii}, in that order.  Each basis element touches at most two entries of
# vec(rho), p = i + j d and q = j + i d, so the change of basis T^dag L T and
# its inverse T R T^dag are gathers over those index pairs, not matmuls.
_R2 = np.sqrt(0.5)


def _pairs(d):
    """vec indices p of the entries (i, j), i < j, q of (j, i), and of the
    diagonal."""
    i, j = np.triu_indices(d, 1)
    return i + j * d, j + i * d, np.arange(d) * (d + 1)


def _real_superop(L, d):
    """Re(T^dag L T): the real generator of the complex superoperator L; the
    dropped imaginary part is rounding error when L preserves Hermiticity."""
    p, q, e = _pairs(d)
    m = p.size
    s, a, g = slice(0, m), slice(m, 2 * m), slice(2 * m, None)
    Lr, Li = L.real, L.imag

    def blk(part, X, Y):
        return part[np.ix_(X, Y)]

    S = np.empty(L.shape)
    u = blk(Lr, p, p) + blk(Lr, q, q)
    v = blk(Lr, p, q) + blk(Lr, q, p)
    S[s, s] = 0.5 * (u + v)
    S[a, a] = 0.5 * (u - v)
    u = blk(Li, p, p) - blk(Li, q, q)
    v = blk(Li, q, p) - blk(Li, p, q)
    S[s, a] = 0.5 * (u + v)
    S[a, s] = 0.5 * (v - u)
    S[s, g] = _R2 * (blk(Lr, p, e) + blk(Lr, q, e))
    S[a, g] = _R2 * (blk(Li, q, e) - blk(Li, p, e))
    S[g, s] = _R2 * (blk(Lr, e, p) + blk(Lr, e, q))
    S[g, a] = _R2 * (blk(Li, e, p) - blk(Li, e, q))
    S[g, g] = blk(Lr, e, e)
    return S


# theta_m: the degree-m Taylor series gives exp(A) to backward error 2^-53
# when ||A|| <= theta_m (Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011)
# 488, table 3.1; Higham, Functions of Matrices (2008), table A.3).
_THETA = dict(zip([*range(1, 31), 35, 40, 45, 50, 55], (
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08,
    3.31, 3.54, 4.7, 6.0, 7.2, 8.5, 9.9)))


def propagate_exact(model, rho0, t):
    """exp(t L) applied to rho0: the bias-free oracle against which Monte
    Carlo ensembles are judged; no ODE stepping is involved.

    t is a scalar, giving a (d, d) state, or a 1-D sequence of times, giving
    an (n, d, d) array in the order given.  Each time is reached from the
    previous one in sorted order by a truncated Taylor series of L - mu,
    mu = tr(L) / d^2, applied with d x d products (Al-Mohy & Higham, SIAM
    J. Sci. Comput. 33 (2011) 488) to rho0's Hermitian and anti-Hermitian
    parts; a Hermitian rho0 has no second part and exactly Hermitian states.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a scalar or a 1-D sequence, got shape "
                         f"{times.shape}")
    if not np.all((times >= 0) & (times < np.inf)):
        raise ValueError("t must be finite and nonnegative")
    d = model.dim
    rho = hilbert.as_operator(rho0, dim=d)
    L = np.asarray(model.lindblad_ops, dtype=complex).reshape(-1, d, d)
    Ldag = L.conj().swapaxes(1, 2)
    G = -1j * model.hamiltonian - 0.5 * (Ldag @ L).sum(axis=0)
    mu = (2 * d * np.trace(G).real
          + np.sum(np.abs(np.trace(L, axis1=1, axis2=2)) ** 2)) / d ** 2
    G[np.diag_indices(d)] -= 0.5 * mu
    # ||L - mu|| <= 2 ||G - mu/2|| + sum_k ||L_k||^2, spectral norms
    bound = (2 * np.linalg.norm(G, 2)
             + np.sum(np.linalg.norm(L, 2, axis=(1, 2)) ** 2))
    half = 0.5 * L[:, None]

    def shifted(X):
        # Hermitian X: (L - mu)X = Y + Y^dag, Y = GX + sum_k L_k X L_k^dag/2
        Y = G @ X + (half @ X @ Ldag[:, None]).sum(axis=0)
        return Y + Y.conj().swapaxes(1, 2)

    anti = -0.5j * (rho - rho.conj().T)
    X = np.stack((0.5 * (rho + rho.conj().T), anti) if anti.any() else (rho,))
    flat = times.reshape(-1)
    out = np.empty((flat.size, d, d), dtype=complex)
    reached = 0.0
    for i in np.argsort(flat, kind="stable"):
        tau = flat[i] - reached
        if tau > 0:
            m, s = min(((m, math.ceil(tau * bound / theta))
                        for m, theta in _THETA.items()),
                       key=lambda ms: ms[0] * ms[1]) if bound else (0, 1)
            h = tau / s
            for _ in range(s):
                F = term = X
                c1 = np.abs(term).max()
                for j in range(1, m + 1):
                    term = shifted(term) * (h / j)
                    c2 = np.abs(term).max()
                    F = F + term
                    if c1 + c2 <= 2.0 ** -53 * np.abs(F).max():
                        break
                    c1 = c2
                X = np.exp(h * mu) * F
            reached = flat[i]
            rho = X[0] + 1j * X[1] if len(X) == 2 else X[0]
        out[i] = rho
    return out[0] if times.ndim == 0 else out


# The degree-13 Pade numerator's coefficients, and the largest 1-norm it takes
# unscaled (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179).
_PADE13 = [float(math.factorial(26 - k) // math.factorial(k)
                 // math.factorial(13 - k)) for k in range(14)]
_THETA13 = 5.371920351148152
# rows per block of the Pade sums' c X terms and of the Choi gather
_BLOCK = 64


def _expm(A, t):
    """exp(t A), A real and overwritten, by degree-13 Pade scaling and
    squaring; c X terms go through a _BLOCK-row scratch: 6 n x n live.
    Raises ValueError when tA's norm or exp(t A) is not finite."""
    b = _PADE13
    norm = t * np.linalg.norm(A, 1)
    if not norm < np.inf:       # NaN too: no scaling brings it into range
        raise ValueError(f"the propagator at t={t} overflows")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A *= t / 2.0 ** s
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    scratch = np.empty_like(A[:_BLOCK])

    def poly(out, c6, c4, c2, c0=0.0):
        # out = c6 A6 + c4 A4 + c2 A2 + c0 I, a row block at a time
        for r in range(0, len(A), _BLOCK):
            rows, tmp = slice(r, r + _BLOCK), scratch[:len(A) - r]
            o = np.multiply(A6[rows], c6, out=out[rows])
            o += np.multiply(A4[rows], c4, out=tmp)
            o += np.multiply(A2[rows], c2, out=tmp)
        out[np.diag_indices(len(A))] += c0
        return out

    W = poly(np.empty_like(A), b[13], b[11], b[9])
    Z = np.matmul(A6, W, out=np.empty_like(A))
    Z += poly(W, b[7], b[5], b[3], b[1])
    U = np.matmul(A, Z, out=W)
    V = np.matmul(A6, poly(Z, b[12], b[10], b[8]), out=A)
    V += poly(Z, b[6], b[4], b[2], b[0])
    del A2, A4, A6, scratch
    P = np.add(V, U, out=Z)
    V -= U
    del U, W
    R = np.linalg.solve(V, P)
    del A, P, Z
    for _ in range(s):          # into V's freed buffer, not a new array
        R, V = np.matmul(R, R, out=V), R
    # max carries a NaN through; min and max read R in place, with no copy
    if not (np.isfinite(R.min()) and np.isfinite(R.max())):
        raise ValueError(f"the propagator at t={t} overflows")
    return R


def _choi(t, d, build_superop):
    # Block (i, j) of the Choi matrix is the image of |i><j|, i.e. column
    # i + j d of the propagator P unvec'd: choi[i d + a, j d + b] =
    # P[a + b d, i + j d].  The full propagator is needed, so this stays a
    # dense exponential, of the real generator.  The complex superoperator
    # is built only after t is checked and is freed before expm; the real
    # propagator R is gathered straight into the Choi layout, block by
    # block of P = T R T^dag.  The blocks of the q rows and columns are the
    # conjugates of those of the p ones, so the result is exactly Hermitian.
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _expm
        return _choi_of(_expm(_real_superop(build_superop(), d), t), d)


def _choi_of(R, d):
    """Choi matrix of P = T R T^dag, gathered _BLOCK rows of p at a time."""
    p, q, e = _pairs(d)
    m = p.size
    s, a, g = slice(0, m), slice(m, 2 * m), slice(2 * m, None)
    choi = np.empty((d * d, d * d), dtype=complex)
    c4 = choi.reshape(d, d, d, d)

    def put(X, Y, block):
        # rows X = a + b d and columns Y = i + j d of P
        c4[Y % d, X[:, None] % d, Y // d, X[:, None] // d] = block

    for r in range(0, m, _BLOCK):
        k = slice(r, r + _BLOCK)
        Rs, Ra = R[s][k], R[a][k]
        pp = 0.5 * ((Rs[:, s] + Ra[:, a]) + 1j * (Rs[:, a] - Ra[:, s]))
        pq = 0.5 * ((Rs[:, s] - Ra[:, a]) - 1j * (Rs[:, a] + Ra[:, s]))
        pe = _R2 * (Rs[:, g] - 1j * Ra[:, g])
        put(p[k], p, pp)
        put(q[k], q, pp.conj())
        put(p[k], q, pq)
        put(q[k], p, pq.conj())
        put(p[k], e, pe)
        put(q[k], e, pe.conj())
    ep = _R2 * (R[g, s] + 1j * R[g, a])
    put(e, p, ep)
    put(e, q, ep.conj())
    put(e, e, R[g, g])
    return choi


def choi_matrix(model, t):
    """Choi matrix of exp(t L): block (i, j) is the image of |i><j|, read off
    the propagator by reshuffling its indices.

    Hermitian with trace d; positive semidefinite iff the channel is CP.
    """
    return _choi(t, model.dim, lambda: liouvillian(model))


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
