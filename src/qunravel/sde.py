"""Seeded Ito integration of d psi = A dt + sum_k B_k dW_k and ensemble
generation with deterministic, parallelism-independent reproducibility.

Each trajectory i draws its Wiener increments from a counter-based Philox
stream keyed by (seed, i), so the stream is a pure function of the pair and
trajectories can be executed in any order or in any number of processes
without changing a single bit of the result.

Chunks of ``_CHUNK`` trajectories are the unit of determinism; execution
batches are the unit of work.  A batch is a run of about ceil(n_chunks /
threads) whole chunks, fewer when its states, one step block of increments
and its per-chunk sums would pass ``_BATCH_BYTES``.  It runs as one kernel
call, which draws its increments one step block at a time.  At every record
step the kernel hands over its component-major (d, batch) states, and each
reducer, the projectors behind ``rho_hat`` first, sums every chunk of them
in place (``_chunk_sums``); the kernel returns the final states itself.
The chunk sums are added in chunk order, so neither the (batch, steps, N)
increments nor the (batch, R, d) states are ever held.

With ``threads`` > 1 and more than one batch, ``_fork_map`` (which also
runs the CLI's ``choi.json`` tasks) runs the batches in at most ``threads``
worker processes started by ``fork``, each holding its own batch in memory
and returning its per-chunk sums, drifts and final states; ``threads=1``, a
single batch, a platform without ``fork`` or a daemonic process runs every
batch in the calling process and starts none.  Calling with ``threads`` > 1
from a process that runs threads of its own carries the usual ``fork``
caveats: only the calling thread exists in the workers.
"""

import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from . import hilbert, kernels
from .tolerances import TOL

_CHUNK = 256    # trajectories per chunk, which fixes rho_hat's sum order
# bytes a batch of more than one chunk may hold: its states, one step block
# of increments and its per-chunk, per-record reducer sums
_BATCH_BYTES = 32 * 2 ** 20


class NormBlowupError(RuntimeError):
    """Raised when a pre-renormalization norm falls below the blow-up floor
    or is not finite (NaN or infinite) at any step.

    ``trajectory_indices`` lists every blown-up trajectory in ascending
    order; ``trajectory_index`` is the first of them.
    """

    def __init__(self, trajectory_indices):
        self.trajectory_indices = [int(i) for i in
                                   np.atleast_1d(trajectory_indices)]
        self.trajectory_index = self.trajectory_indices[0]
        n = len(self.trajectory_indices)
        super().__init__(
            f"state norm collapsed below {TOL.blowup_norm} or became "
            f"non-finite in {n} trajector{'y' if n == 1 else 'ies'} (first: "
            f"{self.trajectory_index}); the step size is too large")


@dataclass(frozen=True)
class IntegrationConfig:
    dt: float
    t_final: float
    seed: int = 0
    renormalize: bool = True
    record_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and self.t_final > 0):      # NaN included
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if self.t_final / self.dt > 1e8:
            raise ValueError("more than 1e8 steps requested")
        if abs(self.n_steps * self.dt - self.t_final) > \
                1e-9 * max(1.0, self.t_final):
            raise ValueError(f"t_final={self.t_final} is not a multiple of "
                             f"dt={self.dt}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be positive")
        # a float or bool seed runs an integer's stream under another hash
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)
                or not 0 <= int(self.seed) < 2 ** 64):
            raise ValueError(f"seed must fit in 64 unsigned bits as an "
                             f"integer, got {self.seed!r}")

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))

    def record_steps(self):
        """1-based step counts at which states are stored (final step always)."""
        steps = list(range(self.record_stride, self.n_steps + 1,
                           self.record_stride))
        if not steps or steps[-1] != self.n_steps:
            steps.append(self.n_steps)
        return np.asarray(steps, dtype=np.int64)

    def record_times(self):
        return self.record_steps() * self.dt


@dataclass
class EnsembleEstimate:
    times: np.ndarray
    rho_hat: np.ndarray         # (len(times), d, d)
    n_trajectories: int
    std_error: np.ndarray       # per-time 1/sqrt(M)-scale error estimate
    norm_drift_max: float
    norm_drift: np.ndarray = None      # (M,) per-trajectory max deviation
    norm_drift_mean: np.ndarray = None # (M,) per-trajectory mean deviation
    final_states: np.ndarray = None    # (M, d) at the last recorded time
    means: dict = field(default_factory=dict)  # reducer name -> (R, ...) mean


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seed sequence that hands Philox the key [seed, index] as its state.
    Same key, counter and stream as ``Philox(key=[seed, index])``, which
    would build, and then ignore, a SeedSequence drawn from OS entropy."""

    __slots__ = ("_key",)

    def __init__(self, seed, index):
        self._key = np.array([seed, index], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self._key


def trajectory_rng(seed, index):
    """Philox stream for trajectory `index`: a pure function of (seed, index)."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed, index)))


class _Increments:
    """Wiener increments of trajectories [start, start+count) as a lazy
    (count, steps, N) array: ``dW[:, s0:s1]`` draws steps s0..s1-1 from each
    trajectory's Philox stream.  Blocks must be read in order, once each;
    each draw continues the stream, so the blocks equal one (steps, N) draw
    bit for bit."""

    def __init__(self, seed, start, count, steps, noise_count, dt):
        self.shape = (count, steps, noise_count)
        self._scale = math.sqrt(dt)
        self._rngs = [trajectory_rng(seed, start + i) for i in range(count)]
        self._next = 0

    def __getitem__(self, key):
        rows, cols = key
        if rows != slice(None) or (cols.start or 0) != self._next:
            raise IndexError("increments are drawn in order, one step block "
                             "at a time")
        stop = min(cols.stop, self.shape[1])
        block = np.empty((self.shape[0], stop - self._next, self.shape[2]))
        for i, rng in enumerate(self._rngs):
            rng.standard_normal(out=block[i])
        # what rng.normal(0.0, scale) computes, 0.0 + scale * z, in two
        # passes over the block; the + 0.0 turns a -0.0 into +0.0 as it does
        block *= self._scale
        block += 0.0
        self._next = stop
        return block


def _batch_layout(n_chunks, chunk_bytes, threads):
    """Execution batches, as runs [c0, c1) of whole chunks: each takes
    ceil(n_chunks / threads) chunks, or as many as fit in ``_BATCH_BYTES``
    at ``chunk_bytes`` each if that is fewer (always at least one)."""
    per_batch = min(-(-n_chunks // max(1, threads)),
                    max(1, _BATCH_BYTES // chunk_bytes))
    return [(c0, min(c0 + per_batch, n_chunks))
            for c0 in range(0, n_chunks, per_batch)]


def _projectors(s):
    """The reducer behind rho_hat: each chunk's sum of |psi><psi|.  Plain
    einsum, not BLAS, adds each entry's products in column order, the bits
    of ``einsum("bi,bj->ij")`` over the chunk's (rows, d) states."""
    return np.einsum("icb,jcb->cij", s, s.conj())


def _chunk_sums(psi, chunk, reduce, out):
    """out[c] = reduce's sum over chunk c of the (d, rows) states, `chunk`
    columns each but a short last one: reduce is called once on the full
    chunks, as a (d, chunks, chunk) view, and once on a short last chunk."""
    d, n = psi.shape
    full = n // chunk
    if full:
        out[:full] = reduce(psi[:, :full * chunk].reshape(d, full, chunk))
    if full * chunk < n:
        out[full:] = reduce(psi[:, None, full * chunk:])


def _batch_job(u, psi0, cfg, edges, record_steps, reducers, dW):
    """The function that runs one batch (c0, c1) of the chunks, on dW's
    rows or else on their Philox streams, and returns the (chunks, R, ...)
    sums of each (function, template sum) reducer, the global indices of
    its blown-up trajectories, its drifts and final states."""
    R = record_steps.size
    steps = int(record_steps[-1])

    def run(batch):
        c0, c1 = batch
        lo, hi = edges[c0], edges[c1]
        sums = {name: np.empty((c1 - c0, R) + template.shape, template.dtype)
                for name, (_, template) in reducers.items()}

        def on_record(r, psi):
            # each chunk is summed at every record step, so that a batch
            # holds its per-chunk sums but never its states
            for name, (reduce, _) in reducers.items():
                _chunk_sums(psi, _CHUNK, reduce, sums[name][:, r])

        increments = (_Increments(cfg.seed, lo, hi - lo, steps, u.noise_count,
                                  cfg.dt) if dW is None else dW[lo:hi, :steps])
        finals, drifts, drift_means, status = kernels.simulate_chunk(
            psi0, u.K, u.rotated, cfg.dt, increments, cfg.renormalize,
            record_steps, fault=u.fault, on_record=on_record)
        return sums, lo + np.nonzero(status)[0], drifts, drift_means, finals

    return run


_job = None     # the job _fork_map's workers run, set while they fork
_forking = threading.Lock()     # one caller at a time sets _job and forks


def _run_forked(item):
    return _job(item)


def _fork_map(job, items, workers):
    """Iterate over job(item) for each of items, in order: lazily in this
    process for fewer than two workers or items, where the platform cannot
    fork, or in a daemonic process, which may start none; otherwise in
    min(workers, len(items)) processes forked with the job in ``_job``.
    Fork hands the job over by copying the caller's memory: nothing is
    pickled but items and results, and nothing re-imports the caller's
    ``__main__``.  ``_job`` is cleared once every worker is forked, so this
    process then holds no reference to the job.  A worker that dies breaks
    the pool, which raises."""
    global _job
    workers = min(workers, len(items))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("fork")) as pool:
                with _forking:
                    _job, job = job, None
                    try:
                        results = pool.map(_run_forked, items)  # forks all
                    finally:
                        _job = None
                yield from results
            return
    yield from map(job, items)


def simulate_ensemble(u, psi0, cfg, n_trajectories, threads=1,
                      reducers=None, dW=None, record_steps=None):
    """Monte Carlo estimate of rho_t = E|psi_t><psi_t| over the record grid.

    The result is bitwise independent of `threads`: trajectory i always uses
    the Philox stream keyed by (seed, i), chunks of ``_CHUNK`` trajectories
    are fixed, and per-chunk sums are reduced in chunk order.
    Execution batches of about ceil(n_chunks / threads) whole chunks run in
    up to `threads` forked worker processes, or in this process when
    `threads` is 1; they change how much runs per kernel call and where,
    but no trajectory's arithmetic.  A norm blow-up raises NormBlowupError
    naming every blown-up trajectory.

    reducers optionally maps a name to a function that takes a read-only
    (d, chunks, rows) view of the states of whole chunks and returns the
    (chunks, ...) array of their sums, reduced like the projectors behind
    rho_hat; ``means[name]`` holds its (R, ...) ensemble mean.

    dW optionally supplies the increments as one (n_trajectories, steps, N)
    array, steps at least the last record step (used by the step-size
    consistency checks to couple runs across dt levels); record_steps
    overrides the stride grid from cfg; it must be strictly increasing
    within [1, cfg.n_steps], and no trajectory steps past its last step, so
    norm_drift and norm_drift_mean cover only those steps.
    """
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    if dW is not None and len(dW) != n_trajectories:
        raise ValueError(f"dW has {len(dW)} rows for {n_trajectories} "
                         f"trajectories")
    psi0 = hilbert.as_state(psi0, dim=u.dim)
    if not hilbert.is_normalized(psi0):
        raise ValueError("psi0 must be normalized")
    if record_steps is None:
        record_steps = cfg.record_steps()
    else:
        record_steps = np.asarray(record_steps, dtype=np.int64)
        if (record_steps.ndim != 1 or record_steps.size == 0
                or record_steps[0] < 1 or record_steps[-1] > cfg.n_steps
                or np.any(np.diff(record_steps) <= 0)):
            raise ValueError(
                f"record_steps must be strictly increasing within "
                f"[1, {cfg.n_steps}], got {record_steps.tolist()}")
    reducers = dict(reducers or {})
    if "_projectors" in reducers:
        raise ValueError("the reducer name '_projectors' is reserved")
    # one sum per reducer over psi0, as a chunk of one, fixes the shape and
    # dtype of its sums
    probe = psi0[:, None, None]
    probe.flags.writeable = False
    reducers = {name: (reduce, np.asarray(reduce(probe))[0]) for name, reduce
                in {"_projectors": _projectors, **reducers}.items()}
    R = record_steps.size
    d = u.dim

    # chunk c holds trajectories [edges[c], edges[c+1])
    edges = list(range(0, n_trajectories, _CHUNK)) + [n_trajectories]
    block = min(kernels.STEP_BLOCK, cfg.n_steps)
    chunk_bytes = (_CHUNK * (16 * d + 8 * block * u.noise_count)
                   + R * sum(t.nbytes for _, t in reducers.values()))
    batches = _batch_layout(len(edges) - 1, chunk_bytes, threads)
    job = _batch_job(u, psi0, cfg, edges, record_steps, reducers, dW)

    drifts = np.zeros(n_trajectories)
    drift_means = np.zeros(n_trajectories)
    finals = np.empty((n_trajectories, d), dtype=complex)
    totals = {name: np.zeros((R,) + template.shape, template.dtype)
              for name, (_, template) in reducers.items()}
    blown = []
    # batch order, then chunk order within each, whatever the worker count
    for result, (c0, c1) in zip(_fork_map(job, batches, threads), batches):
        sums, bad, drift, drift_mean, final = result
        for name, total in totals.items():
            for partial in sums[name]:
                total += partial
        blown.extend(bad)
        lo, hi = edges[c0], edges[c1]
        drifts[lo:hi] = drift
        drift_means[lo:hi] = drift_mean
        finals[lo:hi] = final
    if blown:
        raise NormBlowupError(blown)

    means = {name: total / n_trajectories for name, total in totals.items()}
    rho_hat = means.pop("_projectors")
    # For unit-norm projectors E||P||_F^2 = 1, so the Frobenius-scale Monte
    # Carlo error is sqrt((1 - ||rho||_F^2) / M).
    frob2 = np.sum(np.abs(rho_hat) ** 2, axis=(1, 2))
    std_error = np.sqrt(np.maximum(0.0, 1.0 - frob2) / n_trajectories)
    return EnsembleEstimate(times=record_steps * cfg.dt, rho_hat=rho_hat,
                            n_trajectories=n_trajectories,
                            std_error=std_error,
                            norm_drift_max=float(np.max(drifts)),
                            norm_drift=drifts, norm_drift_mean=drift_means,
                            final_states=finals, means=means)
