"""Seeded Ito integration of d psi = A dt + sum_k B_k dW_k and ensemble
generation with deterministic, parallelism-independent reproducibility.

Each trajectory i draws its Wiener increments from a counter-based Philox
stream keyed by (seed, i), so the stream is a pure function of the pair and
trajectories can be executed in any order or in any number of processes
without changing a single bit of the result.

Chunks are the unit of determinism; execution batches are the unit of work.
A batch is a run of about ceil(n_chunks / threads) whole chunks, fewer when
its states, one step block of increments and its per-chunk sums would pass
``_BATCH_BYTES``.  It runs as one kernel call, which draws its increments
one step block at a time.  At every record step each chunk's states go to
every reducer (the projector sum behind ``rho_hat`` and any the caller
names), whose chunk sums are added in chunk order, so neither the (batch,
steps, N) increments nor the (batch, R, d) states are ever held.

With ``threads`` > 1 and more than one batch, the batches run in worker
processes started by ``fork`` (at most ``threads`` of them, each holding its
own batch in memory), which return their per-chunk sums, drifts and final
states to the caller; ``threads=1``, a single batch, a platform without
``fork`` or a daemonic process runs every batch in the calling process and
starts none.  Calling with ``threads`` > 1 from a process that runs threads
of its own carries the usual ``fork`` caveats: only the calling thread
exists in the workers.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import hilbert, kernels
from .tolerances import TOL
from .unraveling import Unraveling

_DEFAULT_CHUNK = 256
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
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 unsigned bits")

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
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (len(times), d), unit norm when renormalizing
    norm_drift_max: float       # max |  ||psi'||^2 - 1 | before renormalization
    norm_drift_mean: float      # mean per-step deviation (scales as O(dt))
    seed: int


@dataclass
class EnsembleEstimate:
    times: np.ndarray
    rho_hat: np.ndarray         # (len(times), d, d)
    n_trajectories: int
    std_error: np.ndarray       # per-time 1/sqrt(M)-scale error estimate
    seed: int
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


def _simulate(u, psi0, cfg, start, count, record_steps, dW=None,
              on_record=None):
    """Run trajectories [start, start+count) through the kernel, on their
    Philox streams unless dW is given; returns the kernel's tuple."""
    if dW is None:
        dW = _Increments(cfg.seed, start, count, cfg.n_steps, u.noise_count,
                         cfg.dt)
    return kernels.simulate_chunk(psi0, u.K, u.rotated, cfg.dt, dW,
                                  cfg.renormalize, record_steps,
                                  fault=u.fault, on_record=on_record)


def simulate_trajectory(u, psi0, cfg, trajectory_index=0):
    """Integrate one trajectory; records every record_stride-th step plus t=0."""
    if not isinstance(u, Unraveling):
        raise TypeError("u must be an Unraveling")
    psi0 = hilbert.as_state(psi0, dim=u.dim)
    if not hilbert.is_normalized(psi0):
        raise ValueError("psi0 must be normalized")
    record_steps = cfg.record_steps()
    states, drift_max, drift_mean, status = _simulate(
        u, psi0, cfg, trajectory_index, 1, record_steps)
    if status[0]:
        raise NormBlowupError(trajectory_index)
    times = np.concatenate(([0.0], record_steps * cfg.dt))
    all_states = np.vstack(([psi0], states[0]))
    return Trajectory(times=times, states=all_states,
                      norm_drift_max=float(drift_max[0]),
                      norm_drift_mean=float(drift_mean[0]), seed=cfg.seed)


def _batch_layout(n_chunks, chunk_bytes, threads):
    """Execution batches, as runs [c0, c1) of whole chunks, and the number
    of workers that run them.

    A batch takes ceil(n_chunks / threads) chunks, or as many as fit in
    ``_BATCH_BYTES`` at ``chunk_bytes`` each if that is fewer (always at
    least one); workers = min(threads, number of batches).
    """
    threads = max(1, threads)
    per_batch = min(-(-n_chunks // threads),
                    max(1, _BATCH_BYTES // chunk_bytes))
    batches = [(c0, min(c0 + per_batch, n_chunks))
               for c0 in range(0, n_chunks, per_batch)]
    return batches, min(threads, len(batches))


def _batch_job(u, psi0, cfg, edges, record_steps, reducers, dW_chunks):
    """The function that runs one batch (c0, c1) of the chunks and returns
    the (chunks, R, ...) sums of each (function, template sum) reducer, the
    global indices of its blown-up trajectories, its drifts and end states."""
    R = record_steps.size

    def run(batch):
        c0, c1 = batch
        lo, hi = edges[c0], edges[c1]
        rows = [(edges[c] - lo, edges[c + 1] - lo) for c in range(c0, c1)]
        sums = {name: np.empty((c1 - c0, R) + probe.shape, probe.dtype)
                for name, (_, probe) in reducers.items()}
        finals = np.empty((hi - lo, u.dim), dtype=complex)

        def on_record(r, psi):
            # every reducer sums each chunk at every record step, so that a
            # batch holds its per-chunk sums but never its states
            for c, (a, b) in enumerate(rows):
                for name, (reduce, _) in reducers.items():
                    sums[name][c, r] = reduce(psi[a:b])
            if r == R - 1:
                finals[:] = psi

        dW = None
        if dW_chunks is not None:
            dW = np.concatenate([dW_chunks[c] for c in range(c0, c1)])
        _, drifts, drift_means, status = _simulate(
            u, psi0, cfg, lo, hi - lo, record_steps, dW, on_record)
        return sums, lo + np.nonzero(status)[0], drifts, drift_means, finals

    return run


_worker_job = None      # the batch function a forked worker was started with


def _install_job(job):
    global _worker_job
    _worker_job = job


def _run_job(batch):
    return _worker_job(batch)


def _fork_pool(job, workers):
    """A pool of `workers` processes forked with `job` installed, or None
    where the platform cannot fork or this process, being a daemonic
    worker itself, may start none.  Fork hands the job over by copying the
    caller's memory: nothing is pickled but batch bounds and results, and
    nothing re-imports the caller's ``__main__``.  A worker that dies
    breaks the pool, which raises rather than waits."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_install_job, initargs=(job,))


def simulate_ensemble(u, psi0, cfg, n_trajectories, threads=1,
                      reducers=None, chunk_size=_DEFAULT_CHUNK,
                      dW_chunks=None, record_steps=None):
    """Monte Carlo estimate of rho_t = E|psi_t><psi_t| over the record grid.

    The result is bitwise independent of `threads`: trajectory i always uses
    the Philox stream keyed by (seed, i), chunk boundaries depend only on
    `chunk_size`, and per-chunk sums are reduced in chunk order.
    Execution batches of about ceil(n_chunks / threads) whole chunks run in
    up to `threads` forked worker processes, or in this process when
    `threads` is 1; they change how much runs per kernel call and where,
    but no trajectory's arithmetic.  A norm blow-up raises NormBlowupError
    naming every blown-up trajectory.

    reducers optionally maps a name to a function that takes a chunk's
    (rows, d) states and returns their sum, reduced like the projectors
    behind rho_hat; ``means[name]`` holds its (R, ...) ensemble mean.

    dW_chunks optionally supplies pregenerated increments per chunk (used by
    the step-size consistency checks to couple runs across dt levels);
    record_steps overrides the stride grid from cfg; it must be strictly
    increasing within [1, cfg.n_steps].
    """
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
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
    # plain einsum, which does not dispatch to BLAS, so a chunk's projector
    # sum is a pure function of its states and the same on every thread
    reducers["_projectors"] = lambda psi: np.einsum("bi,bj->ij", psi,
                                                    psi.conj())
    # one sum per reducer at psi0 fixes the shape and dtype of its sums
    reducers = {name: (reduce, np.asarray(reduce(psi0[None, :])))
                for name, reduce in reducers.items()}
    R = record_steps.size
    d = u.dim

    # chunk c holds trajectories [edges[c], edges[c+1])
    edges = list(range(0, n_trajectories, chunk_size)) + [n_trajectories]
    n_chunks = len(edges) - 1
    if dW_chunks is not None and len(dW_chunks) != n_chunks:
        raise ValueError("dW_chunks must match the chunk layout")
    block = min(kernels.STEP_BLOCK, cfg.n_steps)
    chunk_bytes = (chunk_size * (16 * d + 8 * block * u.noise_count)
                   + R * sum(probe.nbytes for _, probe in reducers.values()))
    batches, workers = _batch_layout(n_chunks, chunk_bytes, threads)
    job = _batch_job(u, psi0, cfg, edges, record_steps, reducers, dW_chunks)

    drifts = np.zeros(n_trajectories)
    drift_means = np.zeros(n_trajectories)
    finals = np.empty((n_trajectories, d), dtype=complex)
    totals = {name: np.zeros((R,) + probe.shape, probe.dtype)
              for name, (_, probe) in reducers.items()}
    blown = []
    pool = _fork_pool(job, workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        results = pool.map(_run_job, batches) if pool else map(job, batches)
        # batch order, then chunk order within each, whatever the worker count
        for (c0, c1), result in zip(batches, results):
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
                            std_error=std_error, seed=cfg.seed,
                            norm_drift_max=float(np.max(drifts)),
                            norm_drift=drifts, norm_drift_mean=drift_means,
                            final_states=finals, means=means)
