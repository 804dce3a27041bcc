"""Spans around the calls into each qunravel layer, and the per-layer metrics
derived from them.

The tracer replaces the module attributes that callers resolve at call time
(``kernels.simulate_chunk``, ``sde.simulate_ensemble``, ...) with wrappers
that record a span per call: name, start, end, parent, run id and thread,
plus a few counts taken from the arguments and the result.  Spans stay in
memory until the run ends.  Spans opened by pool threads, which have no
parent of their own, attach to the ``sde.simulate_ensemble`` span that
started the pool.
"""

import functools
import inspect
import threading
import time
from collections import defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "id name start end parent run thread info")

CHECK_KINDS = ("generator-identity", "ensemble-vs-exact",
               "unraveling-equivalence", "complete-positivity")


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals, so
    that children running at once on several threads count once."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            children[s.parent].append((max(s.start, parent.start),
                                       min(s.end, parent.end)))
    return {s.id: (s.end - s.start) - union_length(children[s.id])
            for s in spans}


# --- counts taken at the layer boundaries, from the call's named arguments
# and its result

def _kernel_counts(a, result):
    batch, steps, n_noise = np.shape(a["dW"])
    d = np.size(a["psi0"])
    traj_steps = batch * steps
    # Dense complex matvecs with K and the N rotated operators (8 d^2 real
    # flops each) plus the O(d N) expectation, drift, noise and norm updates.
    per_step = 8 * d * d * (n_noise + 1) + 16 * d * n_noise + 8 * d
    return {"traj_steps": traj_steps, "trajectories": batch,
            "flops": traj_steps * per_step,
            "dW_bytes": batch * steps * n_noise * 8,
            "blown": int(np.count_nonzero(result[3]))}


def _ensemble_counts(a, result):
    return {"projectors": int(a["n_trajectories"]) * len(result.times)}


def _superop_counts(a, result):
    model = next(iter(a.values()))      # a LindbladModel or a GKSForm
    return {"superop_dim": model.dim ** 2}


def _suite_counts(a, result):
    return {"checks": len(result), "ok": sum(bool(r.ok) for r in result)}


class _TimedGenerator:
    """A trajectory's Philox generator whose ``normal`` draws are spans."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self._tracer = tracer

    def normal(self, *args, **kwargs):
        return self._tracer.call("sde.rng_normal", self._generator.normal,
                                 args, kwargs,
                                 lambda result: {"normals": int(np.size(result))})

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Tracer:
    """Records spans around calls into qunravel while installed."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._ensemble = None
        self._patches = []
        self.missing = []    # boundaries this version of qunravel lacks

    def call(self, name, fn, args, kwargs, measure=None):
        """Run fn(*args, **kwargs) inside a span; measure(result), when
        given, returns the counts stored with the span."""
        with self._id_lock:
            self._next_id += 1
            sid = self._next_id
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._ensemble
        is_ensemble = name == "sde.simulate_ensemble"
        if is_ensemble:
            self._ensemble = sid
        stack.append(sid)
        info = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if is_ensemble:
                self._ensemble = None
            self.spans.append(Span(sid, name, start, end, parent, self.run,
                                   threading.get_ident(), info))
        if measure is not None:
            info.update(measure(result))
        return result

    def wrap(self, owner, attr, name, counts=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            measure = None
            if counts is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                measure = lambda result: counts(arguments, result)  # noqa: E731
            return self.call(name, original, args, kwargs, measure)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every traced layer boundary of the imported qunravel."""
        from qunravel import cli, hilbert, kernels, lindblad, sde, verify
        from qunravel.unraveling import Unraveling

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "parse_scenario", "scenario.parse_scenario")
        self.wrap(verify, "run_suite", "verify.run_suite", _suite_counts)
        for kind in CHECK_KINDS:
            attr = "check_" + kind.replace("-", "_")
            self.wrap(verify, attr, "verify." + kind)
        self.wrap(verify, "generator_term", "verify.generator_term")
        self.wrap(sde, "simulate_ensemble", "sde.simulate_ensemble",
                  _ensemble_counts)
        self.wrap(kernels, "simulate_chunk", "kernels.simulate_chunk",
                  _kernel_counts)
        self.wrap(lindblad, "propagate_exact", "lindblad.propagate_exact",
                  _superop_counts)
        self.wrap(lindblad, "choi_matrix", "lindblad.choi_matrix",
                  _superop_counts)
        self.wrap(lindblad, "gks_choi_matrix", "lindblad.gks_choi_matrix",
                  _superop_counts)
        self.wrap(hilbert, "trace_distance", "hilbert.trace_distance")
        self.wrap(Unraveling, "__init__", "unraveling.Unraveling")

        original_rng = getattr(sde, "trajectory_rng", None)
        if original_rng is None:
            self.missing.append("sde.trajectory_rng")
            return

        @functools.wraps(original_rng)
        def trajectory_rng(*args, **kwargs):
            return _TimedGenerator(original_rng(*args, **kwargs), self)

        sde.trajectory_rng = trajectory_rng
        self._patches.append((sde, "trajectory_rng", original_rng))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, bytes_written):
    """Per-layer metrics of one run (one workload iteration) from its spans.

    bytes_written is the size of the files the run's commands wrote.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def summed(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    def self_of(predicate):
        return sum(own[s.id] for s in spans if predicate(s.name))

    kernel = by_name["kernels.simulate_chunk"]
    k_busy = busy("kernels.simulate_chunk")
    k_span = union_length([(s.start, s.end) for s in kernel])
    k_steps = summed("kernels.simulate_chunk", "traj_steps")
    k_traj = summed("kernels.simulate_chunk", "trajectories")
    choi = ("lindblad.choi_matrix", "lindblad.gks_choi_matrix")
    superop = [s.info.get("superop_dim", 0)
               for n in ("lindblad.propagate_exact",) + choi for s in by_name[n]]
    metrics = {
        "kernels.calls": len(kernel),
        "kernels.busy_s": k_busy,
        "kernels.span_s": k_span,
        # per thread-second inside the kernel; busy_s sums over pool threads
        "kernels.msteps_per_s": k_steps / k_busy / 1e6 if k_busy else 0.0,
        "kernels.traj_steps": k_steps,
        "kernels.flops_computed": summed("kernels.simulate_chunk", "flops"),
        "kernels.dW_bytes_computed": summed("kernels.simulate_chunk", "dW_bytes"),
        "kernels.blowup_ratio": (summed("kernels.simulate_chunk", "blown") / k_traj
                                 if k_traj else 0.0),
        "sde.ensembles": len(by_name["sde.simulate_ensemble"]),
        "sde.busy_s": busy("sde.simulate_ensemble"),
        "sde.self_s": self_of(lambda n: n == "sde.simulate_ensemble"),
        "sde.rng_s": busy("sde.rng_normal"),
        "sde.rng_normals": summed("sde.rng_normal", "normals"),
        "sde.projectors_reduced": summed("sde.simulate_ensemble", "projectors"),
        "sde.thread_overlap": k_busy / k_span if k_span else 0.0,
        "lindblad.propagate_calls": len(by_name["lindblad.propagate_exact"]),
        "lindblad.propagate_s": busy("lindblad.propagate_exact"),
        "lindblad.choi_calls": sum(len(by_name[n]) for n in choi),
        "lindblad.choi_s": busy(*choi),
        "lindblad.superop_dim": max(superop, default=0),
        "verify.checks": summed("verify.run_suite", "checks"),
        "verify.checks_ok": summed("verify.run_suite", "ok"),
        "verify.self_s": self_of(lambda n: n.startswith("verify.")),
        "cli.self_s": self_of(lambda n: n == "cli.main"),
        "cli.bytes_written": bytes_written,
        "scenario.parse_s": busy("scenario.parse_scenario"),
        "unraveling.build_s": busy("unraveling.Unraveling"),
        "hilbert.trace_distance_calls": len(by_name["hilbert.trace_distance"]),
        "hilbert.trace_distance_s": busy("hilbert.trace_distance"),
    }
    for kind in CHECK_KINDS:
        metrics[f"verify.{kind}_s"] = busy("verify." + kind)
    return metrics
