"""Spans and counters around the program's layers, installed from outside.

Every wrapper replaces a public function where its caller looks the name
up (a module global such as ``smc2.smc2.run_pf``, or a class attribute such
as ``Communicator.all_reduce_sum``), and `Tracer.restore` puts the original
back.  A wrapper records only in a thread that has bound a `Recorder`, so
the rank threads of an in-process group each fill their own recorder, and
a forked rank fills the copy it inherited and returns its totals with the
worker's result.

A span keeps per name: calls, wall seconds, CPU seconds of the calling
thread, and self wall/CPU seconds (minus the spans opened inside it).  A
name already open in the same thread is not counted again, so nested calls
that share a layer name (``lkernel_log_density`` reaching
``_gaussian_log_density_chol``) count once.  CPU time is what a busy
metric reads: rank threads of an in-process group share one CPU, and wall
spans of one rank would include the other ranks' turns.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

_bound = threading.local()


class Recorder:
    """Span totals and counts of one rank (one thread)."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}
        self.counts: Counter = Counter()
        self._open: set[str] = set()
        self._stack: list[list[float]] = []

    def totals(self) -> dict:
        """Plain-data copy, safe to pickle back from a forked rank."""
        keys = ("calls", "wall", "cpu", "self_wall", "self_cpu")
        return {
            "spans": {name: dict(zip(keys, vals)) for name, vals in self.spans.items()},
            "counts": dict(self.counts),
        }


def bind(recorder: Recorder | None) -> None:
    """Make `recorder` the current thread's recorder (None stops recording)."""
    _bound.recorder = recorder


def current() -> Recorder | None:
    return getattr(_bound, "recorder", None)


def open_span(rec: Recorder, name: str):
    """Start a span by hand; pass the token to `close_span`."""
    if name in rec._open:
        return None
    rec._open.add(name)
    frame = [0.0, 0.0]
    rec._stack.append(frame)
    return name, frame, time.perf_counter(), time.thread_time()


def close_span(rec: Recorder, token) -> float:
    """End a span; returns its wall seconds (0 for a nested repeat)."""
    if token is None:
        return 0.0
    name, frame, w0, c0 = token
    wall = time.perf_counter() - w0
    cpu = time.thread_time() - c0
    rec._stack.pop()
    rec._open.discard(name)
    if rec._stack:
        rec._stack[-1][0] += wall
        rec._stack[-1][1] += cpu
    tot = rec.spans.get(name)
    if tot is None:
        tot = rec.spans[name] = [0, 0.0, 0.0, 0.0, 0.0]
    tot[0] += 1
    tot[1] += wall
    tot[2] += cpu
    tot[3] += wall - frame[0]
    tot[4] += cpu - frame[1]
    return wall


def spanned(name: str, fn, after=None):
    """`fn` wrapped in a span; `after(rec, args, result)` may add counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = getattr(_bound, "recorder", None)
        if rec is None:
            return fn(*args, **kwargs)
        token = open_span(rec, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(rec, token)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def count_only(fn, after):
    """`fn` wrapped with a count only: `after(rec, args, result)`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        rec = getattr(_bound, "recorder", None)
        if rec is not None:
            after(rec, args, result)
        return result

    return wrapper


class Tracer:
    """Installs wrappers on (owner, attribute) pairs and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# The program's layers.

COLLECTIVES = ("all_reduce_sum", "all_reduce_max", "exclusive_scan_with_total",
               "exclusive_scan_sum", "broadcast", "exchange_at_distance")
WEIGHT_STATS = ("normalize", "recycling_weight", "estimate", "ess", "weight_update")


def _count(key):
    def after(rec, args, result):
        rec.counts[key] += 1
    return after


def _count_pf_step(rec, args, result):
    # pf_step(cloud, y_t, theta, model, config, rng)
    rec.counts["pf.particle_steps"] += args[4].n_particles


def _count_out_of_support(rec, args, result):
    if result == float("-inf") and "smc2.run" in rec._open:
        rec.counts["smc2.out_of_support"] += 1


def _count_message(rec, args, result):
    rec.counts["comms.messages"] += 1
    rec.counts["comms.bytes"] += len(result)


def install_layers(tracer: Tracer, model_class) -> None:
    """Wrap every layer the samplers reach; `model_class` is the model's type."""
    import smc2.comms
    import smc2.pf
    import smc2.pmcmc
    import smc2.rng
    import smc2.smc2 as outer

    for module in (outer, smc2.pmcmc):
        tracer.install(module, "run_pf",
                       lambda f: spanned("pf.run_pf", f, _count("pf.calls")))
    tracer.install(smc2.pf, "pf_step", lambda f: count_only(f, _count_pf_step))
    tracer.install(smc2.pf, "multinomial_resample",
                   lambda f: count_only(f, _count("pf.resample_events")))

    if "sample_transition" in model_class.__dict__:
        tracer.install(model_class, "sample_transition",
                       lambda f: spanned("ssm.transition", f))
    if "observation_log_density" in model_class.__dict__:
        tracer.install(model_class, "observation_log_density",
                       lambda f: spanned("ssm.obs_density", f))
    tracer.install(model_class, "log_prior", lambda f: count_only(f, _count_out_of_support))

    tracer.install(smc2.rng, "stream",
                   lambda f: spanned("rng.stream", f, _count("rng.streams")))

    tracer.install(outer, "propose", lambda f: spanned("smc2.propose", f))
    tracer.install(outer, "fit_gaussian_joint", lambda f: spanned("smc2.lkernel_fit", f))
    for attr in ("lkernel_log_density", "_gaussian_log_density_chol"):
        tracer.install(outer, attr, lambda f: spanned("smc2.lkernel_density", f))
    for attr in WEIGHT_STATS:
        tracer.install(outer, attr, lambda f: spanned("smc2.weight_stats", f))
    tracer.install(outer, "systematic_choice",
                   lambda f: spanned("resample.choice", f, _count("resample.events")))
    tracer.install(outer, "parallel_redistribute",
                   lambda f: spanned("resample.redistribute", f))

    for attr in COLLECTIVES:
        tracer.install(smc2.comms.Communicator, attr,
                       lambda f: spanned("comms.collective", f))
    tracer.install(smc2.comms, "pack_payload",
                   lambda f: spanned("comms.codec", f, _count_message))
    tracer.install(smc2.comms, "unpack_payload", lambda f: spanned("comms.codec", f))
