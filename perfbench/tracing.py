"""The traced run: spans around each layer's public calls, recorded from
the benchmark's own code.

:class:`Tracer` keeps spans in memory (name, start, end, parent span,
run or request id) and :func:`instrument` swaps wrapped versions of the
layer entry points into every ``repro`` module that holds them, for the
duration of a ``with`` block.  Nothing inside the program changes.

Pool workers of the ``process`` backend are separate processes: spans
they record stay there, so the parallel layer is seen from the parent
side only.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from stats import self_times

#: Span name -> the per-layer self-time metric it feeds.
SELF_METRICS = {
    "circuit.dc": "circuit.dc.self_s",
    "circuit.refresh": "circuit.refresh.self_s",
    "circuit.transient": "circuit.transient.self_s",
    "circuit.batch.dc": "circuit.batch.dc.self_s",
    "circuit.batch.transient": "circuit.batch.transient.self_s",
    "variability.assign": "variability.assign.self_s",
    "core.mc": "core.mc.self_s",
    "core.importance": "core.importance.self_s",
    "parallel.map": "parallel.map.self_s",
    "checkpoint.save": "checkpoint.save.self_s",
    "report.render": "report.render.self_s",
    "obs.record_run": "obs.record_run.self_s",
    "serve.jobspec": "serve.jobspec.self_s",
    "serve.cache.get": "serve.cache.get.self_s",
    "serve.session.lease": "serve.session.lease_wait_s",
    "serve.execute": "serve.execute.self_s",
}

#: Span name -> per-layer metric taken as total (not self) duration.
TOTAL_METRICS = {
    "core.surrogate.fit": "core.surrogate.fit_s",
    "parallel.wait": "parallel.wait_s",
}

#: Span name -> per-layer metric counting its calls.
CALL_METRICS = {
    "variability.assign": "variability.assign.calls",
    "checkpoint.save": "checkpoint.save.calls",
}

#: Modules imported before instrumenting, so that every module-level
#: ``from x import f`` copy of a wrapped function already exists and
#: gets swapped too.
PRELOAD = (
    "repro.cli", "repro.core", "repro.circuits", "repro.circuit.batch",
    "repro.circuit.batch_transient", "repro.checkpoint", "repro.report",
    "repro.obs.runlog", "repro.parallel", "repro.serve",
    "repro.variability",
)


class Tracer:
    """In-memory span recorder; per-thread parent stacks."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, rid]
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}
        self.records: List[dict] = []
        self.jobs: List[tuple] = []  # (cache key, t_submit, t_end)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        rid = getattr(self._local, "rid", None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, rid])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextlib.contextmanager
    def request(self, rid: Optional[str]):
        """Tag spans opened by this thread with a run or request id."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def layer_times(self) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        rows = [(s[0], s[1], s[2], s[3]) for s in self.spans]
        selfs = self_times(rows)
        out = {metric: 0.0 for metric in SELF_METRICS.values()}
        out.update({metric: 0.0 for metric in TOTAL_METRICS.values()})
        out.update({metric: 0 for metric in CALL_METRICS.values()})
        for (name, start, end, _parent), own in zip(rows, selfs):
            if name in SELF_METRICS:
                out[SELF_METRICS[name]] += own
            if name in TOTAL_METRICS:
                out[TOTAL_METRICS[name]] += end - start
            if name in CALL_METRICS:
                out[CALL_METRICS[name]] += 1
        return out

    def write(self, path) -> int:
        """Write the spans as gzip'd JSON lines; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, (name, start, end, parent, rid) in \
                    enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "rid": rid}) + "\n")
        return len(self.spans)


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _inline(mapper, items) -> bool:
    """True when ParallelMap runs the items in the calling thread (the
    serial path), where there is no parallel layer to measure."""
    return (mapper.backend == "serial" or mapper.n_jobs == 1
            or len(items) <= 1)


class _Patches:
    """Swaps attributes and restores them on exit."""

    def __init__(self):
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Replace ``original`` in every loaded ``repro`` module."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points named in the benchmark's doc page."""
    from importlib import import_module as mod

    for name in PRELOAD:
        mod(name)
    # Modules by their full names: some packages re-export a function
    # under its module's name (``repro.circuit.transient``).
    checkpoint, parallel, report = (mod("repro.checkpoint"),
                                    mod("repro.parallel"),
                                    mod("repro.report"))
    batch, batch_transient, dc, mosfet, transient = (
        mod(f"repro.circuit.{name}") for name in
        ("batch", "batch_transient", "dc", "mosfet", "transient"))
    importance = mod("repro.core.importance")
    yield_analysis = mod("repro.core.yield_analysis")
    runlog = mod("repro.obs.runlog")
    cache, jobs, jobspec = (mod(f"repro.serve.{name}") for name in
                            ("cache", "jobs", "jobspec"))
    sampler = mod("repro.variability.sampler")

    patches = _Patches()
    functions = [
        (dc.dc_operating_point, "circuit.dc"),
        (dc.dc_sweep, "circuit.dc"),
        (transient.transient, "circuit.transient"),
        (batch.batched_dc_sweep, "circuit.batch.dc"),
        (batch_transient.batched_transient, "circuit.batch.transient"),
        (jobspec.parse_job_spec, "serve.jobspec"),
        (jobspec.cache_key, "serve.jobspec"),
    ]
    functions += [(fn, "report.render") for attr, fn in vars(report).items()
                  if attr.startswith("render_")
                  and getattr(fn, "__module__", None) == report.__name__]
    methods = [
        (mosfet.MosfetGroup, "refresh", "circuit.refresh"),
        (sampler.MismatchSampler, "assign", "variability.assign"),
        (yield_analysis.MonteCarloYield, "run", "core.mc"),
        (importance.HighSigmaYield, "run", "core.importance"),
        (checkpoint.McCheckpointStore, "save", "checkpoint.save"),
        (cache.ResultCache, "get", "serve.cache.get"),
        (cache.ResultCache, "put", "serve.cache.put"),
    ]
    try:
        for fn, span_name in functions:
            patches.everywhere(fn, _wrap(tracer, span_name, fn))
        for owner, attr, span_name in methods:
            patches.set(owner, attr,
                        _wrap(tracer, span_name, getattr(owner, attr)))
        _instrument_special(tracer, patches, importance, parallel, runlog,
                            cache, jobs)
        yield tracer
    finally:
        patches.restore()


def _instrument_special(tracer, patches, importance, parallel, runlog,
                        cache, jobs) -> None:
    """Wrappers that need more than a span around one call."""
    fit = importance.Surrogate.__dict__["fit"].__func__
    patches.set(importance.Surrogate, "fit",
                classmethod(_wrap(tracer, "core.surrogate.fit", fit)))

    original_record = runlog.record_run

    @functools.wraps(original_record)
    def record_run(*args, **kwargs):
        with tracer.span("obs.record_run"):
            record = original_record(*args, **kwargs)
        if record is not None:
            tracer.records.append(record)
        return record

    patches.everywhere(original_record, record_run)
    patches.set(parallel, "wait",
                _wrap(tracer, "parallel.wait", parallel.wait))

    map_items = parallel.ParallelMap.map

    def traced_map(self, fn, items):
        items = list(items)
        if _inline(self, items):
            return map_items(self, fn, items)
        tracer.count("parallel.tasks", len(items))
        with tracer.span("parallel.map"):
            return map_items(self, fn, items)

    map_completed = parallel.ParallelMap.map_completed

    def traced_map_completed(self, fn, items, deadline=None):
        # A generator: only the time spent inside each ``next`` belongs
        # to the parallel layer; the caller's loop body runs between.
        items = list(items)
        if _inline(self, items):
            yield from map_completed(self, fn, items, deadline)
            return
        tracer.count("parallel.tasks", len(items))
        inner = map_completed(self, fn, items, deadline)
        try:
            while True:
                index = tracer.open("parallel.map")
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item
        finally:
            inner.close()

    patches.set(parallel.ParallelMap, "map", traced_map)
    patches.set(parallel.ParallelMap, "map_completed", traced_map_completed)

    lease = cache.EngineSessionCache.lease

    @contextlib.contextmanager
    def traced_lease(self, key, build, shared=False):
        # The lease span covers acquiring the session; building a
        # missing one is its own child span, so the lease span's self
        # time is the wait for other holders.
        manager = lease(self, key, _wrap(tracer, "serve.session.build",
                                         build), shared=shared)
        index = tracer.open("serve.session.lease")
        try:
            value = manager.__enter__()
        finally:
            tracer.close(index)
        try:
            yield value
        except BaseException:
            if not manager.__exit__(*sys.exc_info()):
                raise
        else:
            manager.__exit__(None, None, None)

    patches.set(cache.EngineSessionCache, "lease", traced_lease)

    execute = jobs.JobRunner.execute

    def traced_execute(self, job):
        tracer.sample("serve.queue.wait", time.time() - job.t_submit)
        with tracer.request(job.id), tracer.span("serve.execute"):
            execute(self, job)
        tracer.jobs.append((job.cache_key, job.t_submit, job.t_end))

    patches.set(jobs.JobRunner, "execute", traced_execute)


def dup_fraction(jobs: List[tuple]) -> float:
    """Share of computations whose cache key was already being computed
    (submitted and not yet finished) when they were submitted."""
    if not jobs:
        return 0.0
    dups = 0
    for i, (key, submit, _end) in enumerate(jobs):
        if any(j != i and other_key == key and other_submit <= submit
               < other_end and (other_submit, j) < (submit, i)
               for j, (other_key, other_submit, other_end)
               in enumerate(jobs)):
            dups += 1
    return dups / len(jobs)
