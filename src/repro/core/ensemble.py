"""Chunked-ensemble driver shared by the Monte-Carlo and high-sigma engines.

Both yield engines evaluate a population of virtual dies in fixed-size
chunks, and each chunk is a pure function of (chunk bounds, chunk seed,
stage arguments).  :class:`EnsembleRun` owns everything around that
function, so the two engines share one evaluation contract:

* the chunk grid and its :func:`~repro.parallel.spawn_seed_sequences`
  seed streams — they depend on ``seed`` and ``chunk_size`` only, never
  on ``jobs``/``backend``, so parallel runs are bit-identical to serial
  ones;
* the ``run`` telemetry span, worker-telemetry merging, profile
  absorption and ``progress`` callbacks;
* checkpoint load / refuse / save: an atomic save after every completed
  chunk plus a final one, with a per-run metrics accumulator whose
  snapshot rides in the manifest (counters continue across resumes);
* the three exit paths — an expired budget (partial result, or
  :class:`~repro.checkpoint.RunInterrupted` with ``reason="budget"``
  when checkpointed), an interrupt (final checkpoint, then
  ``RunInterrupted``) and a crash (final checkpoint, then the original
  exception).

An engine supplies a chunk evaluator and an assembler, which starts
from :func:`merge_chunks`.  A run may have several *stages* on one chunk
grid (high-sigma: pilot, then main); every stage task carries its own
arguments, which keeps chunks pure even when a stage's arguments are
derived from earlier chunks.

Four ensembles run on the driver: Monte-Carlo yield, high-sigma yield,
the corner matrix (one PVT point per chunk) and the aging ensemble (one
die per chunk).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, TypeVar, \
    Union

import numpy as np

from repro import resilience, telemetry
from repro.checkpoint import CheckpointError, McCheckpointStore, RunInterrupted
from repro.parallel import (
    FailureLedger,
    FailureRecord,
    ParallelMap,
    chunk_ranges,
    spawn_seed_sequences,
)
from repro.resilience import BudgetExpiredError, DeadlineBudget

#: Samples per work chunk.  Part of the reproducibility contract: the
#: chunk grid (and hence the per-chunk seed streams) depends only on
#: this value, never on ``jobs`` — changing it changes the drawn
#: variates, changing ``jobs`` does not.
DEFAULT_CHUNK_SIZE = 32

R = TypeVar("R")


def accel_manifest(batch_size: Optional[int]) -> dict:
    """Accelerator configuration that affects bit-identity of results.

    Persisted in the checkpoint manifest so a ``--resume`` under a
    different configuration fails loudly (exit 2) instead of silently
    splicing chunks solved by different code paths.  The C kernel and
    the numpy stamping agree only to final-ulp rounding, the batched
    engines take different damped-iteration paths than the scalar
    ladder — close enough for physics, not for bit-identity.
    """
    from repro.circuit import _ckernel, mna
    from repro.circuit.mosfet import jacobian_mode

    return {
        "batch_size": batch_size,
        "ckernel": bool(_ckernel.available()),
        "sparse": bool(mna.sparse_available()),
        "sparse_min_size": int(mna.sparse_min_size()),
        "jacobians": jacobian_mode(),
    }


@dataclass(frozen=True)
class MergedChunks:
    """The bookkeeping every assembler shares (see :func:`merge_chunks`)."""

    chunks: List[dict]
    """The chunk payloads in ascending start order."""

    failure_counts: Dict[str, int]
    """Exception type name → quarantined evaluations it caused."""

    ledger: FailureLedger
    """Every chunk's records, run-level duplicates dropped, sorted."""

    evaluated: Optional[np.ndarray]
    """Per-sample mask of finished chunks for a partial run, else None."""


def merge_chunks(chunks: Iterable[dict], n_samples: int,
                 partial: bool = False) -> MergedChunks:
    """Merge completed chunk payloads in ascending start order.

    Ordering by start makes every assembled result independent of
    completion order — the property that makes parallel runs and
    checkpointed resumes bit-identical to serial, uninterrupted ones.
    """
    ordered = sorted(chunks, key=lambda c: c["start"])
    failure_counts: Dict[str, int] = {}
    ledger = FailureLedger()
    evaluated = np.zeros(n_samples, dtype=bool) if partial else None
    for chunk in ordered:
        if evaluated is not None:
            evaluated[chunk["start"]:chunk["stop"]] = True
        for name, count in chunk["failure_counts"].items():
            failure_counts[name] = failure_counts.get(name, 0) + count
        ledger.merge(FailureLedger.from_list(chunk["ledger"]))
    ledger.dedupe_run_level()
    ledger.sort()
    return MergedChunks(ordered, failure_counts, ledger, evaluated)


@dataclass(frozen=True)
class Chunk:
    """One unit of work as an evaluator sees it (worker side)."""

    start: int
    stop: int
    seed: np.random.SeedSequence
    budget: Optional[DeadlineBudget]
    """Run deadline; evaluators check it cooperatively between samples."""

    span: Any
    """The open ``chunk`` telemetry span (a no-op when telemetry is
    off); evaluators attach attributes with ``span.set``."""

    @property
    def size(self) -> int:
        """Samples in the chunk."""
        return self.stop - self.start


@dataclass(frozen=True)
class _Envelope:
    """Worker-side wrapper every chunk evaluation runs in (picklable).

    It opens a private :func:`~repro.telemetry.worker_session` (chunk
    and sample counters, queue wait, the ``chunk`` span), derives the
    chunk's failure counts from its ledger, drains resilience-supervisor
    events into that ledger and ships the telemetry export back with the
    results.  Under ``profile`` (process backend only — the parent's
    sampler cannot see this worker) the chunk also runs under a private
    :func:`~repro.obs.profiler.worker_profile` sampler whose stacks ride
    home under ``"profile"``.  Sampling only *reads* frames, so results
    are bit-identical with profiling or telemetry on or off.

    The evaluator returns a payload whose ``"ledger"`` is a
    :class:`~repro.parallel.FailureLedger`; the envelope adds the chunk
    bounds and ``failure_counts`` and serialises the ledger.
    """

    evaluate: Callable[..., dict]
    counters: str
    id_prefix: str
    trace: bool
    profile: bool

    def __call__(self, task: tuple) -> dict:
        if self.profile:
            from repro.obs.profiler import worker_profile

            with worker_profile(True) as prof:
                payload = replace(self, profile=False)(task)
            payload["profile"] = prof.snapshot()
            return payload
        (start, stop), seed, budget, t_enqueued, args = task
        with telemetry.worker_session(
                self.trace, f"{self.id_prefix}{start}.") as tsession:
            chunk_ctx = telemetry.NULL_SPAN
            if tsession is not None:
                queue_wait_s = max(0.0, time.time() - t_enqueued)
                tsession.metrics.inc(f"{self.counters}.chunks")
                tsession.metrics.inc(f"{self.counters}.samples", stop - start)
                tsession.metrics.observe("engine.queue_wait_s", queue_wait_s)
                chunk_ctx = tsession.tracer.span(
                    "chunk", start=start, stop=stop,
                    worker=telemetry.worker_label(),
                    queue_wait_s=round(queue_wait_s, 6))
            with chunk_ctx as span:
                payload = self.evaluate(
                    Chunk(start, stop, seed, budget, span), *args)
            ledger = payload["ledger"]
            payload["failure_counts"] = ledger.counts_by_type()
            resilience.supervisor().drain_into(ledger)
            payload.update(start=start, stop=stop, ledger=ledger.to_list())
            if tsession is not None:
                payload["telemetry"] = tsession.export()
            return payload


class EnsembleRun:
    """One chunked run of an engine's evaluator.

    ``evaluate(chunk, *stage_args)`` evaluates one :class:`Chunk`.
    ``kind`` names the run (``run`` span and checkpoint identity),
    ``counters`` prefixes the per-chunk ``.chunks``/``.samples``
    counters and ``id_prefix`` namespaces worker span ids.  The
    engine's ``run`` calls :meth:`execute` with a function that runs
    one or more :meth:`stage` calls.
    """

    def __init__(self, evaluate: Callable[..., dict], *, kind: str,
                 counters: str, id_prefix: str, n_samples: int, seed: int,
                 chunk_size: int, jobs: int, backend: str,
                 batch_size: Optional[int] = None,
                 budget: Optional[Union[float, DeadlineBudget]] = None,
                 progress: Optional[Callable[[dict], None]] = None,
                 **span_attrs: Any):
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1 (or None)")
        if budget is not None and not isinstance(budget, DeadlineBudget):
            budget = DeadlineBudget.after(budget)
        self.ranges = chunk_ranges(n_samples, chunk_size)
        self.seeds = spawn_seed_sequences(seed, len(self.ranges))
        self.mapper = ParallelMap(backend=backend, n_jobs=jobs)
        self.session = telemetry.active()
        self.budget = budget
        self.progress = progress
        self.completed: Dict[int, dict] = {}
        #: ``run`` span attributes; the checkpoint identity reuses them.
        self._attrs = dict(
            kind=kind, n_samples=n_samples, jobs=jobs, backend=backend,
            chunk_size=chunk_size, seed=seed, batch_size=batch_size,
            **span_attrs)
        # Chunk-level profiling only under the process backend: serial/
        # thread chunks run in this process, where the ambient sampler
        # already sees them — a second sampler would double-count.
        from repro.obs.profiler import active as profiler_active

        self._envelope = _Envelope(
            evaluate, counters, id_prefix, trace=self.session is not None,
            profile=(profiler_active() is not None
                     and self.mapper.backend == "process"))
        self._metrics = telemetry.MetricsRegistry()
        self._store: Optional[McCheckpointStore] = None
        self._params: dict = {}
        self._run_span_id: Optional[str] = None
        self._done = 0
        self._t_start = time.time()

    @property
    def n_chunks(self) -> int:
        """Chunks in the grid."""
        return len(self.ranges)

    def execute(self, stages: Callable[[], None],
                assemble: Callable[[List[dict], bool], R],
                identity: Optional[dict] = None, *,
                checkpoint: Optional[Union[str, Path]] = None,
                resume: bool = False) -> R:
        """Run ``stages`` under the run span and the shared exit paths.

        ``assemble(chunks, partial)`` turns the completed chunk payloads
        into the engine's result.  ``identity`` (needed only with a
        ``checkpoint``; must hold ``spec_names``, the checkpoint's array
        channels) joins seed, sample count and chunk size as the
        checkpoint identity a resume must match.
        """
        session = self.session
        run_ctx = telemetry.NULL_SPAN if session is None else \
            session.tracer.span("run", **self._attrs)
        with run_ctx as run_span:
            if session is not None:
                self._run_span_id = run_span.span_id
            if checkpoint is not None:
                self._open(Path(checkpoint), resume, identity)
            try:
                stages()
            except BudgetExpiredError as exc:
                self._save()
                partial = assemble(list(self.completed.values()), True)
                if self._store is not None:
                    raise RunInterrupted(
                        f"wall-clock budget expired with "
                        f"{self._progress_text()}",
                        checkpoint_path=self._store.path,
                        partial_result=partial, reason="budget") from exc
                # Deadline hit without a checkpoint: hand back whatever
                # finished, visibly degraded, instead of raising away
                # completed work.
                partial.ledger.records.append(FailureRecord(
                    index=-1, label="resilience:budget",
                    exception_type=type(exc).__name__, message=str(exc),
                    attempts=0, convergence_report=None))
                partial.ledger.dedupe_run_level()
                partial.ledger.sort()
                return partial
            except (KeyboardInterrupt, SystemExit) as exc:
                if self._store is None:
                    raise
                self._save()
                raise RunInterrupted(
                    f"run interrupted with {self._progress_text()}",
                    checkpoint_path=self._store.path,
                    partial_result=assemble(list(self.completed.values()),
                                            True)) from exc
            except BaseException:
                # Persist whatever finished before propagating the
                # failure — a crashed run resumes from its last good
                # chunk.
                self._save()
                raise
            self._save()
            return assemble(list(self.completed.values()), False)

    def stage(self, chunk_ids: Iterable[int], *args: Any) -> List[dict]:
        """Evaluate the listed chunks not completed yet (a resume may
        have restored some) as ``evaluate(chunk, *args)``.

        Returns every listed chunk's payload in chunk order.
        """
        chunk_ids = list(chunk_ids)
        pending = [cid for cid in chunk_ids if cid not in self.completed]
        t_enqueued = time.time()
        tasks = [(self.ranges[cid], self.seeds[cid], self.budget,
                  t_enqueued, args) for cid in pending]
        for index, payload in self.mapper.map_completed(
                self._envelope, tasks, deadline=self.budget):
            self._absorb(payload)
            self.completed[pending[index]] = payload
            self._save()
        return [self.completed[cid] for cid in chunk_ids]

    # -- internals -----------------------------------------------------
    def _open(self, path: Path, resume: bool, identity: dict) -> None:
        """Restore (``resume``) or refuse an existing checkpoint."""
        store = McCheckpointStore(path)
        attrs = self._attrs
        params = {"kind": attrs["kind"], "seed": attrs["seed"],
                  "n_samples": attrs["n_samples"],
                  "chunk_size": attrs["chunk_size"], **identity,
                  "accel": accel_manifest(attrs["batch_size"])}
        if resume:
            if not store.exists():
                raise CheckpointError(
                    f"resume requested but no checkpoint at {path}")
            self.completed, _ = store.load(params)
            restored = store.load_metrics()
            self._metrics.merge(restored)
            if self.session is not None:
                self.session.metrics.merge(restored)
            self._done = sum(c["stop"] - c["start"]
                             for c in self.completed.values())
        elif store.exists():
            # Refuse to silently clobber an existing checkpoint the
            # caller did not ask to resume.
            store.load(params)  # validates it is OUR run at least
            raise CheckpointError(
                f"checkpoint already exists at {path}; pass resume=True "
                f"to continue it or remove the directory")
        self._store, self._params = store, params

    def _save(self) -> None:
        if self._store is not None:
            self._store.save(self._params, self.completed,
                             metrics=self._metrics.snapshot())

    def _progress_text(self) -> str:
        return (f"{len(self.completed)}/{self.n_chunks} chunks complete; "
                f"checkpoint written to {self._store.path}")

    def _absorb(self, payload: dict) -> None:
        """Fold a finished chunk's observability payloads in.

        Telemetry and profile stacks are popped BEFORE the chunk reaches
        the store — traces are ephemeral, checkpoints are results.
        """
        worker = payload.pop("telemetry", None)
        if worker is not None:
            self._metrics.merge(worker.get("metrics"))
        if self.session is not None:
            self.session.merge_worker(worker, self._run_span_id)
        stacks = payload.pop("profile", None)
        if stacks:
            from repro.obs.profiler import active as profiler_active

            prof = profiler_active()
            if prof is not None:
                prof.absorb(stacks)
        self._done += payload["stop"] - payload["start"]
        if self.progress is not None:
            self.progress({"done": self._done,
                           "total": self._attrs["n_samples"],
                           "elapsed_s": time.time() - self._t_start})
