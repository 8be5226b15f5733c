"""Monte-Carlo yield estimation (paper §2 / §5 intro).

"Yield can be described as the proportion of fabricated circuits which
meet the design specifications once the production process has been
completed."  The engine samples intra-die mismatch (and optionally LER)
with :class:`repro.variability.MismatchSampler`, evaluates user
specifications on each virtual die, and reports the pass fraction with a
Wilson confidence interval.

Example::

    fx = differential_pair(tech)
    spec = Specification("offset", lambda f: input_referred_offset_v(f),
                         lower=-5e-3, upper=5e-3)
    result = MonteCarloYield(fx, [spec], tech).run(n_samples=500, seed=1)
    print(result.yield_fraction, result.wilson_interval())
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import resilience, telemetry
from repro.circuit.batch import batched_sweeps, can_batch
from repro.circuit.dc import warm_start
from repro.circuit.mna import ConvergenceError, SingularCircuitError
from repro.circuit.transient import TransientResult, transient
from repro.circuits.references import CircuitFixture
from repro.core.ensemble import (
    DEFAULT_CHUNK_SIZE,
    Chunk,
    EnsembleRun,
    merge_chunks,
)
from repro.faultinject import WorkerKilledError, set_current_sample
from repro.parallel import (
    FailureLedger,
    RetryPolicy,
    SampleTimeoutError,
    call_resilient,
    clone_fixture,
)
from repro.resilience import DeadlineBudget
from repro.technology.node import TechnologyNode
from repro.variability.sampler import MismatchSampler, Placement

#: Exception types that mean "this die could not be evaluated" — they
#: are recorded as NaN (and counted) rather than aborting the run.
EXPECTED_EVALUATION_ERRORS = (ConvergenceError, SingularCircuitError,
                              ValueError)

#: The full quarantine set: expected evaluation failures plus the
#: resilience-layer outcomes (timeout, simulated worker death).
QUARANTINE_ERRORS = EXPECTED_EVALUATION_ERRORS + (SampleTimeoutError,
                                                  WorkerKilledError)


class SampleEvaluationError(RuntimeError):
    """An *unexpected* exception escaped a spec extractor.

    Convergence failures are part of normal Monte-Carlo life and become
    NaN samples; anything else (a bug in the extractor, a typo'd node
    name) is re-raised wrapped with the global sample index so the
    failing die can be reproduced in isolation.
    """

    def __init__(self, sample_index: int, spec_name: str,
                 original: BaseException):
        super().__init__(
            f"sample {sample_index} failed evaluating spec {spec_name!r}: "
            f"{type(original).__name__}: {original}")
        self.sample_index = sample_index
        self.spec_name = spec_name
        self.original = original

    def __reduce__(self):
        # The three-arg __init__ defeats default exception pickling;
        # rebuild from the constructor arguments (process-pool workers
        # must be able to ship this back to the parent).
        return type(self), (self.sample_index, self.spec_name, self.original)


@dataclass(frozen=True)
class Specification:
    """One pass/fail criterion on a scalar circuit metric."""

    name: str
    extractor: Callable[[CircuitFixture], float]
    """Maps the (variation-laden) fixture to the metric value."""

    lower: Optional[float] = None
    """Lower acceptance bound (None = unbounded)."""

    upper: Optional[float] = None
    """Upper acceptance bound (None = unbounded)."""

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ValueError(f"spec {self.name!r} has no bounds")
        if (self.lower is not None and self.upper is not None
                and self.lower >= self.upper):
            raise ValueError(f"spec {self.name!r}: lower >= upper")

    def passes(self, value: float) -> bool:
        """Whether ``value`` meets the spec (non-finite always fails)."""
        if not math.isfinite(value):
            return False
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True


@dataclass(frozen=True)
class _TransientExtractor:
    """Picklable scalar-path extractor of a :class:`TransientSpecification`.

    A plain dataclass (not a closure) so the ``process`` backend can
    ship chunks containing transient specs to workers.
    """

    metric: Callable[[TransientResult, CircuitFixture], float]
    t_stop_s: float
    dt_s: float
    method: str
    lte_rtol: Optional[float]

    def __call__(self, fixture: CircuitFixture) -> float:
        result = transient(fixture.circuit, self.t_stop_s, self.dt_s,
                           method=self.method, lte_rtol=self.lte_rtol)
        return float(self.metric(result, fixture))


@dataclass(frozen=True)
class TransientSpecification(Specification):
    """A pass/fail criterion computed from a transient record.

    The metric maps ``(TransientResult, fixture) → float``; the scalar
    path runs one :func:`~repro.circuit.transient.transient` per die,
    while ``MonteCarloYield(batch_size=)`` advances the dies of each
    chunk in lockstep through the batched integrator
    (:func:`~repro.circuit.batch_transient.batched_transient`) — the
    transient-dominated analogue of the batched DC sweep.  Build with
    :func:`transient_specification`.
    """

    t_stop_s: float = 0.0
    dt_s: float = 0.0
    method: str = "trapezoidal"
    lte_rtol: Optional[float] = None
    metric: Optional[Callable[[TransientResult, CircuitFixture], float]] \
        = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.metric is None:
            raise ValueError(
                f"spec {self.name!r}: use transient_specification() to "
                f"build a TransientSpecification (metric is required)")
        if self.t_stop_s <= 0.0 or self.dt_s <= 0.0:
            raise ValueError(
                f"spec {self.name!r}: t_stop_s and dt_s must be positive")


def transient_specification(
        name: str,
        metric: Callable[[TransientResult, CircuitFixture], float],
        *, t_stop_s: float, dt_s: float, method: str = "trapezoidal",
        lte_rtol: Optional[float] = None,
        lower: Optional[float] = None,
        upper: Optional[float] = None) -> TransientSpecification:
    """Build a :class:`TransientSpecification` (extractor derived)."""
    extractor = _TransientExtractor(metric, t_stop_s, dt_s, method,
                                    lte_rtol)
    return TransientSpecification(name, extractor, lower, upper,
                                  t_stop_s=t_stop_s, dt_s=dt_s,
                                  method=method, lte_rtol=lte_rtol,
                                  metric=metric)


def evaluate_transient_lanes(fixture: CircuitFixture,
                             specs: Sequence[TransientSpecification],
                             chunk: Chunk, lanes: Sequence[int],
                             configure: Callable[[int], None],
                             values: Dict[str, np.ndarray],
                             ledger: FailureLedger, batch_size: int,
                             where: str) -> None:
    """Samples-as-lanes lockstep transient over a chunk's ``lanes``.

    ``configure(k)`` loads chunk sample ``k``'s devices into the
    fixture.  Per slab of up to ``batch_size`` samples (re-admitted
    under the memory ceiling with the ``(B, steps+1, n)`` state history
    included; ``where`` labels the admission), each spec's transient
    advances the slab in lockstep through
    :func:`~repro.circuit.batch_transient.batched_transient` and its
    metric fills ``values[spec.name][k]``.  Lanes the batch cannot
    carry fall back to the scalar integrator; samples whose fallback or
    metric fails are quarantined as NaN in ``ledger`` with full
    diagnostics, and an unexpected metric error raises
    :class:`SampleEvaluationError`.  A RetryPolicy is not consulted on
    this path.  The deadline is checked before every slab.
    """
    from repro.circuit.batch_transient import batched_transient

    circuit = fixture.circuit
    max_steps = max(max(1, int(round(s.t_stop_s / s.dt_s))) for s in specs)
    batch_size = resilience.admit_lanes(
        batch_size, circuit.n_unknowns, n_steps=max_steps, where=where)
    lanes = [int(k) for k in lanes]
    for pos in range(0, len(lanes), batch_size):
        slab = lanes[pos:pos + batch_size]
        if chunk.budget is not None:
            chunk.budget.check("sample %d" % (chunk.start + slab[0]))
        for spec in specs:
            results, errors = batched_transient(
                circuit, len(slab), spec.t_stop_s, spec.dt_s,
                configure=lambda j: configure(slab[j]), method=spec.method,
                lte_rtol=spec.lte_rtol, quarantine=True)
            for j, k in enumerate(slab):
                index = chunk.start + k
                set_current_sample(index)
                value = float("nan")
                if errors[j] is not None:
                    ledger.add(index, errors[j], label=spec.name)
                else:
                    configure(k)
                    try:
                        value = float(spec.metric(results[j], fixture))
                    except QUARANTINE_ERRORS as exc:
                        ledger.add(index, exc, label=spec.name)
                    except Exception as exc:
                        raise SampleEvaluationError(
                            index, spec.name, exc) from exc
                values[spec.name][k] = value


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class YieldResult:
    """Outcome of a Monte-Carlo yield run."""

    n_samples: int
    values: Dict[str, np.ndarray]
    """Spec name → sampled metric values (NaN = evaluation failed)."""

    passes: np.ndarray
    """Per-sample overall pass flags."""

    spec_passes: Dict[str, np.ndarray] = field(default_factory=dict)
    """Spec name → per-sample pass flags."""

    failure_counts: Dict[str, int] = field(default_factory=dict)
    """Exception type name → number of NaN samples it caused."""

    ledger: FailureLedger = field(default_factory=FailureLedger)
    """Quarantined evaluations with full diagnostics (sample index,
    exception, solver :class:`~repro.circuit.mna.ConvergenceReport`)."""

    evaluated: Optional[np.ndarray] = None
    """Per-sample evaluation mask; ``None`` means every sample ran.
    Partial (interrupted) results mark unevaluated samples False."""

    @property
    def yield_fraction(self) -> float:
        """Estimated yield (all specs met)."""
        return float(np.mean(self.passes))

    @property
    def n_evaluated(self) -> int:
        """Samples actually evaluated (== ``n_samples`` unless partial)."""
        if self.evaluated is None:
            return self.n_samples
        return int(np.sum(self.evaluated))

    @property
    def n_quarantined(self) -> int:
        """Samples with at least one quarantined evaluation."""
        return len(self.ledger.quarantined_indices())

    @property
    def is_degraded(self) -> bool:
        """Whether the run completed with quarantined or missing samples."""
        return bool(self.ledger) or self.n_evaluated < self.n_samples

    def spec_yield(self, name: str) -> float:
        """Per-spec yield (other specs ignored)."""
        return float(np.mean(self.spec_passes[name]))

    def wilson_interval(self, z: float = 1.96) -> tuple:
        """Confidence interval on the overall yield."""
        return wilson_interval(int(np.sum(self.passes)), self.n_samples, z)

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Yield CI, widened for unresolved (quarantined/missing) samples.

        A die the harness could not evaluate is *unknown*, not known-
        bad: the point estimate counts it as a failure (conservative),
        but the interval must admit both extremes.  The lower bound
        treats every unresolved sample as failing, the upper bound as
        passing — so the interval widens by exactly the unresolved
        mass, degrading gracefully instead of lying confidently.
        """
        successes = int(np.sum(self.passes))
        unresolved = set(self.ledger.quarantined_indices())
        if self.evaluated is not None:
            unresolved.update(np.flatnonzero(~self.evaluated).tolist())
        n_unresolved = len(unresolved)
        lo = wilson_interval(successes, self.n_samples, z)[0]
        hi = wilson_interval(min(successes + n_unresolved, self.n_samples),
                             self.n_samples, z)[1]
        return lo, hi

    def sigma(self, name: str) -> float:
        """Standard deviation of a metric across good evaluations."""
        vals = self.values[name]
        finite = vals[np.isfinite(vals)]
        if finite.size < 2:
            raise ValueError(f"not enough valid samples for {name!r}")
        return float(np.std(finite, ddof=1))

    def mean(self, name: str) -> float:
        """Mean of a metric across good evaluations."""
        vals = self.values[name]
        finite = vals[np.isfinite(vals)]
        if finite.size == 0:
            raise ValueError(f"no valid samples for {name!r}")
        return float(np.mean(finite))


class MonteCarloYield:
    """Monte-Carlo yield engine over intra-die variability."""

    def __init__(self, fixture: CircuitFixture, specs: List[Specification],
                 tech: TechnologyNode,
                 placements: Optional[Dict[str, Placement]] = None,
                 include_ler: bool = False):
        if not specs:
            raise ValueError("at least one specification is required")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate specification names")
        self.fixture = fixture
        self.specs = list(specs)
        self.tech = tech
        self.placements = placements
        self.include_ler = include_ler

    def _evaluate_chunk(self, chunk: Chunk, retry: Optional[RetryPolicy],
                        batch_size: Optional[int]) -> dict:
        """Evaluate one chunk of samples on a private fixture replica.

        The chunk is fully self-contained: it clones the fixture, seeds
        its own sampler from the chunk's ``SeedSequence`` child and
        warm-starts Newton from a fresh state, so the result depends
        only on (chunk bounds, chunk seed) — not on the worker that ran
        it or on any other chunk.  That is what makes ``jobs=N``
        bit-identical to ``jobs=1`` and checkpointed resumes
        bit-identical to uninterrupted runs.

        Failures in :data:`QUARANTINE_ERRORS` become NaN samples with a
        :class:`~repro.parallel.FailureRecord` (carrying the solver's
        convergence report); a configured :class:`RetryPolicy` retries
        each evaluation with timeout/backoff before quarantining.

        ``batch_size`` (when set) evaluates the chunk under
        :func:`~repro.circuit.batch.batched_sweeps`: every ``dc_sweep``
        a spec extractor performs solves its points as lanes of one
        batched Newton ensemble.  The sampler draw order is untouched —
        variates are bit-identical to a scalar run — and the solved
        metrics agree within Newton tolerance.  All-transient spec sets
        advance the chunk's dies as lanes instead
        (:func:`evaluate_transient_lanes`).
        """
        n = chunk.size
        fixture = clone_fixture(self.fixture)
        circuit = fixture.circuit
        rng = np.random.default_rng(chunk.seed)
        sampler = MismatchSampler(self.tech, rng, include_ler=self.include_ler)
        values = {s.name: np.full(n, np.nan) for s in self.specs}
        ledger = FailureLedger()
        if batch_size:
            # Resource guard: shrink the slab so its (B, n, n) stacks
            # fit the memory ceiling.  Slab partitioning does not
            # change per-die math, so results are unaffected.
            circuit.compile()
            batch_size = resilience.admit_lanes(
                min(batch_size, n), circuit.n_unknowns, where="mc-chunk")
        try:
            if (batch_size
                    and all(isinstance(s, TransientSpecification)
                            for s in self.specs)
                    and can_batch(circuit)
                    and resilience.allows("batch")):
                chunk.span.set(batched="transient")
                # Every die's variation first, in die order (the same
                # sampler calls as the scalar loop, so the variates are
                # bit-identical), then the dies advance as lanes.
                devices = circuit.mosfets
                variations = []
                for k in range(n):
                    set_current_sample(chunk.start + k)
                    sampler.assign(circuit, self.placements)
                    variations.append([m.variation for m in devices])

                def configure(k: int) -> None:
                    for m, v in zip(devices, variations[k]):
                        m.variation = v

                evaluate_transient_lanes(
                    fixture, self.specs, chunk, range(n), configure,
                    values, ledger, batch_size, where="mc-transient-chunk")
            else:
                self._evaluate_scalar(chunk, fixture, sampler, retry,
                                      batch_size, values, ledger)
        finally:
            set_current_sample(None)
        spec_passes = {s.name: np.array([s.passes(v) for v in values[s.name]],
                                        dtype=bool)
                       for s in self.specs}
        passes = np.logical_and.reduce(list(spec_passes.values()))
        return {"values": values, "spec_passes": spec_passes,
                "passes": passes, "ledger": ledger}

    def _evaluate_scalar(self, chunk: Chunk, fixture: CircuitFixture,
                         sampler: MismatchSampler,
                         retry: Optional[RetryPolicy],
                         batch_size: Optional[int],
                         values: Dict[str, np.ndarray],
                         ledger: FailureLedger) -> None:
        """One die at a time: assign its variation, run every spec."""
        circuit = fixture.circuit
        # The resilient wrapper only engages when the policy does
        # something; otherwise evaluation stays a direct call.
        direct = retry is None or (retry.max_attempts == 1
                                   and retry.timeout_s is None)
        attempts = 1 if direct else retry.max_attempts
        tsession = telemetry.active()
        sweep_ctx = batched_sweeps(batch_size) if batch_size else \
            telemetry.NULL_SPAN
        with warm_start(circuit), sweep_ctx:
            for k in range(chunk.size):
                index = chunk.start + k
                if chunk.budget is not None:
                    chunk.budget.check("sample %d" % index)
                set_current_sample(index)
                t_sample = time.perf_counter()
                with telemetry.span("sample", index=index):
                    sampler.assign(circuit, self.placements)
                    for spec in self.specs:
                        with telemetry.span("analysis",
                                            spec=spec.name) as a_sp:
                            try:
                                if direct:
                                    value = float(spec.extractor(fixture))
                                else:
                                    value = call_resilient(
                                        lambda _s=spec:
                                        float(_s.extractor(fixture)),
                                        retry, retry_on=QUARANTINE_ERRORS)
                            except QUARANTINE_ERRORS as exc:
                                value = float("nan")
                                ledger.add(index, exc, label=spec.name,
                                           attempts=attempts)
                                a_sp.set(quarantined=type(exc).__name__)
                            except Exception as exc:
                                raise SampleEvaluationError(
                                    index, spec.name, exc) from exc
                        values[spec.name][k] = value
                if tsession is not None:
                    tsession.metrics.observe(
                        "engine.sample_duration_s",
                        time.perf_counter() - t_sample)

    def _assemble(self, n_samples: int, chunks: List[dict],
                  partial: bool = False) -> YieldResult:
        """Combine chunk payloads into a :class:`YieldResult`."""
        merged = merge_chunks(chunks, n_samples, partial)
        values = {s.name: np.full(n_samples, np.nan) for s in self.specs}
        spec_passes = {s.name: np.zeros(n_samples, dtype=bool)
                       for s in self.specs}
        passes = np.zeros(n_samples, dtype=bool)
        for chunk in merged.chunks:
            sl = slice(chunk["start"], chunk["stop"])
            for name in values:
                values[name][sl] = chunk["values"][name]
                spec_passes[name][sl] = chunk["spec_passes"][name]
            passes[sl] = chunk["passes"]
        return YieldResult(n_samples=n_samples, values=values,
                           passes=passes, spec_passes=spec_passes,
                           failure_counts=merged.failure_counts,
                           ledger=merged.ledger, evaluated=merged.evaluated)

    def run(self, n_samples: int, seed: int = 0, jobs: int = 1,
            backend: str = "auto",
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            retry: Optional[RetryPolicy] = None,
            checkpoint: Optional[Union[str, Path]] = None,
            resume: bool = False,
            progress: Optional[Callable[[dict], None]] = None,
            batch_size: Optional[int] = None,
            budget: Optional[Union[float, DeadlineBudget]] = None
            ) -> YieldResult:
        """Sample ``n_samples`` virtual dies and evaluate every spec.

        A sample whose evaluation does not converge is recorded as NaN
        and counted as a FAIL (a die you cannot verify is a die you
        cannot ship); :attr:`YieldResult.failure_counts` records which
        exception type caused each NaN and :attr:`YieldResult.ledger`
        quarantines it with full solver diagnostics.  The fixture
        itself is never mutated — every chunk of ``chunk_size`` samples
        runs on a private replica with its own ``SeedSequence.spawn``
        child, so results are bit-identical for any ``jobs``/``backend``
        choice (``chunk_size`` and ``seed`` are the reproducibility
        knobs).

        ``retry`` arms bounded per-evaluation retry with timeout and
        backoff (see :class:`~repro.parallel.RetryPolicy`); persistent
        failures are quarantined, never fatal.

        ``checkpoint``, ``resume``, ``progress`` and ``budget`` follow
        the ensemble contract shared with the high-sigma engine (see
        :mod:`repro.core.ensemble`): every completed chunk is persisted
        atomically; ``resume=True`` restores an existing checkpoint's
        chunks and evaluates only the remainder, bit-identical to an
        uninterrupted run under the same seed; an interrupt writes a
        final checkpoint and raises
        :class:`~repro.checkpoint.RunInterrupted` carrying the partial
        result.  ``progress`` is invoked after every
        completed chunk with ``{"done", "total", "elapsed_s"}``.  With
        an active :func:`telemetry.session <repro.telemetry.session>`
        each chunk's telemetry is merged under the ``run`` span;
        neither feature perturbs the sampled values.

        ``batch_size`` (when set) evaluates each chunk under
        :func:`~repro.circuit.batch.batched_sweeps`: every ``dc_sweep``
        a spec extractor performs solves up to ``batch_size`` sweep
        points as lanes of one batched Newton ensemble instead of
        point-by-point.  Sampler draws are untouched (variates stay
        bit-identical for the same ``seed``/``chunk_size``), and solved
        metrics agree with a scalar run within Newton tolerance — the
        per-die pass/fail verdicts match.  Composes with any
        ``jobs``/``backend`` choice.

        ``budget`` (seconds, or a prepared
        :class:`~repro.resilience.DeadlineBudget`) bounds the run's
        wall clock.  Workers check the deadline cooperatively between
        samples and the pool wait enforces it coercively (hung process
        workers are terminated).  A checkpointed run that hits the
        deadline writes a final checkpoint and raises
        :class:`~repro.checkpoint.RunInterrupted` with
        ``reason="budget"`` — its resume is bit-identical to an
        uninterrupted run; a non-checkpointed run returns the partial
        :class:`YieldResult` (``evaluated`` marks what finished, and
        the result reports itself degraded).
        """
        run = EnsembleRun(
            self._evaluate_chunk, kind="mc-yield", counters="engine",
            id_prefix="c", n_samples=n_samples, seed=seed,
            chunk_size=chunk_size, jobs=jobs, backend=backend,
            batch_size=batch_size, budget=budget, progress=progress)
        return run.execute(
            lambda: run.stage(range(run.n_chunks), retry, batch_size),
            lambda chunks, partial: self._assemble(n_samples, chunks,
                                                   partial),
            {"spec_names": [s.name for s in self.specs]},
            checkpoint=checkpoint, resume=resume)
