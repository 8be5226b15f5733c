"""Corner analysis: the systematic (inter-die) side of §2 yield.

Intra-die mismatch is sampled by :class:`~repro.core.MonteCarloYield`;
the *systematic* component — wafer-to-wafer and lot-to-lot shifts — is
traditionally bounded by evaluating the design at the process corners
(TT/FF/SS/FS/SF), optionally crossed with supply and temperature
extremes (the full PVT matrix).  This engine runs a metric over that
matrix and reports the worst case per spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro import telemetry
from repro.circuit.elements import DcSpec, VoltageSource
from repro.circuits.references import CircuitFixture
from repro.core.ensemble import Chunk, EnsembleRun, merge_chunks
from repro.core.yield_analysis import QUARANTINE_ERRORS, Specification
from repro.parallel import FailureLedger, clone_fixture
from repro.technology.node import TechnologyNode
from repro.variability.sampler import ProcessCorner, standard_corners

MetricFn = Callable[[CircuitFixture], float]


@dataclass(frozen=True)
class PvtPoint:
    """One process/voltage/temperature combination."""

    corner: str
    vdd_scale: float
    temperature_k: float

    @property
    def label(self) -> str:
        """Compact identifier, e.g. ``SS/0.9V/398K``."""
        return f"{self.corner}/{self.vdd_scale:g}x/{self.temperature_k:g}K"


@dataclass
class CornerResult:
    """Metric values over the PVT matrix."""

    values: Dict[str, Dict[str, float]]
    """spec name → point label → value (NaN = failed evaluation)."""

    points: List[PvtPoint]

    ledger: FailureLedger = field(default_factory=FailureLedger)
    """Failed PVT evaluations with diagnostics.  Record ``index`` is the
    point's position in :attr:`points`; ``label`` is
    ``"<spec>@<point label>"``; solver failures carry their
    :class:`~repro.circuit.mna.ConvergenceReport`."""

    @property
    def is_degraded(self) -> bool:
        """Whether any PVT evaluation failed (its value is NaN)."""
        return bool(self.ledger)

    def worst_case(self, spec: Specification) -> tuple:
        """``(point_label, value)`` of the worst excursion for a spec.

        "Worst" = smallest margin to the nearest bound; NaN evaluations
        dominate (a corner you cannot evaluate is the worst corner).
        """
        per_point = self.values[spec.name]

        def margin(value: float) -> float:
            if math.isnan(value):
                return -math.inf
            margins = []
            if spec.lower is not None:
                margins.append(value - spec.lower)
            if spec.upper is not None:
                margins.append(spec.upper - value)
            return min(margins)

        label = min(per_point, key=lambda lbl: margin(per_point[lbl]))
        return label, per_point[label]

    def all_pass(self, spec: Specification) -> bool:
        """Whether the spec holds at EVERY PVT point."""
        return all(spec.passes(v) for v in self.values[spec.name].values())


class CornerAnalysis:
    """Runs metrics across corners × supply scales × temperatures."""

    def __init__(self, fixture: CircuitFixture, specs: Sequence[Specification],
                 tech: TechnologyNode,
                 vdd_source_name: str = "vdd",
                 corners: Optional[Dict[str, ProcessCorner]] = None,
                 vdd_scales: Sequence[float] = (0.9, 1.0, 1.1),
                 temperatures_k: Sequence[float] = (233.15, 300.0, 398.15)):
        if not specs:
            raise ValueError("at least one specification is required")
        self.fixture = fixture
        self.specs = list(specs)
        self.tech = tech
        self.vdd_source_name = vdd_source_name
        self.corners = corners if corners is not None else standard_corners(tech)
        self.vdd_scales = list(vdd_scales)
        self.temperatures_k = list(temperatures_k)
        if not (self.corners and self.vdd_scales and self.temperatures_k):
            raise ValueError("the PVT matrix is empty")
        source = fixture.circuit[vdd_source_name]
        if not isinstance(source, VoltageSource):
            raise TypeError(f"{vdd_source_name!r} is not a voltage source")

    @staticmethod
    def _set_temperature(circuit, temperature_k: float) -> None:
        for device in circuit.mosfets:
            # MosfetParams is frozen; swap a copy with the new temperature.
            device.params = replace(device.params,
                                    temperature_k=temperature_k)

    def _pvt_points(self) -> List[PvtPoint]:
        """The PVT matrix in its canonical (corner, vdd, T) nest order."""
        return [PvtPoint(corner=corner_name, vdd_scale=scale,
                         temperature_k=temperature)
                for corner_name in self.corners
                for scale in self.vdd_scales
                for temperature in self.temperatures_k]

    def _evaluate_point(self, chunk: Chunk) -> dict:
        """Evaluate every spec at one PVT point (one chunk) on a replica.

        Each point configures a private clone, so the caller's fixture
        is never mutated and evaluation order cannot leak from one point
        into the next.  Metric extraction has no randomness (the chunk
        seed is unused), so every backend gives identical values.
        Failed evaluations (non-convergence, timeouts, singular systems)
        become NaN and are quarantined in the returned ledger — one bad
        corner never aborts the matrix.
        """
        index = chunk.start
        point = self._pvt_points()[index]
        fixture = clone_fixture(self.fixture)
        circuit = fixture.circuit
        source = circuit[self.vdd_source_name]
        self.corners[point.corner].apply(circuit)
        source.spec = DcSpec(point.vdd_scale * source.spec.dc_value())
        self._set_temperature(circuit, point.temperature_k)
        values = {}
        ledger = FailureLedger()
        with telemetry.span("point", label=point.label):
            for spec in self.specs:
                with telemetry.span("analysis", spec=spec.name) as a_sp:
                    try:
                        values[spec.name] = float(spec.extractor(fixture))
                    except QUARANTINE_ERRORS as exc:
                        values[spec.name] = float("nan")
                        ledger.add(index, exc,
                                   label=f"{spec.name}@{point.label}")
                        a_sp.set(quarantined=type(exc).__name__)
        return {"values": values, "ledger": ledger}

    def _assemble(self, points: List[PvtPoint],
                  chunks: List[dict]) -> CornerResult:
        merged = merge_chunks(chunks, len(points))
        values: Dict[str, Dict[str, float]] = {s.name: {} for s in self.specs}
        for chunk in merged.chunks:
            label = points[chunk["start"]].label
            for name, value in chunk["values"].items():
                values[name][label] = value
        return CornerResult(values=values, points=points,
                            ledger=merged.ledger)

    def run(self, jobs: int = 1, backend: str = "auto") -> CornerResult:
        """Evaluate every spec at every PVT point.

        The matrix runs on :class:`~repro.core.ensemble.EnsembleRun`,
        one PVT point per chunk, each on a private fixture replica:
        the caller's fixture is never mutated, and ``jobs``/``backend``
        fan the points out over :class:`repro.parallel.ParallelMap`
        workers without changing any value.

        Degrades gracefully: a PVT point whose evaluation fails is NaN
        in :attr:`CornerResult.values` (and therefore the worst case for
        its spec) and carries a diagnostic record in
        :attr:`CornerResult.ledger`; the run always completes.
        """
        points = self._pvt_points()
        run = EnsembleRun(
            self._evaluate_point, kind="corner-matrix", counters="corners",
            id_prefix="p", n_samples=len(points), seed=0, chunk_size=1,
            jobs=jobs, backend=backend)
        return run.execute(
            lambda: run.stage(range(run.n_chunks)),
            lambda chunks, _partial: self._assemble(points, chunks))
