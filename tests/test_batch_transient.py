"""Lockstep batched transient vs the scalar integrator.

The contract under test (``repro.circuit.batch_transient``): every lane
of a batched integration lands on the same fixed output grid as the
scalar :func:`~repro.circuit.transient.transient` and agrees with it
within the batch/scalar Newton-agreement bound — with uniform lanes,
with per-die mismatch configurations, under LTE step control, and when
lanes are forced out of the batch onto the scalar fallback.  The same
seam is then checked end-to-end through ``MonteCarloYield`` and
``HighSigmaYield`` transient specs and the ``aging_ensemble(batch_size=)``
lockstep driver.
"""

import numpy as np
import pytest

from repro import faultinject, telemetry
from repro.aging import HciModel, NbtiModel
from repro.circuit import ConvergenceError, batched_transient, transient
from repro.circuits import (
    differential_pair,
    oscillation_frequency,
    ring_oscillator,
)
from repro.core import (
    HighSigmaYield,
    MissionProfile,
    MonteCarloYield,
    aging_ensemble,
    transient_specification,
)
from repro.variability.sampler import MismatchSampler
from repro.verify.differential import BATCH_AGREEMENT_FACTORS, batch_state_bound

#: Per-state agreement bound between the batched and scalar integrators.
#: Each accepted step re-converges both paths to the same companion
#: system within the Newton criterion; the differential pair's measured
#: sweep factor bounds the per-step gap with the same headroom.
_LANE_FACTOR = BATCH_AGREEMENT_FACTORS["differential_pair"]


def _assert_traces_close(result_batch, result_scalar):
    np.testing.assert_array_equal(result_batch.times, result_scalar.times)
    limit = batch_state_bound(result_scalar.states, _LANE_FACTOR)
    np.testing.assert_array_less(
        np.abs(result_batch.states - result_scalar.states), limit)


# ----------------------------------------------------------------------
# Agreement with the scalar integrator
# ----------------------------------------------------------------------
class TestBatchedTransientAgreement:
    def test_uniform_lanes_match_scalar(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        scalar = transient(fx.circuit, t_stop=0.5e-9, dt=5e-12)
        results = batched_transient(fx.circuit, 4, t_stop=0.5e-9, dt=5e-12)
        assert len(results) == 4
        for res in results:
            assert res.states.shape == scalar.states.shape
            _assert_traces_close(res, scalar)

    def test_mismatch_lanes_match_per_die_scalar(self, tech90):
        fx = differential_pair(tech90)
        devices = fx.circuit.mosfets
        sampler = MismatchSampler(tech90, np.random.default_rng(7))
        dies = []
        for _ in range(4):
            sampler.assign(fx.circuit)
            dies.append([m.variation for m in devices])

        def configure(lane):
            for m, v in zip(devices, dies[lane]):
                m.variation = v

        results = batched_transient(fx.circuit, 4, t_stop=1e-9, dt=2e-11,
                                    configure=configure)
        for lane in range(4):
            configure(lane)
            scalar = transient(fx.circuit, t_stop=1e-9, dt=2e-11)
            _assert_traces_close(results[lane], scalar)
        sampler.clear(fx.circuit)

    def test_lte_controlled_grid_matches_scalar(self, tech90):
        # Step halving is internal: the output grid must stay fixed and
        # the answers must track the scalar integrator run with the
        # same LTE control.
        fx = ring_oscillator(tech90, n_stages=3)
        scalar = transient(fx.circuit, t_stop=0.4e-9, dt=1e-11,
                           lte_rtol=5e-3)
        results = batched_transient(fx.circuit, 3, t_stop=0.4e-9, dt=1e-11,
                                    lte_rtol=5e-3)
        for res in results:
            _assert_traces_close(res, scalar)

    def test_waveform_metric_agreement(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        scalar = transient(fx.circuit, t_stop=2.5e-9, dt=5e-12)
        f_ref = oscillation_frequency(scalar.voltage("s0"), tech90.vdd / 2)
        results = batched_transient(fx.circuit, 2, t_stop=2.5e-9, dt=5e-12)
        for res in results:
            f = oscillation_frequency(res.voltage("s0"), tech90.vdd / 2)
            assert f == pytest.approx(f_ref, rel=1e-6)


# ----------------------------------------------------------------------
# Validation and routing
# ----------------------------------------------------------------------
class TestValidation:
    def test_nonpositive_lanes_rejected(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        with pytest.raises(ValueError, match="n_lanes"):
            batched_transient(fx.circuit, 0, t_stop=1e-10, dt=1e-11)

    def test_non_batchable_circuit_rejected(self, tech90):
        from repro.circuit import Circuit

        ckt = Circuit("diode-rc")
        ckt.voltage_source("vin", "a", "0", 1.0)
        ckt.resistor("r1", "a", "b", 1e3)
        ckt.diode("d1", "b", "0")
        with pytest.raises(TypeError, match="non-MOSFET"):
            batched_transient(ckt, 2, t_stop=1e-10, dt=1e-11)

    def test_bad_grid_rejected(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        with pytest.raises(ValueError):
            batched_transient(fx.circuit, 2, t_stop=-1e-9, dt=1e-11)
        with pytest.raises(ValueError):
            batched_transient(fx.circuit, 2, t_stop=1e-9, dt=0.0)


# ----------------------------------------------------------------------
# Forced fallback, quarantine and telemetry
# ----------------------------------------------------------------------
class TestFallbackAndTelemetry:
    def test_forced_lane_fallback_matches_scalar(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        scalar = transient(fx.circuit, t_stop=0.3e-9, dt=5e-12)
        faultinject.force_batch_lane_fallback(fx.circuit, [1])
        try:
            with telemetry.session() as sess:
                results = batched_transient(fx.circuit, 3, t_stop=0.3e-9,
                                            dt=5e-12)
            assert sess.metrics.counter(
                "solver.transient.batch.fallback_lanes") == 1
            span = next(r for r in sess.tracer.export_records()
                        if r["name"] == "solve.transient.batch")
            assert span["attrs"]["lanes"] == 3
            assert span["attrs"]["fallback_lanes"] == 1
            # The straggler re-ran through the scalar integrator — the
            # nested scalar span proves the fallback path executed.
            names = [r["name"] for r in sess.tracer.export_records()]
            assert "solve.transient" in names
        finally:
            faultinject.clear_batch_lane_fallback(fx.circuit)
        for res in results:
            _assert_traces_close(res, scalar)

    def test_quarantine_returns_errors_list(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        faultinject.force_batch_lane_fallback(fx.circuit, [0])
        try:
            results, errors = batched_transient(
                fx.circuit, 2, t_stop=0.2e-9, dt=5e-12, quarantine=True)
        finally:
            faultinject.clear_batch_lane_fallback(fx.circuit)
        assert len(results) == 2 and len(errors) == 2
        assert all(r is not None for r in results)
        assert all(e is None for e in errors)

    def test_poisoned_circuit_raises_convergence_error(self, tech90):
        # A die that cannot bias anywhere surfaces the scalar ladder's
        # ConvergenceError from the t=0 operating point, batch or not.
        fx = ring_oscillator(tech90, n_stages=3)
        faultinject.force_nonconvergence(fx.circuit,
                                         fx.circuit.mosfets[0].name)
        with pytest.raises(ConvergenceError):
            batched_transient(fx.circuit, 2, t_stop=0.1e-9, dt=5e-12)

    def test_batch_span_counters(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        with telemetry.session() as sess:
            batched_transient(fx.circuit, 4, t_stop=0.2e-9, dt=5e-12)
        assert sess.metrics.counter("solver.transient.batch.solves") == 1
        assert sess.metrics.counter("solver.transient.batch.lanes") == 4
        assert sess.metrics.counter("solver.transient.batch.steps") == 40
        assert sess.metrics.counter(
            "solver.transient.batch.fallback_lanes") == 0


# ----------------------------------------------------------------------
# Monte-Carlo seam: transient specs with batch_size=
# ----------------------------------------------------------------------
def _swing_metric(result, fixture):
    wave = result.voltage(fixture.nodes["stage1"])
    return float(wave.peak() - wave.trough())


class TestMonteCarloTransientBatch:
    def _mc(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        spec = transient_specification(
            "swing", _swing_metric, t_stop_s=0.3e-9, dt_s=5e-12,
            lower=0.5 * tech90.vdd)
        return MonteCarloYield(fx, [spec], tech90)

    def test_batched_transient_mc_matches_scalar(self, tech90):
        mc = self._mc(tech90)
        scalar = mc.run(n_samples=6, seed=3)
        batched = mc.run(n_samples=6, seed=3, batch_size=4)
        np.testing.assert_array_equal(scalar.passes, batched.passes)
        np.testing.assert_allclose(batched.values["swing"],
                                   scalar.values["swing"],
                                   rtol=0, atol=1e-6)
        assert scalar.yield_fraction == batched.yield_fraction

    def test_batched_transient_mc_emits_batch_spans(self, tech90):
        mc = self._mc(tech90)
        with telemetry.session() as sess:
            mc.run(n_samples=4, seed=1, batch_size=4)
        names = [r["name"] for r in sess.tracer.export_records()]
        assert "solve.transient.batch" in names
        assert sess.metrics.counter("solver.transient.batch.solves") > 0


class TestHighSigmaTransientBatch:
    def test_batched_transient_highsigma_matches_scalar(self, tech90):
        # The shifted draws are evaluation-independent, so the weights
        # match exactly; the solved swings agree within Newton tolerance.
        fx = ring_oscillator(tech90, n_stages=3)
        spec = transient_specification(
            "swing", _swing_metric, t_stop_s=0.3e-9, dt_s=5e-12,
            lower=0.5 * tech90.vdd)
        engine = HighSigmaYield(fx, spec, tech90)
        kwargs = dict(shift_sigma=3.0, seed=2, chunk_size=4, adapt=False,
                      surrogate=None)
        scalar = engine.run(8, **kwargs)
        with telemetry.session() as sess:
            batched = engine.run(8, batch_size=3, **kwargs)
        assert sess.metrics.counter("solver.transient.batch.solves") == 4
        np.testing.assert_array_equal(scalar.weights, batched.weights)
        np.testing.assert_array_equal(scalar.fails, batched.fails)
        np.testing.assert_allclose(batched.values, scalar.values,
                                   rtol=0, atol=1e-6)


# ----------------------------------------------------------------------
# Aging seam: lockstep epochs with batch_size=
# ----------------------------------------------------------------------
def _ring_freq_metric(fixture):
    res = transient(fixture.circuit, t_stop=1.2e-9, dt=5e-12)
    vdd = fixture.circuit["vdd"].spec.dc_value()
    return oscillation_frequency(res.voltage("s0"), vdd / 2)


class TestAgingEnsembleBatch:
    def _profile(self):
        return MissionProfile(n_epochs=2, duration_s=1e6,
                              t_first_epoch_s=1e3,
                              stress_mode="transient",
                              transient_t_stop_s=0.6e-9,
                              transient_dt_s=1e-11)

    def test_batched_aging_matches_scalar(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        mechanisms = [NbtiModel(tech90.aging), HciModel(tech90.aging)]
        metrics = {"freq": _ring_freq_metric}
        scalar = aging_ensemble(fx, mechanisms, self._profile(), metrics,
                                tech90, n_samples=3, seed=2)
        batched = aging_ensemble(fx, mechanisms, self._profile(), metrics,
                                 tech90, n_samples=3, seed=2, batch_size=2)
        assert len(batched) == len(scalar) == 3
        for rep_b, rep_s in zip(batched, scalar):
            np.testing.assert_array_equal(rep_b.times_s, rep_s.times_s)
            # Identical per-die variates; the extracted stresses (and
            # hence ΔVt trajectories) agree within solver tolerance.
            np.testing.assert_allclose(rep_b.metrics["freq"],
                                       rep_s.metrics["freq"], rtol=1e-4)
            for name, traj in rep_s.device_delta_vt_v.items():
                np.testing.assert_allclose(
                    rep_b.device_delta_vt_v[name], traj,
                    rtol=1e-4, atol=1e-9)

    def test_batch_size_validation(self, tech90):
        fx = ring_oscillator(tech90, n_stages=3)
        mechanisms = [NbtiModel(tech90.aging)]
        metrics = {"freq": _ring_freq_metric}
        with pytest.raises(ValueError, match="at least 1"):
            aging_ensemble(fx, mechanisms, self._profile(), metrics,
                           tech90, n_samples=2, batch_size=0)
        dc_profile = MissionProfile(n_epochs=2, duration_s=1e6,
                                    t_first_epoch_s=1e3)
        with pytest.raises(ValueError, match="stress_mode"):
            aging_ensemble(fx, mechanisms, dc_profile, metrics,
                           tech90, n_samples=2, batch_size=2)
        with pytest.raises(ValueError, match="jobs=1"):
            aging_ensemble(fx, mechanisms, self._profile(), metrics,
                           tech90, n_samples=2, batch_size=2, jobs=2)
