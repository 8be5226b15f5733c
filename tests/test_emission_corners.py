"""Tests for conducted-emission estimation and PVT corner analysis."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.circuit import dc_operating_point, transient
from repro.circuit.mosfet import DeviceVariation
from repro.circuits import (
    differential_pair,
    input_referred_offset_v,
    ring_oscillator,
    simple_current_mirror,
)
from repro.core import CornerAnalysis, Specification
from repro.emc import (
    AUTOMOTIVE_MASK,
    EmissionMask,
    amps_to_dbua,
    check_emissions,
    supply_current_spectrum,
    worst_emission_margin_db,
)


class TestEmissionMask:
    def test_interpolates_in_log_f(self):
        mask = EmissionMask(points=((1e6, 80.0), (100e6, 60.0)))
        assert mask.limit_dbua(1e6) == pytest.approx(80.0)
        assert mask.limit_dbua(100e6) == pytest.approx(60.0)
        assert mask.limit_dbua(10e6) == pytest.approx(70.0)

    def test_clamps_outside(self):
        mask = EmissionMask(points=((1e6, 80.0), (100e6, 60.0)))
        assert mask.limit_dbua(1e3) == pytest.approx(80.0)
        assert mask.limit_dbua(1e9) == pytest.approx(60.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmissionMask(points=((1e6, 80.0),))
        with pytest.raises(ValueError):
            EmissionMask(points=((1e6, 80.0), (1e6, 60.0)))
        with pytest.raises(ValueError):
            EmissionMask(points=((-1.0, 80.0), (1e6, 60.0)))

    def test_automotive_mask_tightens_with_frequency(self):
        assert (AUTOMOTIVE_MASK.limit_dbua(1e6)
                > AUTOMOTIVE_MASK.limit_dbua(100e6))


class TestAmpsToDbua:
    def test_one_microamp_is_zero(self):
        assert amps_to_dbua(1e-6) == pytest.approx(0.0)

    def test_one_milliamp(self):
        assert amps_to_dbua(1e-3) == pytest.approx(60.0)

    def test_zero_is_minus_inf(self):
        assert amps_to_dbua(0.0) == -math.inf


class TestCheckEmissions:
    def make_spectrum(self):
        freqs = np.array([0.0, 1e6, 10e6, 50e6])
        amps = np.array([1e-3, 5e-3, 1e-6, 1e-9])
        return freqs, amps

    def test_flags_violations_worst_first(self):
        mask = EmissionMask(points=((150e3, 60.0), (1e9, 60.0)))
        freqs, amps = self.make_spectrum()
        violations = check_emissions(freqs, amps, mask)
        # 5 mA at 1 MHz = 74 dBµA > 60; 1 µA = 0 dBµA passes.
        assert len(violations) == 1
        assert violations[0].frequency_hz == pytest.approx(1e6)
        assert violations[0].margin_db == pytest.approx(74.0 - 60.0, abs=0.1)

    def test_dc_ignored(self):
        mask = EmissionMask(points=((150e3, -100.0), (1e9, -100.0)))
        freqs = np.array([0.0, 1e6])
        amps = np.array([1.0, 1e-12])
        violations = check_emissions(freqs, amps, mask, floor_dbua=-200.0)
        assert all(v.frequency_hz != 0.0 for v in violations)

    def test_worst_margin_sign(self):
        mask = EmissionMask(points=((150e3, 60.0), (1e9, 60.0)))
        freqs, amps = self.make_spectrum()
        assert worst_emission_margin_db(freqs, amps, mask) > 0.0
        quiet = amps * 1e-6
        assert worst_emission_margin_db(freqs, quiet, mask) < 0.0

    def test_no_lines_in_band_raises(self):
        mask = EmissionMask(points=((1e8, 60.0), (1e9, 60.0)))
        with pytest.raises(ValueError):
            worst_emission_margin_db(np.array([0.0, 1e3]),
                                     np.array([1.0, 1.0]), mask)


class TestRingOscillatorEmission:
    def test_supply_spectrum_peaks_at_switching_products(self, tech90):
        """A ring oscillator pumps harmonics into its supply — the §4
        emission mechanism, measured from the simulated supply current."""
        fx = ring_oscillator(tech90, n_stages=3)
        result = transient(fx.circuit, t_stop=4e-9, dt=4e-12)
        freqs, amps = supply_current_spectrum(result, "vdd",
                                              settle_s=0.5e-9)
        from repro.circuits import oscillation_frequency

        f0 = oscillation_frequency(result.voltage("s0"), tech90.vdd / 2)
        # The supply current repeats every HALF oscillation period per
        # stage event pattern: dominant energy sits at n_stages·f0-ish
        # products; just require substantial in-band content well above
        # the numerical floor.
        band = (freqs > 0.5 * f0) & (freqs < 20.0 * f0)
        assert amps[band].max() > 1e-5
        # And a real verdict against the automotive mask is computable.
        margin = worst_emission_margin_db(freqs, amps, AUTOMOTIVE_MASK)
        assert math.isfinite(margin)


class TestTemperatureModel:
    def test_hot_device_carries_less_current(self, tech90):
        from dataclasses import replace

        from repro.circuit import Mosfet

        m = Mosfet.from_technology("m", "d", "g", "s", "b", tech90, "n",
                                   w_m=1e-6, l_m=0.09e-6)
        i_room = m.drain_current(0.8, 0.6, 0.0)
        m.params = replace(m.params, temperature_k=398.0)
        i_hot = m.drain_current(0.8, 0.6, 0.0)
        # Mobility loss dominates the V_T drop at this overdrive.
        assert i_hot < i_room

    def test_vt_drops_when_hot(self, tech90):
        from dataclasses import replace

        from repro.circuit import Mosfet

        m = Mosfet.from_technology("m", "d", "g", "s", "b", tech90, "n",
                                   w_m=1e-6, l_m=0.09e-6)
        vt_room = m._threshold(0.0)
        m.params = replace(m.params, temperature_k=398.0)
        assert m._threshold(0.0) == pytest.approx(vt_room - 0.098, abs=0.002)


class TestCornerAnalysis:
    def iout_spec(self, lower, upper):
        def iout(fixture):
            return -dc_operating_point(fixture.circuit).source_current("vout")

        return Specification("iout", iout, lower=lower, upper=upper)

    def test_matrix_size(self, tech90):
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=0.2e-6)
        spec = self.iout_spec(50e-6, 200e-6)
        analysis = CornerAnalysis(fx, [spec], tech90,
                                  vdd_scales=[0.9, 1.1],
                                  temperatures_k=[300.0, 398.0])
        result = analysis.run()
        assert len(result.points) == 5 * 2 * 2  # corners × V × T
        assert len(result.values["iout"]) == 20

    def test_generous_spec_passes_everywhere(self, tech90):
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=0.2e-6)
        spec = self.iout_spec(50e-6, 200e-6)
        result = CornerAnalysis(fx, [spec], tech90).run()
        assert result.all_pass(spec)

    def test_tight_spec_fails_at_some_corner(self, tech90):
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=0.2e-6)
        spec = self.iout_spec(99.5e-6, 100.5e-6)
        result = CornerAnalysis(fx, [spec], tech90).run()
        assert not result.all_pass(spec)
        label, value = result.worst_case(spec)
        assert not spec.passes(value)

    def test_fixture_restored(self, tech90):
        fx = simple_current_mirror(tech90, w_m=2e-6, l_m=0.2e-6)
        spec = self.iout_spec(50e-6, 200e-6)
        nominal = -dc_operating_point(fx.circuit).source_current("vout")
        CornerAnalysis(fx, [spec], tech90).run()
        restored = -dc_operating_point(fx.circuit).source_current("vout")
        assert restored == pytest.approx(nominal, rel=1e-9)
        assert fx.circuit["vdd"].spec.dc_value() == pytest.approx(tech90.vdd)

        # A hot die carrying mismatch keeps both through serial and
        # pooled runs: every PVT point evaluates on a private replica.
        pair = differential_pair(tech90)
        devices = pair.circuit.mosfets
        for device in devices:
            device.params = replace(device.params, temperature_k=358.15)
        devices[0].variation = DeviceVariation(delta_vt_v=0.01)
        offset = Specification("offset", input_referred_offset_v,
                               lower=-0.1, upper=0.1)
        analysis = CornerAnalysis(pair, [offset], tech90, vdd_scales=[1.0],
                                  temperatures_k=[300.0])
        for kwargs in ({}, {"jobs": 2, "backend": "thread"}):
            analysis.run(**kwargs)
            assert (devices[0].params.temperature_k,
                    devices[0].variation.delta_vt_v) == (358.15, 0.01)
            assert all(d.params.temperature_k == 358.15 for d in devices)
            assert pair.circuit["vdd"].spec.dc_value() == tech90.vdd

    def test_requires_specs_and_vdd(self, tech90):
        fx = simple_current_mirror(tech90)
        with pytest.raises(ValueError):
            CornerAnalysis(fx, [], tech90)
        spec = self.iout_spec(0.0, 1.0)
        with pytest.raises(TypeError):
            CornerAnalysis(fx, [spec], tech90, vdd_source_name="iref")
        with pytest.raises(ValueError, match="PVT matrix is empty"):
            CornerAnalysis(fx, [spec], tech90, vdd_scales=())


class TestIrDrop:
    def build(self, tech65):
        from repro.aging import InterconnectNetwork

        net = InterconnectNetwork(tech65.interconnect)
        net.wire("spine", "pad", "n1", width_m=1.0e-6, length_m=400e-6)
        net.wire("rib", "n1", "load", width_m=0.3e-6, length_m=150e-6)
        net.inject("load", -2e-3)
        net.set_ground("pad")
        return net

    def test_drop_grows_downstream(self, tech65):
        net = self.build(tech65)
        drops = net.ir_drop_report("pad")
        assert drops["load"] > drops["n1"] > 0.0

    def test_worst_node_is_the_load(self, tech65):
        net = self.build(tech65)
        node, drop = net.worst_ir_drop("pad")
        assert node == "load"
        # Sanity: drop equals I·R of the path.
        r_total = sum(seg.resistance_ohm for seg in net.segments)
        assert drop == pytest.approx(2e-3 * r_total, rel=1e-9)

    def test_unknown_supply_rejected(self, tech65):
        net = self.build(tech65)
        with pytest.raises(ValueError, match="unknown supply"):
            net.ir_drop_report("zz")
