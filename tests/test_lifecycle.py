import numpy as np
import pytest

from evomarket.diffusion import AdoptionCurve, BassParams, bass_ode
from evomarket.lifecycle import (
    WaveParams,
    multiple_sales,
    replacement_sales,
    total_sales,
    wave_sales,
)

STEP = 0.1


def impulse(n, index=0, value=1.0):
    out = np.zeros(n)
    out[index] = value
    return out


class TestReplacementSales:
    def test_delta_impulse_single_echo(self):
        out = replacement_sales(impulse(200), STEP, 0.3, 9.2, echoes=1)
        expected = np.zeros(200)
        expected[92] = 0.3
        assert np.array_equal(out, expected)

    def test_zero_fraction(self):
        out = replacement_sales(impulse(100), STEP, 0.0, 5.0, echoes=3)
        assert np.all(out == 0.0)

    def test_geometric_echo_decay(self):
        out = replacement_sales(impulse(200), STEP, 0.5, 5.0, echoes=3)
        expected = np.zeros(200)
        expected[50] = 0.5
        expected[100] = 0.25
        expected[150] = 0.125
        assert np.allclose(out, expected, atol=1e-15)
        assert np.count_nonzero(out) == 3

    def test_linearity(self, rng):
        a = rng.uniform(0.0, 1.0, 300)
        b = rng.uniform(0.0, 1.0, 300)

        def op(series):
            return replacement_sales(series, STEP, 0.4, 6.0, echoes=2)

        assert np.max(np.abs(op(a + b) - (op(a) + op(b)))) < 1e-12
        assert np.max(np.abs(op(2.5 * a) - 2.5 * op(a))) < 1e-12

    @staticmethod
    def _padded_source():
        # zero at both ends so trapezoid sums see no boundary jump
        params = BassParams(innovation=0.02, imitation=2.5, plateau=0.18)
        curve = bass_ode(params, horizon=15.0, step=STEP)
        padded = np.zeros(400)
        padded[10 : 10 + curve.rate.size] = curve.rate
        padded[10] = 0.0
        return padded

    def test_delta_mass_balance(self):
        padded = self._padded_source()
        replaced = replacement_sales(padded, STEP, 0.3, 5.0, echoes=1)
        source_mass = np.trapezoid(padded, dx=STEP)
        replaced_mass = np.trapezoid(replaced, dx=STEP)
        assert replaced_mass == pytest.approx(0.3 * source_mass, rel=1e-9)

    def test_nonnegative_output(self, rng):
        series = rng.uniform(0.0, 1.0, 200)
        assert np.all(replacement_sales(series, STEP, 0.7, 4.0, 2) >= 0.0)


class TestMultipleSales:
    def test_pointwise_product(self):
        out = multiple_sales(np.array([0.5]), 0.06)
        assert out[0] == pytest.approx(0.03)

    def test_zero_rate(self):
        assert np.all(multiple_sales(np.linspace(0, 1, 11), 0.0) == 0.0)

    def test_constant_installed_base(self):
        plateau = 0.18
        out = multiple_sales(np.full(50, plateau), 0.06)
        assert np.allclose(out, 0.06 * plateau)

    def test_linearity_in_rate_scaling(self, rng):
        n = rng.uniform(0.0, 1.0, 100)
        assert np.allclose(multiple_sales(n, 0.5), 0.5 * multiple_sales(n, 1.0))

    def test_out_of_range_penetration_rejected(self):
        with pytest.raises(ValueError):
            multiple_sales(np.array([1.2]), 0.1)


class TestWaveSales:
    def setup_method(self):
        params = BassParams(innovation=0.02, imitation=2.5, plateau=0.18)
        self.curve = bass_ode(params, horizon=25.0, step=STEP)

    def test_bare_first_purchase(self):
        wave = WaveParams(multiple_rate=0.0, replacement_fraction=0.0)
        assert np.array_equal(wave_sales(self.curve, wave), self.curve.rate)

    def test_impulse_composition(self):
        times = STEP * np.arange(200)
        curve = AdoptionCurve(times, np.zeros(200), impulse(200))
        wave = WaveParams(
            multiple_rate=0.0,
            replacement_fraction=0.3,
            lifetime=9.2,
        )
        out = wave_sales(curve, wave)
        assert out[0] == pytest.approx(1.0)
        assert out[92] == pytest.approx(0.3)
        assert np.count_nonzero(out) == 2

    def test_bw_tv_peak_spacing(self):
        wave = WaveParams(
            multiple_rate=0.06,
            replacement_fraction=0.3,
            lifetime=9.2,
        )
        out = wave_sales(self.curve, wave, echoes=2)
        interior = (out[1:-1] > out[:-2]) & (out[1:-1] > out[2:])
        peaks = self.curve.times[1:-1][interior]
        spacings = np.diff(peaks)
        assert len(peaks) >= 3
        assert np.all(np.abs(spacings - 9.2) < 0.2)


class TestTotalSales:
    def test_zero_evolutionary_wave(self):
        bass = np.array([1.0, 2.0, 3.0])
        out = total_sales(bass, np.zeros(3), STEP, shift=0.0)
        assert np.array_equal(out, bass)

    def test_plain_sum_without_shift(self):
        out = total_sales(np.ones(4), 2 * np.ones(4), STEP, shift=0.0)
        assert np.array_equal(out, 3 * np.ones(4))

    def test_shift_placement_and_padding(self):
        out = total_sales(impulse(5), impulse(5), STEP, shift=0.3)
        assert out[0] == 1.0
        assert out[3] == 1.0
        assert out.size == 8

    def test_fax_installed_base_structure(self):
        # high industrial multiple purchase, no replacement on either wave
        params = BassParams(innovation=0.01, imitation=2.2, plateau=0.02)
        curve = bass_ode(params, horizon=20.0, step=STEP)
        wave = WaveParams(multiple_rate=2.5, replacement_fraction=0.0)
        out = wave_sales(curve, wave)
        # sales settle at the multiple-purchase level of the installed base
        assert out[-1] == pytest.approx(2.5 * 0.02, rel=1e-3)
        assert out[-1] > curve.rate[-1] * 100


class TestWaveParams:
    def test_replacement_needs_failure_model(self):
        with pytest.raises(ValueError):
            WaveParams(multiple_rate=0.0, replacement_fraction=0.3, lifetime=None)
