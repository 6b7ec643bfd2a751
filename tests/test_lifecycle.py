import numpy as np
import pytest

from evomarket.diffusion import BassParams, bass_penetration, bass_rate
from evomarket.lifecycle import WaveParams, total_sales, wave_sales

BW_TV = BassParams(innovation=0.02, imitation=2.5, plateau=0.18)


def none(t):
    return np.zeros_like(t)


def impulse(t):
    return np.where(t == 0, 1.0, 0.0)


def bass_pen(t):
    return bass_penetration(t, BW_TV)


def bass(t):
    return bass_rate(t, BW_TV)


class TestWaveSales:
    def test_bare_first_purchase(self):
        t = 0.1 * np.arange(251)
        wave = WaveParams(multiple_rate=0.0, replacement_fraction=0.0)
        assert np.array_equal(wave_sales(t, bass_pen(t), bass, wave), bass(t))

    def test_geometric_echo_decay(self):
        # whole tenths, so t - k * lifetime is exactly 0 where echo k starts
        t = np.arange(200) / 10
        wave = WaveParams(replacement_fraction=0.5, lifetime=5.0)
        out = wave_sales(t, none(t), impulse, wave, echoes=3)
        expected = np.zeros(200)
        expected[[0, 50, 100, 150]] = [1.0, 0.5, 0.25, 0.125]
        assert np.array_equal(out, expected)

    def test_linearity_in_the_rate(self):
        t = 0.1 * np.arange(301)
        wave = WaveParams(replacement_fraction=0.4, lifetime=6.0)

        def sales(rate):
            return wave_sales(t, none(t), rate, wave, echoes=2)

        def decay(s):
            return np.exp(-s)

        both = sales(lambda s: bass(s) + decay(s))
        assert np.max(np.abs(both - (sales(bass) + sales(decay)))) < 1e-12
        assert np.max(np.abs(sales(lambda s: 2.5 * bass(s)) - 2.5 * sales(bass))) < 1e-12

    def test_delta_mass_balance(self):
        # the wave is zero before its start, which pads the source with zeros
        t = np.arange(-10, 401) / 10
        first = wave_sales(t, none(t), bass, WaveParams())
        with_echo = wave_sales(t, none(t), bass, WaveParams(0.0, 0.3, 5.0))
        replaced = with_echo - first
        balance = np.trapezoid(replaced, t) / (0.3 * np.trapezoid(first, t))
        assert balance == pytest.approx(1.0, abs=1e-9)

    def test_zero_before_the_start(self):
        t = np.linspace(-3.0, 3.0, 61)
        wave = WaveParams(multiple_rate=0.06, replacement_fraction=0.3, lifetime=1.0)
        # an installed base given at negative times is ignored there
        installed = np.where(t < 0, 1.0, bass_pen(np.maximum(t, 0.0)))
        out = wave_sales(t, installed, bass, wave, echoes=2)
        assert np.all(out[t < 0] == 0.0)
        assert np.all(out[t >= 0] > 0.0)

    def test_multiple_purchase_scales_the_clipped_installed_base(self):
        t = np.linspace(0.0, 5.0, 11)
        wave = WaveParams(multiple_rate=0.06)
        half = wave_sales(t, np.full_like(t, 0.5), none, wave)
        assert np.allclose(half, 0.03, rtol=1e-15)
        over = wave_sales(t, np.full_like(t, 1.2), none, wave)
        assert np.array_equal(over, np.full(11, 0.06))

    def test_echoes_past_the_last_time_are_not_evaluated(self):
        t = 0.1 * np.arange(401)
        calls = []

        def rate(s):
            calls.append(s)
            return bass(s)

        wave = WaveParams(replacement_fraction=0.3, lifetime=9.2)
        wave_sales(t, none(t), rate, wave, echoes=10**6)
        # the first purchases, then echoes at 9.2, 18.4, 27.6 and 36.8 years
        assert len(calls) <= 1 + 4

    def test_echoes_must_be_positive(self):
        with pytest.raises(ValueError, match="echoes"):
            wave_sales(np.zeros(3), np.zeros(3), none, WaveParams(), echoes=0)

    def test_bw_tv_peak_spacing(self):
        t = 0.1 * np.arange(251)
        wave = WaveParams(
            multiple_rate=0.06,
            replacement_fraction=0.3,
            lifetime=9.2,
        )
        out = wave_sales(t, bass_pen(t), bass, wave, echoes=2)
        interior = (out[1:-1] > out[:-2]) & (out[1:-1] > out[2:])
        peaks = t[1:-1][interior]
        spacings = np.diff(peaks)
        assert len(peaks) >= 3
        assert np.all(np.abs(spacings - 9.2) < 0.2)

    def test_fax_installed_base_structure(self):
        # high industrial multiple purchase, no replacement
        params = BassParams(innovation=0.01, imitation=2.2, plateau=0.02)
        t = 0.1 * np.arange(201)
        wave = WaveParams(multiple_rate=2.5, replacement_fraction=0.0)
        out = wave_sales(
            t, bass_penetration(t, params), lambda s: bass_rate(s, params), wave
        )
        # sales settle at the multiple-purchase level of the installed base
        assert out[-1] == pytest.approx(2.5 * 0.02, rel=1e-3)
        assert out[-1] > bass_rate(t[-1], params) * 100


class TestTotalSales:
    def test_zero_evolutionary_wave(self):
        bass_sales = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(total_sales(bass_sales, np.zeros(3)), bass_sales)

    def test_plain_sum(self):
        assert np.array_equal(total_sales(np.ones(4), 2 * np.ones(4)), 3 * np.ones(4))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="same length"):
            total_sales(np.ones(4), np.ones(5))


class TestWaveParams:
    def test_replacement_needs_failure_model(self):
        with pytest.raises(ValueError):
            WaveParams(multiple_rate=0.0, replacement_fraction=0.3, lifetime=None)
