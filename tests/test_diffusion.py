import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from evomarket import diffusion
from evomarket.diffusion import (
    AdoptionCurve,
    BassParams,
    GompertzParams,
    PriceDecline,
    bass_ode,
    bass_penetration,
    bass_rate,
    gompertz_from_price,
    gompertz_penetration,
    gompertz_rate,
    mean_price,
    price_decline_rate,
)
from evomarket.market import MarketStructure

BW_TV = BassParams(innovation=0.02, imitation=2.5, plateau=0.18)
COLOUR_TV = BassParams(innovation=0.001, imitation=1.8, plateau=0.01)
FAX = BassParams(innovation=0.01, imitation=2.2, plateau=0.02)


class TestBassPenetration:
    def test_no_adopters_at_launch(self):
        assert bass_penetration(0.0, BW_TV) == 0.0

    def test_saturation(self):
        assert bass_penetration(1e3, BW_TV) == pytest.approx(BW_TV.plateau, rel=1e-12)

    def test_matches_ode_at_peak_time(self):
        curve = bass_ode(BW_TV, horizon=2.0, step=1e-3)
        idx = int(round(1.916 / 1e-3))
        assert curve.times[idx] == pytest.approx(1.916, abs=1e-9)
        assert bass_penetration(curve.times[idx], BW_TV) == pytest.approx(
            curve.penetration[idx], abs=1e-6
        )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            bass_penetration(-0.1, BW_TV)

    def test_monotone_and_bounded(self):
        t = np.linspace(0.0, 30.0, 500)
        n = bass_penetration(t, BW_TV)
        assert np.all(np.diff(n) >= 0)
        assert np.all(n <= BW_TV.plateau + 1e-15)


class TestBassRate:
    def test_initial_rate(self):
        assert bass_rate(0.0, BW_TV) == pytest.approx(
            BW_TV.innovation * BW_TV.plateau, rel=1e-12
        )

    def test_exhausted_potential(self):
        assert bass_rate(1e3, BW_TV) == pytest.approx(0.0, abs=1e-12)

    def test_peak_location(self):
        result = minimize_scalar(
            lambda t: -bass_rate(t, BW_TV), bounds=(0.0, 10.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert result.x == pytest.approx(1.916, abs=1e-3)
        a, b = BW_TV.innovation, BW_TV.imitation
        assert result.x == pytest.approx(np.log(b / a) / (a + b), abs=1e-6)

    def test_matches_penetration_derivative(self):
        t = np.linspace(0.1, 20.0, 50)
        h = 1e-6
        numeric = (bass_penetration(t + h, BW_TV) - bass_penetration(t - h, BW_TV)) / (
            2 * h
        )
        assert np.allclose(bass_rate(t, BW_TV), numeric, rtol=1e-6)


def scalar_bass_ode(params, horizon, step):
    """Penetration and rate of ``bass_ode``'s RK4 loop written on scalars."""
    a, b, plateau = params.innovation, params.imitation, params.plateau

    def rhs(n):
        return (a + b * n / plateau) * (plateau - n)

    times = step * np.arange(int(round(horizon / step)) + 1)
    penetration = np.empty_like(times)
    n = penetration[0] = 0.0
    for i in range(1, times.size):
        k1 = rhs(n)
        k2 = rhs(n + 0.5 * step * k1)
        k3 = rhs(n + 0.5 * step * k2)
        k4 = rhs(n + step * k3)
        n = n + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        penetration[i] = n
    return penetration, (a + b * penetration / plateau) * (plateau - penetration)


class TestBassOde:
    def test_no_word_of_mouth_reduces_to_relaxation(self):
        params = BassParams(innovation=0.3, imitation=0.0, plateau=0.6)
        curve = bass_ode(params, horizon=10.0, step=1e-3)
        expected = params.plateau * (1.0 - np.exp(-params.innovation * curve.times))
        assert np.max(np.abs(curve.penetration - expected)) < 1e-9

    def test_empty_market_volume(self):
        params = BassParams(innovation=0.3, imitation=1.0, plateau=0.0)
        curve = bass_ode(params, horizon=5.0, step=0.01)
        assert np.all(curve.penetration == 0.0)
        assert np.all(curve.rate == 0.0)
        assert np.all(bass_penetration(curve.times, params) == 0.0)
        assert bass_penetration(2.5, params) == 0.0

    def test_colour_tv_saturates_at_plateau(self):
        curve = bass_ode(COLOUR_TV, horizon=30.0, step=1e-2)
        assert curve.penetration[-1] == pytest.approx(0.01, abs=1e-5)

    @pytest.mark.parametrize("params", [BW_TV, COLOUR_TV, FAX])
    def test_closed_form_matches_ode(self, params):
        curve = bass_ode(params, horizon=20.0, step=1e-3)
        closed = bass_penetration(curve.times, params)
        assert np.max(np.abs(closed - curve.penetration)) < 1e-6

    @pytest.mark.parametrize("params", [BW_TV, COLOUR_TV, FAX])
    def test_bit_identical_to_a_scalar_rk4_loop(self, params):
        curve = bass_ode(params, horizon=20.0, step=0.01)
        penetration, rate = scalar_bass_ode(params, horizon=20.0, step=0.01)
        assert np.array_equal(curve.penetration, penetration)
        assert np.array_equal(curve.rate, rate)

    def test_random_params_within_rate_bound(self, rng):
        for _ in range(3):
            total = rng.uniform(0.5, 5.0)
            a = rng.uniform(0.01, 0.2)
            params = BassParams(a, total - a, rng.uniform(0.05, 1.0))
            curve = bass_ode(params, horizon=20.0, step=1e-3)
            closed = bass_penetration(curve.times, params)
            assert np.max(np.abs(closed - curve.penetration)) < 1e-6

    def test_rate_is_derivative_of_penetration(self):
        curve = bass_ode(BW_TV, horizon=5.0, step=1e-3)
        numeric = np.gradient(curve.penetration, curve.times)
        # interior points only; np.gradient is first-order at the ends
        assert np.allclose(curve.rate[1:-1], numeric[1:-1], rtol=1e-4, atol=1e-8)


class TestMeanPrice:
    decline = PriceDecline(offset=0.8, floor=0.05, rate=0.103)

    def test_initial_condition(self):
        assert mean_price(0.0, self.decline) == pytest.approx(0.85)

    def test_asymptote(self):
        assert mean_price(1e4, self.decline) == pytest.approx(0.05)

    def test_half_life(self):
        half_life = np.log(2.0) / 0.103
        assert half_life == pytest.approx(6.73, abs=0.01)
        start_excess = mean_price(0.0, self.decline) - self.decline.floor
        after = mean_price(half_life, self.decline) - self.decline.floor
        assert after == pytest.approx(start_excess / 2.0, rel=1e-12)

    def test_strictly_decreasing(self):
        t = np.linspace(0.0, 50.0, 200)
        assert np.all(np.diff(mean_price(t, self.decline)) < 0)

    def test_zero_rate_freezes_the_price(self):
        frozen = PriceDecline(offset=0.8, floor=0.05, rate=0.0)
        assert np.all(mean_price(np.linspace(0.0, 50.0, 11), frozen) == 0.8 + 0.05)
        with pytest.raises(ValueError, match="rate"):
            PriceDecline(offset=0.8, floor=0.05, rate=-0.1)


class TestGompertz:
    colour = GompertzParams(plateau=0.97, shape=27.0, rate=0.103)

    def test_saturation(self):
        assert gompertz_penetration(1e4, self.colour) == pytest.approx(0.97)

    def test_inflection_at_one_over_e(self):
        t_star = np.log(self.colour.shape) / (2.0 * self.colour.rate)
        assert gompertz_penetration(t_star, self.colour) == pytest.approx(
            self.colour.plateau / np.e, rel=1e-12
        )

    def test_colour_tv_inflection_year(self):
        t_star = np.log(27.0) / (2.0 * 0.103)
        assert t_star == pytest.approx(16.0, abs=0.1)

    def test_rate_matches_derivative(self):
        t = np.linspace(-5.0, 40.0, 80)
        h = 1e-6
        numeric = (
            gompertz_penetration(t + h, self.colour)
            - gompertz_penetration(t - h, self.colour)
        ) / (2 * h)
        assert np.allclose(gompertz_rate(t, self.colour), numeric, rtol=1e-6, atol=1e-12)

    def test_rate_peak_is_at_one_over_e_of_plateau(self):
        result = minimize_scalar(
            lambda t: -gompertz_rate(t, self.colour),
            bounds=(0.0, 60.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        cumulative = gompertz_penetration(result.x, self.colour)
        assert cumulative == pytest.approx(self.colour.plateau / np.e, abs=1e-9)

    def test_rate_vanishes_in_both_tails(self):
        assert gompertz_rate(-100.0, self.colour) == pytest.approx(0.0, abs=1e-12)
        assert gompertz_rate(1e4, self.colour) == pytest.approx(0.0, abs=1e-12)

    def test_rate_is_zero_where_the_decay_overflows(self):
        # exp(-2 * 100 * -4) overflows; the rate is zero there, not nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gompertz_rate(-4.0, GompertzParams(1.0, 10.0, 100.0)) == 0.0
            out = gompertz_rate(np.array([-4.0, 0.0]), GompertzParams(1.0, 10.0, 100.0))
        assert out[0] == 0.0 and out[1] > 0.0

    def test_penetration_is_zero_where_the_decay_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gompertz_penetration(-4.0, GompertzParams(1.0, 10.0, 100.0)) == 0.0

    def test_frozen_price_limit(self):
        frozen = GompertzParams(plateau=0.9, shape=5.0, rate=0.0)
        t = np.linspace(-10, 10, 7)
        assert np.all(gompertz_rate(t, frozen) == 0.0)


@pytest.mark.parametrize(
    "closed_form, params",
    [
        (bass_penetration, BW_TV),
        (bass_rate, BW_TV),
        (gompertz_penetration, GompertzParams(0.77, 8.5, 0.2)),
        (gompertz_rate, GompertzParams(0.77, 8.5, 0.2)),
    ],
)
def test_closed_forms_keep_the_shape_of_their_times(closed_form, params):
    t = np.linspace(0.0, 20.0, 12)
    out = closed_form(t.reshape(3, 4), params)
    assert out.shape == (3, 4)
    assert np.array_equal(out.ravel(), closed_form(t, params))
    assert isinstance(closed_form(2.0, params), float)


class TestGompertzFromPrice:
    def test_exhausted_decline(self, market):
        times = np.linspace(0.0, 10.0, 50)
        prices = np.full_like(times, market.minimum_price)
        curve = gompertz_from_price(times, prices, market, plateau=0.9)
        assert np.allclose(curve.penetration, 0.9)

    def test_analytic_point(self, market):
        times = np.array([0.0, 1.0])
        prices = np.full(2, market.minimum_price + market.width * np.sqrt(2.0))
        curve = gompertz_from_price(times, prices, market, plateau=0.9)
        assert curve.penetration[0] == pytest.approx(0.9 * np.exp(-1.0), rel=1e-12)

    def test_identity_with_exponential_decline(self, market):
        offset = 0.7
        decline = PriceDecline(offset=offset, floor=market.minimum_price, rate=0.103)
        times = np.linspace(0.0, 40.0, 1000)
        prices = mean_price(times, decline)
        plateau = 0.97
        curve = gompertz_from_price(times, prices, market, plateau)
        shape = offset**2 / (2.0 * market.width**2)
        direct = gompertz_penetration(
            times, GompertzParams(plateau=plateau, shape=shape, rate=decline.rate)
        )
        assert np.max(np.abs(curve.penetration - direct)) < 1e-12

    def test_price_below_floor_rejected(self, market):
        times = np.array([0.0, 1.0])
        prices = np.array([market.minimum_price, market.minimum_price - 0.01])
        with pytest.raises(ValueError):
            gompertz_from_price(times, prices, market, plateau=0.9)


class TestPriceDeclineRate:
    def test_direct_substitution(self):
        rate = price_decline_rate(
            fitness_scale=1.0,
            lower_share=1.0,
            price_variance=0.5,
            width=1.0,
            clock_ratio=0.3,
        )
        assert rate == pytest.approx(0.15)

    def test_monopoly_freeze(self):
        rate = price_decline_rate(
            fitness_scale=1.0,
            lower_share=0.97,
            price_variance=0.0,
            width=0.4,
            clock_ratio=0.01,
        )
        assert rate == 0.0

    def test_noise_form_equals_variance_form(self):
        restoring, noise = 1.0, 1.0
        variance = 0.5 * noise**2 / restoring**2
        via_variance = price_decline_rate(1.3, 0.97, variance, 0.4, 0.01)
        direct = 0.01 * 1.3 * 0.97 * noise**2 / (2.0 * 0.4**2 * restoring**2)
        assert abs(via_variance - direct) < 1e-15


class TestAdoptionCurve:
    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AdoptionCurve(np.arange(3.0), np.zeros(3), np.zeros(2))


class TestJetsOverParameterSets:
    """The kernels evaluate a ``(k, 1)`` column of parameter sets at once,
    each row with the bits of its own scalar call."""

    T = np.arange(12.0) * 0.75

    def test_bass_rows_keep_their_scalar_bits(self):
        rng = np.random.default_rng(3)
        a = np.exp(rng.uniform(np.log(1e-5), 0.0, 4000))
        b = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), 4000))
        pen, rate = diffusion._bass_jets(self.T, a[:, None], b[:, None], 1.0)
        # about one draw in a thousand, libm's pow squares innovation +
        # imitation apart from a multiplication; the kernel multiplies
        s = a + b
        apart = [i for i, v in enumerate(s.tolist()) if v**2 != v * v]
        assert apart
        for i in apart:
            decay = np.exp(-s[i] * self.T)
            denom = a[i] + b[i] * decay
            expected = 1.0 * a[i] * (s[i] * s[i]) * decay / denom**2
            assert rate[i, :, 0].tobytes() == expected.tobytes()
        assert pen.shape == rate.shape == (a.size, self.T.size, 3)
        for i in range(a.size):
            one_pen, one_rate = diffusion._bass_jets(self.T, a[i], b[i], 1.0)
            assert pen[i].tobytes() == one_pen.tobytes()
            assert rate[i].tobytes() == one_rate.tobytes()

    def test_gompertz_rows_keep_their_scalar_bits(self):
        rng = np.random.default_rng(4)
        shape = np.exp(rng.uniform(np.log(1e-2), np.log(1e6), 500))
        t_prime = self.T - 4.0
        pen, out = diffusion._gompertz_jets(t_prime, 1.0, shape[:, None], 0.3)
        assert pen.shape == out.shape == (shape.size, t_prime.size, 2)
        for i in range(shape.size):
            one_pen, one_out = diffusion._gompertz_jets(t_prime, 1.0, shape[i], 0.3)
            assert pen[i].tobytes() == one_pen.tobytes()
            assert out[i].tobytes() == one_out.tobytes()
