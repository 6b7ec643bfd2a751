import numpy as np
import pytest
from scipy.integrate import quad

from evomarket.market import (
    IncomeModel,
    MarketStructure,
    income_pdf,
    market_volume,
    market_volume_gradient,
    real_price,
)

# every form of one price that market_volume accepts
PRICE_KINDS = {
    "float": float,
    "float64": np.float64,
    "int": int,
    "0-d array": np.array,
    "list": lambda v: [v],
}


class TestIncomePdf:
    def test_value_at_origin_equals_rate(self):
        assert income_pdf(0.0, 1.0) == pytest.approx(1.0)

    def test_value_at_mean(self):
        mean = 3.7
        assert income_pdf(mean, mean) == pytest.approx(np.exp(-1.0) / mean)

    def test_normalization_by_quadrature(self):
        mean = 4400.0
        total, _ = quad(lambda h: income_pdf(h, mean), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mean_by_quadrature(self):
        mean = 4400.0
        first_moment, _ = quad(lambda h: h * income_pdf(h, mean), 0, np.inf)
        assert first_moment == pytest.approx(mean, rel=1e-8)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            income_pdf(1.0, 0.0)
        with pytest.raises(ValueError):
            income_pdf(1.0, -2.0)

    def test_negative_income_rejected(self):
        with pytest.raises(ValueError):
            income_pdf(-1.0, 1.0)


class TestIncomeModel:
    def test_reference_year_value(self):
        model = IncomeModel(mean_income=4400.0, growth=0.05)
        assert model.at(0.0) == pytest.approx(4400.0)

    def test_ten_year_growth(self):
        model = IncomeModel(mean_income=4400.0, growth=0.05)
        # direct power evaluation: 4400 * 1.05**10
        assert model.at(10.0) == pytest.approx(7167.14, abs=0.1)

    def test_zero_growth_constant(self):
        model = IncomeModel(mean_income=4400.0, growth=0.0)
        for t in (-20.0, 0.0, 7.5, 100.0):
            assert model.at(t) == 4400.0

    def test_back_extrapolation(self):
        model = IncomeModel(mean_income=1000.0, growth=0.1)
        assert model.at(-1.0) == pytest.approx(1000.0 / 1.1)

    def test_calendar_lookup(self):
        model = IncomeModel(mean_income=1000.0, growth=0.1, ref_year=1950.0)
        assert model.at_year(1951.0) == pytest.approx(1100.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IncomeModel(mean_income=0.0)
        with pytest.raises(ValueError):
            IncomeModel(mean_income=1.0, growth=-1.0)


class TestRealPrice:
    def test_identity_ratio(self):
        assert real_price(4400.0, 4400.0) == pytest.approx(1.0)

    def test_free_good(self):
        assert real_price(0.0, 4400.0) == 0.0

    def test_division(self):
        assert real_price(500.0, 4400.0) == pytest.approx(0.11364, abs=1e-5)

    def test_nonpositive_income_rejected(self):
        with pytest.raises(ValueError):
            real_price(500.0, 0.0)


class TestMarketVolume:
    def test_unity_at_minimum_price(self, market):
        assert market_volume(market.minimum_price, market) == pytest.approx(1.0)
        assert market_volume(0.0, market) == pytest.approx(1.0)

    def test_half_height_of_lower_class(self, market):
        mu = market.minimum_price + market.width * np.sqrt(2.0 * np.log(2.0))
        expected = market.upper_share + market.lower_share / 2.0
        assert market_volume(mu, market) == pytest.approx(expected, rel=1e-12)

    def test_upper_class_limit(self, market):
        assert market_volume(1e6, market) == pytest.approx(market.upper_share)

    def test_continuity_at_minimum_price(self, market):
        eps = 1e-12
        below = market_volume(market.minimum_price - eps, market)
        above = market_volume(market.minimum_price + eps, market)
        assert below == pytest.approx(above, abs=1e-9)

    def test_monotone_and_bounded(self, market, rng):
        mu = np.sort(rng.uniform(0.0, 5.0, size=200))
        v = market_volume(mu, market)
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all(v <= 1.0 + 1e-15)
        assert np.all(v >= market.upper_share - 1e-15)

    @pytest.mark.parametrize("kind", PRICE_KINDS)
    def test_scalar_and_array_paths_agree(self, market, kind):
        convert = PRICE_KINDS[kind]
        prices = (0.0, 1.0, 2.0) if kind == "int" else np.linspace(0.0, 2.0, 41)
        for mu in prices:
            got = market_volume(convert(mu), market)
            want = market_volume(np.array([mu]), market)[0]
            assert np.ravel(got)[0] == pytest.approx(want, rel=1e-15, abs=0.0)
            assert np.shape(got) == np.shape(convert(mu))
            if kind in ("float", "float64", "int"):
                assert type(got) is float

    @pytest.mark.parametrize("kind", PRICE_KINDS)
    def test_negative_price_rejected_on_every_path(self, market, kind):
        with pytest.raises(ValueError):
            market_volume(PRICE_KINDS[kind](-1.0), market)

    @pytest.mark.parametrize("kind", [k for k in PRICE_KINDS if k != "int"])
    def test_nan_price_gives_nan(self, market, kind):
        assert np.isnan(market_volume(PRICE_KINDS[kind](np.nan), market)).all()

    def test_share_normalization(self):
        m = MarketStructure(upper_share=0.2, minimum_price=0.0, width=1.0)
        assert m.upper_share + m.lower_share == pytest.approx(1.0)

    def test_invalid_structure(self):
        with pytest.raises(ValueError):
            MarketStructure(upper_share=1.5, minimum_price=0.0, width=1.0)
        with pytest.raises(ValueError):
            MarketStructure(upper_share=0.1, minimum_price=0.0, width=0.0)


class TestMarketVolumeGradient:
    def test_flat_regime(self, market):
        assert market_volume_gradient(0.0, market) == 0.0
        assert market_volume_gradient(market.minimum_price, market) == 0.0

    def test_analytic_value_one_width_out(self, market):
        mu = market.minimum_price + market.width
        expected = -market.lower_share * np.exp(-0.5) / market.width
        assert market_volume_gradient(mu, market) == pytest.approx(expected, rel=1e-12)

    def test_never_positive(self, market, rng):
        mu = rng.uniform(0.0, 5.0, size=500)
        assert np.all(market_volume_gradient(mu, market) <= 0.0)

    def test_matches_finite_difference(self, market, rng):
        step = 1e-6 * market.width
        mu = rng.uniform(market.minimum_price + 10 * step, 3.0, size=50)
        numeric = (
            market_volume(mu + step, market) - market_volume(mu - step, market)
        ) / (2.0 * step)
        analytic = market_volume_gradient(mu, market)
        assert np.allclose(analytic, numeric, rtol=1e-6)
