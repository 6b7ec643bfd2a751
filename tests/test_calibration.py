import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize

from evomarket.benchmarks import BENCHMARKS, ROUND_TRIP_GOODS
from evomarket import calibration
from evomarket.calibration import (
    FisherPryFit,
    FitSpec,
    TWO_WAVE_STARTS,
    PriceDeclineFit,
    _separable_lm,
    fit_two_wave,
    price_function,
    round_trip,
    synthesize,
    synthesize_share,
)
from evomarket.diffusion import (
    BassParams,
    GompertzParams,
    bass_penetration,
    gompertz_penetration,
)
from evomarket.errors import FitError, NotFittedError
from evomarket.market import IncomeModel
from evomarket.series import TimeSeries


def price_series(rate, floor_ratio, n=30, intro_year=0.0, onset=0.0, noise=0.0, seed=None):
    t = np.arange(n, dtype=float)
    values = np.exp(-rate * t) + floor_ratio
    if noise:
        rng = np.random.default_rng(seed)
        values = values * (1.0 + noise * rng.standard_normal(n))
    return TimeSeries(intro_year + onset + t, values, "nominal_price")


def noisy_draw(name, noise=0.02):
    """Price, penetration and sales of one benchmark good, each with its own seed."""
    good = BENCHMARKS[name]
    series = [
        synthesize(kind, good, noise=noise, seed=channel)
        for channel, kind in enumerate(("nominal_price", "penetration", "sales"))
    ]
    return (*series, good)


def recorded_lm_runs(monkeypatch, fit):
    """Run ``fit()``; return its result and ``(fun, x0, jac, result)`` of
    every Levenberg–Marquardt run it made, in order."""
    runs = []
    original = calibration.least_squares

    def recording_least_squares(fun, x0, **kwargs):
        runs.append((fun, x0.copy(), kwargs["jac"], original(fun, x0, **kwargs)))
        return runs[-1][3]

    with monkeypatch.context() as patch:
        patch.setattr(calibration, "least_squares", recording_least_squares)
        return fit(), runs


class TestPriceFunction:
    def test_normalization_at_start(self):
        series = price_series(0.2, 0.0)
        out = price_function(series, FitSpec(), floor_ratio=0.0)
        assert out.years[0] == 0.0
        assert out.values[0] == pytest.approx(1.0)

    def test_floor_maps_to_zero(self):
        series = TimeSeries(np.arange(5.0), np.full(5, 0.33), "nominal_price")
        out = price_function(series, FitSpec(), floor_ratio=0.33)
        assert np.allclose(out.values, 0.0)

    def test_exponential_synthetic_is_exact(self):
        series = price_series(0.2, 0.1)
        out = price_function(series, FitSpec(), floor_ratio=0.1)
        assert np.allclose(out.values, np.exp(-0.2 * out.years), rtol=1e-12)

    def test_income_deflation(self):
        income = IncomeModel(mean_income=4400.0, growth=0.05, ref_year=1950.0)
        t = np.arange(10.0)
        nominal = income.at(t) * (0.8 * np.exp(-0.1 * t) + 0.0)
        series = TimeSeries(1950.0 + t, nominal, "nominal_price")
        spec = FitSpec(intro_year=1950.0, intro_price=nominal[0], income=income)
        out = price_function(series, spec, floor_ratio=0.0)
        assert np.allclose(out.values, np.exp(-0.1 * t), rtol=1e-12)


class TestPriceDeclineFit:
    def test_noiseless_recovery(self):
        fit = PriceDeclineFit().fit(price_series(0.103, 0.0))
        assert fit.decline_rate_ == pytest.approx(0.103, abs=1e-6)
        assert fit.floor_ratio_ == pytest.approx(0.0, abs=1e-9)

    def test_noiseless_recovery_with_floor(self):
        fit = PriceDeclineFit().fit(price_series(0.2, 0.33))
        assert fit.decline_rate_ == pytest.approx(0.2, abs=1e-6)
        assert fit.floor_ratio_ == pytest.approx(0.33, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_noiseless_recovery_of_every_good(self, name):
        good = BENCHMARKS[name]
        fit = PriceDeclineFit(
            intro_year=good.intro_year, onset_delay=good.onset_delay
        ).fit(synthesize("nominal_price", good))
        assert fit.decline_rate_ == pytest.approx(good.decline_rate, rel=1e-9)
        assert fit.floor_ratio_ == pytest.approx(good.floor_ratio or 0.0, abs=1e-9)
        assert fit.converged_ is True
        assert fit.nfev_ > 0

    def test_constant_series_fails(self):
        series = TimeSeries(np.arange(8.0), np.full(8, 0.7), "nominal_price")
        with pytest.raises(FitError, match="no decline"):
            PriceDeclineFit().fit(series)

    @pytest.mark.parametrize(
        "values",
        [np.full(30, 0.9), np.full(8, 1.0), 0.5 + 0.01 * np.arange(8.0)],
        ids=["flat", "at_the_introduction_price", "rising"],
    )
    def test_series_without_a_decline_fails(self, values):
        series = TimeSeries(np.arange(float(values.size)), values, "nominal_price")
        with pytest.raises(FitError, match="no decline"):
            PriceDeclineFit().fit(series)

    def test_too_few_points(self):
        with pytest.raises(FitError):
            PriceDeclineFit().fit(price_series(0.2, 0.0, n=3))

    def test_fax_noisy_monte_carlo(self):
        errors = []
        for seed in range(100):
            series = price_series(0.45, 0.01, n=12, noise=0.02, seed=seed)
            fit = PriceDeclineFit().fit(series)
            errors.append(fit.decline_rate_ / 0.45 - 1.0)
        assert abs(np.median(errors)) < 0.10

    def test_income_deflation_needed_for_long_horizons(self):
        income = IncomeModel(mean_income=4400.0, growth=0.05, ref_year=1950.0)
        rate = 0.103
        t = np.arange(30.0)
        nominal = income.at(t) * np.exp(-rate * t)
        series = TimeSeries(1950.0 + t, nominal, "nominal_price")
        deflated = PriceDeclineFit(
            intro_year=1950.0, intro_price=nominal[0], income=income
        ).fit(series)
        undeflated = PriceDeclineFit(intro_year=1950.0, intro_price=nominal[0]).fit(
            series
        )
        assert abs(deflated.decline_rate_ / rate - 1.0) < 0.05
        assert abs(undeflated.decline_rate_ / rate - 1.0) > 0.20

    def test_fit_does_not_depend_on_the_time_origin(self):
        series = price_series(0.2, 0.33, intro_year=1960.0, noise=0.02, seed=3)
        shifted = PriceDeclineFit().fit(series)
        aligned = PriceDeclineFit(intro_year=1960.0).fit(series)
        assert shifted.decline_rate_ == pytest.approx(aligned.decline_rate_, rel=1e-9)
        assert shifted.floor_ratio_ == pytest.approx(aligned.floor_ratio_, abs=1e-9)
        assert shifted.predict(1965.0) == pytest.approx(aligned.predict(5.0), rel=1e-9)

    def test_price_function_at_the_fitted_floor_is_the_decline(self):
        fit = PriceDeclineFit().fit(price_series(0.2, 0.33))
        out = price_function(price_series(0.2, 0.33), FitSpec(), fit.floor_ratio_)
        assert np.allclose(out.values, np.exp(-0.2 * out.years), atol=1e-6)

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            PriceDeclineFit().predict(1.0)

    def test_get_set_params(self):
        fit = PriceDeclineFit(onset_delay=4.0)
        assert fit.get_params()["onset_delay"] == 4.0
        fit.set_params(onset_delay=2.0)
        assert fit.onset_delay == 2.0
        with pytest.raises(ValueError):
            fit.set_params(bogus=1)


class TestFisherPryFit:
    def test_exact_recovery(self):
        t = np.arange(12.0)
        shares = 1.0 / (1.0 + np.exp(-(0.22 * t + 0.0)))
        fit = FisherPryFit().fit(t, shares)
        assert fit.advantage_ == pytest.approx(0.22, abs=1e-12)
        assert fit.intercept_ == pytest.approx(0.0, abs=1e-12)

    def test_constant_half_share(self):
        t = np.arange(10.0)
        fit = FisherPryFit().fit(t, np.full(10, 0.5))
        assert fit.advantage_ == pytest.approx(0.0, abs=1e-15)
        assert fit.intercept_ == pytest.approx(0.0, abs=1e-15)

    def test_boundary_share_rejected(self):
        t = np.arange(3.0)
        with pytest.raises(ValueError):
            FisherPryFit().fit(t, np.array([0.2, 1.0, 0.4]))

    def test_noisy_logit_monte_carlo(self):
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = np.arange(10.0)
            logits = 0.22 * t + 0.02 * rng.standard_normal(10)
            shares = 1.0 / (1.0 + np.exp(-logits))
            fit = FisherPryFit().fit(t, shares)
            errors.append(fit.advantage_ / 0.22 - 1.0)
        assert abs(np.median(errors)) < 0.15


class TestSynthesize:
    def test_zero_noise_matches_model(self):
        good = BENCHMARKS["colour_tv"]
        series = synthesize("nominal_price", good, n_points=10)
        t = np.arange(10.0)
        assert np.allclose(series.values, np.exp(-good.decline_rate * t))

    def test_two_wave_penetration_reaches_plateau_sum(self):
        good = BENCHMARKS["colour_tv"]
        series = synthesize("penetration", good, n_points=200)
        assert series.values[-1] == pytest.approx(0.97 + 0.01, abs=1e-6)

    def test_same_seed_identical(self):
        good = BENCHMARKS["bw_tv"]
        a = synthesize("sales", good, noise=0.02, seed=5)
        b = synthesize("sales", good, noise=0.02, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_share_series_stays_interior(self):
        series = synthesize_share(0.22, 0.0, 1977.0 + np.arange(12.0), 0.02, 3, 1976.0)
        assert np.all((series.values > 0) & (series.values < 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synthesize("volume", BENCHMARKS["fax"])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("innovation", 0.0),
            ("imitation", -0.1),
            ("spreading_plateau", 1.5),
            ("evolutionary_plateau", 0.0),
            ("shape", 0.0),
            ("decline_rate", -0.1),
        ],
    )
    def test_good_the_closed_forms_reject_is_rejected(self, field, value):
        good = dataclasses.replace(BENCHMARKS["bw_tv"], **{field: value})
        for kind in ("nominal_price", "penetration", "sales"):
            with pytest.raises(ValueError):
                synthesize(kind, good)

    def test_zero_imitation_synthesizes_without_warnings(self):
        good = dataclasses.replace(BENCHMARKS["bw_tv"], imitation=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("penetration", "sales"):
                values = synthesize(kind, good).values
                assert np.all(np.isfinite(values)) and values.max() > 0, kind


class TestSeparableLm:
    def test_no_finite_start_is_fit_error(self):
        def design(log_params):
            return np.full((3, 1), np.inf), np.zeros((3, 1, 1))

        with pytest.raises(FitError, match="no start gave finite residuals"):
            _separable_lm(
                design, np.ones(3), np.ones(3), [(1.0,), (2.0,)], np.log([0.1]), np.log([10])
            )

    def test_refines_only_the_best_feasible_starts_in_lattice_order(self, monkeypatch):
        t = np.arange(20.0)
        observed = np.exp(-0.5 * t)

        def design(log_rate):
            rate = np.exp(log_rate[0])
            if 8.0 < rate < 50.0:  # an infeasible band of the box
                return np.full((t.size, 1), np.inf), np.zeros((t.size, 1, 1))
            decay = np.exp(-rate * t)
            return decay[:, None], (-rate * t * decay)[:, None, None]

        rates = [10.0, 0.01, 0.6, 20.0, 3.0, 0.45, 30.0, 1.2]
        refined_rates = []
        jacobians = []
        runs = []
        original = calibration.least_squares

        def counting_least_squares(fun, x0, **kwargs):
            refined_rates.append(float(np.exp(x0[0])))
            jacobians.append(kwargs.get("jac"))
            runs.append(original(fun, x0, **kwargs))
            return runs[-1]

        monkeypatch.setattr(calibration, "least_squares", counting_least_squares)
        best = _separable_lm(
            design,
            observed,
            np.ones(t.size),
            [(rate,) for rate in rates],
            np.log([1e-3]),
            np.log([1e2]),
        )

        def screen_cost(rate):
            # the plateau is the least-squares fit of the one column, within [0, 1]
            decay = np.exp(-rate * t)
            plateau = np.clip(decay @ observed / (decay @ decay), 0.0, 1.0)
            return float(((observed - plateau * decay) ** 2).sum())

        costs = {rate: screen_cost(rate) for rate in rates if not 8.0 < rate < 50.0}
        best_feasible = sorted(costs, key=costs.get)[: calibration._REFINE_STARTS]
        expected = [rate for rate in rates if rate in best_feasible]
        assert len(expected) < len(costs)
        assert refined_rates == pytest.approx(expected, rel=1e-12)
        assert all(callable(jac) for jac in jacobians)
        assert best.cost == min(run.cost for run in runs)
        assert best.starts_screened == len(costs)
        assert best.starts_refined == len(refined_rates)
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-9)

    # a wave of unknown frequency: the cost has a local minimum near every
    # start, so the refined runs end at different costs
    WAVE_T = np.linspace(0.0, 20.0, 81)
    WAVE_STARTS = [(w,) for w in (2.3, 1.1, 2.9, 0.15, 4.0, 0.52, 1.7, 0.8)]

    @classmethod
    def fit_wave(cls, starts):
        t = cls.WAVE_T

        def design(log_frequency):
            frequency = np.exp(log_frequency[0])
            column = (1.0 + np.sin(frequency * t)) / 2.0
            derivative = frequency * t * np.cos(frequency * t) / 2.0
            return column[:, None], derivative[:, None, None]

        observed = 0.8 * (1.0 + np.sin(0.5 * t)) / 2.0
        return _separable_lm(
            design, observed, np.ones(t.size), starts, np.log([0.05]), np.log([5.0])
        )

    def test_returned_cost_is_global_over_starts(self, monkeypatch):
        runs = []
        original = calibration.least_squares

        def recording_least_squares(fun, x0, **kwargs):
            runs.append(original(fun, x0, **kwargs))
            return runs[-1]

        monkeypatch.setattr(calibration, "least_squares", recording_least_squares)
        best = self.fit_wave(self.WAVE_STARTS)
        costs = [run.cost for run in runs]
        assert len(costs) == calibration._REFINE_STARTS
        # only the last refined run reaches the global minimum
        assert min(costs[:-1]) > 1.0
        assert best.cost == min(costs) == costs[-1]
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-9)
        assert best.plateaus[0] == pytest.approx(0.8, rel=1e-9)

    def test_start_order_permutation_invariant(self):
        forward = self.fit_wave(self.WAVE_STARTS)
        for order in ([7, 6, 5, 4, 3, 2, 1, 0], [5, 0, 3, 7, 1, 6, 2, 4]):
            permuted = self.fit_wave([self.WAVE_STARTS[i] for i in order])
            np.testing.assert_allclose(permuted.log_params, forward.log_params, rtol=1e-9)
            np.testing.assert_allclose(permuted.plateaus, forward.plateaus, rtol=1e-9)
            assert permuted.cost == pytest.approx(forward.cost, abs=1e-20)


class TestLeastSquares:
    """``calibration.least_squares`` takes the iterates of scipy's
    ``least_squares(method="lm")``: both run MINPACK's ``lmder``."""

    @staticmethod
    def assert_same_run(fun, x0, jac):
        run = calibration.least_squares(fun, x0, jac=jac)
        oracle = scipy.optimize.least_squares(
            fun,
            x0,
            jac=jac,
            method="lm",
            x_scale="jac",
            xtol=1e-12,
            ftol=1e-12,
            gtol=1e-12,
        )
        assert np.array_equal(run.x, oracle.x)
        assert run.cost == oracle.cost
        assert run.nfev == oracle.nfev
        assert run.njev == oracle.njev
        assert run.success == oracle.success

    def test_matches_scipy_from_the_price_fit_start(self, monkeypatch):
        price = noisy_draw("fax")[0]
        _, runs = recorded_lm_runs(monkeypatch, lambda: PriceDeclineFit().fit(price))
        assert len(runs) == 1
        fun, x0, jac, _ = runs[0]
        self.assert_same_run(fun, x0, jac)

    def test_matches_scipy_from_every_refined_two_wave_start(self, monkeypatch):
        _, runs = recorded_lm_runs(monkeypatch, lambda: fit_two_wave(*noisy_draw("bw_tv")))
        two_wave = [run for run in runs if run[1].size == 3]
        assert len(two_wave) == calibration._REFINE_STARTS
        for fun, x0, jac, _ in two_wave:
            self.assert_same_run(fun, x0, jac)

    def test_matches_scipy_on_the_sinusoid(self, monkeypatch):
        _, runs = recorded_lm_runs(
            monkeypatch, lambda: TestSeparableLm.fit_wave(TestSeparableLm.WAVE_STARTS)
        )
        assert len(runs) == calibration._REFINE_STARTS
        for fun, x0, jac, _ in runs:
            self.assert_same_run(fun, x0, jac)

    @pytest.mark.parametrize("status", range(9))
    def test_only_minpack_codes_1_to_4_are_success(self, monkeypatch, status):
        def stopped(fun, x0, Dfun, **kwargs):
            return x0, None, {"fvec": fun(x0), "nfev": 1, "njev": 1}, "", status

        monkeypatch.setattr(calibration, "leastsq", stopped)
        run = calibration.least_squares(
            lambda x: x - 1.0, np.zeros(2), jac=lambda x: np.eye(2)
        )
        assert run.status == status
        assert run.success is (status in (1, 2, 3, 4))

    def test_evaluation_limit_is_100_per_parameter(self, monkeypatch):
        limits = []
        original = calibration.leastsq

        def recording(*args, **kwargs):
            limits.append(kwargs["maxfev"])
            return original(*args, **kwargs)

        monkeypatch.setattr(calibration, "leastsq", recording)
        fit_two_wave(*noisy_draw("vcr"))
        assert limits == [100] + [300] * calibration._REFINE_STARTS

    @pytest.mark.usefixtures("lm_stops_at_three_evaluations")
    def test_run_stopped_by_the_evaluation_limit_is_not_converged(self, monkeypatch):
        result, runs = recorded_lm_runs(
            monkeypatch, lambda: fit_two_wave(*noisy_draw("vcr"))
        )
        for *_, run in runs:
            assert run.status == 5
            assert run.success is False
        assert result.provenance["converged"] is False
        assert result.provenance["price_converged"] is False


class TestFitTwoWave:
    @pytest.mark.parametrize("name", ROUND_TRIP_GOODS)
    def test_noiseless_full_recovery(self, name):
        good = BENCHMARKS[name]
        price = synthesize("nominal_price", good)
        penetration = synthesize("penetration", good)
        sales = synthesize("sales", good)
        result = fit_two_wave(price, penetration, sales, good)
        assert result.decline_rate == pytest.approx(good.decline_rate, rel=1e-6)
        assert result.shape == pytest.approx(good.shape, rel=1e-6)
        assert result.evolutionary_plateau == pytest.approx(
            good.evolutionary_plateau, rel=1e-6
        )
        assert result.innovation == pytest.approx(good.innovation, rel=1e-6)
        assert result.imitation == pytest.approx(good.imitation, rel=1e-6)
        assert result.spreading_plateau == pytest.approx(
            good.spreading_plateau, rel=1e-6
        )
        assert all(v >= 0 for v in result.sse.values())

    def test_provenance_records_inputs(self):
        good = BENCHMARKS["vcr"]
        price = synthesize("nominal_price", good)
        penetration = synthesize("penetration", good)
        sales = synthesize("sales", good)
        result = fit_two_wave(price, penetration, sales, good)
        assert set(result.provenance) >= {
            "price_digest",
            "penetration_digest",
            "sales_digest",
            "converged",
            "nfev",
            "njev",
            "at_bound",
            "starts_screened",
            "starts_refined",
            "price_converged",
            "price_rate_identified",
        }
        assert result.provenance["converged"] is True
        assert result.provenance["nfev"] > 0
        assert result.provenance["njev"] > 0
        assert result.provenance["at_bound"] == ()
        assert result.provenance["starts_screened"] == len(TWO_WAVE_STARTS)
        assert result.provenance["starts_refined"] == calibration._REFINE_STARTS
        assert result.provenance["price_converged"] is True
        assert result.provenance["price_rate_identified"] is True

    def test_nfev_refined_counts_every_refined_run(self, monkeypatch):
        result, runs = recorded_lm_runs(
            monkeypatch, lambda: fit_two_wave(*noisy_draw("bw_tv"))
        )
        two_wave = [run.nfev for *_, run in runs if run.x.size == 3]
        assert len(two_wave) == result.provenance["starts_refined"]
        assert result.provenance["nfev_refined"] == sum(two_wave)
        assert result.provenance["nfev"] in two_wave

    def test_sse_is_natural_scale_per_series(self):
        good = BENCHMARKS["bw_tv"]
        price = synthesize("nominal_price", good)
        penetration = synthesize("penetration", good, noise=0.02, seed=4)
        sales = synthesize("sales", good, noise=0.02, seed=5)
        result = fit_two_wave(price, penetration, sales, good)
        t = penetration.years - good.intro_year
        model = bass_penetration(
            t,
            BassParams(result.innovation, result.imitation, result.spreading_plateau),
        ) + gompertz_penetration(
            t - good.onset_delay,
            GompertzParams(
                plateau=result.evolutionary_plateau,
                shape=result.shape,
                rate=result.decline_rate,
            ),
        )
        np.testing.assert_allclose(
            result.residuals["penetration"], penetration.values - model, atol=1e-15
        )
        for stage, series in (("penetration", penetration), ("sales", sales)):
            resid = result.residuals[stage]
            assert resid.shape == series.values.shape
            assert result.sse[stage] == pytest.approx(float((resid**2).sum()))

    def test_plateaus_stay_in_unit_interval(self):
        # sales five times too large pull the unbounded plateaus past one
        good = BENCHMARKS["bw_tv"]
        sales = synthesize("sales", good)
        result = fit_two_wave(
            synthesize("nominal_price", good),
            synthesize("penetration", good),
            TimeSeries(sales.years, 5.0 * sales.values, "sales"),
            good,
        )
        assert 0.0 <= result.spreading_plateau <= 1.0
        assert 0.0 <= result.evolutionary_plateau <= 1.0

    @pytest.mark.parametrize(
        "year_offset, scale", [(0.0, 0.0), (-1.0, 1.0)], ids=["all_zero", "pre_intro"]
    )
    def test_unusable_sales_series_is_fit_error(self, year_offset, scale):
        good = BENCHMARKS["colour_tv"]
        sales = synthesize("sales", good)
        with pytest.raises(FitError):
            fit_two_wave(
                synthesize("nominal_price", good),
                synthesize("penetration", good),
                TimeSeries(sales.years + year_offset, scale * sales.values, "sales"),
                good,
            )

    def test_too_few_penetration_and_sales_values_is_fit_error(self):
        good = BENCHMARKS["colour_tv"]
        with pytest.raises(FitError, match="at least 5 penetration and sales values"):
            fit_two_wave(
                synthesize("nominal_price", good),
                synthesize("penetration", good, n_points=2),
                synthesize("sales", good, n_points=2),
                good,
            )

    def test_round_trip_smoke(self):
        report = round_trip(BENCHMARKS["colour_tv"], n_seeds=5)
        assert report["n_seeds"] == 5
        assert abs(report["medians"]["decline_rate"]) < 0.10
        assert abs(report["medians"]["evolutionary_plateau"]) < 0.05
        assert report["unconverged"] == 0

    def test_round_trip_sums_nfev_refined_over_its_fits(self, monkeypatch):
        fits = []
        original = calibration.fit_two_wave

        def recording_fit(*args, **kwargs):
            fits.append(original(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(calibration, "fit_two_wave", recording_fit)
        report = round_trip(BENCHMARKS["fax"], n_seeds=3)
        assert len(fits) == 3
        assert report["nfev_refined"] == sum(f.provenance["nfev_refined"] for f in fits)
