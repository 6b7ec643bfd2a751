import dataclasses
import warnings

import numpy as np
import pytest
import scipy.optimize

from evomarket.benchmarks import BENCHMARKS
from evomarket import calibration
from evomarket.calibration import (
    FisherPryFit,
    FitResult,
    TWO_WAVE_STARTS,
    PriceDeclineFit,
    _separable_lm,
    fit_two_wave,
    round_trip,
    synthesize,
    synthesize_share,
    vhs_round_trip,
)
from evomarket.diffusion import (
    BassParams,
    GompertzParams,
    bass_penetration,
    gompertz_penetration,
)
from evomarket.errors import FitError
from evomarket.evodyn import DemandState, Product
from evomarket.lifecycle import WaveParams
from evomarket.market import IncomeModel, MarketStructure
from evomarket.series import TimeSeries

import test_properties


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


def merge_radius(starts):
    """The radius within which ``_separable_lm`` merges runs from ``starts``."""
    return calibration._merge_radius(np.log(np.asarray(starts, dtype=float)))


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

    def test_observations_before_the_onset_are_ignored(self):
        good = BENCHMARKS["fax"]
        series = synthesize("nominal_price", good)
        before = np.arange(good.intro_year, good.intro_year + good.onset_delay)
        padded = TimeSeries(
            np.concatenate([before, series.years]),
            np.concatenate([np.full(before.size, 1.0), series.values]),
            "nominal_price",
        )
        fits = [
            PriceDeclineFit(intro_year=good.intro_year, onset_delay=good.onset_delay).fit(s)
            for s in (series, padded)
        ]
        assert before.tolist() == [1977.0, 1978.0, 1979.0, 1980.0]
        assert fits[1].decline_rate_ == fits[0].decline_rate_
        assert fits[1].floor_ratio_ == fits[0].floor_ratio_
        assert fits[1].sse_.hex() == fits[0].sse_.hex()
        assert fits[1].nfev_ == fits[0].nfev_

    @pytest.mark.parametrize(
        ("option", "message"),
        [
            ({"intro_price": 0.0}, "intro_price must be positive"),
            ({"intro_price": -1.0}, "intro_price must be positive"),
            ({"onset_delay": -0.5}, "onset_delay must be non-negative"),
        ],
        ids=["zero_intro_price", "negative_intro_price", "negative_onset_delay"],
    )
    def test_invalid_inputs_raise(self, option, message):
        with pytest.raises(ValueError, match=message):
            PriceDeclineFit(**option).fit(price_series(0.2, 0.0))


class TestFisherPryFit:
    def test_exact_recovery(self):
        t = np.arange(12.0)
        shares = 1.0 / (1.0 + np.exp(-(0.22 * t + 0.0)))
        fit = FisherPryFit().fit(TimeSeries(t, shares, "share"))
        assert fit.advantage_ == pytest.approx(0.22, abs=1e-12)
        assert fit.intercept_ == pytest.approx(0.0, abs=1e-12)

    def test_constant_half_share(self):
        t = np.arange(10.0)
        fit = FisherPryFit().fit(TimeSeries(t, np.full(10, 0.5), "share"))
        assert fit.advantage_ == pytest.approx(0.0, abs=1e-15)
        assert fit.intercept_ == pytest.approx(0.0, abs=1e-15)

    def test_boundary_share_rejected(self):
        t = np.arange(3.0)
        with pytest.raises(ValueError):
            FisherPryFit().fit(TimeSeries(t, np.array([0.2, 1.0, 0.4]), "share"))

    def test_noisy_logit_monte_carlo(self):
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = np.arange(10.0)
            logits = 0.22 * t + 0.02 * rng.standard_normal(10)
            shares = 1.0 / (1.0 + np.exp(-logits))
            fit = FisherPryFit().fit(TimeSeries(t, shares, "share"))
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
        # a good is checked when it is made, so synthesize never sees one
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(BENCHMARKS["bw_tv"], **{field: value})

    def test_plateaus_summing_past_one_are_rejected(self):
        # fax's plateaus sum to exactly 1, the largest sum a good may have
        fax = BENCHMARKS["fax"]
        assert fax.spreading_plateau + fax.evolutionary_plateau == 1.0
        with pytest.raises(ValueError, match="exceeds 1"):
            dataclasses.replace(fax, spreading_plateau=0.5, evolutionary_plateau=0.9)

    def test_negative_noise_rejected(self):
        good = BENCHMARKS["bw_tv"]
        years = 1977.0 + np.arange(12.0)
        for make in (
            lambda: synthesize("sales", good, noise=-0.5, seed=1),
            lambda: synthesize_share(0.22, 0.0, years, -0.5, 1),
            lambda: round_trip(good, n_seeds=1, noise=-0.5),
            lambda: vhs_round_trip(n_seeds=1, noise=-0.5),
        ):
            with pytest.raises(ValueError, match="noise"):
                make()

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
            batch = log_params.shape[:-1]
            return np.full(batch + (3, 1), np.inf), np.zeros(batch + (3, 1, 1))

        with pytest.raises(FitError, match="no start gave finite residuals"):
            _separable_lm(
                design, np.ones(3), np.ones(3), [(1.0,), (2.0,)], np.log([0.1]), np.log([10])
            )

    def test_refines_only_the_best_feasible_starts_in_cost_order(self, monkeypatch):
        t = np.arange(20.0)
        observed = np.exp(-0.5 * t)

        def design(log_rate):
            rate = np.exp(log_rate)
            decay = np.exp(-rate * t)
            infeasible = (8.0 < rate) & (rate < 50.0)  # a band of the box
            columns = np.where(infeasible, np.inf, decay)
            return columns[..., None], (-rate * t * decay)[..., None, None]

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
        # the decay is exact, so the first run would end the refine
        monkeypatch.setattr(calibration, "_ROUNDING_FLOOR", 0.0)
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
        expected = sorted(costs, key=costs.get)[: calibration._REFINE_STARTS]
        assert len(expected) < len(costs)
        assert refined_rates == pytest.approx(expected, rel=1e-12)
        assert all(callable(jac) for jac in jacobians)
        assert best.cost == min(run.cost for run in runs)
        assert best.starts_screened == len(costs)
        assert best.starts_refined == len(refined_rates)
        assert best.starts_merged == sum(run.merged for run in runs)
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-9)

    # a wave of unknown frequency: the cost has a local minimum near every
    # start, so the refined runs end at different costs
    WAVE_T = np.linspace(0.0, 20.0, 81)
    WAVE_STARTS = [(w,) for w in (2.3, 1.1, 2.9, 0.15, 4.0, 0.52, 1.7, 0.8)]
    # starts whose fourth-cheapest at the screen is the only refined one in
    # the basin of the true frequency, 0.5
    WAVE_STARTS_GLOBAL_LAST = [(w,) for w in (0.9, 0.3, 0.06, 1.2, 0.7, 0.26)]

    @classmethod
    def fit_wave(cls, starts):
        t = cls.WAVE_T

        def design(log_frequency):
            frequency = np.exp(log_frequency)
            column = (1.0 + np.sin(frequency * t)) / 2.0
            derivative = frequency * t * np.cos(frequency * t) / 2.0
            return column[..., None], derivative[..., None, None]

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
        best = self.fit_wave(self.WAVE_STARTS_GLOBAL_LAST)
        costs = [run.cost for run in runs]
        assert len(costs) == calibration._REFINE_STARTS
        # only the last refined run reaches the global minimum
        assert min(costs[:-1]) > 1.0
        assert not runs[-1].merged
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

    @staticmethod
    def fit_decay(starts):
        """The one-column fit of a noiseless decay of rate 0.5."""
        t = np.arange(20.0)

        def design(log_rate):
            rate = np.exp(log_rate)
            decay = np.exp(-rate * t)
            return decay[..., None], (-rate * t * decay)[..., None, None]

        return _separable_lm(
            design, np.exp(-0.5 * t), np.ones(t.size), starts, np.log([1e-3]), np.log([1e2])
        )

    def test_a_second_start_in_the_first_runs_basin_is_merged(self, monkeypatch):
        # the decay is exact, so the first run would end the refine
        monkeypatch.setattr(calibration, "_ROUNDING_FLOOR", 0.0)
        starts = [(0.6,), (0.45,)]
        best, runs = recorded_lm_runs(monkeypatch, lambda: self.fit_decay(starts))
        first, second = (run for *_, run in runs)
        assert not first.merged and second.merged
        assert best.starts_merged == 1
        assert np.max(np.abs(second.x - first.x)) < merge_radius(starts)
        assert second.cost >= first.cost
        monkeypatch.setattr(calibration, "_MERGE_FRACTION", 0.0)
        unmerged, unmerged_runs = recorded_lm_runs(monkeypatch, lambda: self.fit_decay(starts))
        assert unmerged.starts_merged == 0
        assert unmerged_runs[0][3].nfev == first.nfev
        assert second.nfev < unmerged_runs[1][3].nfev
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-9)
        assert np.exp(unmerged.log_params[0]) == pytest.approx(0.5, rel=1e-9)

    def test_an_exact_run_ends_the_refine(self, monkeypatch):
        # both starts lead to the true rate; the first run reproduces the
        # decay to rounding, so the second start is never refined
        best, runs = recorded_lm_runs(monkeypatch, lambda: self.fit_decay([(0.6,), (0.45,)]))
        assert len(runs) == best.starts_refined == 1
        assert best.success and not best.merged
        assert np.max(np.abs(best.fun)) < 20 * np.finfo(float).eps
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("status, refined", [(2, 1), (5, 2)])
    def test_only_a_converged_exact_run_ends_the_refine(self, monkeypatch, status, refined):
        # the first run ends at its start, the true rate, with residuals at
        # rounding: it ends the refine when it converged (code 2), but not
        # when it stopped on its evaluation limit (code 5)
        best, runs = self.fit_decay_first_run_ending_at_its_start(
            monkeypatch, [(0.6,), (0.5,)], status
        )
        exact = runs[0]
        assert np.exp(exact.x[0]) == 0.5
        assert np.max(np.abs(exact.fun)) < 20 * np.finfo(float).eps
        assert exact.success is (status == 2)
        assert len(runs) == best.starts_refined == refined
        assert runs[-1].success
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-12)

    def test_the_merge_radius_is_half_the_smallest_gap_of_the_log_starts(self):
        # on the two-wave lattice the smallest gap is the imitation step ln(4/1.5)
        radius = merge_radius(TWO_WAVE_STARTS)
        assert radius == pytest.approx(0.5 * np.log(4.0 / 1.5), rel=1e-12)
        assert round(radius, 4) == 0.4904
        assert merge_radius(TWO_WAVE_STARTS[::-1]) == radius
        log_starts = np.log(self.WAVE_STARTS_GLOBAL_LAST)
        gaps = [
            np.max(np.abs(a - b))
            for i, a in enumerate(log_starts)
            for b in log_starts[i + 1 :]
        ]
        assert merge_radius(self.WAVE_STARTS_GLOBAL_LAST) == 0.5 * min(gaps)
        # one start, as in the price fit, merges nothing
        assert merge_radius(calibration.PRICE_STARTS) == 0.0

    def test_a_run_passing_an_earlier_end_just_outside_the_radius_is_not_merged(
        self, monkeypatch
    ):
        # the first run reports convergence (code 2) at its start; the second
        # evaluates its start, then one point beside that end, farther from
        # the true rate, and reports convergence there
        starts = [(0.6,), (0.3,)]
        radius = merge_radius(starts)
        end = np.log([0.6])
        for factor, merged in ((1.0 + 1e-9, False), (1.0 - 1e-9, True)):
            beside = end + factor * radius

            def scripted(fun, x0, Dfun, **kwargs):
                points = [x0] if x0[0] == end[0] else [x0, beside]
                for x in points:
                    resid = fun(x)
                return x, None, {"fvec": resid, "nfev": len(points), "njev": 1}, "", 2

            monkeypatch.setattr(calibration, "leastsq", scripted)
            best, runs = recorded_lm_runs(monkeypatch, lambda: self.fit_decay(starts))
            first, second = (run for *_, run in runs)
            assert first.success and first.x[0] == end[0]
            assert second.x[0] == beside[0] and second.cost > first.cost
            assert second.merged == merged and best.starts_merged == merged
            assert best is first

    def test_the_jacobian_is_computed_once_per_point(self, monkeypatch):
        # leastsq asks for the Jacobian at x0 twice, to check its shape and
        # for MINPACK's first step; both must get the one array computed there
        runs = []
        original = calibration.least_squares

        def recording_jacobians(fun, x0, jac, **kwargs):
            asked = []
            runs.append(asked)

            def recorded(x):
                asked.append((x.tobytes(), jac(x)))
                return asked[-1][1]

            return original(fun, x0, jac=recorded, **kwargs)

        monkeypatch.setattr(calibration, "least_squares", recording_jacobians)
        fit_two_wave(*noisy_draw("colour_tv"))
        distinct = 0
        for asked in runs:
            points = {point for point, _ in asked}
            assert len({id(jacobian) for _, jacobian in asked}) == len(points)
            distinct += len(points)
        assert distinct < sum(map(len, runs))

    def fit_decay_first_run_ending_at_its_start(self, monkeypatch, starts, status):
        """``fit_decay(starts)`` whose first run ends at its start with
        MINPACK code ``status``; returns the fit and every run's result."""
        runs = []
        original = calibration.leastsq

        def first_ends_at_its_start(fun, x0, Dfun, **kwargs):
            if not runs:
                return x0, None, {"fvec": fun(x0), "nfev": 1, "njev": 1}, "", status
            return original(fun, x0, Dfun=Dfun, **kwargs)

        monkeypatch.setattr(calibration, "leastsq", first_ends_at_its_start)
        record = calibration.least_squares

        def recording_least_squares(fun, x0, **kwargs):
            runs.append(record(fun, x0, **kwargs))
            return runs[-1]

        monkeypatch.setattr(calibration, "least_squares", recording_least_squares)
        return self.fit_decay(starts), runs

    def test_a_run_that_ends_below_an_earlier_run_is_not_merged(self, monkeypatch):
        # the first run reports convergence (code 2) at its start, a little
        # above the true rate; the second passes it on the way to the truth
        close = 0.5 * np.exp(0.007)
        starts = [(0.6,), (close,)]
        best, (ended, passing) = self.fit_decay_first_run_ending_at_its_start(
            monkeypatch, starts, status=2
        )
        assert np.exp(ended.x[0]) == close and ended.success
        # the second run ends within the merge radius of the first, below it
        assert np.max(np.abs(passing.x - ended.x)) < merge_radius(starts)
        assert passing.cost < ended.cost
        assert not passing.merged and best.starts_merged == 0
        assert best.cost == passing.cost
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-9)

    def test_a_run_that_did_not_converge_merges_no_later_run(self, monkeypatch):
        # the first run stops on its evaluation limit (code 5) at its start,
        # a little below the true rate; the second comes within the merge
        # radius of it at a higher cost on its way to the truth
        close = 0.5 * np.exp(-0.004)
        starts = [(0.6,), (close,)]
        entered = []
        original = calibration.least_squares

        def recording_points(fun, x0, **kwargs):
            def residuals(x):
                resid = fun(x)
                entered.append((x.copy(), 0.5 * np.dot(resid, resid)))
                return resid

            return original(residuals, x0, **kwargs)

        monkeypatch.setattr(calibration, "least_squares", recording_points)
        best, (stopped, passing) = self.fit_decay_first_run_ending_at_its_start(
            monkeypatch, starts, status=5
        )
        assert np.exp(stopped.x[0]) == close and not stopped.success
        assert any(
            np.max(np.abs(x - stopped.x)) < merge_radius(starts) and cost > stopped.cost
            for x, cost in entered[1:]
        )
        assert not passing.merged and passing.success and best.starts_merged == 0
        assert best.cost == passing.cost
        assert np.exp(best.log_params[0]) == pytest.approx(0.5, rel=1e-9)


def bvls_cost(columns, observed, upper):
    """The residual sum of squares of scipy's BVLS solution on ``[0, upper]``."""
    x = scipy.optimize.lsq_linear(columns, observed, bounds=(0.0, upper), method="bvls").x
    resid = observed - columns @ x
    return float(resid @ resid)


def bounded_problems(rng):
    """Seeded two-column problems ``(name, columns, observed, upper)`` that
    put BVLS's solution inside the box, on each edge and in each corner,
    below an infinite upper bound, and on zero, collinear and nearly
    collinear columns."""
    n = 30
    t = np.arange(n, dtype=float)
    problems = []
    for c0 in (-0.5, 0.5, 1.5):
        for c1 in (-0.5, 0.5, 1.5):
            for draw in range(5):
                columns = rng.random((n, 2))
                observed = columns @ [c0, c1] + 0.05 * rng.standard_normal(n)
                problems.append((f"box{c0},{c1}#{draw}", columns, observed, 1.0))
    # the price fit's amplitude and floor: [0, inf) and [0, 1]
    for amplitude in (-1.0, 0.5, 50.0):
        for floor in (-0.2, 0.3, 1.4):
            columns = np.column_stack([np.exp(-0.3 * t), np.ones(n)])
            observed = columns @ [amplitude, floor] + 0.01 * rng.standard_normal(n)
            problems.append((f"price{amplitude},{floor}", columns, observed, [np.inf, 1.0]))
    base = rng.random(n)
    observed = 0.7 * base + 0.05 * rng.standard_normal(n)
    zero = np.zeros(n)
    # a direction orthogonal to base, for a condition number near 1e12
    other = rng.standard_normal(n)
    other -= (other @ base) / (base @ base) * base
    other *= 1e-12 * np.linalg.norm(base) / np.linalg.norm(other)
    for name, pair in {
        "zero first": (zero, base),
        "zero second": (base, zero),
        "both zero": (zero, zero),
        "collinear": (base, 2.0 * base),
        "opposite": (base, -base),
        "nearly collinear": (base, base + other),
    }.items():
        for upper in (1.0, [np.inf, 1.0], [1.0, np.inf]):
            problems.append((f"{name} {upper}", np.column_stack(pair), observed, upper))
            problems.append((f"{name} {upper} far", np.column_stack(pair), 5.0 * observed, upper))
    return problems


BOUNDED_PROBLEMS = bounded_problems(np.random.default_rng(2029))


class TestBoundedTwoColumn:
    """``calibration._bounded_two_column`` against scipy's BVLS."""

    @staticmethod
    def solve(columns, observed, upper):
        coef, cost = calibration._bounded_two_column(columns[None], observed, upper)
        return coef[0], cost[0]

    @pytest.mark.parametrize(
        "columns, observed, upper",
        [pytest.param(*problem[1:], id=problem[0]) for problem in BOUNDED_PROBLEMS],
    )
    def test_cost_is_bvls_cost(self, columns, observed, upper):
        coef, cost = self.solve(columns, observed, upper)
        assert np.all((coef >= 0.0) & (coef <= upper))
        resid = observed - columns @ coef
        assert cost == pytest.approx(float(resid @ resid), rel=1e-12)
        expected = bvls_cost(columns, observed, upper)
        assert abs(cost - expected) <= 1e-12 * expected + 1e-14 * (observed @ observed)

    def test_problems_cover_the_interior_every_edge_and_every_corner(self):
        places = set()
        for name, columns, observed, _ in BOUNDED_PROBLEMS:
            if not name.startswith("box"):
                continue
            x = scipy.optimize.lsq_linear(columns, observed, bounds=(0.0, 1.0), method="bvls").x
            places.add(tuple(-1 if v == 0.0 else 1 if v == 1.0 else 0 for v in x))
        assert places == {(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}

    def test_nearly_collinear_columns_have_condition_near_1e12(self):
        (columns,) = [c for name, c, *_ in BOUNDED_PROBLEMS if name == "nearly collinear 1.0"]
        assert 1e11 < np.linalg.cond(columns) < 1e13

    @pytest.mark.parametrize("upper", [1.0, np.array([np.inf])])
    def test_one_column_is_the_clipped_one_column_solution(self, upper):
        rng = np.random.default_rng(7)
        for scale in (-1.0, 0.4, 3.0):
            column = rng.random(20)
            observed = scale * column + 0.05 * rng.standard_normal(20)
            coef, cost = self.solve(column[:, None], observed, upper)
            assert coef.shape == (1,)
            expected = bvls_cost(column[:, None], observed, upper)
            assert cost == pytest.approx(expected, rel=1e-12, abs=1e-14 * (observed @ observed))

    def test_non_finite_columns_are_dropped_and_each_row_is_solved_alone(self):
        rng = np.random.default_rng(11)
        observed = rng.random(30)
        batch = rng.standard_normal((25, 30, 2)) * rng.choice([1e-3, 1.0, 1e3], (25, 1, 2))
        batch[3, 7, 0] = np.nan
        batch[8, 0, 1] = np.inf
        batch[9, 29, 0] = -np.inf
        coef, cost = calibration._bounded_two_column(batch, observed, 1.0)
        dropped = np.zeros(25, dtype=bool)
        dropped[[3, 8, 9]] = True
        assert np.all(np.isinf(cost[dropped]))
        assert np.all(np.isfinite(cost[~dropped]))
        for row in range(25):
            alone_coef, alone_cost = self.solve(batch[row], observed, 1.0)
            assert alone_cost.tobytes() == cost[row].tobytes()
            if not dropped[row]:
                assert alone_coef.tobytes() == coef[row].tobytes()
                expected = bvls_cost(batch[row], observed, 1.0)
                assert abs(cost[row] - expected) <= 1e-12 * expected + 1e-14 * (observed @ observed)

    def test_no_runtime_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _, columns, observed, upper in BOUNDED_PROBLEMS:
                self.solve(columns, observed, upper)
            calibration._bounded_two_column(np.full((2, 5, 2), np.nan), np.ones(5), 1.0)

    def test_refine_falls_back_to_it_on_the_fits_own_problems(self, monkeypatch):
        # the refine solves a point's plateaus here only when lstsq's solution
        # leaves the box; record those one-problem calls, not the screen's
        calls, refining = [], []
        solve, least_squares = calibration._bounded_two_column, calibration.least_squares

        def recording_solve(columns, observed, upper):
            coef, cost = solve(columns, observed, upper)
            if refining:
                calls.append((columns[0], observed, upper, coef[0], cost[0]))
            return coef, cost

        def refining_least_squares(*args, **kwargs):
            refining.append(True)
            try:
                return least_squares(*args, **kwargs)
            finally:
                refining.pop()

        monkeypatch.setattr(calibration, "_bounded_two_column", recording_solve)
        monkeypatch.setattr(calibration, "least_squares", refining_least_squares)
        for name in ("bw_tv", "colour_tv"):
            fit_two_wave(*noisy_draw(name))
        PriceDeclineFit().fit(price_series(0.103, 0.0, noise=0.02, seed=2))

        # both problems: the two-wave plateaus in [0, 1], the price's in [0, inf) x [0, 1]
        assert {np.ndim(upper) for *_, upper, _, _ in calls} == {0, 1}
        for columns, observed, upper, coef, cost in calls:
            assert cost == pytest.approx(bvls_cost(columns, observed, upper), rel=1e-12)
            x = scipy.optimize.lsq_linear(columns, observed, bounds=(0.0, upper), method="bvls").x
            bounds = np.broadcast_to(upper, coef.shape)
            held = (x == 0.0) | (x == bounds)
            assert np.any(held)
            assert np.all(coef[held] == x[held])
            # so Kaufman's projection treats the held coefficient as fixed
            assert not np.all((coef > 0) & (coef < upper))


class TestLeastSquares:
    """``calibration.least_squares`` takes the iterates of scipy's
    ``least_squares(method="lm")``: both run MINPACK's ``lmder``."""

    @staticmethod
    def assert_same_run(fun, x0, jac, run):
        """A run that was not merged is scipy's run from ``x0``; a merged
        one stops at the point of scipy's run after as many evaluations."""
        points = []

        def recording(x):
            if not points or not np.array_equal(x, points[-1]):
                points.append(x.copy())
            return fun(x)

        oracle = scipy.optimize.least_squares(
            recording,
            x0,
            jac=jac,
            method="lm",
            x_scale="jac",
            xtol=1e-12,
            ftol=1e-12,
            gtol=1e-12,
        )
        # scipy may evaluate x0 more than once before MINPACK's first step;
        # its points, each repeat once, are MINPACK's evaluations, x0 first
        assert len(points) == oracle.nfev
        if run.merged:
            assert run.nfev <= oracle.nfev
            assert np.array_equal(run.x, points[run.nfev - 1])
            return
        assert np.array_equal(run.x, oracle.x)
        assert run.cost == oracle.cost
        assert run.nfev == oracle.nfev
        assert run.njev == oracle.njev
        assert run.success == oracle.success

    def test_matches_scipy_from_the_price_fit_start(self, monkeypatch):
        price = noisy_draw("fax")[0]
        _, runs = recorded_lm_runs(monkeypatch, lambda: PriceDeclineFit().fit(price))
        assert len(runs) == 1
        self.assert_same_run(*runs[0])

    def test_matches_scipy_from_every_refined_two_wave_start(self, monkeypatch):
        _, runs = recorded_lm_runs(monkeypatch, lambda: fit_two_wave(*noisy_draw("bw_tv")))
        two_wave = [run for run in runs if run[1].size == 3]
        assert len(two_wave) == calibration._REFINE_STARTS
        for run in two_wave:
            self.assert_same_run(*run)

    def test_matches_scipy_on_the_sinusoid(self, monkeypatch):
        # the wave is exact, so the run that reaches it would end the refine
        monkeypatch.setattr(calibration, "_ROUNDING_FLOOR", 0.0)
        _, runs = recorded_lm_runs(
            monkeypatch, lambda: TestSeparableLm.fit_wave(TestSeparableLm.WAVE_STARTS)
        )
        assert len(runs) == calibration._REFINE_STARTS
        for run in runs:
            self.assert_same_run(*run)

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
    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_noiseless_full_recovery(self, name):
        good = BENCHMARKS[name]
        price = synthesize("nominal_price", good)
        penetration = synthesize("penetration", good)
        sales = synthesize("sales", good)
        result = fit_two_wave(price, penetration, sales, good)
        assert result.provenance["converged"]
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

    def test_provenance_records_inputs(self, monkeypatch):
        # noiseless, so the first run would end the refine
        monkeypatch.setattr(calibration, "_ROUNDING_FLOOR", 0.0)
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
            "starts_merged",
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
        two_wave = [run for *_, run in runs if run.x.size == 3]
        assert len(two_wave) == result.provenance["starts_refined"]
        assert result.provenance["nfev_refined"] == sum(run.nfev for run in two_wave)
        assert result.provenance["starts_merged"] == sum(run.merged for run in two_wave)
        assert result.provenance["nfev"] in [run.nfev for run in two_wave if not run.merged]

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
        assert result.sse["penetration"] == pytest.approx(
            float(((penetration.values - model) ** 2).sum()), rel=1e-9
        )
        fitted = dataclasses.replace(
            good,
            **{name: getattr(result, name) for name in test_properties.TWO_WAVE_FIELDS},
        )
        sales_model = test_properties.one_echo_sum("sales", fitted, t)
        assert result.sse["sales"] == pytest.approx(
            float(((sales.values - sales_model) ** 2).sum()), rel=1e-9
        )

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

    def test_share_round_trip_reports_as_round_trip_does(self):
        report = vhs_round_trip(n_seeds=3)
        assert report.keys() == round_trip(BENCHMARKS["colour_tv"], n_seeds=1).keys()
        assert report["good"] == "vcr_formats" and report["n_seeds"] == 3
        assert report["unconverged"] == report["nfev_refined"] == 0
        assert report["passed"] == {"advantage": abs(report["medians"]["advantage"]) <= 0.15}

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


NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: BassParams(0.01, NAN, 0.5),
        lambda: dataclasses.replace(BENCHMARKS["bw_tv"], decline_rate=NAN),
        lambda: dataclasses.replace(BENCHMARKS["bw_tv"], imitation=NAN),
        lambda: dataclasses.replace(BENCHMARKS["bw_tv"], onset_delay=NAN),
        lambda: dataclasses.replace(BENCHMARKS["bw_tv"], spreading_multiple=NAN),
        lambda: Product(sales=0.0, stock=NAN, price=0.5, preference=1.0, reproduction=0.0),
        lambda: DemandState(NAN, 1.0, 1.0),
        lambda: MarketStructure(upper_share=0.02, minimum_price=NAN, width=0.5),
        lambda: synthesize("sales", BENCHMARKS["bw_tv"], noise=NAN),
        lambda: WaveParams(multiple_rate=NAN),
        lambda: IncomeModel(1.0, growth=NAN),
        lambda: PriceDeclineFit(onset_delay=NAN).fit(price_series(0.2, 0.0)),
        lambda: FitResult(good=None, sse={"price": NAN}),
    ],
    ids=[
        "bass_imitation", "good_decline_rate", "good_imitation", "good_onset_delay",
        "good_spreading_multiple", "product_stock", "demand_potential",
        "market_minimum_price", "synthesize_noise", "wave_multiple_rate",
        "income_growth", "price_fit_onset_delay", "fit_result_sse",
    ],
)
def test_nan_is_rejected_where_a_value_must_not_be_negative(make):
    # every comparison is written so that NaN fails it: not value >= 0
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "field, value",
    [
        ("intro_year", NAN),
        ("intro_year", float("inf")),
        ("intro_year", float("-inf")),
        ("onset_delay", float("inf")),
    ],
)
def test_good_rejects_a_non_finite_intro_year_or_onset_delay(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(BENCHMARKS["bw_tv"], **{field: value})
