import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

import evomarket
from evomarket import stochastic
from evomarket.errors import StepSizeError
from evomarket.stochastic import (
    PriceNoiseParams,
    ReproductionSimParams,
    SizeDistParams,
    growth_rate_transform,
    ks_statistic,
    langevin_price_ensemble,
    langevin_price_sim,
    laplace_cdf,
    laplace_fit,
    laplace_pdf,
    lognormal_size_pdf,
    multiplicative_growth_sim,
    reproduction_param_sim,
)

UNIT_NOISE = PriceNoiseParams(restoring=1.0, noise=1.0)


def laplace_quantile(u, location, scale):
    u = np.asarray(u, dtype=float)
    return location - scale * np.sign(u - 0.5) * np.log(1.0 - 2.0 * np.abs(u - 0.5))


class TestLangevinPriceSim:
    def test_noise_free_limit_descends_linearly(self):
        params = PriceNoiseParams(restoring=1.0, noise=1e-30)
        dt = 1e-3
        path = langevin_price_sim(params, dt, steps=500, seed=0, start=1.0)
        t = dt * np.arange(501)
        assert np.allclose(path, 1.0 - t, atol=1e-9)

    def test_same_seed_is_bit_identical(self):
        a = langevin_price_sim(UNIT_NOISE, 1e-3, 1000, seed=42)
        b = langevin_price_sim(UNIT_NOISE, 1e-3, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = langevin_price_sim(UNIT_NOISE, 1e-3, 100, seed=1)
        b = langevin_price_sim(UNIT_NOISE, 1e-3, 100, seed=2)
        assert not np.array_equal(a, b)


class TestLangevinPriceEnsemble:
    def ensemble(self, n_paths, seed=5):
        # the burn-in of ten relaxation times is one step, then one step of 0.5
        return langevin_price_ensemble(UNIT_NOISE, 0.5, n_paths, seed)

    def test_same_seed_is_bit_identical(self):
        assert np.array_equal(self.ensemble(2800), self.ensemble(2800))

    @pytest.mark.parametrize("n_paths", [2507, 10])
    def test_sample_count_and_finiteness(self, n_paths):
        samples = self.ensemble(n_paths)
        assert samples.shape == (n_paths,)
        assert np.all(np.isfinite(samples))

    @pytest.mark.parametrize(
        "params, dt",
        [(UNIT_NOISE, 1e-2), (PriceNoiseParams(restoring=0.5, noise=0.3), 2e-2)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_path_matches_the_scalar_stepper(self, params, dt, seed):
        burn_in = 10.0 * params.noise / params.restoring**2
        # at dt = burn_in both steps have the one length the stepper takes
        path = langevin_price_sim(params, burn_in, 2, seed)
        samples = langevin_price_ensemble(params, burn_in, 1, seed)
        assert np.array_equal(samples, path[-1:])
        # at any other dt: one burn-in step, then one step of dt
        x = np.zeros(1)
        rng = np.random.default_rng(seed)
        stochastic._reflected_step(x, params, burn_in, rng)
        stochastic._reflected_step(x, params, dt, rng)
        samples = langevin_price_ensemble(params, dt, 1, seed)
        assert np.array_equal(samples, x)


def exact_step_from(x0, h, n, seed, substeps=1):
    x = np.full(n, float(x0))
    rng = np.random.default_rng(seed)
    for _ in range(substeps):
        stochastic._reflected_step(x, UNIT_NOISE, h / substeps, rng)
    return x


def euler_from(x0, h, dt, n, seed):
    # the Euler-Maruyama reference: d <- d - b sign(d) dt + sqrt(noise dt) xi
    x = np.full(n, float(x0))
    rng = np.random.default_rng(seed)
    kick = np.sqrt(UNIT_NOISE.noise * dt)
    for _ in range(round(h / dt)):
        x -= UNIT_NOISE.restoring * dt * np.sign(x)
        x += kick * rng.standard_normal(n)
    return x


class TestExactStep:
    # each two-sample KS test fails by chance with probability 1e-3
    P_MIN = 1e-3

    @pytest.mark.parametrize("x0", [0.0, 0.3, 2.0])
    def test_one_coarse_step_matches_fine_euler_steps(self, x0):
        exact = exact_step_from(x0, 0.5, 20_000, seed=11)
        euler = euler_from(x0, 0.5, 1e-3, 20_000, seed=12)
        assert ks_2samp(exact, euler).pvalue > self.P_MIN

    @pytest.mark.parametrize("x0", [0.0, 0.3, 2.0])
    def test_one_step_matches_two_half_steps(self, x0):
        one = exact_step_from(x0, 1.0, 200_000, seed=21)
        two = exact_step_from(x0, 1.0, 200_000, seed=22, substeps=2)
        assert ks_2samp(one, two).pvalue > self.P_MIN

    def test_one_step_matches_twenty_steps_from_zero(self):
        # the ensemble's burn-in: ten relaxation times as one step, against
        # the twenty steps of 0.5 it replaced
        one = exact_step_from(0.0, 10.0, 200_000, seed=41)
        twenty = exact_step_from(0.0, 10.0, 200_000, seed=42, substeps=20)
        assert ks_2samp(one, twenty).pvalue > self.P_MIN

    @pytest.mark.parametrize("x0", [5.0, -5.0])
    def test_far_from_zero_the_sign_never_flips(self, x0):
        x = exact_step_from(x0, 0.5, 100_000, seed=31)
        assert np.all(np.sign(x) == np.sign(x0))


class TestLaplacePdf:
    def test_peak_value(self):
        assert laplace_pdf(0.0, 2.0, 0.5) == pytest.approx(4.0)

    def test_symmetry(self):
        x = np.linspace(0.1, 3.0, 7)
        assert np.allclose(laplace_pdf(x, 1.0, 1.0), laplace_pdf(-x, 1.0, 1.0))

    def test_normalization(self):
        total, _ = quad(lambda x: laplace_pdf(x, 1.3, 0.7), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_variance_by_quadrature(self):
        restoring, noise = 1.3, 0.7
        second, _ = quad(
            lambda x: x**2 * laplace_pdf(x, restoring, noise), -np.inf, np.inf
        )
        assert second == pytest.approx(0.5 * noise**2 / restoring**2, abs=1e-8)

    def test_cdf_consistent_with_pdf(self):
        for x in (-1.5, -0.2, 0.0, 0.4, 2.0):
            integral, _ = quad(lambda s: laplace_pdf(s, 1.0, 1.0), -np.inf, x)
            assert laplace_cdf(x, 1.0, 1.0) == pytest.approx(integral, abs=1e-8)

    def test_cdf_far_tails_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert laplace_cdf(1000.0, 1.0, 1.0) == 1.0
            assert laplace_cdf(-1000.0, 1.0, 1.0) == 0.0
            assert np.array_equal(laplace_cdf(np.array([-1e3, 1e3]), 1.0, 1.0), [0.0, 1.0])

    def test_cdf_beyond_float_range_of_the_quotient(self):
        # |x| / scale overflows to inf; its exponential is still the right 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = laplace_cdf(np.array([1e308, -1e308, 0.0]), 1.0, 1.0)
        assert np.array_equal(out, [1.0, 0.0, 0.5])


class TestLaplaceFit:
    def test_hand_computable(self):
        location, scale = laplace_fit([-1.0, 0.0, 1.0])
        assert location == 0.0
        assert scale == pytest.approx(2.0 / 3.0)

    def test_lower_median_tie_rule(self):
        location, _ = laplace_fit([1.0, 2.0, 3.0, 4.0])
        assert location == 2.0

    @pytest.mark.parametrize(
        "samples",
        [
            np.random.default_rng(1).laplace(0.3, 1.1, 1001),
            np.random.default_rng(2).laplace(-0.2, 0.7, 1000),
            np.array([3.0, 1.0, 2.0, 2.0, 2.0, 5.0, 1.0, 2.0]),
        ],
        ids=["odd", "even", "tied"],
    )
    def test_matches_sorted_lower_median(self, samples):
        ordered = np.sort(samples)
        location = ordered[(samples.size - 1) // 2]
        scale = np.abs(samples - location).mean()
        assert laplace_fit(samples) == (location, scale)

    def test_quantile_grid_recovery(self):
        u = (np.arange(4001) + 0.5) / 4001
        samples = laplace_quantile(u, location=0.7, scale=1.4)
        location, scale = laplace_fit(samples)
        assert location == pytest.approx(0.7, abs=1e-3)
        assert scale == pytest.approx(1.4, abs=1.4e-3)

    def test_constant_samples_degenerate(self):
        location, scale = laplace_fit([2.0, 2.0, 2.0])
        assert location == 2.0
        assert scale == 0.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            laplace_fit([1.0])

    def test_consistency_error_shrinks(self):
        sizes = (1_000, 10_000, 100_000)
        medians = []
        for n in sizes:
            errors = []
            for seed in range(50):
                rng = np.random.default_rng(1000 + seed)
                samples = rng.laplace(0.0, 1.0, n)
                _, scale = laplace_fit(samples)
                errors.append(abs(scale - 1.0))
            medians.append(np.median(errors))
        assert medians[0] > medians[1] > medians[2]


class TestGrowthRateTransform:
    def test_no_growth(self):
        assert growth_rate_transform(2.0, 2.0) == 0.0

    def test_unit_log_growth(self):
        assert growth_rate_transform(1.0, np.e) == pytest.approx(1.0)

    def test_nonpositive_sales_rejected(self):
        with pytest.raises(ValueError):
            growth_rate_transform(0.0, 1.0)
        with pytest.raises(ValueError):
            growth_rate_transform(1.0, -1.0)

    def test_laplace_prices_map_to_laplace_rates(self):
        # linear demand-slope mapping preserves the Laplace shape,
        # scaling the parameter by the slope magnitude
        rng = np.random.default_rng(7)
        scale = 0.25
        slope = -3.0
        prices = rng.laplace(0.0, scale, 1_000_000)
        rates = growth_rate_transform(np.exp(prices * 0.0 + 1.0), np.exp(slope * prices + 1.0))
        target = abs(slope) * scale
        distance = ks_statistic(
            rates, lambda x: np.where(x < 0, 0.5 * np.exp(x / target), 1 - 0.5 * np.exp(-x / target))
        )
        assert distance < 0.01


class TestLognormalSizePdf:
    params = SizeDistParams(drift=0.05, volatility=0.3)

    def test_integrates_to_one(self):
        total, _ = quad(lambda y: lognormal_size_pdf(y, 4.0, self.params), 0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_median(self):
        t = 4.0
        median = np.exp(self.params.drift * t)
        mass, _ = quad(lambda y: lognormal_size_pdf(y, t, self.params), 0, median)
        assert mass == pytest.approx(0.5, abs=1e-8)

    def test_log_symmetry_without_drift(self):
        params = SizeDistParams(drift=0.0, volatility=0.4)
        t = 2.0
        for factor in (1.3, 2.0, 5.0):
            up = lognormal_size_pdf(factor, t, params)
            down = lognormal_size_pdf(1.0 / factor, t, params)
            assert up * factor == pytest.approx(down / factor, rel=1e-10)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            lognormal_size_pdf(0.0, 1.0, self.params)


class TestMultiplicativeGrowthSim:
    def test_zero_steps_identity(self):
        sizes = multiplicative_growth_sim(5, 0, lambda rng, n: rng.normal(size=n), 3)
        assert np.all(sizes == 1.0)

    def test_degenerate_rate(self):
        sizes = multiplicative_growth_sim(4, 10, lambda rng, n: np.full(n, 0.1), 3)
        assert np.allclose(sizes, np.exp(1.0))

    def test_log_sizes_approach_normality(self):
        sizes = multiplicative_growth_sim(
            10_000, 100, lambda rng, n: rng.laplace(0.0, 1.0, n), seed=99
        )
        logs = np.log(sizes)
        centered = logs - logs.mean()
        m2 = (centered**2).mean()
        skew = (centered**3).mean() / m2**1.5
        excess_kurtosis = (centered**4).mean() / m2**2 - 3.0
        assert abs(skew) < 0.1
        assert abs(excess_kurtosis) < 0.25


# compensation*dt 0.49 stops the doubling once decay**shift underflows,
# at shift 2048; 1e-3 and 1e-4 run every pass up to the path length, with
# shifts past the block size and paths that end at a block's edges (the
# short windows need 15 / (compensation*dt) steps)
BLOCK = stochastic._BLOCK
PATH_CASES = (
    [(49.0, 0.01, 0.1, s) for s in (4095, 4096, 4097)]
    + [(1.0, 1e-3, 0.01, s) for s in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)]
    + [(1.0, 1e-4, 0.01, s) for s in (2**18 - 1, 2**18, 2**18 + 1)]
)


def reproduction_inputs(dt, amortization, steps, seed):
    # the inputs reproduction_param_sim draws at jump_size = noise_amp = 0.05
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal(steps)
    counts = rng.poisson(dt / amortization, size=steps)
    assert counts.sum() > 0
    return 0.05 * np.sqrt(dt) * normals + 0.05 * counts


class TestReproductionParamSim:
    params = ReproductionSimParams(
        compensation=10.0, jump_size=0.05, amortization=100.0, noise_amp=0.05
    )

    def test_pure_relaxation(self):
        quiet = ReproductionSimParams(
            compensation=10.0, jump_size=0.0, amortization=100.0, noise_amp=0.0
        )
        dt = 0.001
        result = reproduction_param_sim(quiet, dt, steps=2000, seed=0, start=0.5)
        expected = 0.5 * (1.0 - 10.0 * dt) ** np.arange(2001)
        assert np.allclose(result.path, expected, atol=1e-12)
        assert result.path[-1] < 0.5 * np.exp(-10.0 * 2.0) * 1.5

    def test_long_run_mean_balances_jumps(self):
        quiet = ReproductionSimParams(
            compensation=10.0, jump_size=0.05, amortization=100.0, noise_amp=0.0
        )
        result = reproduction_param_sim(quiet, dt=0.02, steps=2_000_000, seed=5)
        target = 0.05 / (100.0 * 10.0)
        assert result.long_window_mean == pytest.approx(target, rel=0.10)

    def test_halving_amortization_doubles_mean(self):
        quiet = ReproductionSimParams(
            compensation=10.0, jump_size=0.05, amortization=50.0, noise_amp=0.0
        )
        base = reproduction_param_sim(
            ReproductionSimParams(10.0, 0.05, 100.0, 0.0), dt=0.02, steps=2_000_000, seed=8
        )
        fast = reproduction_param_sim(quiet, dt=0.02, steps=2_000_000, seed=9)
        assert fast.long_window_mean == pytest.approx(
            2.0 * base.long_window_mean, rel=0.10
        )

    def test_instability_rejected(self):
        with pytest.raises(StepSizeError):
            reproduction_param_sim(self.params, dt=0.06, steps=10, seed=0)

    @pytest.mark.parametrize("n_short_windows", [0, -1])
    def test_no_short_windows_rejected(self, n_short_windows):
        # 1000 steps hold nine windows after the burn-in, so only the
        # argument is at fault
        with pytest.raises(ValueError, match="n_short_windows must be at least 1"):
            reproduction_param_sim(self.params, 0.01, 1000, seed=4, n_short_windows=n_short_windows)

    @pytest.mark.parametrize("start", [0.0, 0.7])
    @pytest.mark.parametrize("compensation, dt, amortization, steps", PATH_CASES)
    def test_path_is_the_plain_recurrence(
        self, compensation, dt, amortization, steps, start
    ):
        params = ReproductionSimParams(compensation, 0.05, amortization, 0.05)
        path = reproduction_param_sim(params, dt, steps, seed=12, start=start).path
        decay = 1.0 - compensation * dt
        g = start
        expected = [g]
        for u in reproduction_inputs(dt, amortization, steps, seed=12).tolist():
            g = decay * g + u
            expected.append(g)
        expected = np.array(expected)
        # a few hundred roundings of the path's largest value
        assert np.abs(path - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "compensation, dt, amortization, steps",
        PATH_CASES + [(10.0, 0.02, 100.0, 1_500_000)],
    )
    def test_path_is_the_whole_array_doubling(
        self, compensation, dt, amortization, steps
    ):
        # the blocked passes add the same numbers in the same order as
        # whole-array passes on the same draws
        params = ReproductionSimParams(compensation, 0.05, amortization, 0.05)
        path = reproduction_param_sim(params, dt, steps, seed=13, start=0.7).path
        inputs = reproduction_inputs(dt, amortization, steps, seed=13)
        expected = np.concatenate(([0.7], inputs))
        decay = 1.0 - compensation * dt
        shift, factor = 1, decay
        while shift <= steps and factor > 0.0:
            expected[shift:] += factor * expected[:-shift]
            shift *= 2
            factor = decay**shift
        assert np.array_equal(path, expected)

    def test_memory_stays_near_the_path(self):
        # dist's size; whole-array passes peak near three paths
        steps = 1_500_000
        tracemalloc.start()
        try:
            reproduction_param_sim(self.params, 0.02, steps, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * (steps + 1)

    def test_deterministic_per_seed(self):
        a = reproduction_param_sim(self.params, 0.01, 1000, seed=4)
        b = reproduction_param_sim(self.params, 0.01, 1000, seed=4)
        assert np.array_equal(a.path, b.path)

    def test_short_windows_sit_between_scales(self):
        result = reproduction_param_sim(self.params, 0.01, 200_000, seed=4)
        assert 1.0 / self.params.compensation < result.short_window
        assert result.short_window < self.params.amortization


def loaded_by_import(modules):
    """Those of ``modules`` that a fresh ``import evomarket`` loads."""
    source = str(Path(evomarket.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {source!r}); import evomarket; "
        f"print(sorted(m for m in {tuple(modules)!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_leaves_scipy_signal_and_stats_out():
    assert loaded_by_import(["scipy.signal", "scipy.stats"]) == "[]"


def test_import_leaves_the_optimizer_unloaded():
    # calibration imports scipy.optimize only when a fit runs
    assert loaded_by_import(["scipy.optimize"]) == "[]"


class TestKsStatistic:
    def test_exact_quantiles_have_small_distance(self):
        u = (np.arange(1000) + 0.5) / 1000
        assert ks_statistic(u, lambda x: np.clip(x, 0, 1)) < 1e-3

    def test_shifted_distribution_detected(self):
        u = (np.arange(1000) + 0.5) / 1000 + 0.4
        assert ks_statistic(u, lambda x: np.clip(x, 0, 1)) > 0.3

    @pytest.mark.parametrize(
        "samples, distance", [([0.7, 0.1, 0.4], 0.3), ([0.9, 0.5], 0.5)]
    )
    def test_hand_checked(self, samples, distance):
        assert ks_statistic(samples, lambda x: x) == pytest.approx(distance, abs=1e-15)

    def test_matches_sort_and_arange_formula(self):
        samples = np.random.default_rng(8).laplace(0.0, 0.5, 100_000)
        original = samples.copy()

        def cdf(x):
            return laplace_cdf(x, 1.0, 1.0)

        data = np.sort(samples)
        n = data.size
        theory = cdf(data)
        expected = max(
            np.max(np.arange(1, n + 1) / n - theory), np.max(theory - np.arange(n) / n)
        )
        assert ks_statistic(samples, cdf) == pytest.approx(expected, abs=1e-15)
        assert np.array_equal(samples, original)
