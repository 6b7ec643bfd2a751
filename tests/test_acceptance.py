"""Acceptance suite: every shipped claim at its stated tolerance.

Each criterion prints one pass/fail line (with the measured quantity
and the elapsed time) so the suite doubles as a readable report.  A
criterion whose verdict is a function of its inputs has a test beside
it that feeds the verdict deliberately wrong inputs.  Tolerances
are fixed here, not imported, so drift in library defaults cannot
silently weaken the gate.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from evomarket.benchmarks import BENCHMARKS, ROUND_TRIP_GOODS, VCR_FORMAT_CONTEST
from evomarket.calibration import ROUND_TRIP_TOLERANCES, round_trip, vhs_round_trip
from evomarket.cli import main as cli_main
from evomarket.diffusion import (
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
)
from evomarket.evodyn import (
    Population,
    Product,
    mean_price_drift,
    micro_step,
    replicator_step,
    sales_mean_price,
    stationary_demand,
)
from evomarket.lifecycle import WaveParams, wave_sales
from evomarket.market import MarketStructure, market_volume_gradient
from evomarket.stochastic import (
    PriceNoiseParams,
    ReproductionSimParams,
    ks_statistic,
    langevin_price_ensemble,
    laplace_cdf,
    reproduction_param_sim,
)


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(capsys, number, name, detail, elapsed, budget):
    within = elapsed < budget
    verdict, relation = ("PASS", "<") if within else ("FAIL", ">=")
    with capsys.disabled():
        print(
            f"ACCEPTANCE {number:2d} [{name}]: {verdict}  ({detail}; "
            f"{elapsed:.2f}s {relation} {budget:.0f}s)"
        )
    assert elapsed < budget


def test_criterion_01_gompertz_thirty_seven_percent_law(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    with Stopwatch() as clock:
        for _ in range(20):
            params = GompertzParams(
                plateau=rng.uniform(0.1, 1.0),
                shape=np.exp(rng.uniform(np.log(2.0), np.log(400.0))),
                rate=rng.uniform(0.05, 0.5),
            )
            # bracket from a coarse scan, refine by bounded minimization;
            # no use of the analytic maximizer anywhere
            grid = np.linspace(-50.0, 150.0, 2001)
            rough = grid[np.argmax(gompertz_rate(grid, params))]
            result = minimize_scalar(
                lambda t: -gompertz_rate(t, params),
                bounds=(rough - 1.0, rough + 1.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            cumulative = gompertz_penetration(result.x, params)
            worst = max(worst, abs(cumulative - params.plateau / np.e))
    assert worst < 1e-6
    report(
        capsys, 1, "rate peak at 1/e of eventual adopters",
        f"worst |error| {worst:.2e} over 20 draws", clock.elapsed, 1.0,
    )


def test_criterion_02_bass_closed_form_vs_ode(capsys):
    triples = {
        "colour_tv": BassParams(0.001, 1.8, 0.01),
        "fax": BassParams(0.01, 2.2, 0.02),
        "bw_tv": BassParams(0.02, 2.5, 0.18),
    }
    worst = 0.0
    with Stopwatch() as clock:
        for params in triples.values():
            curve = bass_ode(params, horizon=20.0, step=1e-3)
            closed = bass_penetration(curve.times, params)
            worst = max(worst, float(np.max(np.abs(closed - curve.penetration))))
    assert worst < 1e-6
    report(
        capsys, 2, "spreading closed form vs fixed-step oracle",
        f"sup-norm {worst:.2e} over 3 benchmark triples", clock.elapsed, 5.0,
    )


def test_criterion_03_gompertz_price_identity(capsys):
    market = MarketStructure(upper_share=0.03, minimum_price=0.05, width=0.4)
    offset = 0.7
    decline = PriceDecline(offset=offset, floor=market.minimum_price, rate=0.103)
    with Stopwatch() as clock:
        times = np.linspace(0.0, 40.0, 1000)
        prices = mean_price(times, decline)
        implied = gompertz_from_price(times, prices, market, plateau=0.97)
        shape = offset**2 / (2.0 * market.width**2)
        direct = gompertz_penetration(
            times, GompertzParams(plateau=0.97, shape=shape, rate=decline.rate)
        )
        worst = float(np.max(np.abs(implied.penetration - direct)))
    assert worst < 1e-12
    report(
        capsys, 3, "price path implies the Gompertz law",
        f"max abs diff {worst:.2e} on 1000 points", clock.elapsed, 1.0,
    )


def laplace_measures(samples):
    """Variance of price-noise samples and their KS distance to Laplace(b=1, D=1)."""
    distance = ks_statistic(samples, lambda x: laplace_cdf(x, 1.0, 1.0))
    return float(samples.var()), distance


def laplace_verdict(samples):
    """Criterion 4's verdict on price-noise samples: (variance ok, KS ok)."""
    variance, distance = laplace_measures(samples)
    return abs(variance / 0.5 - 1.0) < 0.05, distance < 0.01


def test_criterion_04_laplace_stationarity(capsys):
    params = PriceNoiseParams(restoring=1.0, noise=1.0)
    with Stopwatch() as clock:
        samples = langevin_price_ensemble(params, dt=0.5, n_paths=200_000, seed=404)
        assert samples.size == 200_000
        variance_ok, ks_ok = laplace_verdict(samples)
    assert variance_ok
    assert ks_ok
    variance, distance = laplace_measures(samples)
    report(
        capsys, 4, "price noise settles into the double-exponential law",
        f"variance {variance:.4f} (target 0.5), KS {distance:.4f}",
        clock.elapsed, 60.0,
    )


def test_criterion_04_rejects_a_normal_law_and_a_laplace_scale_5pct_off():
    rng = np.random.default_rng(4040)
    normal = rng.normal(0.0, np.sqrt(0.5), 200_000)
    laplace = rng.laplace(0.0, 1.05 * 0.5, 200_000)
    # equal variance: only the KS distance (about 0.063) tells them apart
    assert laplace_verdict(normal) == (True, False)
    # the variance is 10% off; the CDF moves by at most 0.009, so the
    # KS distance sits at the bound of 0.01 and cannot be relied on
    assert laplace_verdict(laplace)[0] is False


def test_criterion_05_replicator_fisher_pry(capsys):
    market = MarketStructure(upper_share=0.03, minimum_price=0.05, width=0.4)
    pop = Population(
        [
            Product(0.5, 1.0, market.minimum_price, 1.0, 0.3),
            Product(0.5, 1.0, market.minimum_price, 1.0, 0.1),
        ]
    )
    dtau = 0.01
    taus, log_ratios = [], []
    worst_sum = 0.0
    with Stopwatch() as clock:
        for _ in range(1000):
            pop = replicator_step(pop, 1.0, market, dtau)
            shares = pop.shares
            worst_sum = max(worst_sum, abs(float(shares.sum()) - 1.0))
            taus.append(pop.tau)
            log_ratios.append(np.log(shares[0] / shares[1]))
        slope = float(np.polyfit(taus, log_ratios, 1)[0])
    assert abs(slope - 0.2) < 1e-6
    assert worst_sum < 1e-12
    report(
        capsys, 5, "two-product selection follows the logistic law",
        f"slope error {abs(slope - 0.2):.2e}, share-sum dev {worst_sum:.1e}",
        clock.elapsed, 1.0,
    )


CRITERION_06_MARKET = MarketStructure(upper_share=0.02, minimum_price=0.05, width=0.5)
CRITERION_06_GAMMAS = (0.02, 0.0, -0.02)


def micro_macro_shares(micro_gammas, macro_gammas):
    """Share trajectories of the micro cycle and the replicator, tau in (0, 10].

    Three products with unit stocks and preferences at the minimum
    price and the given reproduction coefficients; the micro pool starts
    stationary, and the replicator steps with its prefactor.
    """
    market = CRITERION_06_MARKET
    price = market.minimum_price
    micro_pop = Population([Product(0.0, 1.0, price, 1.0, g) for g in micro_gammas])
    demand = stationary_demand(micro_pop, creation_rate=3.0, market=market)
    macro_pop = Population([Product(1.0 / 3.0, 1.0, price, 1.0, g) for g in macro_gammas])
    prefactor = demand.prefactor
    dtau = 0.002
    micro_shares, macro_shares = [], []
    for _ in range(5000):  # tau from 0 (pool already stationary) to 10
        micro_pop, demand = micro_step(micro_pop, demand, market, dtau)
        macro_pop = replicator_step(macro_pop, prefactor, market, dtau)
        micro_shares.append(micro_pop.shares)
        macro_shares.append(macro_pop.shares)
    return np.array(micro_shares), np.array(macro_shares)


def micro_macro_measures(micro_shares, macro_shares):
    """Sup share difference and how far the first micro share moved from 1/3."""
    worst = float(np.max(np.abs(micro_shares - macro_shares)))
    return worst, abs(float(micro_shares[-1, 0]) - 1.0 / 3.0)


def micro_macro_verdict(micro_shares, macro_shares):
    """Criterion 6's verdict on the two share trajectories: (close ok, moved ok).

    The move shows that the comparison covered real share dynamics.
    """
    worst, moved = micro_macro_measures(micro_shares, macro_shares)
    return worst < 1e-3, moved > 0.04


def test_criterion_06_micro_macro_equivalence(capsys):
    with Stopwatch() as clock:
        micro, macro = micro_macro_shares(CRITERION_06_GAMMAS, CRITERION_06_GAMMAS)
        close_ok, moved_ok = micro_macro_verdict(micro, macro)
    assert close_ok
    assert moved_ok
    worst, moved = micro_macro_measures(micro, macro)
    report(
        capsys, 6, "micro purchase cycle reproduces the replicator",
        f"sup share diff {worst:.2e} over tau in [0,10], share moved {moved:.3f}",
        clock.elapsed, 10.0,
    )


def test_criterion_06_rejects_10pct_too_large_reproduction_and_a_still_population():
    # every micro coefficient 10% too large: sup share difference near 6.6e-3
    heavy = tuple(1.1 * g for g in CRITERION_06_GAMMAS)
    assert micro_macro_verdict(*micro_macro_shares(heavy, CRITERION_06_GAMMAS))[0] is False
    # every coefficient 0: no share moves
    still = (0.0, 0.0, 0.0)
    assert micro_macro_verdict(*micro_macro_shares(still, still)) == (True, False)


def _gaussian_price_population(market, sigma):
    center = market.minimum_price + market.width
    prices = center + sigma * np.linspace(-4.0, 4.0, 41)
    weights = np.exp(-(((prices - center) / sigma) ** 2) / 2.0)
    weights /= weights.sum()
    return Population([Product(w, 1.0, p, 1.0, 1.0) for w, p in zip(weights, prices)])


def test_criterion_07_mean_price_drift(capsys):
    market = MarketStructure(upper_share=0.03, minimum_price=0.05, width=0.4)
    h = 1e-3
    errors = []
    with Stopwatch() as clock:
        for halvings in range(3):
            sigma = 0.01 * market.width / 2**halvings
            pop = _gaussian_price_population(market, sigma)
            weights = pop.shares
            mu = sales_mean_price(pop)
            variance = float(weights @ (pop.prices - mu) ** 2)
            predicted = market_volume_gradient(mu, market) * variance
            stepped1 = replicator_step(pop, 1.0, market, h)
            stepped2 = replicator_step(stepped1, 1.0, market, h)
            measured = (
                4.0 * sales_mean_price(stepped1)
                - 3.0 * mu
                - sales_mean_price(stepped2)
            ) / (2.0 * h)
            errors.append(abs(measured / predicted - 1.0))
    assert errors[0] < 0.05
    assert errors[0] > errors[1] > errors[2]
    report(
        capsys, 7, "mean price slides down the demand gradient",
        "rel errors " + ", ".join(f"{e:.2e}" for e in errors) + " as spread halves",
        clock.elapsed, 10.0,
    )


def test_criterion_07_drift_law_is_evodyn_s_mean_price_drift():
    # the criterion writes the drift law out; this holds evodyn's own
    # statement of it to the replicator on the same populations
    market = MarketStructure(upper_share=0.03, minimum_price=0.05, width=0.4)
    h = 1e-3
    for halvings in range(3):
        pop = _gaussian_price_population(market, 0.01 * market.width / 2**halvings)
        stepped1 = replicator_step(pop, 1.0, market, h)
        stepped2 = replicator_step(stepped1, 1.0, market, h)
        measured = (
            4.0 * sales_mean_price(stepped1)
            - 3.0 * sales_mean_price(pop)
            - sales_mean_price(stepped2)
        ) / (2.0 * h)
        assert abs(measured / mean_price_drift(pop, 1.0, market) - 1.0) < 0.05


def test_criterion_08_benchmark_round_trips(capsys):
    tolerances = dict(ROUND_TRIP_TOLERANCES)
    assert tolerances == {
        "decline_rate": 0.10,
        "shape": 0.20,
        "evolutionary_plateau": 0.05,
        "innovation": 0.25,
        "imitation": 0.25,
        "spreading_plateau": 0.25,
    }
    details = []
    with Stopwatch() as clock:
        for index, name in enumerate(ROUND_TRIP_GOODS):
            result = round_trip(
                BENCHMARKS[name], good_index=index, n_seeds=50, noise=0.02, n_points=30
            )
            for field, tol in tolerances.items():
                median = result["medians"][field]
                assert abs(median) <= tol, f"{name}.{field}: {median:+.3f} vs {tol}"
            worst_field = max(
                tolerances, key=lambda f: abs(result["medians"][f]) / tolerances[f]
            )
            details.append(
                f"{name} worst {worst_field} {result['medians'][worst_field]:+.3f}"
            )
        share = vhs_round_trip(
            VCR_FORMAT_CONTEST["advantage"],
            VCR_FORMAT_CONTEST["intercept"],
            n_seeds=50,
            noise=0.02,
        )
        assert abs(share["medians"]["advantage"]) <= 0.15
        details.append(f"vhs advantage {share['medians']['advantage']:+.3f}")
    report(
        capsys, 8, "noisy synthesize-and-refit recovers the benchmark rows",
        "; ".join(details), clock.elapsed, 120.0,
    )


def test_criterion_09_lognormal_size_law(capsys):
    from evomarket.stochastic import multiplicative_growth_sim

    with Stopwatch() as clock:
        sizes = multiplicative_growth_sim(
            10_000, 100, lambda rng, n: rng.laplace(0.0, 1.0, n), seed=909
        )
        logs = np.log(sizes)
        centered = logs - logs.mean()
        m2 = float((centered**2).mean())
        skew = float((centered**3).mean() / m2**1.5)
        kurtosis = float((centered**4).mean() / m2**2 - 3.0)
    assert abs(skew) < 0.1
    assert abs(kurtosis) < 0.25
    report(
        capsys, 9, "multiplicative heavy-tailed growth yields lognormal sizes",
        f"|skew| {abs(skew):.3f}, |excess kurtosis| {abs(kurtosis):.3f}",
        clock.elapsed, 10.0,
    )


# the criterion pins the relaxation rate, jump size and amortization
# time; the qualitative noise term is chosen small enough that its time
# average cannot drown the 5e-5 long-run signal at this horizon
REPRODUCTION_BASE = ReproductionSimParams(
    compensation=10.0, jump_size=0.05, amortization=100.0, noise_amp=4e-3
)
REPRODUCTION_FAST = ReproductionSimParams(
    compensation=10.0, jump_size=0.05, amortization=50.0, noise_amp=4e-3
)
REPRODUCTION_TARGET = 0.05 / (100.0 * 10.0)


def reproduction_run(params, seed):
    return reproduction_param_sim(
        params, dt=0.02, steps=5_000_000, seed=seed, n_short_windows=25
    )


def reproduction_measures(base, fast):
    """Short-window mean and its standard error, long mean, halving ratio."""
    window_means = base.short_window_means
    stderr = float(window_means.std(ddof=1) / np.sqrt(window_means.size))
    short_mean = float(window_means.mean())
    ratio = fast.long_window_mean / base.long_window_mean
    return short_mean, stderr, base.long_window_mean, ratio


def reproduction_verdict(base, fast):
    """Criterion 10's verdict on a base and a halved-amortization run.

    Returns (short mean ok, long mean ok, halving ratio ok).
    """
    short_mean, stderr, long_mean, ratio = reproduction_measures(base, fast)
    return (
        abs(short_mean) < 3.0 * stderr,
        abs(long_mean / REPRODUCTION_TARGET - 1.0) < 0.10,
        abs(ratio / 2.0 - 1.0) < 0.10,
    )


def test_criterion_10_reproduction_jump_process(capsys):
    with Stopwatch() as clock:
        base = reproduction_run(REPRODUCTION_BASE, seed=1010)
        fast = reproduction_run(REPRODUCTION_FAST, seed=1011)
        short_ok, long_ok, ratio_ok = reproduction_verdict(base, fast)
    assert short_ok
    assert long_ok
    assert ratio_ok
    short_mean, stderr, long_mean, ratio = reproduction_measures(base, fast)
    report(
        capsys, 10, "investment jumps set the long-run reproduction mean",
        f"short mean {short_mean:+.2e} (3se {3 * stderr:.1e}), "
        f"long {long_mean:.2e} vs {REPRODUCTION_TARGET:.2e}, halving ratio {ratio:.2f}",
        clock.elapsed, 30.0,
    )


def test_criterion_10_rejects_a_20pct_jump_error_and_an_unhalved_amortization():
    base = reproduction_run(REPRODUCTION_BASE, seed=1010)
    fast = reproduction_run(REPRODUCTION_FAST, seed=1011)
    # jump size 0.06 puts the long mean 20% above the target
    heavy = reproduction_run(replace(REPRODUCTION_BASE, jump_size=0.06), seed=1010)
    assert reproduction_verdict(heavy, fast)[1] is False
    # the same amortization on both runs leaves the ratio near 1
    unhalved = reproduction_run(REPRODUCTION_BASE, seed=1011)
    assert reproduction_verdict(base, unhalved)[2] is False


def test_criterion_11_lifecycle_echoes_and_periodicity(capsys):
    step = 0.1
    params = BassParams(0.02, 2.5, 0.18)

    def rate(t):
        return bass_rate(t, params)

    def impulse(t):
        return np.where(t == 0, 1.0, 0.0)

    with Stopwatch() as clock:
        # geometric echo amplitudes, exactly, for the sharp lifetime; whole
        # tenths, so t - k * lifetime is exactly 0 where echo k starts
        times = np.arange(200) / 10
        no_base = np.zeros_like(times)
        sales = wave_sales(times, no_base, impulse, WaveParams(0.0, 0.5, 5.0), echoes=3)
        echoes = sales - impulse(times)
        assert echoes[50] == 0.5 and echoes[100] == 0.25 and echoes[150] == 0.125
        assert np.count_nonzero(echoes) == 3

        # mass balance; the wave is zero before its start, which pads the
        # source with zeros
        times = np.arange(-10, 401) / 10
        no_base = np.zeros_like(times)
        first = wave_sales(times, no_base, rate, WaveParams())
        replaced = wave_sales(times, no_base, rate, WaveParams(0.0, 0.3, 5.0)) - first
        balance = np.trapezoid(replaced, times) / (0.3 * np.trapezoid(first, times))
        assert abs(balance - 1.0) < 1e-9

        # benchmark configuration: sales peaks recur with the lifetime
        times = step * np.arange(251)
        wave = WaveParams(
            multiple_rate=0.06,
            replacement_fraction=0.3,
            lifetime=9.2,
        )
        sales = wave_sales(times, bass_penetration(times, params), rate, wave, echoes=2)
        interior = (sales[1:-1] > sales[:-2]) & (sales[1:-1] > sales[2:])
        peaks = times[1:-1][interior]
        spacings = np.diff(peaks)
        assert len(peaks) >= 3
        assert np.all(np.abs(spacings - 9.2) < 0.2)
    report(
        capsys, 11, "replacement echoes carry the sales periodicity",
        f"mass balance off by {abs(balance - 1.0):.1e}, "
        f"peak spacings {', '.join(f'{s:.2f}' for s in spacings)}",
        clock.elapsed, 5.0,
    )


def test_criterion_12_cli_replicate_determinism(tmp_path, capsys):
    with Stopwatch() as clock:
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = cli_main(["replicate", "--seed", "20250808", "--out", str(out_a)])
        code_b = cli_main(["replicate", "--seed", "20250808", "--out", str(out_b)])
        bytes_a = (out_a / "replicate_matrix.csv").read_bytes()
        bytes_b = (out_b / "replicate_matrix.csv").read_bytes()
    assert code_a == 0 and code_b == 0
    assert bytes_a == bytes_b
    report(
        capsys, 12, "replicate command is byte-deterministic",
        f"{len(bytes_a)} identical bytes, both runs exit 0",
        clock.elapsed, 300.0,
    )
