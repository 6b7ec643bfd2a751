import warnings

import numpy as np
import pytest

from evomarket.errors import StepSizeError
from evomarket.evodyn import (
    DemandState,
    Population,
    Product,
    fisher_pry_share,
    mean_fitness,
    mean_price_drift,
    micro_step,
    population_fitness,
    replicator_step,
    sales_mean_price,
    stationary_demand,
)
from evomarket.market import MarketStructure, market_volume, market_volume_gradient


def two_products(f1_gamma=0.3, f2_gamma=0.1, price=0.05):
    # at the minimum price the market volume is one, so fitness = gamma
    return Population(
        [
            Product(sales=0.5, stock=1.0, price=price, preference=1.0, reproduction=f1_gamma),
            Product(sales=0.5, stock=1.0, price=price, preference=1.0, reproduction=f2_gamma),
        ]
    )


def fitness(product, prefactor, market):
    """Fitness of a one-product population."""
    return float(population_fitness(Population([product]), prefactor, market)[0])


class TestFitness:
    def test_zero_reproduction(self, market):
        prod = Product(1.0, 1.0, 0.5, 1.0, 0.0)
        assert fitness(prod, 1.0, market) == 0.0

    def test_unit_factors_at_minimum_price(self, market):
        prod = Product(1.0, 1.0, market.minimum_price, 1.0, 1.0)
        assert fitness(prod, 1.0, market) == pytest.approx(1.0)

    def test_cheaper_is_fitter(self, market):
        lo = Product(1.0, 1.0, market.minimum_price + 0.2, 1.0, 1.0)
        hi = Product(1.0, 1.0, market.minimum_price + 0.4, 1.0, 1.0)
        assert fitness(lo, 1.0, market) > fitness(hi, 1.0, market)


class TestMeanFitness:
    def test_single_product(self, market):
        prod = Product(2.0, 1.0, 0.3, 1.2, 0.5)
        pop = Population([prod])
        # preference * reproduction * prefactor * market volume, written out
        expected = 1.2 * 0.5 * 1.0 * market_volume(0.3, market)
        assert mean_fitness(pop, 1.0, market) == pytest.approx(expected)

    def test_equal_sales_arithmetic_mean(self, market):
        pop = Population(
            [Product(1.0, 1.0, 0.2, 1.0, 0.4), Product(1.0, 1.0, 0.6, 1.0, 0.1)]
        )
        f = population_fitness(pop, 1.0, market)
        assert mean_fitness(pop, 1.0, market) == pytest.approx(f.mean())

    def test_localized_spread_second_order(self, market, rng):
        # away from the curvature zero-crossing the remainder is
        # (1/2) f'' Var to leading order
        center = market.minimum_price + 0.5 * market.width
        sigma = 1e-3
        prices = center + sigma * rng.standard_normal(64)
        pop = Population([Product(1.0, 1.0, p, 1.0, 1.0) for p in prices])
        mean_mu = sales_mean_price(pop)
        got = mean_fitness(pop, 1.0, market)
        at_mean = market_volume(mean_mu, market)
        h = 1e-5
        second = (
            market_volume_gradient(mean_mu + h, market)
            - market_volume_gradient(mean_mu - h, market)
        ) / (2.0 * h)
        variance = float(np.var(prices))
        assert got - at_mean == pytest.approx(0.5 * second * variance, rel=0.05)

    def test_zero_sales_rejected(self, market):
        pop = Population([Product(0.0, 1.0, 0.2, 1.0, 0.4)])
        with pytest.raises(ValueError):
            mean_fitness(pop, 1.0, market)


class TestReplicatorStep:
    def test_equal_fitness_keeps_shares(self, market):
        pop = two_products(0.2, 0.2)
        stepped = replicator_step(pop, 1.0, market, 0.05)
        assert np.allclose(stepped.shares, pop.shares, atol=1e-15)

    def test_log_share_ratio_slope(self, market):
        pop = two_products(0.3, 0.1)
        dtau = 0.01
        log_ratios = []
        taus = []
        for _ in range(1000):
            pop = replicator_step(pop, 1.0, market, dtau)
            m = pop.shares
            log_ratios.append(np.log(m[0] / m[1]))
            taus.append(pop.tau)
        slope = np.polyfit(taus, log_ratios, 1)[0]
        assert slope == pytest.approx(0.2, abs=1e-9)

    def test_share_sum_and_total_conserved(self, market, rng):
        sales = rng.uniform(0.1, 1.0, 5)
        pop = Population(
            [Product(y, 1.0, 0.05 + 0.1 * i, 1.0, 0.1 * i) for i, y in enumerate(sales)]
        )
        total = pop.total_sales
        for _ in range(50):
            pop = replicator_step(pop, 1.0, market, 0.02)
            assert abs(pop.shares.sum() - 1.0) < 1e-12
            assert pop.total_sales == pytest.approx(total, rel=1e-12)

    def test_mean_growth_rate_vanishes(self, market):
        pop = two_products(0.3, 0.1)
        for _ in range(20):
            pop = replicator_step(pop, 1.0, market, 0.05)
            f = population_fitness(pop, 1.0, market)
            mean_f = mean_fitness(pop, 1.0, market)
            mean_r = float((f - mean_f) @ pop.shares)
            assert abs(mean_r) < 1e-12

    def test_matches_logistic_closed_form(self, market):
        pop = two_products(0.3, 0.1)
        dtau = 0.01
        worst = 0.0
        for k in range(1, 1001):
            pop = replicator_step(pop, 1.0, market, dtau)
            exact = fisher_pry_share(k * dtau, 0.2, 0.0)
            worst = max(worst, abs(pop.shares[0] - exact))
        assert worst < 1e-8

    def test_large_steps_stay_finite_without_warnings(self, market):
        # far beyond any explicit scheme's stability bound; the second
        # population's fittest product has no sales and must stay at zero
        opposed = two_products(5.0, -5.0)
        absorbing = Population(
            [Product(0.0, 1.0, 0.05, 1.0, 0.9), Product(1.0, 1.0, 0.05, 1.0, 0.1)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepped = [
                replicator_step(opposed, 1.0, market, 10.0),
                replicator_step(absorbing, 1.0, market, 1e4),
            ]
        for pop in stepped:
            assert np.isfinite(pop.shares).all()
            assert pop.shares.sum() == pytest.approx(1.0, abs=1e-15)
        assert stepped[1].sales[0] == 0.0

    def test_zero_sales_product_is_absorbing(self, market):
        pop = Population(
            [Product(0.0, 1.0, 0.05, 1.0, 0.9), Product(1.0, 1.0, 0.05, 1.0, 0.1)]
        )
        stepped = replicator_step(pop, 1.0, market, 0.1)
        assert stepped.sales[0] == 0.0

    def test_carried_growth_factor_matches_a_fresh_population(self, market):
        # a stepped population reuses its growth factor while prefactor,
        # market and dtau stay; a fresh population recomputes it each step
        equal_market = MarketStructure(market.upper_share, market.minimum_price, market.width)
        other_market = MarketStructure(0.1, 0.2, 0.3)
        schedule = (
            [(1.0, market, 0.05)] * 5
            + [(1.0, market, 0.2)] * 3  # new dtau
            + [(2.5, market, 0.2)] * 3  # new prefactor
            + [(2.5, equal_market, 0.2)] * 3
            + [(2.5, other_market, 0.2)] * 3
            # the least fit product underflows to zero on the third step,
            # and the carried factor meets its zero sales on the fourth
            + [(1.0, market, 800.0)] * 4
        )
        # the fittest product has no sales; the others have distinct fitnesses
        pop = Population(
            [
                Product(0.0, 1.0, 0.05, 1.0, 0.9),
                Product(0.5, 1.0, 0.05, 1.0, 0.3),
                Product(0.3, 2.0, 0.4, 0.7, 0.2),
                Product(0.2, 1.0, 0.9, 1.5, -0.1),
            ]
        )
        fresh = pop
        for prefactor, mkt, dtau in schedule:
            pop = replicator_step(pop, prefactor, mkt, dtau)
            rebuilt = Population.from_arrays(
                fresh.sales, fresh.stocks, fresh.prices, fresh.preferences,
                fresh.reproductions, fresh.tau,
            )
            fresh = replicator_step(rebuilt, prefactor, mkt, dtau)
            assert pop.sales.tobytes() == fresh.sales.tobytes()
            assert pop.tau == fresh.tau
        assert pop.sales[0] == 0.0 and pop.sales[3] == 0.0 and pop.sales[1] > 0.0


class TestMicroStep:
    def test_stationary_pool_value(self):
        # volume 0.5 at price sqrt(2 ln 2) for a pure lower-class market
        market = MarketStructure(upper_share=0.0, minimum_price=0.0, width=1.0)
        price = np.sqrt(2.0 * np.log(2.0))
        pop = Population(
            [Product(0.0, 1.0, price, 1.0, 0.0), Product(0.0, 1.0, price, 1.0, 0.0)]
        )
        demand = stationary_demand(pop, creation_rate=1.0, market=market)
        assert market_volume(price, market) == pytest.approx(0.5, rel=1e-12)
        assert demand.potential == pytest.approx(0.25, rel=1e-12)

    def test_perturbation_decays_at_stock_rate(self, market):
        pop = Population(
            [Product(0.0, 1.0, market.minimum_price, 1.0, 0.0) for _ in range(2)]
        )
        demand = stationary_demand(pop, creation_rate=2.0, market=market)
        psi_s = demand.potential
        delta = 0.1 * psi_s
        state = DemandState(psi_s + delta, 2.0, demand.prefactor)
        decay_rate = float((pop.preferences * pop.stocks).sum())
        tau = 1.0
        steps = 100
        p = pop
        for _ in range(steps):
            p, state = micro_step(p, state, market, tau / steps)
        remaining = state.potential - psi_s
        assert remaining == pytest.approx(delta * np.exp(-decay_rate * tau), rel=1e-6)

    def test_pool_converges_from_any_start(self, market):
        pop = Population(
            [Product(0.0, 0.7, market.minimum_price, 1.3, 0.0) for _ in range(3)]
        )
        rate = float((pop.preferences * pop.stocks).sum())
        target = stationary_demand(pop, 1.5, market).potential
        for start in (1e-4, 5.0):
            state = DemandState(start, 1.5, 1.0)
            p = pop
            horizon = 20.0 / rate
            steps = 400
            for _ in range(steps):
                p, state = micro_step(p, state, market, horizon / steps)
            assert state.potential == pytest.approx(target, rel=1e-6)

    def test_share_sum_invariant(self, market):
        pop = Population(
            [
                Product(0.1, 1.0, 0.05, 1.0, 0.02),
                Product(0.1, 1.2, 0.05, 1.0, 0.0),
                Product(0.1, 0.8, 0.05, 1.0, -0.02),
            ]
        )
        state = stationary_demand(pop, 3.0, market)
        for _ in range(100):
            pop, state = micro_step(pop, state, market, 0.01)
            assert abs(pop.shares.sum() - 1.0) < 1e-12

    def test_matches_replicator_shares(self, market):
        # all prices equal: micro and replicator share dynamics coincide
        # once the pool sits at its stationary value
        products = [
            Product(0.0, 1.0, market.minimum_price, 1.0, g) for g in (0.02, 0.0, -0.02)
        ]
        micro_pop = Population(products)
        state = stationary_demand(micro_pop, 3.0, market)
        macro_pop = Population(
            [
                Product(1.0 / 3.0, 1.0, market.minimum_price, 1.0, g)
                for g in (0.02, 0.0, -0.02)
            ]
        )
        prefactor = state.prefactor
        dtau = 0.01
        worst = 0.0
        for _ in range(200):
            micro_pop, state = micro_step(micro_pop, state, market, dtau)
            macro_pop = replicator_step(macro_pop, prefactor, market, dtau)
            worst = max(worst, np.max(np.abs(micro_pop.shares - macro_pop.shares)))
        assert worst < 1e-4

    def test_negative_density_rejected(self, market):
        pop = Population([Product(1.0, 1.0, 0.05, 1.0, -50.0)])
        state = DemandState(1.0, 0.0, 1.0)
        with pytest.raises(StepSizeError):
            micro_step(pop, state, market, 5.0)

    def test_overflowing_step_rejected(self, market):
        # the stages overflow to inf and then NaN; the step must say so,
        # not hand back a NaN population
        pop = Population([Product(0.0, 1e300, 0.05, 1e10, 50.0)])
        state = DemandState(1e300, 1e300, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepSizeError):
                micro_step(pop, state, market, 1e10)

    def test_zero_stock_is_the_stationary_demand_error(self, market):
        # no stock to buy from, so the prefactor creation_rate / sum(preference * stock)
        # is undefined after the step as before it
        pop = Population([Product(0.0, 0.0, 0.05, 1.0, 0.0) for _ in range(2)])
        message = "stationary demand needs positive preference-weighted stock"
        with pytest.raises(ValueError, match=message):
            stationary_demand(pop, 3.0, market)
        with pytest.raises(ValueError, match=message):
            micro_step(pop, DemandState(1.0, 3.0, 1.0), market, 0.01)


class TestFisherPryShare:
    def test_symmetric_start(self):
        assert fisher_pry_share(0.0, 0.5, 0.0) == pytest.approx(0.5)

    def test_no_advantage(self):
        t = np.linspace(-10, 10, 21)
        assert np.allclose(fisher_pry_share(t, 0.0, 0.3), fisher_pry_share(0.0, 0.0, 0.3))

    def test_vhs_share_reaches_ninety_percent(self):
        t_ninety = np.log(9.0) / 0.22
        assert t_ninety == pytest.approx(9.99, abs=0.01)
        assert fisher_pry_share(t_ninety, 0.22, 0.0) == pytest.approx(0.9, rel=1e-9)


class TestSalesMeanPrice:
    def test_uniform_prices(self):
        pop = Population([Product(0.3, 1.0, 0.4, 1.0, 0.0) for _ in range(3)])
        assert sales_mean_price(pop) == pytest.approx(0.4)

    def test_midpoint(self):
        pop = Population(
            [Product(1.0, 1.0, 1.0, 1.0, 0.0), Product(1.0, 1.0, 3.0, 1.0, 0.0)]
        )
        assert sales_mean_price(pop) == pytest.approx(2.0)

    def test_scaling_invariance(self):
        prods = [Product(0.2, 1.0, 0.5, 1.0, 0.0), Product(0.7, 1.0, 1.5, 1.0, 0.0)]
        scaled = [
            Product(3.0 * p.sales, p.stock, p.price, p.preference, p.reproduction)
            for p in prods
        ]
        assert sales_mean_price(Population(prods)) == pytest.approx(
            sales_mean_price(Population(scaled)), rel=1e-12
        )

    def test_zero_sales_rejected(self):
        pop = Population([Product(0.0, 1.0, 0.5, 1.0, 0.0)])
        with pytest.raises(ValueError):
            sales_mean_price(pop)


def gaussian_price_population(market, sigma, center=None, n=41):
    center = market.minimum_price + market.width if center is None else center
    prices = center + sigma * np.linspace(-4.0, 4.0, n)
    weights = np.exp(-(((prices - center) / sigma) ** 2) / 2.0)
    weights /= weights.sum()
    return Population(
        [Product(w, 1.0, p, 1.0, 1.0) for w, p in zip(weights, prices)]
    )


def measured_drift(pop, market, h=1e-3):
    # second-order one-sided difference of the mean price in tau
    p1 = replicator_step(pop, 1.0, market, h)
    p2 = replicator_step(p1, 1.0, market, h)
    mu0 = sales_mean_price(pop)
    mu1 = sales_mean_price(p1)
    mu2 = sales_mean_price(p2)
    return (4.0 * mu1 - 3.0 * mu0 - mu2) / (2.0 * h)


class TestMeanPriceDrift:
    def test_monopoly_freeze(self, market):
        pop = Population([Product(1.0, 1.0, 0.7, 1.0, 1.0)])
        assert mean_price_drift(pop, 1.0, market) == 0.0

    def test_drift_is_negative_above_minimum_price(self, market):
        pop = gaussian_price_population(market, sigma=0.01 * market.width)
        assert mean_price_drift(pop, 1.0, market) < 0.0

    def test_matches_simulated_drift(self, market):
        pop = gaussian_price_population(market, sigma=0.01 * market.width)
        predicted = mean_price_drift(pop, 1.0, market)
        simulated = measured_drift(pop, market)
        assert simulated == pytest.approx(predicted, rel=0.05)

    def test_prediction_uses_gradient_times_variance(self, market):
        pop = gaussian_price_population(market, sigma=0.01 * market.width)
        mu = sales_mean_price(pop)
        weights = pop.shares
        variance = float(weights @ (pop.prices - mu) ** 2)
        expected = market_volume_gradient(mu, market) * variance
        assert mean_price_drift(pop, 1.0, market) == pytest.approx(expected, rel=1e-12)


def plain_micro_rk4(stocks, pool, preferences, reproductions, prices, creation_rate, market, dtau):
    """One classical RK4 step of the purchase cycle, on the array market volume."""
    n = stocks.size

    def rhs(s):
        x, psi = s[:n], s[n]
        y = preferences * x * psi
        weight = (preferences * x).sum()
        mu = (preferences * x * prices).sum() / weight if weight > 0 else 0.0
        volume = market_volume(np.array([max(mu, 0.0)]), market)[0]
        return np.concatenate([reproductions * y, [creation_rate * volume - y.sum()]])

    s = np.append(stocks, pool)
    k1 = rhs(s)
    k2 = rhs(s + 0.5 * dtau * k1)
    k3 = rhs(s + 0.5 * dtau * k2)
    k4 = rhs(s + dtau * k3)
    s = s + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s[:n], s[n]


def left_to_right(values):
    total = -0.0
    for value in values:
        total += value
    return total


def array_micro_step(stocks, pool, preferences, reproductions, prices, creation_rate, market, dtau):
    """The micro step written on numpy arrays, each sum taken left to right.

    Returns the stepped stocks and pool and the sales and prefactor the
    library computes from them.
    """
    n = stocks.size

    def rhs(s):
        ex = preferences * s[:n]
        y = ex * s[n]
        weight = left_to_right(ex)
        mu = left_to_right(ex * prices) / weight if weight > 0 else 0.0
        derivative = np.empty(n + 1)
        np.multiply(reproductions, y, out=derivative[:n])
        derivative[n] = creation_rate * market_volume(max(mu, 0.0), market) - left_to_right(y)
        return derivative

    s = np.append(stocks, pool)
    k1 = rhs(s)
    k2 = rhs(s + 0.5 * dtau * k1)
    k3 = rhs(s + 0.5 * dtau * k2)
    k4 = rhs(s + dtau * k3)
    s = s + (dtau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    stocks, pool = s[:n], float(s[n])
    sales = preferences * stocks * pool
    return stocks, pool, sales, creation_rate / float(np.add.reduce(preferences * stocks))


def assert_steps_match_the_array_step(pop, demand, market, dtau, steps):
    """Step ``pop`` with ``micro_step`` and the array step, comparing every bit."""
    stocks, pool = pop.stocks, demand.potential
    for _ in range(steps):
        pop, demand = micro_step(pop, demand, market, dtau)
        stocks, pool, sales, prefactor = array_micro_step(
            stocks, pool, pop.preferences, pop.reproductions, pop.prices,
            demand.creation_rate, market, dtau,
        )
        assert np.array_equal(pop.stocks, stocks)
        assert demand.potential == pool
        assert np.array_equal(pop.sales, sales)
        assert demand.prefactor == prefactor


def plain_replicator(sales, fitnesses, tau):
    """Sales a time ``tau`` after ``sales`` on the exact replicator solution, same total."""
    grown = sales * np.exp(fitnesses * tau)
    return grown / grown.sum() * sales.sum()


def relative_gap(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def step_both_ways(micro, macro, market, creation_rate, dtau, steps):
    """Largest relative gaps of the library steps from the plain oracles above.

    The micro gap compares each library step with one plain RK4 step
    from the same oracle state; the replicator gap compares ``k`` library
    steps with one evaluation of the exact solution at ``tau = k * dtau``.
    """
    demand = stationary_demand(micro, creation_rate, market)
    prefactor = demand.prefactor
    stocks, pool = micro.stocks, demand.potential
    sales = macro.sales
    fitnesses = (
        macro.preferences
        * macro.reproductions
        * prefactor
        * market_volume(macro.prices, market)
    )
    micro_gap = replicator_gap = 0.0
    for k in range(1, steps + 1):
        micro, demand = micro_step(micro, demand, market, dtau)
        macro = replicator_step(macro, prefactor, market, dtau)
        stocks, pool = plain_micro_rk4(
            stocks, pool, micro.preferences, micro.reproductions, micro.prices,
            creation_rate, market, dtau,
        )
        micro_gap = max(
            micro_gap,
            relative_gap(np.append(micro.stocks, demand.potential), np.append(stocks, pool)),
        )
        replicator_gap = max(
            replicator_gap, relative_gap(macro.sales, plain_replicator(sales, fitnesses, k * dtau))
        )
    return micro_gap, replicator_gap


class TestStepsMatchPlainRk4:
    """The micro step against plain RK4, the replicator against its exact solution."""

    def test_bit_identical_at_the_minimum_price(self):
        # the criterion-6 populations: every price at the minimum price
        market = MarketStructure(upper_share=0.02, minimum_price=0.05, width=0.5)
        gammas = (0.02, 0.0, -0.02)
        micro = Population([Product(0.0, 1.0, 0.05, 1.0, g) for g in gammas])
        macro = Population([Product(1.0 / 3.0, 1.0, 0.05, 1.0, g) for g in gammas])
        micro_gap, replicator_gap = step_both_ways(micro, macro, market, 3.0, 0.01, 1000)
        assert micro_gap == 0.0
        assert replicator_gap < 1e-13

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_prices_agree(self, market, n):
        rng = np.random.default_rng(900 + n)
        products = [
            Product(
                sales=rng.uniform(0.1, 1.0),
                stock=rng.uniform(0.5, 1.5),
                price=rng.uniform(0.0, 1.5),
                preference=rng.uniform(0.5, 2.0),
                reproduction=rng.uniform(-0.05, 0.05),
            )
            for _ in range(n)
        ]
        pop = Population(products)
        micro_gap, replicator_gap = step_both_ways(pop, pop, market, 3.0, 0.01, 300)
        assert micro_gap < 1e-13
        assert replicator_gap < 1e-13

    @pytest.mark.parametrize("n", list(range(1, 9)) + [12, 20])
    def test_random_prices_bit_identical_to_the_array_step(self, market, n):
        rng = np.random.default_rng(1900 + n)
        pop = Population(
            [
                Product(
                    sales=0.0,
                    stock=rng.uniform(0.5, 1.5),
                    price=rng.uniform(0.0, 1.5),
                    preference=rng.uniform(0.5, 2.0),
                    reproduction=rng.uniform(-0.05, 0.05),
                )
                for _ in range(n)
            ]
        )
        assert_steps_match_the_array_step(
            pop, stationary_demand(pop, 3.0, market), market, 0.01, 300
        )

    def test_sums_that_round_bit_identical_to_the_left_to_right_step(self, market):
        # 1e16 + 1 + 1 sums to 1e16 left to right and to 1e16 + 2 exactly,
        # so a compensated or exact sum (math.fsum, or the built-in sum from
        # Python 3.12 on) moves the pool; the step from a pool of 1 is
        # stable, since the pool relaxes at the rate 1e16 + 2
        pop = Population([Product(0.0, stock, 0.05, 1.0, 0.0) for stock in (1e16, 1.0, 1.0)])
        demand = DemandState(1.0, 3.0, stationary_demand(pop, 3.0, market).prefactor)
        assert_steps_match_the_array_step(pop, demand, market, 1e-16, 20)
