"""Evolutionary engine: reproduction micro-dynamics and replicator selection.

Competing models of one durable good reproduce through a
sell-to-manufacture cycle.  On the fast market clock the pool of
potential buyers relaxes to a stationary level, purchases follow a
law-of-mass-action between buyers and available stock, and the slow
residual dynamics of the sales shares is a replicator equation driven
by each model's fitness: preference times reproduction coefficient
times demand prefactor times affordable market volume at its price.

Two clocks appear throughout: ``tau`` is the fast clock, related to
years by ``tau = clock_ratio * t`` with a small ``clock_ratio``.
Populations are value-semantic; stepping returns new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._integrate import rk4_step
from ._validation import as_float_array, check_nonnegative, check_positive
from .errors import StepSizeError
from .market import MarketStructure, market_volume, market_volume_gradient

__all__ = [
    "Product",
    "DemandState",
    "Population",
    "fitness",
    "population_fitness",
    "mean_fitness",
    "replicator_step",
    "micro_step",
    "stationary_demand",
    "fisher_pry_share",
    "mean_price_drift",
    "sales_mean_price",
]


@dataclass(frozen=True)
class Product:
    """One competing model and its state in the reproduction cycle.

    ``sales`` and ``stock`` are densities scaled by the market
    potential; ``price`` is the real price; ``preference`` is the rate
    at which a meeting of buyer and unit turns into a purchase;
    ``reproduction`` is the excess of supply over sales per unit sold.
    """

    sales: float
    stock: float
    price: float
    preference: float
    reproduction: float

    def __post_init__(self):
        check_nonnegative(self.sales, "sales")
        check_nonnegative(self.stock, "stock")
        check_nonnegative(self.price, "price")
        check_positive(self.preference, "preference")


@dataclass(frozen=True)
class DemandState:
    """Potential-adopter pool split into first-purchase and repurchase parts.

    ``creation_rate`` is the mean rate at which repurchase decisions
    create new potential buyers; ``prefactor`` is the stationary-pool
    prefactor ``creation_rate / sum(preference * stock)`` for the
    population the state was computed against.
    """

    first_purchase: float
    repurchase: float
    creation_rate: float
    prefactor: float

    def __post_init__(self):
        check_nonnegative(self.first_purchase, "first_purchase")
        check_nonnegative(self.repurchase, "repurchase")
        check_nonnegative(self.creation_rate, "creation_rate")
        check_nonnegative(self.prefactor, "prefactor")

    @property
    def potential(self) -> float:
        return self.first_purchase + self.repurchase


class Population:
    """Value-semantic collection of competing products with a clock.

    Parameters
    ----------
    products : sequence of Product
    clock_ratio : float
        Ratio of the fast clock to calendar years, in (0, 0.1].
    tau : float
        Current fast-clock time.
    """

    def __init__(
        self, products: Sequence[Product], clock_ratio: float = 0.01, tau: float = 0.0
    ):
        if len(products) == 0:
            raise ValueError("population must contain at least one product")
        if not 0.0 < clock_ratio <= 0.1:
            raise ValueError("clock_ratio must lie in (0, 0.1]")
        self._sales = np.array([p.sales for p in products], dtype=float)
        self._stocks = np.array([p.stock for p in products], dtype=float)
        self._prices = np.array([p.price for p in products], dtype=float)
        self._preferences = np.array([p.preference for p in products], dtype=float)
        self._reproductions = np.array([p.reproduction for p in products], dtype=float)
        self.clock_ratio = float(clock_ratio)
        self.tau = float(tau)

    @classmethod
    def from_arrays(
        cls, sales, stocks, prices, preferences, reproductions, clock_ratio, tau
    ) -> "Population":
        pop = cls.__new__(cls)
        pop._sales = np.asarray(sales, dtype=float).copy()
        pop._stocks = np.asarray(stocks, dtype=float).copy()
        pop._prices = np.asarray(prices, dtype=float).copy()
        pop._preferences = np.asarray(preferences, dtype=float).copy()
        pop._reproductions = np.asarray(reproductions, dtype=float).copy()
        pop.clock_ratio = float(clock_ratio)
        pop.tau = float(tau)
        return pop

    def __len__(self) -> int:
        return self._sales.size

    @property
    def sales(self) -> np.ndarray:
        return self._sales.copy()

    @property
    def stocks(self) -> np.ndarray:
        return self._stocks.copy()

    @property
    def prices(self) -> np.ndarray:
        return self._prices.copy()

    @property
    def preferences(self) -> np.ndarray:
        return self._preferences.copy()

    @property
    def reproductions(self) -> np.ndarray:
        return self._reproductions.copy()

    @property
    def total_sales(self) -> float:
        return float(self._sales.sum())

    @property
    def shares(self) -> np.ndarray:
        total = self._sales.sum()
        if total <= 0:
            raise ValueError("shares are undefined for a zero-sales population")
        return self._sales / total

    @property
    def years(self) -> float:
        return self.tau / self.clock_ratio


def fitness(product: Product, prefactor: float, market: MarketStructure) -> float:
    """Effective reproduction rate of one model.

    Preference times reproduction coefficient times demand prefactor
    times the market volume at the model's price; its sign follows the
    reproduction coefficient, and at equal everything else a cheaper
    model (above the minimum price) is fitter.
    """
    check_positive(prefactor, "prefactor")
    return (
        product.preference
        * product.reproduction
        * prefactor
        * market_volume(product.price, market)
    )


def population_fitness(
    pop: Population, prefactor: float, market: MarketStructure
) -> np.ndarray:
    """Fitness of every product in the population."""
    check_positive(prefactor, "prefactor")
    return (
        pop._preferences
        * pop._reproductions
        * prefactor
        * market_volume(pop._prices, market)
    )


def mean_fitness(pop: Population, prefactor: float, market: MarketStructure) -> float:
    """Sales-weighted mean fitness of the population."""
    if pop.total_sales <= 0:
        raise ValueError("mean fitness is undefined for a zero-sales population")
    f = population_fitness(pop, prefactor, market)
    return float((pop._sales * f).sum() / pop._sales.sum())


def replicator_step(
    pop: Population, prefactor: float, market: MarketStructure, dtau: float
) -> Population:
    """Advance the sales shares one replicator step on the fast clock.

    Shares evolve as ``dm_i/dtau = (f_i - <f>) m_i`` with fitnesses held
    fixed during the step (prices do not move here), integrated with a
    fourth-order scheme and renormalized so the share sum and the total
    sales are conserved exactly.

    Raises
    ------
    StepSizeError
        If the step would drive a share negative.
    """
    check_positive(dtau, "dtau")
    total = pop.total_sales
    if total <= 0:
        raise ValueError("replicator dynamics need positive total sales")
    f = population_fitness(pop, prefactor, market)
    shares = pop._sales / total

    def rhs(_tau, m):
        return (f - float(f @ m)) * m

    new_shares = rk4_step(rhs, pop.tau, shares, dtau)
    if np.any(new_shares < 0):
        raise StepSizeError("replicator step produced a negative share; reduce dtau")
    new_shares = new_shares / new_shares.sum()
    return Population.from_arrays(
        new_shares * total,
        pop._stocks,
        pop._prices,
        pop._preferences,
        pop._reproductions,
        pop.clock_ratio,
        pop.tau + dtau,
    )


def stationary_demand(
    pop: Population, creation_rate: float, market: MarketStructure
) -> DemandState:
    """Stationary potential-adopter pool for the current population.

    The pool relaxes to ``prefactor * market_volume(mean price)`` with
    ``prefactor = creation_rate / sum(preference * stock)``; deviations
    decay at the rate ``sum(preference * stock)``.
    """
    check_nonnegative(creation_rate, "creation_rate")
    weight = float((pop._preferences * pop._stocks).sum())
    if weight <= 0:
        raise ValueError("stationary demand needs positive preference-weighted stock")
    prefactor = creation_rate / weight
    mu = float(
        (pop._preferences * pop._stocks * pop._prices).sum() / weight
    )
    psi = prefactor * market_volume(mu, market)
    return DemandState(
        first_purchase=0.0,
        repurchase=psi,
        creation_rate=creation_rate,
        prefactor=prefactor,
    )


def micro_step(
    pop: Population,
    demand: DemandState,
    market: MarketStructure,
    dtau: float,
) -> tuple[Population, DemandState]:
    """Advance the purchase/reproduction micro-dynamics one step.

    State: product stocks and the potential-adopter pool.  Purchases
    occur at ``preference * stock * pool`` per product, each model's
    stock grows by its reproduction coefficient times its sales, and
    the pool balances creation against total purchases:

        d stock_i / dtau = reproduction_i * sales_i
        d pool / dtau    = creation_rate * volume(mean price) - total sales

    Returns the stepped population (sales recomputed from the new state)
    and the demand state with the pool and prefactor updated.
    """
    check_positive(dtau, "dtau")
    n = len(pop)
    state = np.empty(n + 1)
    state[:n] = pop._stocks
    state[n] = demand.potential
    eta = pop._preferences
    gamma = pop._reproductions
    prices = pop._prices
    q = demand.creation_rate

    def rhs(_tau, s):
        x, psi = s[:n], s[n]
        y = eta * x * psi
        weight = (eta * x).sum()
        mu = (eta * x * prices).sum() / weight if weight > 0 else 0.0
        d_x = gamma * y
        d_psi = q * market_volume(max(mu, 0.0), market) - y.sum()
        return np.concatenate([d_x, [d_psi]])

    new_state = rk4_step(rhs, pop.tau, state, dtau)
    if np.any(new_state < 0):
        raise StepSizeError("micro step produced a negative density; reduce dtau")
    new_stocks, new_psi = new_state[:n], float(new_state[n])
    new_sales = eta * new_stocks * new_psi
    new_pop = Population.from_arrays(
        new_sales,
        new_stocks,
        prices,
        eta,
        gamma,
        pop.clock_ratio,
        pop.tau + dtau,
    )
    repurchase = new_psi - demand.first_purchase
    if repurchase < 0:
        raise StepSizeError("pool dropped below the first-purchase part")
    new_demand = DemandState(
        first_purchase=demand.first_purchase,
        repurchase=repurchase,
        creation_rate=q,
        prefactor=q / float((eta * new_stocks).sum()),
    )
    return new_pop, new_demand


def fisher_pry_share(t, advantage: float, intercept: float = 0.0, clock_ratio: float = 1.0):
    """Market share of the fitter of two competitors at year ``t``.

    Logistic substitution: the log share ratio grows linearly,
    ``log(m1/m2) = advantage * clock_ratio * t + intercept``.  Pass
    ``clock_ratio=1`` when the advantage is already a per-year slope.
    """
    t_arr = np.asarray(t, dtype=float)
    out = 1.0 / (1.0 + np.exp(-(advantage * clock_ratio * t_arr + intercept)))
    return float(out) if np.isscalar(t) else out


def sales_mean_price(pop: Population) -> float:
    """Sales-weighted mean price of the population."""
    total = pop.total_sales
    if total <= 0:
        raise ValueError("mean price is undefined for a zero-sales population")
    return float((pop._sales * pop._prices).sum() / total)


def mean_price_drift(
    pop: Population, prefactor: float, market: MarketStructure
) -> float:
    """Instantaneous drift of the sales-weighted mean price.

    For a localized price distribution the replicator dynamics moves the
    mean price down the fitness gradient at a speed equal to the
    gradient times the price variance:

        d<mu>/dtau = <pref * repro> * prefactor * volume'(<mu>) * Var

    Negative whenever the mean price sits above the minimum price and
    the variance is positive; zero variance (monopoly) freezes it.
    """
    check_positive(prefactor, "prefactor")
    total = pop.total_sales
    if total <= 0:
        raise ValueError("drift is undefined for a zero-sales population")
    weights = pop._sales / total
    mu = float(weights @ pop._prices)
    variance = float(weights @ (pop._prices - mu) ** 2)
    scale = float(weights @ (pop._preferences * pop._reproductions)) * prefactor
    return scale * market_volume_gradient(mu, market) * variance
