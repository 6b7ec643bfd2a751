"""Evolutionary engine: reproduction micro-dynamics and replicator selection.

Competing models of one durable good reproduce through a
sell-to-manufacture cycle.  On the fast market clock the pool of
potential buyers relaxes to a stationary level, purchases follow a
law-of-mass-action between buyers and available stock, and the slow
residual dynamics of the sales shares is a replicator equation driven
by each model's fitness: preference times reproduction coefficient
times demand prefactor times affordable market volume at its price.
The micro-dynamics is stepped with fourth-order Runge–Kutta on Python
floats, each stage one pass over the products with its sums taken left
to right; the replicator, whose fitnesses are fixed within a step, is
stepped exactly.
A replicator-stepped population carries the step's growth factor, so a
run of steps with the same prefactor, market and step size computes its
fitnesses once.

Two clocks appear throughout: the steps advance ``tau``, the fast
market clock, while :func:`fisher_pry_share` works on calendar years.
Populations are value-semantic; stepping returns new objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._validation import check_nonnegative, check_positive
from .errors import StepSizeError
from .market import MarketStructure, market_volume, market_volume_gradient

__all__ = [
    "Product",
    "DemandState",
    "Population",
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
    """Pool of potential buyers.

    ``potential`` is the pool's density; ``creation_rate`` is the mean
    rate at which repurchase decisions create new potential buyers;
    ``prefactor`` is the stationary-pool prefactor
    ``creation_rate / sum(preference * stock)`` for the population the
    state was computed against.
    """

    potential: float
    creation_rate: float
    prefactor: float

    def __post_init__(self):
        check_nonnegative(self.potential, "potential")
        check_nonnegative(self.creation_rate, "creation_rate")
        check_nonnegative(self.prefactor, "prefactor")


class Population:
    """Value-semantic collection of competing products with a clock.

    ``tau`` is the fast-clock time, 0 for a new population; each step
    returns a population with ``tau`` advanced by its step.
    """

    # (key, factor) of the replicator step that made this population
    _growth = None

    def __init__(self, products: Sequence[Product]):
        if len(products) == 0:
            raise ValueError("population must contain at least one product")
        self._sales = np.array([p.sales for p in products], dtype=float)
        self._stocks = np.array([p.stock for p in products], dtype=float)
        self._prices = np.array([p.price for p in products], dtype=float)
        self._preferences = np.array([p.preference for p in products], dtype=float)
        self._reproductions = np.array([p.reproduction for p in products], dtype=float)
        self.tau = 0.0

    @classmethod
    def from_arrays(
        cls, sales, stocks, prices, preferences, reproductions, tau
    ) -> "Population":
        """A population holding the given float arrays themselves, not copies.

        A population never writes to its arrays and hands out only
        copies, so a step passes the arrays it leaves unchanged straight
        on; callers must not write to the arrays afterwards.  The new
        population carries no growth factor; :func:`replicator_step`
        attaches one to the population it returns.
        """
        pop = cls.__new__(cls)
        pop._sales = sales
        pop._stocks = stocks
        pop._prices = prices
        pop._preferences = preferences
        pop._reproductions = reproductions
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
        return float(np.add.reduce(self._sales))

    @property
    def shares(self) -> np.ndarray:
        total = np.add.reduce(self._sales)
        if total <= 0:
            raise ValueError("shares are undefined for a zero-sales population")
        return self._sales / total


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
    fixed during the step (prices do not move here), so the step is
    exact: ``m_i e^{f_i dtau} / sum_j m_j e^{f_j dtau}``, scaled back to
    the total sales.  Any step size keeps every share in [0, 1].

    The returned population carries the step's growth factor, and a next
    step with the same prefactor, market and ``dtau`` reuses it instead
    of recomputing the fitnesses.
    """
    dtau = check_positive(dtau, "dtau")
    total = pop.total_sales
    if total <= 0:
        raise ValueError("replicator dynamics need positive total sales")
    key = (float(prefactor), market, dtau)
    if pop._growth is not None and pop._growth[0] == key:
        factor = pop._growth[1]
    else:
        # Exponents are taken relative to the fittest product with sales,
        # so none overflows and the fittest weighs 1; a zero-sales product
        # stays at zero whatever its fitness.  Both facts survive the step,
        # so the factor recomputed on its result would be the same bits.
        f = np.where(pop._sales > 0, population_fitness(pop, prefactor, market), -np.inf)
        factor = np.exp((f - f.max()) * dtau)
    grown = pop._sales * factor
    new_pop = Population.from_arrays(
        grown / np.add.reduce(grown) * total,
        pop._stocks,
        pop._prices,
        pop._preferences,
        pop._reproductions,
        pop.tau + dtau,
    )
    new_pop._growth = (key, factor)
    return new_pop


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
    return DemandState(potential=psi, creation_rate=creation_rate, prefactor=prefactor)


def rk4_step(rhs, t: float, state: list, step: float) -> list:
    """One classical fourth-order Runge–Kutta step of a list of floats.

    ``rhs(t, state)`` returns the derivative as a list of the same
    length.  Each component combines its stages in the textbook order,
    so the step gives the same bits as the same arithmetic on a float or
    a numpy array.
    """
    half = 0.5 * step
    k1 = rhs(t, state)
    k2 = rhs(t + half, [s + half * k for s, k in zip(state, k1)])
    k3 = rhs(t + half, [s + half * k for s, k in zip(state, k2)])
    k4 = rhs(t + step, [s + step * k for s, k in zip(state, k3)])
    sixth = step / 6.0
    return [
        s + sixth * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]


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
    eta = pop._preferences.tolist()
    gamma = pop._reproductions.tolist()
    prices = pop._prices.tolist()
    q = demand.creation_rate

    def rhs(_tau, s):
        pool = s[-1]
        weight = priced = sold = -0.0
        derivative = []
        for e, g, p, x in zip(eta, gamma, prices, s):
            ex = e * x
            y = ex * pool
            weight += ex
            priced += ex * p
            sold += y
            derivative.append(g * y)
        mu = priced / weight if weight > 0 else 0.0
        derivative.append(q * market_volume(max(mu, 0.0), market) - sold)
        return derivative

    new_state = rk4_step(rhs, pop.tau, pop._stocks.tolist() + [demand.potential], dtau)
    if not all(0.0 <= x < math.inf for x in new_state):
        raise StepSizeError(
            "micro step produced a negative or non-finite density; reduce dtau"
        )
    new_psi = new_state.pop()
    new_stocks = np.array(new_state)
    weighted = pop._preferences * new_stocks
    new_pop = Population.from_arrays(
        weighted * new_psi,
        new_stocks,
        pop._prices,
        pop._preferences,
        pop._reproductions,
        pop.tau + dtau,
    )
    weight = float(np.add.reduce(weighted))
    if weight <= 0:
        raise ValueError("stationary demand needs positive preference-weighted stock")
    new_demand = DemandState(potential=new_psi, creation_rate=q, prefactor=q / weight)
    return new_pop, new_demand


def fisher_pry_share(t, advantage: float, intercept: float = 0.0):
    """Market share of the fitter of two competitors at year ``t``.

    Logistic substitution: the log share ratio grows linearly,
    ``log(m1/m2) = advantage * t + intercept``, with ``advantage`` a
    per-year slope.
    """
    t_arr = np.asarray(t, dtype=float)
    out = 1.0 / (1.0 + np.exp(-(advantage * t_arr + intercept)))
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
