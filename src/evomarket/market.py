"""Income model, real-price scaling and the market-volume curve.

The market for a durable good is split into an upper class that can
always afford it and a lower class whose annual income follows an
exponential (Boltzmann-Gibbs) law.  Affordability of a real price
``mu`` (nominal price over mean income) is then a Gaussian flank above
a minimum price ``mu_m``, which every other module consumes as the
effective demand curve.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_nonnegative, check_positive, check_unit_interval

__all__ = [
    "IncomeModel",
    "MarketStructure",
    "income_pdf",
    "real_price",
    "market_volume",
    "market_volume_gradient",
]


@dataclass(frozen=True)
class IncomeModel:
    """Exponentially growing mean annual income.

    Parameters
    ----------
    mean_income : float
        Mean annual income at the reference year, in currency units.
    growth : float
        Annual growth rate; must exceed -1.
    ref_year : float
        Calendar year at which ``mean_income`` applies.
    """

    mean_income: float
    growth: float = 0.0
    ref_year: float = 0.0

    def __post_init__(self):
        check_positive(self.mean_income, "mean_income")
        if not self.growth > -1.0:
            raise ValueError(f"growth must exceed -1, got {self.growth}")

    def at(self, years_since_ref):
        """Mean income ``years_since_ref`` years after the reference year.

        Negative values back-extrapolate.
        """
        t = np.asarray(years_since_ref, dtype=float)
        out = self.mean_income * (1.0 + self.growth) ** t
        return float(out) if np.isscalar(years_since_ref) else out

    def at_year(self, calendar_year):
        return self.at(np.asarray(calendar_year, dtype=float) - self.ref_year)


@dataclass(frozen=True)
class MarketStructure:
    """Class shares and affordability parameters of the market potential.

    Parameters
    ----------
    upper_share : float
        Fraction of the market potential that is never limited by the
        price (industrial buyers, top incomes).  The lower-class share
        is its complement, so the two always sum to one.
    minimum_price : float
        Real price below which the whole potential can afford the good.
    width : float
        Scale of the affordability flank above ``minimum_price``;
        same (dimensionless) units as the real price.
    """

    upper_share: float
    minimum_price: float
    width: float

    def __post_init__(self):
        check_unit_interval(self.upper_share, "upper_share")
        check_nonnegative(self.minimum_price, "minimum_price")
        check_positive(self.width, "width")

    @property
    def lower_share(self) -> float:
        return 1.0 - self.upper_share


def income_pdf(income, mean_income):
    """Probability density of the lower-class annual income.

    Exponential with mean ``mean_income``: ``(1/I) exp(-h/I)``.
    Integrates to one over ``[0, inf)``.
    """
    check_positive(mean_income, "mean_income")
    h = np.asarray(income, dtype=float)
    if np.any(h < 0):
        raise ValueError("income must be non-negative")
    out = np.exp(-h / mean_income) / mean_income
    return float(out) if np.isscalar(income) else out


def real_price(price, mean_income) -> float:
    """Scale a nominal price by the mean income."""
    check_positive(mean_income, "mean_income")
    p = np.asarray(price, dtype=float)
    if np.any(p < 0):
        raise ValueError("price must be non-negative")
    out = p / mean_income
    return float(out) if np.isscalar(price) else out


def market_volume(mu, market: MarketStructure):
    """Fraction of the market potential that can afford real price ``mu``.

    Equal to one at or below the minimum price; above it the lower-class
    contribution falls off as a Gaussian of scale ``width`` while the
    upper class stays in the market, so values lie in
    ``(upper_share, 1]`` and decrease monotonically.

    A ``float`` (``np.float64`` included) takes a scalar path through
    ``math``, since ``evodyn.micro_step`` calls this once per RK4 stage;
    any other input is evaluated as an array.  On either path a scalar
    input gives a Python float and a NaN price gives NaN.
    """
    if isinstance(mu, float):
        if mu < 0:
            raise ValueError("real price must be non-negative")
        excess = max(float(mu) - market.minimum_price, 0.0)  # max keeps a NaN first argument
        return market.upper_share + market.lower_share * math.exp(
            -(excess * excess) / (2.0 * market.width**2)
        )
    mu_arr = np.asarray(mu, dtype=float)
    if (mu_arr < 0).any():
        raise ValueError("real price must be non-negative")
    excess = np.maximum(mu_arr - market.minimum_price, 0.0)
    out = market.upper_share + market.lower_share * np.exp(
        -(excess * excess) / (2.0 * market.width**2)
    )
    return float(out) if np.isscalar(mu) else out


def market_volume_gradient(mu, market: MarketStructure):
    """Analytic derivative of :func:`market_volume` with respect to price.

    Zero on the flat regime (``mu <= minimum_price``), strictly negative
    above it.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(mu_arr < 0):
        raise ValueError("real price must be non-negative")
    excess = np.maximum(mu_arr - market.minimum_price, 0.0)
    theta_sq = market.width**2
    out = -market.lower_share * (excess / theta_sq) * np.exp(
        -(excess**2) / (2.0 * theta_sq)
    )
    return float(out) if np.isscalar(mu) else out
