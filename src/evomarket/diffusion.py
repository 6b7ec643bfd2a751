"""Adoption curves: word-of-mouth spreading and price-driven diffusion.

Two independent first-purchase processes drive a durable good into its
market.  The spreading process (innovation plus imitation at fixed
product features) has the classical S-curve with closed forms for
penetration and adoption rate, plus a fixed-step ODE integrator that
serves as its oracle.  The evolutionary process is driven by the
exponential decline of the mean real price toward its floor; pushing
that price path through the market-volume curve yields a Gompertz
penetration law whose rate peaks when a fraction 1/e of the eventual
adopters has adopted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrate import rk4_integrate
from ._validation import (
    as_float_array,
    check_nonnegative,
    check_positive,
    uniform_grid_step,
)
from .market import MarketStructure

__all__ = [
    "BassParams",
    "PriceDecline",
    "GompertzParams",
    "AdoptionCurve",
    "bass_penetration",
    "bass_rate",
    "bass_ode",
    "mean_price",
    "gompertz_penetration",
    "gompertz_rate",
    "gompertz_from_price",
    "price_decline_rate",
]


@dataclass(frozen=True)
class BassParams:
    """Spreading-process parameters.

    Parameters
    ----------
    innovation : float
        Spontaneous adoption rate (1/year), > 0.
    imitation : float
        Word-of-mouth rate (1/year), >= 0.
    plateau : float
        Saturation penetration: the market volume at the introduction
        price, in (0, 1].  A plateau of zero is accepted and yields an
        identically zero curve (empty market volume).
    """

    innovation: float
    imitation: float
    plateau: float

    def __post_init__(self):
        check_positive(self.innovation, "innovation")
        check_nonnegative(self.imitation, "imitation")
        if not 0.0 <= self.plateau <= 1.0:
            raise ValueError(f"plateau must lie in [0, 1], got {self.plateau}")


@dataclass(frozen=True)
class PriceDecline:
    """Exponential mean-price path ``offset * exp(-rate*t) + floor``."""

    offset: float
    floor: float
    rate: float

    def __post_init__(self):
        check_nonnegative(self.offset, "offset")
        check_nonnegative(self.floor, "floor")
        check_positive(self.rate, "rate")


@dataclass(frozen=True)
class GompertzParams:
    """Price-driven diffusion parameters.

    ``rate`` is the price decline rate (shared with :class:`PriceDecline`);
    ``shape`` shifts the curve in time.
    """

    plateau: float
    shape: float
    rate: float

    def __post_init__(self):
        check_positive(self.plateau, "plateau")
        check_positive(self.shape, "shape")
        # rate zero is the frozen-price limit: the wave never advances
        check_nonnegative(self.rate, "rate")


@dataclass(frozen=True)
class AdoptionCurve:
    """Sampled penetration and adoption rate on a shared time grid.

    ``times`` are years on the curve's own clock.
    """

    times: np.ndarray
    penetration: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        times = as_float_array(self.times, "times")
        penetration = as_float_array(self.penetration, "penetration")
        rate = as_float_array(self.rate, "rate")
        if not (times.size == penetration.size == rate.size):
            raise ValueError("times, penetration and rate must share a grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "penetration", penetration)
        object.__setattr__(self, "rate", rate)

    @property
    def step(self) -> float:
        return uniform_grid_step(self.times)


def _check_nonneg_times(t):
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time since introduction must be non-negative")
    return t_arr


def bass_penetration(t, params: BassParams):
    """Closed-form spreading penetration at ``t`` years after introduction.

    Starts at zero, increases monotonically and saturates at the
    plateau.  Matches :func:`bass_ode` to integrator accuracy.
    """
    t_arr = _check_nonneg_times(t)
    if params.plateau == 0.0:
        out = np.zeros_like(t_arr)
        return float(out) if np.isscalar(t) else out
    a, b = params.innovation, params.imitation
    decay = np.exp(-(a + b) * t_arr)
    out = params.plateau * (1.0 - decay) / (1.0 + (b / a) * decay)
    return float(out) if np.isscalar(t) else out


def bass_rate(t, params: BassParams):
    """First-purchase sales rate of the spreading process (1/year).

    Time derivative of :func:`bass_penetration`; equals
    ``innovation * plateau`` at introduction and decays to zero once the
    affordable potential is exhausted.
    """
    t_arr = _check_nonneg_times(t)
    a, b = params.innovation, params.imitation
    decay = np.exp(-(a + b) * t_arr)
    out = params.plateau * a * (a + b) ** 2 * decay / (a + b * decay) ** 2
    return float(out) if np.isscalar(t) else out


def bass_ode(params: BassParams, horizon: float, step: float = 1e-3) -> AdoptionCurve:
    """Integrate the spreading process with a fixed-step 4th-order scheme.

    The pool of potential first-purchasers is the plateau minus the
    current penetration, and the imitation term acts on the adopted
    fraction of that plateau, which is what the closed form solves:

        dn/dt = (innovation + imitation * n / plateau) * (plateau - n)

    Serves as the independent oracle for :func:`bass_penetration`.

    Returns
    -------
    AdoptionCurve
        Penetration and rate sampled every ``step`` years from zero.
    """
    check_positive(step, "step")
    if horizon < step:
        raise ValueError("horizon must be at least one step")
    plateau = params.plateau
    if plateau == 0.0:
        times = step * np.arange(int(round(horizon / step)) + 1)
        zeros = np.zeros_like(times)
        return AdoptionCurve(times, zeros, zeros)

    a, b = params.innovation, params.imitation

    def rhs(_t, state):
        n = state[0]
        return np.array([(a + b * n / plateau) * (plateau - n)])

    times, states = rk4_integrate(rhs, [0.0], 0.0, horizon, step)
    penetration = states[:, 0]
    rate = (a + b * penetration / plateau) * (plateau - penetration)
    return AdoptionCurve(times, penetration, rate)


def mean_price(t, decline: PriceDecline):
    """Mean real price ``t`` years after the decline sets in.

    Strictly decreasing toward the floor.
    """
    t_arr = np.asarray(t, dtype=float)
    out = decline.offset * np.exp(-decline.rate * t_arr) + decline.floor
    return float(out) if np.isscalar(t) else out


def gompertz_penetration(t_prime, params: GompertzParams):
    """Price-driven penetration on the evolutionary clock.

    Defined for all real ``t_prime`` (the wave has no sharp start);
    monotone increasing with limit ``plateau``.  Zero, with no warning,
    where ``exp(-2 rate t')`` overflows.
    """
    t_arr = np.asarray(t_prime, dtype=float)
    with np.errstate(over="ignore"):
        out = params.plateau * np.exp(-params.shape * np.exp(-2.0 * params.rate * t_arr))
    return float(out) if np.isscalar(t_prime) else out


def gompertz_rate(t_prime, params: GompertzParams):
    """First-purchase sales rate of the price-driven process (1/year).

    Time derivative of :func:`gompertz_penetration`; maximal exactly
    when the penetration passes ``plateau / e``.  Zero where the
    penetration underflows to zero, including far before the onset,
    where ``exp(-2 rate t')`` overflows.
    """
    t_arr = np.asarray(t_prime, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-2.0 * params.rate * t_arr)
        pen = gompertz_penetration(t_arr, params)
        out = np.where(pen > 0, 2.0 * params.rate * params.shape * decay * pen, 0.0)
    return float(out) if np.isscalar(t_prime) else out


def gompertz_from_price(
    times, prices, market: MarketStructure, plateau: float
) -> AdoptionCurve:
    """Penetration implied by a sampled mean-price path.

    The adopter density grows with the market volume at the current
    mean price, so

        n(t) = plateau * exp(-(price(t) - minimum_price)^2 / (2 width^2))

    When the price path is the exponential decline of
    :func:`mean_price`, this reproduces :func:`gompertz_penetration`
    with ``shape = offset^2 / (2 width^2)`` identically.

    Parameters
    ----------
    times, prices : array_like
        Mean-price path; prices must not fall below the market's
        minimum price.
    market : MarketStructure
    plateau : float
        Saturation value of the wave.

    Returns
    -------
    AdoptionCurve
        The rate channel holds the centred finite difference of the
        penetration (one-sided at the ends).
    """
    times = as_float_array(times, "times")
    prices = as_float_array(prices, "prices")
    if times.size != prices.size:
        raise ValueError("times and prices must have equal length")
    check_positive(plateau, "plateau")
    if np.any(prices < market.minimum_price - 1e-12):
        raise ValueError("mean price fell below the market's minimum price")
    excess = np.maximum(prices - market.minimum_price, 0.0)
    penetration = plateau * np.exp(-(excess**2) / (2.0 * market.width**2))
    rate = np.gradient(penetration, times)
    return AdoptionCurve(times, penetration, rate)


def price_decline_rate(
    fitness_scale: float,
    lower_share: float,
    price_variance: float,
    width: float,
    clock_ratio: float,
) -> float:
    """Decline rate of the mean price implied by the selection dynamics.

    The mean price drifts down the market-volume gradient at a speed
    proportional to the sales-weighted variance of the price
    distribution, giving

        rate = clock_ratio * fitness_scale * lower_share * variance / width^2

    per year, where ``fitness_scale`` is the mean product of
    preference, reproduction coefficient and demand prefactor, and
    ``clock_ratio`` converts the fast market clock to years.  A zero
    variance (monopoly) freezes the price.
    """
    check_positive(fitness_scale, "fitness_scale")
    check_positive(lower_share, "lower_share")
    check_nonnegative(price_variance, "price_variance")
    check_positive(width, "width")
    check_positive(clock_ratio, "clock_ratio")
    return clock_ratio * fitness_scale * lower_share * price_variance / width**2
