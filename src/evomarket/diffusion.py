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

import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_nonnegative, check_positive, check_unit_interval, read_only_copy
from .errors import NumericError
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
        check_unit_interval(self.plateau, "plateau")


@dataclass(frozen=True)
class PriceDecline:
    """Exponential mean-price path ``offset * exp(-rate*t) + floor``."""

    offset: float
    floor: float
    rate: float

    def __post_init__(self):
        check_nonnegative(self.offset, "offset")
        check_nonnegative(self.floor, "floor")
        # rate zero freezes the price at offset + floor
        check_nonnegative(self.rate, "rate")


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

    ``times`` are years on the curve's own clock.  All three arrays are
    read-only float copies of the arrays given.
    """

    times: np.ndarray
    penetration: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        times = read_only_copy(self.times, "times")
        penetration = read_only_copy(self.penetration, "penetration")
        rate = read_only_copy(self.rate, "rate")
        if not (times.size == penetration.size == rate.size):
            raise ValueError("times, penetration and rate must share a grid")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "penetration", penetration)
        object.__setattr__(self, "rate", rate)


def _check_nonneg_times(t):
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time since introduction must be non-negative")
    return t_arr


def _bass_terms(t, a, b):
    """``(s, decay, denom, rise)``: ``s = a + b``, ``decay = exp(-s t)``,
    ``denom = a + b * decay`` and ``rise = 1 - decay``, the terms the Bass
    expressions are written in."""
    s = a + b
    decay = np.exp(-s * t)
    return s, decay, a + b * decay, 1.0 - decay


def _bass_penetration_of(a, b, plateau, decay, rise):
    """The package's one Bass penetration, from the terms of :func:`_bass_terms`."""
    return plateau * rise / (1.0 + (b / a) * decay)


def _bass_rate_of(a, plateau, s, decay, denom):
    """The package's one Bass rate, from the terms of :func:`_bass_terms`."""
    return plateau * a * (s * s) * decay / denom**2


def _bass_jets(t, innovation, imitation, plateau):
    """Bass penetration and rate jets by log innovation and log imitation.

    The value columns are the public closed forms', from the same
    expressions, and the fit reads every column.  ``t`` must be
    non-negative.  The parameters may be arrays that broadcast against
    ``t``, such as a ``(k, 1)`` column of k parameter sets.  Returns two
    arrays of the broadcast shape plus ``(3,)``, the value in ``[..., 0]``.
    """
    a, b = innovation, imitation
    s, decay, denom, rise = _bass_terms(t, a, b)
    pen = np.empty(np.shape(decay) + (3,))
    rate = np.empty(np.shape(decay) + (3,))
    pen[..., 0] = _bass_penetration_of(a, b, plateau, decay, rise)
    rate[..., 0] = _bass_rate_of(a, plateau, s, decay, denom)
    scale = plateau * a * decay / denom**2
    pen[..., 1] = scale * (a * s * t + b * rise)
    pen[..., 2] = scale * b * (s * t - rise)
    rate[..., 1] = rate[..., 0] * (
        1.0 + 2.0 * a / s - a * t - 2.0 * a * (1.0 - b * t * decay) / denom
    )
    rate[..., 2] = rate[..., 0] * (
        2.0 * b / s - b * t - 2.0 * b * decay * (1.0 - b * t) / denom
    )
    return pen, rate


def bass_penetration(t, params: BassParams):
    """Closed-form spreading penetration at ``t`` years after introduction.

    Starts at zero, increases monotonically and saturates at the
    plateau.  Matches :func:`bass_ode` to integrator accuracy.
    """
    t_arr = _check_nonneg_times(t)
    a, b = params.innovation, params.imitation
    _, decay, _, rise = _bass_terms(t_arr, a, b)
    pen = _bass_penetration_of(a, b, params.plateau, decay, rise)
    return float(pen) if np.isscalar(t) else pen


def bass_rate(t, params: BassParams):
    """First-purchase sales rate of the spreading process (1/year).

    Time derivative of :func:`bass_penetration`; equals
    ``innovation * plateau`` at introduction and decays to zero once the
    affordable potential is exhausted.
    """
    t_arr = _check_nonneg_times(t)
    a = params.innovation
    s, decay, denom, _ = _bass_terms(t_arr, a, params.imitation)
    rate = _bass_rate_of(a, params.plateau, s, decay, denom)
    return float(rate) if np.isscalar(t) else rate


def bass_ode(params: BassParams, horizon: float, step: float = 1e-3) -> AdoptionCurve:
    """Integrate the spreading process with a fixed-step 4th-order scheme.

    The pool of potential first-purchasers is the plateau minus the
    current penetration, and the imitation term acts on the adopted
    fraction of that plateau, which is what the closed form solves:

        dn/dt = (innovation + imitation * n / plateau) * (plateau - n)

    Serves as the independent oracle for :func:`bass_penetration`.
    Raises NumericError if the penetration stops being finite.

    Returns
    -------
    AdoptionCurve
        Penetration and rate sampled every ``step`` years from zero.
    """
    check_positive(step, "step")
    if horizon < step:
        raise ValueError("horizon must be at least one step")
    times = step * np.arange(int(round(horizon / step)) + 1)
    plateau = params.plateau
    if plateau == 0.0:
        # the right-hand side divides by the plateau
        zeros = np.zeros_like(times)
        return AdoptionCurve(times, zeros, zeros)

    a, b = params.innovation, params.imitation
    half, sixth = 0.5 * step, step / 6.0

    def rhs(n):
        return (a + b * n / plateau) * (plateau - n)

    # the stages of evodyn.rk4_step, on the scalar itself
    n, path = 0.0, [0.0]
    for i in range(1, times.size):
        k1 = rhs(n)
        k2 = rhs(n + half * k1)
        k3 = rhs(n + half * k2)
        k4 = rhs(n + step * k3)
        n = n + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(n):
            raise NumericError(f"integration diverged at t={times[i]:g}")
        path.append(n)
    penetration = np.array(path)
    rate = (a + b * penetration / plateau) * (plateau - penetration)
    return AdoptionCurve(times, penetration, rate)


def mean_price(t, decline: PriceDecline):
    """Mean real price ``t`` years after the decline sets in.

    Strictly decreasing toward the floor when the rate is positive.
    """
    t_arr = np.asarray(t, dtype=float)
    out = decline.offset * np.exp(-decline.rate * t_arr) + decline.floor
    return float(out) if np.isscalar(t) else out


def _gompertz_terms(t_prime, plateau, shape, rate):
    """``(decay, value, live)``: ``decay = exp(-2 rate t')``, the package's
    one Gompertz penetration ``value = plateau * exp(-shape * decay)`` and
    ``live = value > 0``.  The value is zero where ``decay`` overflows;
    there the terms multiply inf by 0, so callers evaluate them, and
    :func:`_gompertz_rate_of`, under
    ``np.errstate(over="ignore", invalid="ignore")``."""
    decay = np.exp(-2.0 * rate * t_prime)
    value = plateau * np.exp(-shape * decay)
    return decay, value, value > 0


def _gompertz_rate_of(rate, shape, decay, value, live):
    """The package's one Gompertz rate, from the terms of
    :func:`_gompertz_terms`; zero where the penetration is."""
    return np.where(live, 2.0 * rate * shape * decay * value, 0.0)


def _gompertz_jets(t_prime, plateau, shape, rate):
    """Gompertz penetration and rate jets by log shape, on the all-real clock.

    Read like :func:`_bass_jets`, whose parameters broadcast the same
    way.  Zero where ``exp(-2 rate t')`` overflows.  Returns two arrays
    of the broadcast shape plus ``(2,)``, the value in ``[..., 0]``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        decay, value, live = _gompertz_terms(t_prime, plateau, shape, rate)
        pen = np.empty(np.shape(value) + (2,))
        out = np.empty(np.shape(value) + (2,))
        pen[..., 0] = value
        out[..., 0] = _gompertz_rate_of(rate, shape, decay, value, live)
        pen[..., 1] = np.where(live, -shape * decay * value, 0.0)
        out[..., 1] = np.where(live, out[..., 0] * (1.0 - shape * decay), 0.0)
    return pen, out


def gompertz_penetration(t_prime, params: GompertzParams):
    """Price-driven penetration on the evolutionary clock.

    Defined for all real ``t_prime`` (the wave has no sharp start);
    monotone increasing with limit ``plateau``.  Zero, with no warning,
    where ``exp(-2 rate t')`` overflows.
    """
    t_arr = np.asarray(t_prime, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        _, pen, _ = _gompertz_terms(t_arr, params.plateau, params.shape, params.rate)
    return float(pen) if np.isscalar(t_prime) else pen


def gompertz_rate(t_prime, params: GompertzParams):
    """First-purchase sales rate of the price-driven process (1/year).

    Time derivative of :func:`gompertz_penetration`; maximal exactly
    when the penetration passes ``plateau / e``.  Zero where the
    penetration underflows to zero, including far before the onset,
    where ``exp(-2 rate t')`` overflows.
    """
    t_arr = np.asarray(t_prime, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _gompertz_terms(t_arr, params.plateau, params.shape, params.rate)
        rate = _gompertz_rate_of(params.rate, params.shape, *terms)
    return float(rate) if np.isscalar(t_prime) else rate


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
    times = read_only_copy(times, "times")
    prices = read_only_copy(prices, "prices")
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
