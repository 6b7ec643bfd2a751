"""Product life cycle: first purchase plus replacement and multiple purchase.

Replacement demand echoes the first-purchase wave after the product
lifetime, repeatedly and with geometric damping; multiple purchase
scales with the installed base.  Summing both repurchase channels over
the spreading and the price-driven wave gives the aggregate unit sales
and their multi-year periodicity.

All series transforms are linear, operate on uniform grids and return
new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import as_float_array, check_positive
from .diffusion import AdoptionCurve
from .errors import FormatError

__all__ = [
    "FailureDistribution",
    "WaveParams",
    "replacement_sales",
    "multiple_sales",
    "wave_sales",
    "total_sales",
]


@dataclass(frozen=True)
class FailureDistribution:
    """Distribution of the time to product failure.

    ``kind`` is ``"delta"`` (all units fail exactly at ``lifetime``) or
    ``"gaussian"`` (spread ``sigma`` around ``lifetime``, truncated at
    zero and renormalized so the discretized kernel carries unit mass).
    """

    kind: str
    lifetime: float
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "gaussian"):
            raise ValueError(f"unknown failure kind {self.kind!r}")
        check_positive(self.lifetime, "lifetime")
        if self.kind == "gaussian":
            if self.sigma is None:
                raise ValueError("gaussian failure distribution needs sigma")
            check_positive(self.sigma, "sigma")

    def kernel(self, step: float) -> np.ndarray:
        """Discretized failure density times the grid step.

        The kernel sums to one exactly, which makes the replaced mass
        equal the source mass once the support fits the horizon.
        """
        check_positive(step, "step")
        if self.kind == "delta":
            lag = int(round(self.lifetime / step))
            kernel = np.zeros(lag + 1)
            kernel[lag] = 1.0
            return kernel
        half_width = 6.0 * self.sigma
        n_cells = int(np.ceil((self.lifetime + half_width) / step))
        lags = step * np.arange(n_cells + 1)
        density = np.exp(-((lags - self.lifetime) ** 2) / (2.0 * self.sigma**2))
        weights = np.full(lags.size, step)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        kernel = density * weights
        return kernel / kernel.sum()


@dataclass(frozen=True)
class WaveParams:
    """Repurchase machinery attached to one diffusion wave."""

    multiple_rate: float = 0.0
    replacement_fraction: float = 0.0
    failure: FailureDistribution | None = None

    def __post_init__(self):
        if self.multiple_rate < 0:
            raise ValueError("multiple_rate must be non-negative")
        if not 0.0 <= self.replacement_fraction <= 1.0:
            raise ValueError("replacement_fraction must lie in [0, 1]")
        if self.replacement_fraction > 0 and self.failure is None:
            raise ValueError("replacement requires a failure distribution")


def replacement_sales(
    first_purchase,
    step: float,
    fraction: float,
    failure: FailureDistribution,
    echoes: int = 1,
) -> np.ndarray:
    """Replacement demand induced by a first-purchase sales series.

    The first echo convolves the source with the failure density and
    scales it by the replaced ``fraction``; each further echo replaces
    the previous one, giving geometric damping.  For the delta kind the
    convolution reduces to an exact shift by the lifetime.

    Parameters
    ----------
    first_purchase : array_like
        Sales series on a uniform grid of spacing ``step`` (years).
    step : float
    fraction : float
        Fraction of previous sales that comes back for replacement.
    failure : FailureDistribution
    echoes : int
        Number of recurrent replacement waves to accumulate.

    Returns
    -------
    numpy.ndarray
        Sum of all echoes, zero before the first achievable lag.
    """
    source = as_float_array(first_purchase, "first_purchase")
    check_positive(step, "step")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if echoes < 1:
        raise ValueError("echoes must be at least 1")
    out = np.zeros_like(source)
    if fraction == 0.0:
        return out
    kernel = failure.kernel(step)
    echo = source
    for _ in range(echoes):
        echo = fraction * np.convolve(echo, kernel)[: source.size]
        out += echo
    return out


def multiple_sales(penetration, rate: float) -> np.ndarray:
    """Multiple-purchase sales: the installed base times the purchase rate."""
    n = as_float_array(penetration, "penetration")
    if np.any((n < 0) | (n > 1)):
        raise ValueError("penetration values must lie in [0, 1]")
    if rate < 0:
        raise ValueError("rate must be non-negative")
    return rate * n


def wave_sales(curve: AdoptionCurve, wave: WaveParams, echoes: int = 1) -> np.ndarray:
    """Unit sales of one diffusion wave: first + multiple + replacement."""
    if curve.penetration.size != curve.rate.size:
        raise FormatError("curve penetration and rate grids do not match")
    step = curve.step
    out = curve.rate + multiple_sales(
        np.clip(curve.penetration, 0.0, 1.0), wave.multiple_rate
    )
    if wave.replacement_fraction > 0:
        out = out + replacement_sales(
            curve.rate, step, wave.replacement_fraction, wave.failure, echoes
        )
    return out


def total_sales(
    spreading_sales,
    evolutionary_sales,
    step: float,
    shift: float = 0.0,
) -> np.ndarray:
    """Aggregate unit sales of both waves on the introduction clock.

    The evolutionary wave starts ``shift`` years after introduction and
    is added with that offset (rounded to the nearest grid cell); the
    result covers the union of both supports, zero-padded.
    """
    bass = as_float_array(spreading_sales, "spreading_sales")
    gomp = as_float_array(evolutionary_sales, "evolutionary_sales")
    check_positive(step, "step")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    lag = int(round(shift / step))
    n = max(bass.size, lag + gomp.size)
    out = np.zeros(n)
    out[: bass.size] += bass
    out[lag : lag + gomp.size] += gomp
    return out
