"""Product life cycle: first purchase plus replacement and multiple purchase.

Every unit fails exactly one product lifetime after purchase, so
replacement demand is the first-purchase wave shifted by the lifetime on
the grid, repeated with geometric damping; no convolution is needed.
Multiple purchase scales with the installed base.  Summing both
repurchase channels over the spreading and the price-driven wave gives
the aggregate unit sales and their multi-year periodicity.

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
    "WaveParams",
    "replacement_sales",
    "multiple_sales",
    "wave_sales",
    "total_sales",
]


@dataclass(frozen=True)
class WaveParams:
    """Repurchase machinery attached to one diffusion wave."""

    multiple_rate: float = 0.0
    replacement_fraction: float = 0.0
    lifetime: float | None = None

    def __post_init__(self):
        if self.multiple_rate < 0:
            raise ValueError("multiple_rate must be non-negative")
        if not 0.0 <= self.replacement_fraction <= 1.0:
            raise ValueError("replacement_fraction must lie in [0, 1]")
        if self.lifetime is not None:
            check_positive(self.lifetime, "lifetime")
        if self.replacement_fraction > 0 and self.lifetime is None:
            raise ValueError("replacement requires a product lifetime")


def replacement_sales(
    first_purchase,
    step: float,
    fraction: float,
    lifetime: float,
    echoes: int = 1,
) -> np.ndarray:
    """Replacement demand induced by a first-purchase sales series.

    Every unit fails exactly ``lifetime`` years after purchase, and a
    ``fraction`` of the failed units is bought again.  The first echo is
    the source moved ``round(lifetime / step)`` cells later and scaled by
    ``fraction``; each further echo replaces the previous one, giving
    geometric damping.

    Parameters
    ----------
    first_purchase : array_like
        Sales series on a uniform grid of spacing ``step`` (years).
    step : float
    fraction : float
        Fraction of previous sales that comes back for replacement.
    lifetime : float
        Product lifetime in years.
    echoes : int
        Number of recurrent replacement waves to accumulate.

    Returns
    -------
    numpy.ndarray
        Sum of all echoes, zero before the first lag.
    """
    source = as_float_array(first_purchase, "first_purchase")
    check_positive(step, "step")
    check_positive(lifetime, "lifetime")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if echoes < 1:
        raise ValueError("echoes must be at least 1")
    out = np.zeros_like(source)
    if fraction == 0.0:
        return out
    lag = int(round(lifetime / step))
    # echo k covers cells k * lag onward; it is echo k - 1 cut by one lag
    echo = source
    start = 0
    for _ in range(echoes):
        start += lag
        if start >= source.size:
            break
        echo = fraction * echo[: echo.size - lag]
        out[start:] += echo
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
            curve.rate, step, wave.replacement_fraction, wave.lifetime, echoes
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
