"""Product life cycle: first purchase plus replacement and multiple purchase.

Every unit fails exactly one product lifetime after purchase, so the
replacement demand at time ``t`` is the first-purchase rate at
``t - lifetime``, again at ``t - 2 * lifetime`` and so on, damped
geometrically; no convolution is needed.  Each echo is evaluated on the
wave's closed form at its own time, so the lags are exact at any grid
step.  Multiple purchase scales with the installed base.  Summing both
repurchase channels over the spreading and the price-driven wave gives
the aggregate unit sales and their multi-year periodicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import as_float_array, check_nonnegative, check_positive, check_unit_interval

__all__ = ["WaveParams", "wave_sales", "total_sales"]


@dataclass(frozen=True)
class WaveParams:
    """Repurchase machinery attached to one diffusion wave."""

    multiple_rate: float = 0.0
    replacement_fraction: float = 0.0
    lifetime: float | None = None

    def __post_init__(self):
        check_nonnegative(self.multiple_rate, "multiple_rate")
        check_unit_interval(self.replacement_fraction, "replacement_fraction")
        if self.lifetime is not None:
            check_positive(self.lifetime, "lifetime")
        if self.replacement_fraction > 0 and self.lifetime is None:
            raise ValueError("replacement requires a product lifetime")


def _from_zero(fn, t: np.ndarray) -> np.ndarray:
    """``fn(t)`` where ``t >= 0`` and zero before."""
    return np.where(t >= 0, fn(np.maximum(t, 0.0)), 0.0)


def wave_sales(t, installed, rate, wave: WaveParams, echoes: int = 1) -> np.ndarray:
    """Unit sales of one diffusion wave at ``t`` years on the wave's own clock.

    The sales are first purchases, plus the multiple rate times the
    installed base, plus the replacement echoes::

        rate(t) + multiple_rate * clip(installed, 0, 1)
                + sum over k = 1..echoes of fraction**k * rate(t - k * lifetime)

    Each echo is zero where ``t - k * lifetime < 0``, and the whole wave
    is zero where ``t < 0``.  Echoes that start after the last time are
    not evaluated, so a large ``echoes`` costs nothing.

    Parameters
    ----------
    t : array_like
        Years since the wave started; any spacing, negative allowed.
    installed : array_like
        The wave's penetration at ``t``; values at negative times are
        ignored.
    rate : callable
        The wave's first-purchase rate, called with non-negative times.
    wave : WaveParams
    echoes : int
        Number of recurrent replacement waves to accumulate.
    """
    t = as_float_array(t, "t")
    if echoes < 1:
        raise ValueError("echoes must be at least 1")
    out = _from_zero(rate, t) + wave.multiple_rate * np.clip(
        np.where(t >= 0, installed, 0.0), 0.0, 1.0
    )
    if wave.replacement_fraction > 0:
        last = np.max(t, initial=0.0)
        for k in range(1, echoes + 1):
            if k * wave.lifetime > last:
                break
            out += wave.replacement_fraction**k * _from_zero(rate, t - k * wave.lifetime)
    return out


def total_sales(spreading_sales, evolutionary_sales) -> np.ndarray:
    """Aggregate unit sales: the two waves' sales at the same times, summed."""
    spreading = as_float_array(spreading_sales, "spreading_sales")
    evolutionary = as_float_array(evolutionary_sales, "evolutionary_sales")
    if spreading.size != evolutionary.size:
        raise ValueError("spreading and evolutionary sales must have the same length")
    return spreading + evolutionary
