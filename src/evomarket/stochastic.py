"""Monte-Carlo layer: price noise, growth-rate and size statistics.

Price deviations from the mean follow a Langevin equation whose
restoring force has constant magnitude and opposite sign to the
deviation; its stationary law is a Laplace (double exponential)
distribution with variance ``D^2 / (2 b^2)``.  Mapping price deviations
through the demand-curve slope carries the Laplace shape over to sales
growth rates, while multiplicative accumulation of such rates drives
unit sizes toward a lognormal law.  A jump-relaxation process for the
reproduction coefficient reproduces the separation between its
short-window mean (zero) and its long-window mean (investment driven).

Every simulation takes an explicit seed and is reproducible bit for bit
for that seed.  The Langevin paths take the process's exact transition
(the reflected Brownian step of ``|X|`` with the Brownian-bridge
minimum), so a step of any length carries no discretisation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validation import as_float_array, check_nonnegative, check_positive
from .errors import StepSizeError

__all__ = [
    "PriceNoiseParams",
    "ReproductionSimParams",
    "SizeDistParams",
    "ReproductionSimResult",
    "langevin_price_sim",
    "langevin_price_ensemble",
    "laplace_pdf",
    "laplace_cdf",
    "laplace_fit",
    "growth_rate_transform",
    "lognormal_size_pdf",
    "multiplicative_growth_sim",
    "reproduction_param_sim",
    "ks_statistic",
]


@dataclass(frozen=True)
class PriceNoiseParams:
    """Restoring magnitude ``b`` and white-noise amplitude ``noise``.

    The drift on a price deviation ``d`` is ``-b * sign(d)`` (zero at
    ``d == 0``); the generalized potential is ``b * |d|``.
    """

    restoring: float
    noise: float

    def __post_init__(self):
        check_positive(self.restoring, "restoring")
        check_positive(self.noise, "noise")

    @property
    def stationary_variance(self) -> float:
        return 0.5 * self.noise**2 / self.restoring**2


@dataclass(frozen=True)
class ReproductionSimParams:
    """Jump-relaxation process for the reproduction coefficient.

    ``compensation`` is the relaxation rate toward zero, ``jump_size``
    the mean output jump of one investment, and ``amortization`` the
    mean time between investments (the time to repay one from the
    profit flow, so a higher profit per unit means a shorter
    amortization and a larger long-run mean coefficient
    ``jump_size / (amortization * compensation)``).
    """

    compensation: float
    jump_size: float
    amortization: float
    noise_amp: float = 0.05

    def __post_init__(self):
        check_positive(self.compensation, "compensation")
        check_nonnegative(self.jump_size, "jump_size")
        check_positive(self.amortization, "amortization")
        check_nonnegative(self.noise_amp, "noise_amp")


@dataclass(frozen=True)
class SizeDistParams:
    """Lognormal law of unit sizes grown from 1: log drift and log volatility."""

    drift: float
    volatility: float

    def __post_init__(self):
        check_positive(self.volatility, "volatility")


@dataclass(frozen=True)
class ReproductionSimResult:
    """Path and windowed means returned by :func:`reproduction_param_sim`.

    ``long_window_standard_error`` is the standard error of
    ``long_window_mean`` implied by the process parameters.
    """

    path: np.ndarray
    short_window_means: np.ndarray
    short_window: float
    long_window_mean: float
    long_window_standard_error: float


def _reflected_step(x, params: PriceNoiseParams, dt: float, rng) -> None:
    """Take one exact step of length ``dt`` of the deviations ``x``, in place.

    ``|X|`` is a Brownian motion with drift ``-b`` reflected at zero, so
    from ``r = |x|`` the free end point is ``y = r - b*dt + sqrt(noise*dt)*z``
    and ``m``, the minimum of the Brownian bridge from ``r`` to ``y``, has
    ``P(m < c) = exp(-2 (r - c)(y - c) / (noise*dt))`` for ``c < min(r, y)``.
    The reflection lifts the end point by ``-min(m, 0)``.  A path whose
    bridge stays above zero keeps its sign; one that touched zero leaves
    it with either sign, by symmetry, at even odds (Borodin & Salminen,
    *Handbook of Brownian Motion*, 2002; Beskos & Roberts, *Ann. Appl.
    Probab.* 15, 2005).  The step draws ``x.size`` normals, then as
    many exponentials, then as many uniforms.
    """
    spread = params.noise * dt
    r, y, low, gap = (np.empty_like(x) for _ in range(4))
    np.abs(x, out=r)
    rng.standard_normal(out=y)
    y *= np.sqrt(spread)
    y += r
    y -= params.restoring * dt
    # low <- 2m = r + y - sqrt((y - r)^2 + 2 spread E), E ~ Exp(1)
    rng.standard_exponential(out=low)
    low *= 2.0 * spread
    np.subtract(y, r, out=gap)
    gap *= gap
    low += gap
    np.sqrt(low, out=low)
    r += y
    np.subtract(r, low, out=low)
    # the sign: x's where the bridge stayed above zero, else a coin
    rng.random(out=gap)
    gap -= 0.5
    np.copyto(gap, x, where=low > 0.0)
    np.minimum(low, 0.0, out=low)
    low *= 0.5
    y -= low
    np.copysign(y, gap, out=x)


def langevin_price_sim(
    params: PriceNoiseParams,
    dt: float,
    steps: int,
    seed: int,
    start: float = 0.0,
) -> np.ndarray:
    """One path of the price deviation, stepped exactly.

    Takes the exact steps of :func:`langevin_price_ensemble` on one path
    (:func:`_reflected_step`), so it has no discretisation error at
    any ``dt``.  Returns the path including the start value (length
    ``steps + 1``); deterministic for a fixed seed.
    """
    check_positive(dt, "dt")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rng = np.random.default_rng(seed)
    path = np.empty(steps + 1)
    path[0] = start
    x = path[:1].copy()
    for i in range(1, steps + 1):
        _reflected_step(x, params, dt, rng)
        path[i] = x[0]
    return path


def langevin_price_ensemble(
    params: PriceNoiseParams,
    dt: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """One post-burn-in deviation from each of many independent paths.

    Runs ``n_paths`` paths from zero through a burn-in of exactly
    ``10 / (b^2 / noise)`` time units, ten relaxation times, taken as
    one step, and then one step of ``dt``.  Returns the ``n_paths``
    end states, independent draws of one law.

    Every step is exact (:func:`_reflected_step`), so by
    Chapman-Kolmogorov one burn-in step draws from the same law as
    many shorter ones, and ``dt`` carries no discretisation error.  All
    paths draw from one ``default_rng(seed)`` stream, step by step.
    """
    check_positive(dt, "dt")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    burn_in = 10.0 * params.noise / params.restoring**2
    rng = np.random.default_rng(seed)
    x = np.zeros(n_paths)
    _reflected_step(x, params, burn_in, rng)
    _reflected_step(x, params, dt, rng)
    return x


def laplace_pdf(x, restoring: float, noise: float):
    """Stationary density of the price deviation: ``(b/D) exp(-2b|x|/D)``.

    Integrates to one; variance ``D^2 / (2 b^2)``.
    """
    check_positive(restoring, "restoring")
    check_positive(noise, "noise")
    x_arr = np.asarray(x, dtype=float)
    out = (restoring / noise) * np.exp(-2.0 * restoring * np.abs(x_arr) / noise)
    return float(out) if np.isscalar(x) else out


def laplace_cdf(x, restoring: float, noise: float):
    """Cumulative form of :func:`laplace_pdf`."""
    check_positive(restoring, "restoring")
    check_positive(noise, "noise")
    x_arr = np.asarray(x, dtype=float)
    scale = noise / (2.0 * restoring)
    # e = 0.5 exp(-|x| / scale) is the tail mass beyond |x| on either
    # side; one exponential of a non-positive argument cannot overflow,
    # and where the quotient overflows to -inf its exponential is the
    # right 0
    out = np.abs(x_arr, out=np.empty_like(x_arr))
    with np.errstate(over="ignore"):
        out /= -scale
    np.exp(out, out=out)
    out *= 0.5
    np.subtract(1.0, out, out=out, where=x_arr >= 0)
    return float(out) if np.isscalar(x) else out


def laplace_fit(samples) -> tuple[float, float]:
    """Maximum-likelihood location and scale of a Laplace law.

    Location is the sample median with the lower-median tie rule (even
    sample sizes take the smaller of the two central values); scale is
    the mean absolute deviation from it.
    """
    data = as_float_array(samples, "samples")
    if data.size < 2:
        raise ValueError("laplace_fit needs at least two samples")
    middle = (data.size - 1) // 2
    work = np.partition(data, middle)
    location = float(work[middle])
    np.subtract(data, location, out=work)
    np.abs(work, out=work)
    return location, float(work.mean())


def growth_rate_transform(y_prev, y_next):
    """Log growth rate ``log(y_next / y_prev)`` of positive sales."""
    prev = np.asarray(y_prev, dtype=float)
    nxt = np.asarray(y_next, dtype=float)
    if np.any(prev <= 0) or np.any(nxt <= 0):
        raise ValueError("sales must be positive to take a log growth rate")
    out = np.log(nxt / prev)
    scalar = np.isscalar(y_prev) and np.isscalar(y_next)
    return float(out) if scalar else out


def lognormal_size_pdf(y, t, params: SizeDistParams):
    """Density of unit sizes after ``t`` time units of multiplicative growth.

    Sizes start at 1, so ``log(y)`` is normal with mean ``drift * t``
    and variance ``volatility^2 * t``; the median is ``exp(drift * t)``
    and the distribution broadens with time.
    """
    check_positive(t, "t")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0):
        raise ValueError("size must be positive")
    var = params.volatility**2 * t
    log_dev = np.log(y_arr) - params.drift * t
    out = np.exp(-(log_dev**2) / (2.0 * var)) / (y_arr * np.sqrt(2.0 * np.pi * var))
    return float(out) if np.isscalar(y) else out


def multiplicative_growth_sim(
    n_units: int,
    steps: int,
    rate_sampler,
    seed: int,
) -> np.ndarray:
    """Grow ``n_units`` unit sizes from 1 through i.i.d. multiplicative shocks.

    Each step multiplies every size by ``exp(r)`` with ``r`` drawn from
    ``rate_sampler(rng, size)``.  With heavy-tailed rates the log sizes
    still approach normality, which is the route to the lognormal size
    law.

    Parameters
    ----------
    n_units, steps : int
        ``steps=0`` returns all sizes at 1.
    rate_sampler : callable
        ``rate_sampler(rng, size) -> ndarray`` of growth rates.
    seed : int
    """
    if n_units < 1:
        raise ValueError("n_units must be at least 1")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    rng = np.random.default_rng(seed)
    log_sizes = np.zeros(n_units)
    for _ in range(steps):
        log_sizes += np.asarray(rate_sampler(rng, n_units), dtype=float)
    return np.exp(log_sizes)


# steps per block of reproduction_param_sim's draws and doubling passes:
# the three 512 KB float blocks a pass touches fit a 1-2 MB L2 cache
_BLOCK = 1 << 16


def reproduction_param_sim(
    params: ReproductionSimParams,
    dt: float,
    steps: int,
    seed: int,
    start: float = 0.0,
    n_short_windows: int = 100,
) -> ReproductionSimResult:
    """Simulate the reproduction coefficient as relaxation plus jumps.

    Per step the coefficient decays at the compensation rate, receives
    Gaussian noise, and receives Poisson-arriving investment jumps of
    ``jump_size`` at rate ``1 / amortization``:

        g <- g * (1 - compensation*dt) + noise_amp*sqrt(dt)*xi
             + jump_size * Poisson(dt / amortization)

    The first five relaxation times (``5 / compensation``) are burn-in.
    The result reports means over up to ``n_short_windows`` short
    windows of ten relaxation times each (long against the relaxation
    time, short against the amortization time: statistically zero) and
    over the whole post-burn-in path (positive, approaching
    ``jump_size / (amortization * compensation)``).  The process is
    AR(1) with ``phi = 1 - compensation*dt`` and innovation variance
    ``sigma^2 = noise_amp^2 dt + jump_size^2 dt / amortization``, so the
    mean of its ``n`` post-burn-in values has standard error
    ``sigma / ((1 - phi) sqrt(n))``.

    One ``default_rng(seed)`` stream draws all ``steps`` normals, then
    all ``steps`` Poisson counts, so a seed fixes the inputs; the counts
    are drawn and added in blocks, which draws the same sequence as one
    call.  The path is their discounted prefix sum from ``start``, taken
    in place by doubling: after the pass with shift ``s`` every entry
    holds its last ``2 s`` discounted inputs, so
    ``ceil(log2(steps + 1))`` passes suffice (Hillis & Steele, *CACM*
    29, 1986; Blelloch, "Prefix sums and their applications", 1990).
    Each pass runs block by block from the top of the path down, each
    block's product going through one block-sized buffer before it is
    added, so every read sees an entry this pass has not yet written,
    and the only path-sized allocation is the path itself.

    Raises
    ------
    StepSizeError
        If ``dt * compensation >= 0.5`` (stability bound).
    """
    check_positive(dt, "dt")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if n_short_windows < 1:
        raise ValueError(f"n_short_windows must be at least 1, got {n_short_windows}")
    if dt * params.compensation >= 0.5:
        raise StepSizeError("dt * compensation must stay below 0.5")

    rng = np.random.default_rng(seed)
    path = np.empty(steps + 1)
    path[0] = start
    inputs = path[1:]
    rng.standard_normal(out=inputs)
    inputs *= params.noise_amp * np.sqrt(dt)
    for lo in range(0, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        counts = rng.poisson(dt / params.amortization, size=hi - lo)
        inputs[lo:hi] += params.jump_size * counts

    decay = 1.0 - params.compensation * dt
    buf = np.empty(min(steps, _BLOCK))
    shift, factor = 1, decay
    # factor is decay**shift taken as a power: squaring it pass by pass
    # would grow its rounding error with shift.  Once it underflows to 0
    # every later pass adds 0, so stopping there leaves the path of all
    # ceil(log2(steps + 1)) passes.
    while shift <= steps and factor > 0.0:
        # path[lo:hi] += factor * path[lo - shift:hi - shift], top block
        # first, so every block reads this pass's input
        for hi in range(steps + 1, shift, -_BLOCK):
            lo = max(hi - _BLOCK, shift)
            part = buf[: hi - lo]
            np.multiply(path[lo - shift : hi - shift], factor, out=part)
            path[lo:hi] += part
        shift *= 2
        factor = decay**shift

    burn_idx = min(int(round(5.0 / params.compensation / dt)), steps)
    window_len = max(int(round(10.0 / params.compensation / dt)), 1)
    tail = path[burn_idx + 1 :]
    n_windows = min(n_short_windows, tail.size // window_len)
    if n_windows < 1:
        raise ValueError("path too short for the requested short windows")
    window_means = (
        tail[: n_windows * window_len].reshape(n_windows, window_len).mean(axis=1)
    )
    innovation_var = (
        params.noise_amp**2 * dt + params.jump_size**2 * dt / params.amortization
    )
    return ReproductionSimResult(
        path=path,
        short_window_means=window_means,
        short_window=window_len * dt,
        long_window_mean=float(tail.mean()),
        long_window_standard_error=float(
            np.sqrt(innovation_var / tail.size) / (params.compensation * dt)
        ),
    )


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between samples and a CDF callable.

    The largest of ``(i + 1)/n - F(x_i)`` and ``F(x_i) - i/n`` over the
    sorted samples ``x_i``.
    """
    data = np.sort(as_float_array(samples, "samples"))
    n = data.size
    if n == 0:
        raise ValueError("ks_statistic needs samples")
    theory = np.asarray(cdf(data), dtype=float)
    ranks = np.arange(n + 1) / n
    return float(max((ranks[1:] - theory).max(), (theory - ranks[:-1]).max()))
