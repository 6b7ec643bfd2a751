"""Calibration of the two-wave market model to empirical time series.

The fit protocol mirrors how the model is identified in practice:

1. From the nominal price series, estimate the decline rate and the
   floor ratio of the scaled price ``amplitude * exp(-rate * t') + floor``.
2. With the decline rate held fixed, fit both waves jointly to the
   penetration and unit-sales series.

The two-wave model is defined once, in ``_two_wave_model``: the fit
searches its parameters, and :func:`synthesize` samples the synthetic
penetration and sales fixtures from it at a good's own parameters, so
the round trips test the fit against the very model it states.

Every nonlinear fit here uses one method.  The amplitude and floor of the
price, and the plateaus of both waves, enter their models linearly, so
only the decline rate, the innovation rate, the imitation rate and the
shape constant are searched nonlinearly (separable least squares, Golub
& Pereyra 1973): Levenberg–Marquardt over their logs, with the linear
coefficients solved inside every residual evaluation by bounded linear
least squares.  Levenberg–Marquardt is MINPACK's ``lmder`` (Moré 1978)
called through ``scipy.optimize.leastsq``, with the steps scaled by the
Jacobian's column norms and an explicit limit of ``100 * n`` residual
evaluations for ``n`` searched parameters.  It gets Kaufman's analytic
variable-projection Jacobian, built from the derivatives of the model
columns that lean raw-array kernels compute beside the columns, so no
finite differences are taken.  The search screens a fixed start lattice
with one residual evaluation per start, then refines only the four best
starts (the stage-1 filter of multistart scatter search, Ugray et al.
2007).  The price fit and the two-wave fit divide their residuals by the
observations, matching multiplicative noise, so the penetration and
sales series weigh in on the same scale.  Only the logistic substitution
fit (:class:`FisherPryFit`) is a closed-form regression.

The onset delay between introduction and the start of the price decline
is analyst-supplied, never fitted.  Everything here is deterministic:
fixed start lattices, seeded noise.

Fitters follow the scikit-learn estimator protocol (``fit`` /
``predict`` / ``get_params``); fitted attributes carry a trailing
underscore.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, leastsq, lsq_linear

from ._validation import as_float_array, check_fitted, check_positive
from .base import BaseModel
from .benchmarks import GoodParams, wave_params
from .diffusion import BassParams, GompertzParams
# not called here, but kept: the benchmark's tracer wraps these module attributes
from .diffusion import bass_penetration, bass_rate, gompertz_penetration, gompertz_rate
from .errors import FitError
from .evodyn import fisher_pry_share
from .market import IncomeModel
from .series import TimeSeries

__all__ = [
    "FitSpec",
    "FitResult",
    "PriceDeclineFit",
    "FisherPryFit",
    "price_function",
    "synthesize",
    "synthesize_share",
    "fit_two_wave",
    "round_trip",
    "vhs_round_trip",
    "ROUND_TRIP_TOLERANCES",
]

# Start lattice of the price-decline fit over the decline rate.
PRICE_STARTS: tuple[tuple[float], ...] = ((0.1,),)

# Box the log decline rate is clipped to before evaluation; a fit that
# ends on the lower edge shows no decline.
_PRICE_LOG_LO = np.log([1e-10])
_PRICE_LOG_HI = np.log([1e3])

# Start lattice of the joint two-wave fit over (innovation, imitation,
# shape): 18 starts, screened in this order.
TWO_WAVE_STARTS: tuple[tuple[float, float, float], ...] = tuple(
    (a0, b0, s0)
    for a0 in (0.002, 0.02)
    for b0 in (0.5, 1.5, 4.0)
    for s0 in (10.0, 100.0, 1000.0)
)

# Box the log-parameters (innovation, imitation, shape) are clipped to
# before evaluation.
_TWO_WAVE_LOG_LO = np.log([1e-5, 1e-6, 1e-2])
_TWO_WAVE_LOG_HI = np.log([1.0, 10.0, 1e6])

# Starts refined by Levenberg–Marquardt once every start of a lattice has
# been screened by the cost of one residual evaluation.  Fewer refined
# starts miss the full lattice's optimum on noiseless goods with low
# imitation and shape (tests/test_properties.py).
_REFINE_STARTS = 4

# Observations below this fraction of a series' maximum are weighted as
# if they sat at it, so exact zeros (before an onset) keep a finite weight.
_WEIGHT_FLOOR = 1e-3


@dataclass(frozen=True)
class FitSpec:
    """Analyst-supplied protocol choices for one good.

    ``onset_delay`` (years between introduction and the start of the
    evolutionary price decline) and the introduction price are fixed by
    the analyst, not fitted.  ``income`` enables deflation of nominal
    prices for long horizons.
    """

    intro_year: float = 0.0
    onset_delay: float = 0.0
    intro_price: float = 1.0
    income: IncomeModel | None = None

    def __post_init__(self):
        check_positive(self.intro_price, "intro_price")
        if self.onset_delay < 0:
            raise ValueError("onset_delay must be non-negative")


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates in the benchmark-table schema.

    ``sse`` maps fit stages (``price``, ``penetration``, ``sales``,
    ``share``) to their natural-scale residual sums of squares;
    ``residuals`` holds the corresponding residual arrays;
    ``provenance`` records series digests, so results can be traced to
    their inputs, and how the fit was reached (convergence flags,
    evaluation count).
    """

    good: str | None
    decline_rate: float | None = None
    floor_ratio: float | None = None
    shape: float | None = None
    evolutionary_plateau: float | None = None
    innovation: float | None = None
    imitation: float | None = None
    spreading_plateau: float | None = None
    spreading_multiple: float | None = None
    spreading_replacement: float | None = None
    spreading_lifetime: float | None = None
    evolutionary_multiple: float | None = None
    evolutionary_replacement: float | None = None
    evolutionary_lifetime: float | None = None
    advantage: float | None = None
    intercept: float | None = None
    sse: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for stage, value in self.sse.items():
            if value < 0:
                raise ValueError(f"sse[{stage!r}] must be non-negative")


def series_digest(series: TimeSeries) -> str:
    """Stable hex digest of a series' numeric content."""
    payload = np.concatenate([series.years, series.values]).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# price decline
# ---------------------------------------------------------------------------


def _scaled_prices(series: TimeSeries, spec: FitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Observation times on the decline clock and prices scaled to the start.

    Nominal prices are deflated by the income model when one is given,
    then scaled by the (equally deflated) introduction price.
    """
    onset = spec.intro_year + spec.onset_delay
    mask = series.years >= onset - 1e-9
    years = series.years[mask]
    prices = series.values[mask]
    if spec.income is not None:
        prices = prices / spec.income.at_year(years)
        ref = spec.intro_price / spec.income.at_year(onset)
    else:
        ref = spec.intro_price
    return years - onset, prices / ref


def price_function(
    series: TimeSeries, spec: FitSpec, floor_ratio: float
) -> TimeSeries:
    """Scaled price path ``(price - floor) / intro_price`` on the decline clock.

    Income deflation is applied first when the spec carries an income
    model.  The result is the quantity whose log is linear in time under
    an exponential decline.
    """
    if not 0.0 <= floor_ratio < 1.0:
        raise ValueError("floor_ratio must lie in [0, 1)")
    t_prime, scaled = _scaled_prices(series, spec)
    if t_prime.size == 0:
        raise FitError("no observations after the decline onset")
    return TimeSeries(t_prime, scaled - floor_ratio, kind=None)


class PriceDeclineFit(BaseModel):
    """Estimate the price decline rate and floor ratio from nominal prices.

    The scaled price model ``amplitude * exp(-rate * t') + floor`` is
    linear in the amplitude and the floor, so this is a one-rate case of
    the separable least-squares solve of the two-wave fit:
    Levenberg–Marquardt searches the log decline rate from
    ``PRICE_STARTS``, while every residual evaluation solves the
    amplitude (bounded to [0, inf)) and the floor (bounded to [0, 1)) by
    linear least squares.  Residuals are divided by the observations,
    the weighting that matches multiplicative noise.

    Parameters
    ----------
    intro_year, onset_delay, intro_price, income :
        See :class:`FitSpec`; they are replicated here so the estimator
        is self-contained.

    Attributes
    ----------
    decline_rate_ : float
    floor_ratio_ : float
    intercept_ : float
        Log of the fitted amplitude at ``t' = 0`` (zero for an exactly
        scaled series).
    sse_ : float
        Natural-scale residual sum of squares.
    residuals_ : numpy.ndarray
        Natural-scale residuals.
    converged_ : bool
        Whether the winning Levenberg–Marquardt run met its tolerances.
    nfev_ : int
        Residual evaluations of the winning run.
    rate_identified_ : bool
        False when ``exp(-rate * (t1 - t0))``, over the first two
        observations after the onset, is below ``_WEIGHT_FLOOR``: the
        price has collapsed by the second observation, and the fitted
        rate is only a lower bound.
    """

    def __init__(
        self,
        intro_year: float = 0.0,
        onset_delay: float = 0.0,
        intro_price: float = 1.0,
        income: IncomeModel | None = None,
    ):
        self.intro_year = intro_year
        self.onset_delay = onset_delay
        self.intro_price = intro_price
        self.income = income

    def _spec(self) -> FitSpec:
        return FitSpec(
            intro_year=self.intro_year,
            onset_delay=self.onset_delay,
            intro_price=self.intro_price,
            income=self.income,
        )

    def fit(self, series: TimeSeries):
        t_prime, scaled = _scaled_prices(series, self._spec())
        if t_prime.size < 4:
            raise FitError("price fit needs at least 4 observations after the onset")
        # the amplitude refers to the first observation, so a clock far
        # from zero does not scale the amplitude column out of reach
        start = t_prime.min()
        elapsed = t_prime - start
        ones = np.ones(t_prime.size)
        zeros = np.zeros(t_prime.size)

        def design(log_rate):
            rate = np.exp(log_rate[0])
            decay = np.exp(-rate * elapsed)
            columns = np.column_stack([decay, ones])
            derivatives = np.column_stack([-rate * elapsed * decay, zeros])[:, :, None]
            return columns, derivatives

        best = _separable_lm(
            design,
            scaled,
            _relative_weights(scaled, "price"),
            PRICE_STARTS,
            _PRICE_LOG_LO,
            _PRICE_LOG_HI,
            upper=np.array([np.inf, 1.0]),
        )
        amplitude, floor = map(float, best.plateaus)
        log_rate = best.log_params[0]
        # the modeled fall over the observations; below 1e-10 of the
        # starting level it is rounding, not a decline
        fall = -amplitude * np.expm1(-np.exp(log_rate) * elapsed.max())
        negligible = fall <= 1e-10 * (amplitude + floor)
        if floor >= 1.0 or log_rate <= _PRICE_LOG_LO[0] or negligible:
            raise FitError("series shows no decline below the introduction price")

        self.decline_rate_ = float(np.exp(log_rate))
        self.floor_ratio_ = floor
        self.intercept_ = float(np.log(amplitude) + self.decline_rate_ * start)
        self.residuals_ = scaled - best.design @ best.plateaus
        self.sse_ = float((self.residuals_**2).sum())
        self.converged_ = bool(best.success)
        self.nfev_ = int(best.nfev)
        # once the model falls below the weight floor between the first two
        # observations, the residuals hardly depend on the rate: it is only
        # bounded from below
        self.rate_identified_ = bool(
            np.exp(-self.decline_rate_ * elapsed[1]) >= _WEIGHT_FLOOR
        )
        return self

    def predict(self, t_prime):
        """Modeled scaled price (floor included) on the decline clock."""
        check_fitted(self, "decline_rate_")
        t = np.asarray(t_prime, dtype=float)
        out = np.exp(self.intercept_ - self.decline_rate_ * t) + self.floor_ratio_
        return float(out) if np.isscalar(t_prime) else out


# ---------------------------------------------------------------------------
# separable least squares
# ---------------------------------------------------------------------------


def _relative_weights(values: np.ndarray, name: str) -> np.ndarray:
    """Inverse observation scale, floored at ``_WEIGHT_FLOOR`` of the maximum.

    Raises
    ------
    FitError
        When the series has no positive value, or its values are so
        small (subnormal) that their inverses overflow.
    """
    top = float(values.max())
    if top <= 0:
        raise FitError(f"{name} series has no positive observations")
    with np.errstate(over="ignore"):
        weights = 1.0 / np.maximum(values, _WEIGHT_FLOOR * top)
    if not np.all(np.isfinite(weights)):
        raise FitError(f"{name} series is too small in scale: its weights overflow")
    return weights


def _separable_lm(design, observed, weights, starts, log_lo, log_hi, upper=1.0):
    """Levenberg–Marquardt over log-parameters with linear plateaus solved inside.

    The model is ``columns @ plateaus``.  ``design`` maps log-parameters,
    clipped to ``[log_lo, log_hi]``, to ``(columns, derivatives)``: the
    model columns at unit plateau, one row per observation, and
    ``derivatives[i, j, k]``, the derivative of column ``j`` at
    observation ``i`` with respect to log-parameter ``k``.  At every
    point the plateaus are the weighted linear least-squares solution,
    bounded to ``[0, upper]`` (``upper`` is one bound or one per column)
    through BVLS when the unbounded solution leaves the box.  Residuals
    are ``weights * (observed - model)``.

    Each Levenberg–Marquardt run is MINPACK's ``lmder`` called through
    ``scipy.optimize.leastsq`` by :func:`least_squares`, with
    Jacobian-norm scaling and an explicit limit of ``100 * n`` residual
    evaluations for ``n`` log-parameters.  It gets Kaufman's
    variable-projection Jacobian (Kaufman, BIT 15, 1975; Golub &
    Pereyra, Inverse Problems 19, 2003) ``J = -P W (dA/dtheta . c)``:
    the weighted derivative of the model at fixed plateaus ``c``, with
    ``P`` projecting out the weighted columns whose plateau lies
    strictly inside its bounds.  Coordinates outside ``[log_lo, log_hi]``
    get zero columns, since clipping freezes them.  ``J.T @ r`` is the
    exact gradient of the cost, so the stationary points are those of
    the cost itself.  The residuals and the Jacobian at one point share
    one plateau solve.

    The search runs in two stages.  The screen evaluates the residuals
    once at every start (given on the natural scale) and drops the
    starts where they are not finite.  The refinement ranks the rest by
    cost, ties going to the earlier start, and runs Levenberg–Marquardt
    only from the ``_REFINE_STARTS`` best of them, in lattice order.

    Returns the refined run of lowest cost, ties going to the earliest
    start, with ``log_params`` (clipped), ``design`` (the unweighted
    columns there), ``plateaus``, ``starts_screened`` (the starts with
    finite residuals), ``starts_refined`` and ``nfev_refined`` (the
    residual evaluations of all refined runs) added.

    Raises
    ------
    FitError
        When no start yields finite residuals.
    """
    weighted_observed = weights * observed
    infeasible = np.full(observed.size, np.inf)

    def plateaus(weighted_design: np.ndarray) -> np.ndarray:
        coef = np.linalg.lstsq(weighted_design, weighted_observed, rcond=None)[0]
        if np.any((coef < 0) | (coef > upper)):
            coef = lsq_linear(
                weighted_design, weighted_observed, bounds=(0.0, upper), method="bvls"
            ).x
        return coef

    last = None  # (log_params, columns, derivatives, plateaus, residuals)

    def solve(log_params):
        """Columns, derivatives, plateaus and residuals at one point.

        The last point is kept, so the Jacobian reuses the plateau solve
        of the residuals at the same point.
        """
        nonlocal last
        if last is None or not np.array_equal(last[0], log_params):
            columns, derivatives = design(np.clip(log_params, log_lo, log_hi))
            weighted = weights[:, None] * columns
            if np.all(np.isfinite(weighted)):
                coef = plateaus(weighted)
                resid = weighted_observed - weighted @ coef
            else:
                coef, resid = None, infeasible
            last = (log_params.copy(), columns, derivatives, coef, resid)
        return last

    def weighted_residuals(log_params) -> np.ndarray:
        return solve(log_params)[4]

    def jacobian(log_params) -> np.ndarray:
        _, columns, derivatives, coef, _ = solve(log_params)
        slope = weights[:, None] * (coef @ derivatives)
        free = (coef > 0) & (coef < upper)
        if np.any(free):
            basis = weights[:, None] * columns[:, free]
            slope -= basis @ np.linalg.lstsq(basis, slope, rcond=None)[0]
        slope[:, (log_params < log_lo) | (log_params > log_hi)] = 0.0
        return -slope

    # screen: one residual evaluation per start
    screened = []
    for index, start in enumerate(starts):
        resid = weighted_residuals(np.log(start))
        if np.all(np.isfinite(resid)):
            screened.append((float(resid @ resid), index))
    if not screened:
        raise FitError("no start gave finite residuals")

    # refine: Levenberg–Marquardt from the best screened starts, in lattice order
    runs = [
        least_squares(weighted_residuals, np.log(starts[index]), jac=jacobian)
        for index in sorted(index for _, index in sorted(screened)[:_REFINE_STARTS])
    ]
    best = min(runs, key=lambda run: run.cost)

    best.log_params = np.clip(best.x, log_lo, log_hi)
    _, best.design, _, best.plateaus, _ = solve(best.x)
    best.starts_screened = len(screened)
    best.starts_refined = len(runs)
    best.nfev_refined = sum(run.nfev for run in runs)
    return best


def least_squares(fun, x0, jac):
    """One Levenberg–Marquardt run: MINPACK's ``lmder`` (Moré 1978) through
    ``scipy.optimize.leastsq``.

    ``lmder`` scales each step by the column norms of the Jacobian
    (``diag=None``) with step bound ``factor=100``, stops at relative
    tolerances of 1e-12 on the cost, the step and the gradient, and
    gives up after ``100 * x0.size`` residual evaluations.  The limit is
    passed explicitly, since ``leastsq``'s own default with a Jacobian is
    ``100 * (x0.size + 1)``.

    Returns the end point ``x``, its residuals ``fun`` and ``cost``
    (half their squared norm), the residual and Jacobian evaluations
    ``nfev`` and ``njev``, MINPACK's return code ``status`` and
    ``success``: whether a tolerance was met (codes 1 to 4) rather than
    the evaluation limit (5) or a tolerance too small to reach (6 to 8).
    """
    x, _, info, _, status = leastsq(
        fun,
        x0,
        Dfun=jac,
        full_output=True,
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
        maxfev=100 * x0.size,
    )
    resid = info["fvec"]
    return OptimizeResult(
        x=x,
        cost=0.5 * np.dot(resid, resid),
        fun=resid,
        nfev=info["nfev"],
        njev=info["njev"],
        status=status,
        success=status in (1, 2, 3, 4),
    )


# ---------------------------------------------------------------------------
# design kernels
# ---------------------------------------------------------------------------
#
# Raw-array closed forms at unit plateau, and the one two-wave model that
# ``fit_two_wave`` fits and ``synthesize`` samples from them.  Each kernel
# returns jets: one row per time, the value in column 0 and its
# derivatives by the searched log-parameters after it.  They evaluate the
# expressions of the public closed forms in ``diffusion`` at unit
# plateau; the parameter checks those run on every call are done once
# per fit or per synthesized series instead.


def _bass_jets(t, innovation, imitation):
    """Bass penetration and rate jets by log innovation and log imitation.

    ``t`` must be non-negative.  Returns two ``(t.size, 3)`` arrays.
    """
    a, b = innovation, imitation
    s = a + b
    decay = np.exp(-s * t)
    denom = a + b * decay
    rise = 1.0 - decay
    pen = np.empty((t.size, 3))
    rate = np.empty((t.size, 3))
    pen[:, 0] = rise / (1.0 + (b / a) * decay)
    rate[:, 0] = a * s**2 * decay / denom**2
    scale = a * decay / denom**2
    pen[:, 1] = scale * (a * s * t + b * rise)
    pen[:, 2] = scale * b * (s * t - rise)
    rate[:, 1] = rate[:, 0] * (
        1.0 + 2.0 * a / s - a * t - 2.0 * a * (1.0 - b * t * decay) / denom
    )
    rate[:, 2] = rate[:, 0] * (
        2.0 * b / s - b * t - 2.0 * b * decay * (1.0 - b * t) / denom
    )
    return pen, rate


def _gompertz_jets(t_prime, shape, rate):
    """Gompertz penetration and rate jets by log shape, on the all-real clock.

    Zero where ``exp(-2 rate t')`` overflows.  Returns two
    ``(t_prime.size, 2)`` arrays.
    """
    pen = np.empty((t_prime.size, 2))
    out = np.empty((t_prime.size, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-2.0 * rate * t_prime)
        pen[:, 0] = np.exp(-shape * decay)
        live = pen[:, 0] > 0
        pen[:, 1] = np.where(live, -shape * decay * pen[:, 0], 0.0)
        out[:, 0] = np.where(live, 2.0 * rate * shape * decay * pen[:, 0], 0.0)
        out[:, 1] = np.where(live, out[:, 0] * (1.0 - shape * decay), 0.0)
    return pen, out


def _two_wave_model(known: GoodParams, t_pen, t_sales, rate):
    """The two-wave model of one good: penetration rows, then sales rows.

    ``t_pen`` and ``t_sales`` are years since the introduction, ``rate``
    is the price decline rate, and the repurchase machinery comes from
    ``known``.  The kernel times, the echo weights and the onset shift
    are computed once, here.  A sale is first purchases, plus the wave's
    multiple rate times its penetration, plus one replacement echo: the
    first-purchase rate one lifetime earlier, weighted by the
    replacement fraction.  The spreading echo is zero where less than a
    lifetime has passed, since the wave's clock starts at the
    introduction; the evolutionary echo runs on the all-real clock and
    is never cut off.

    Returns ``model(innovation, imitation, shape) -> (columns,
    derivatives)``: the spreading and evolutionary columns at unit
    plateau, and ``derivatives[i, j, k]``, the derivative of column
    ``j`` at row ``i`` by the log of parameter ``k``.  The model assumes
    valid parameters and does not check them.
    """
    spread_wave, evo_wave, _ = wave_params(known)
    n_pen, n_sales = t_pen.size, t_sales.size
    # the kernels' times: penetration, sales, then echo
    lag = t_sales - (spread_wave.lifetime or 0.0)
    spread_times = np.concatenate([t_pen, t_sales, np.maximum(lag, 0.0)])
    spread_weight = np.where(lag >= 0, spread_wave.replacement_fraction, 0.0)
    evo_sales = t_sales - known.onset_delay
    evo_times = np.concatenate(
        [t_pen - known.onset_delay, evo_sales, evo_sales - (evo_wave.lifetime or 0.0)]
    )
    evo_weight = np.full(n_sales, evo_wave.replacement_fraction)
    sales = slice(n_pen, n_pen + n_sales)
    echo = slice(n_pen + n_sales, None)

    def wave(pen, out, multiple, echo_weight):
        """Penetration-then-sales jets of one wave from its kernel jets."""
        return np.concatenate(
            [
                pen[:n_pen],
                out[sales] + multiple * pen[sales] + echo_weight[:, None] * out[echo],
            ]
        )

    def model(innovation, imitation, shape):
        spreading = wave(
            *_bass_jets(spread_times, innovation, imitation),
            spread_wave.multiple_rate,
            spread_weight,
        )
        evolutionary = wave(
            *_gompertz_jets(evo_times, shape, rate), evo_wave.multiple_rate, evo_weight
        )
        derivatives = np.zeros((n_pen + n_sales, 2, 3))
        derivatives[:, 0, :2] = spreading[:, 1:]
        derivatives[:, 1, 2] = evolutionary[:, 1]
        return np.column_stack([spreading[:, 0], evolutionary[:, 0]]), derivatives

    return model


# ---------------------------------------------------------------------------
# logistic substitution
# ---------------------------------------------------------------------------


class FisherPryFit(BaseModel):
    """Fit the logistic substitution law to a market-share series.

    Linear regression of the log share ratio (logit) on time; the slope
    is the per-year fitness advantage, the intercept fixes where the
    contest stood at the time origin.
    """

    def __init__(self, origin_year: float = 0.0):
        self.origin_year = origin_year

    def fit(self, X, y=None):
        if isinstance(X, TimeSeries):
            t = X.years - self.origin_year
            shares = X.values
        else:
            t = as_float_array(X, "times")
            shares = as_float_array(y, "shares")
        if t.size != shares.size:
            raise ValueError("times and shares must have equal length")
        if np.any((shares <= 0) | (shares >= 1)):
            raise ValueError("shares must lie strictly inside (0, 1)")
        if t.size < 2:
            raise FitError("share fit needs at least 2 observations")
        logits = np.log(shares / (1.0 - shares))
        t_bar = t.mean()
        var = float(((t - t_bar) ** 2).sum())
        if var == 0:
            raise FitError("share observations need at least two distinct years")
        slope = float(((t - t_bar) * (logits - logits.mean())).sum() / var)
        icept = float(logits.mean() - slope * t_bar)
        self.advantage_ = slope
        self.intercept_ = icept
        self.residuals_ = logits - (slope * t + icept)
        self.sse_ = float((self.residuals_**2).sum())
        return self

    def predict(self, years):
        check_fitted(self, "advantage_")
        t = np.asarray(years, dtype=float) - self.origin_year
        return fisher_pry_share(t, self.advantage_, self.intercept_)


# ---------------------------------------------------------------------------
# synthetic fixtures
# ---------------------------------------------------------------------------


def synthesize(
    kind: str,
    good: GoodParams,
    n_points: int = 30,
    noise: float = 0.0,
    seed: int | None = None,
    intro_price: float = 1.0,
) -> TimeSeries:
    """Sample a model curve annually, optionally with multiplicative noise.

    ``kind="nominal_price"`` samples the decline path from its onset;
    penetration and sales are sampled from the introduction year from
    the model that ``fit_two_wave`` fits, at the good's parameters: both
    waves, the evolutionary one delayed by the onset.  Deterministic per
    seed.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    # the parameter checks of the closed forms, which the model skips
    BassParams(good.innovation, good.imitation, good.spreading_plateau)
    GompertzParams(good.evolutionary_plateau, good.shape, good.decline_rate)
    t = np.arange(n_points, dtype=float)
    if kind == "nominal_price":
        years = good.intro_year + good.onset_delay + t
        values = intro_price * (
            np.exp(-good.decline_rate * t) + (good.floor_ratio or 0.0)
        )
    elif kind in ("penetration", "sales"):
        years = good.intro_year + t
        times = (t, np.empty(0)) if kind == "penetration" else (np.empty(0), t)
        model = _two_wave_model(good, *times, good.decline_rate)
        columns, _ = model(good.innovation, good.imitation, good.shape)
        values = columns @ np.array([good.spreading_plateau, good.evolutionary_plateau])
    else:
        raise ValueError(f"cannot synthesize series kind {kind!r}")
    if noise > 0:
        rng = np.random.default_rng(seed)
        values = values * (1.0 + noise * rng.standard_normal(values.size))
    if kind == "penetration":
        values = np.clip(values, 0.0, 1.0)
    else:
        values = np.maximum(values, 0.0)
    return TimeSeries(years, values, kind)


def synthesize_share(
    advantage: float,
    intercept: float,
    years,
    noise: float = 0.0,
    seed: int | None = None,
    origin_year: float = 0.0,
) -> TimeSeries:
    """Sample the logistic substitution share, optionally with noise on its logit.

    The noise is added to the log share ratio, ``logit + noise * z``, so
    it is lognormal on the odds ``share / (1 - share)`` and the logit
    regression of :class:`FisherPryFit` stays unbiased however close the
    share comes to 0 or 1.  The clip to ``[1e-6, 1 - 1e-6]`` only guards
    against floating-point saturation.  Deterministic per seed.
    """
    years = as_float_array(years, "years")
    offsets = intercept
    if noise > 0:
        rng = np.random.default_rng(seed)
        offsets = intercept + noise * rng.standard_normal(years.size)
    values = fisher_pry_share(years - origin_year, advantage, offsets)
    values = np.clip(values, 1e-6, 1.0 - 1e-6)
    return TimeSeries(years, values, "share")


# ---------------------------------------------------------------------------
# the full two-wave procedure
# ---------------------------------------------------------------------------


def fit_two_wave(
    price: TimeSeries,
    penetration: TimeSeries,
    sales: TimeSeries,
    known: GoodParams,
    intro_price: float = 1.0,
    income: IncomeModel | None = None,
) -> FitResult:
    """Run the complete fit procedure for one good.

    Repurchase machinery (multiple rates, replacement fractions and
    lifetimes) is taken from ``known`` as analyst estimates and enters
    each wave's sales model; the six diffusion parameters and the price
    pair are fitted.  The model is the one :func:`synthesize` samples
    from, built once per fit by ``_two_wave_model``.  The decline rate
    comes from the price fit and is held fixed.  Both waves are then
    fitted in one separable least-squares solve over the penetration and
    sales series together:

    * each residual is divided by its observation (floored at
      ``_WEIGHT_FLOOR`` times the series maximum), which is the
      maximum-likelihood weighting under multiplicative noise and puts
      both series on the same relative scale; the weighted penetration
      and sales residuals are stacked into one vector;
    * every start of ``TWO_WAVE_STARTS`` is screened with one residual
      evaluation, and Levenberg–Marquardt searches log innovation, log
      imitation and log shape from the four starts of lowest cost;
    * inside every residual evaluation the spreading and evolutionary
      plateaus are the weighted linear least-squares solution, bounded
      to [0, 1];
    * the model columns and their derivatives come from raw-array
      kernels on evaluation times (the lags, echo weights and onset
      shift) that the model computes once per fit, and give
      Levenberg–Marquardt its analytic Jacobian.

    The lowest weighted cost of the refined runs wins, ties going to the
    earliest start.  ``sse`` and ``residuals`` report each series on its
    natural scale.  ``provenance["converged"]``, ``provenance["nfev"]``
    and ``provenance["njev"]`` (its Jacobian evaluations) describe the
    winning Levenberg–Marquardt run, so a fit that stopped on its
    evaluation limit says so, and ``price_converged`` does the same for
    the price fit.  ``provenance["nfev_refined"]`` counts the residual
    evaluations of all refined runs together.  ``provenance["at_bound"]``
    names those of innovation, imitation and shape whose log value ended
    within 1e-9 of the search box's edge, where the fit cannot move
    them.  ``price_rate_identified`` is False when the price collapsed
    below the weight floor by its second observation, so the decline
    rate is only a lower bound.  ``provenance["starts_screened"]`` counts
    the starts with finite residuals at the screen and
    ``provenance["starts_refined"]`` the runs refined from them.

    Raises
    ------
    FitError
        When the price shows no decline, a penetration or sales
        observation precedes the introduction year, either series has no
        positive observation, or no start yields finite residuals.
    """
    spread_wave, evo_wave, warnings = wave_params(known)
    price_fit = PriceDeclineFit(
        intro_year=known.intro_year,
        onset_delay=known.onset_delay,
        intro_price=intro_price,
        income=income,
    ).fit(price)
    rate = price_fit.decline_rate_

    t_pen = penetration.years - known.intro_year
    t_sales = sales.years - known.intro_year
    if min(t_pen.min(), t_sales.min()) < 0:
        raise FitError("penetration and sales must not precede the introduction year")
    observed = np.concatenate([penetration.values, sales.values])
    if observed.size < 5:
        raise FitError("the two-wave fit needs at least 5 penetration and sales values")
    weights = np.concatenate(
        [
            _relative_weights(penetration.values, "penetration"),
            _relative_weights(sales.values, "sales"),
        ]
    )

    model = _two_wave_model(known, t_pen, t_sales, rate)
    best = _separable_lm(
        lambda log_params: model(*np.exp(log_params)),
        observed,
        weights,
        TWO_WAVE_STARTS,
        _TWO_WAVE_LOG_LO,
        _TWO_WAVE_LOG_HI,
    )
    innovation, imitation, shape = map(float, np.exp(best.log_params))
    # clipping freezes a parameter on the box's edge, so report any that ends there
    on_edge = (best.log_params - _TWO_WAVE_LOG_LO <= 1e-9) | (
        _TWO_WAVE_LOG_HI - best.log_params <= 1e-9
    )
    at_bound = tuple(
        name for name, edge in zip(("innovation", "imitation", "shape"), on_edge) if edge
    )
    spreading_plateau, evolutionary_plateau = map(float, best.plateaus)
    resid = observed - best.design @ np.array([spreading_plateau, evolutionary_plateau])
    pen_resid, sales_resid = resid[: t_pen.size], resid[t_pen.size :]

    return FitResult(
        good=known.name,
        decline_rate=price_fit.decline_rate_,
        floor_ratio=price_fit.floor_ratio_,
        shape=shape,
        evolutionary_plateau=evolutionary_plateau,
        innovation=innovation,
        imitation=imitation,
        spreading_plateau=spreading_plateau,
        spreading_multiple=spread_wave.multiple_rate,
        spreading_replacement=spread_wave.replacement_fraction,
        spreading_lifetime=known.spreading_lifetime,
        evolutionary_multiple=evo_wave.multiple_rate,
        evolutionary_replacement=evo_wave.replacement_fraction,
        evolutionary_lifetime=known.evolutionary_lifetime,
        sse={
            "price": price_fit.sse_,
            "penetration": float((pen_resid**2).sum()),
            "sales": float((sales_resid**2).sum()),
        },
        residuals={
            "price": price_fit.residuals_,
            "penetration": pen_resid,
            "sales": sales_resid,
        },
        provenance={
            "price_digest": series_digest(price),
            "penetration_digest": series_digest(penetration),
            "sales_digest": series_digest(sales),
            "converged": bool(best.success),
            "nfev": int(best.nfev),
            "njev": int(best.njev),
            "nfev_refined": int(best.nfev_refined),
            "at_bound": at_bound,
            "starts_screened": best.starts_screened,
            "starts_refined": best.starts_refined,
            "price_converged": price_fit.converged_,
            "price_rate_identified": price_fit.rate_identified_,
            "analyst_warnings": warnings,
        },
    )


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

ROUND_TRIP_TOLERANCES = {
    "decline_rate": 0.10,
    "shape": 0.20,
    "evolutionary_plateau": 0.05,
    "innovation": 0.25,
    "imitation": 0.25,
    "spreading_plateau": 0.25,
}

_ROUND_TRIP_FIELDS = tuple(ROUND_TRIP_TOLERANCES)


def _sub_seed(master: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master), spawn_key=tuple(path))


def round_trip(
    good: GoodParams,
    good_index: int = 0,
    n_seeds: int = 50,
    noise: float = 0.02,
    n_points: int = 30,
    master_seed: int = 20250808,
) -> dict:
    """Synthesize-with-noise and refit one good ``n_seeds`` times.

    Returns a dict with the per-parameter relative-error medians, the
    tolerance checks, the raw error samples, the count of fits whose
    Levenberg–Marquardt run did not converge (``unconverged``) and the
    residual evaluations of every refined run of every fit
    (``nfev_refined``).
    Deterministic for a fixed master seed.
    """
    errors: dict[str, list[float]] = {name: [] for name in _ROUND_TRIP_FIELDS}
    truth = {
        "decline_rate": good.decline_rate,
        "shape": good.shape,
        "evolutionary_plateau": good.evolutionary_plateau,
        "innovation": good.innovation,
        "imitation": good.imitation,
        "spreading_plateau": good.spreading_plateau,
    }
    unconverged = nfev_refined = 0
    for draw in range(n_seeds):
        seeds = [
            _sub_seed(master_seed, good_index, draw, channel) for channel in range(3)
        ]
        price = synthesize("nominal_price", good, n_points, noise, seeds[0])
        penetration = synthesize("penetration", good, n_points, noise, seeds[1])
        sales = synthesize("sales", good, n_points, noise, seeds[2])
        result = fit_two_wave(price, penetration, sales, good)
        unconverged += not result.provenance["converged"]
        nfev_refined += result.provenance["nfev_refined"]
        for name in _ROUND_TRIP_FIELDS:
            errors[name].append(getattr(result, name) / truth[name] - 1.0)
    medians = {name: float(np.median(errors[name])) for name in _ROUND_TRIP_FIELDS}
    passed = {
        name: abs(medians[name]) <= ROUND_TRIP_TOLERANCES[name]
        for name in _ROUND_TRIP_FIELDS
    }
    return {
        "good": good.name,
        "medians": medians,
        "passed": passed,
        "errors": errors,
        "unconverged": unconverged,
        "nfev_refined": nfev_refined,
        "n_seeds": n_seeds,
        "noise": noise,
    }


def vhs_round_trip(
    advantage: float = 0.22,
    intercept: float = 0.0,
    n_seeds: int = 50,
    noise: float = 0.02,
    master_seed: int = 20250808,
) -> dict:
    """Round trip of the logistic share contest (synthesize, refit)."""
    years = 1977.0 + np.arange(12.0)
    errors = []
    for draw in range(n_seeds):
        series = synthesize_share(
            advantage,
            intercept,
            years,
            noise,
            _sub_seed(master_seed, 99, draw),
            origin_year=1976.0,
        )
        fit = FisherPryFit(origin_year=1976.0).fit(series)
        errors.append(fit.advantage_ / advantage - 1.0)
    median = float(np.median(errors))
    return {
        "good": "vcr_formats",
        "medians": {"advantage": median},
        "passed": {"advantage": abs(median) <= 0.15},
        "errors": {"advantage": errors},
        "n_seeds": n_seeds,
        "noise": noise,
    }
