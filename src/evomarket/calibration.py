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
least squares: ``lstsq``, or one exact two-column solve where that leaves
the bounds.  Levenberg–Marquardt is MINPACK's ``lmder`` (Moré 1978)
called through ``scipy.optimize.leastsq``, with the steps scaled by the
Jacobian's column norms and an explicit limit of ``100 * n`` residual
evaluations for ``n`` searched parameters.  It gets Kaufman's analytic
variable-projection Jacobian, built from the derivatives of the model
columns that ``diffusion``'s kernels compute beside the columns, so no
finite differences are taken.  The search screens a fixed start lattice
in one batched evaluation, every start's model columns from one call
and their bounded plateaus and costs from the same two-column solve,
then refines only the four best starts (the stage-1 filter of
multistart scatter search, Ugray et al. 2007), cheapest first.  A run
that comes within half the lattice's smallest spacing of the end of an
earlier converged run, at no lower cost, is stopped there as merged,
since it has reached a basin already refined (the distance filter of
multi-level single linkage, Rinnooy Kan & Timmer 1987, whose critical
radius likewise shrinks as the starts sample the box more densely).
The refine ends after a converged run whose residuals are at the
rounding floor, as no later start can beat a cost of zero (the
stopping rule of multistart search at a known optimum value, Boender
& Rinnooy Kan 1987).  The price fit and the two-wave fit divide their
residuals by the observations, matching multiplicative noise, so the
penetration and sales series weigh in on the same scale.  Only the logistic substitution fit
(:class:`FisherPryFit`) is a closed-form regression.

The onset delay between introduction and the start of the price decline
is analyst-supplied, never fitted.  Everything here is deterministic:
fixed start lattices, seeded noise.

The two fitter classes store a fit's fixed inputs in their
constructor; ``fit`` returns the fitter with its estimates in
attributes that carry a trailing underscore.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, leastsq

from ._validation import as_float_array, check_nonnegative, check_positive
from .benchmarks import VCR_FORMAT_CONTEST, GoodParams, wave_params
from .diffusion import PriceDecline, _bass_jets, _gompertz_jets, mean_price
# not called here, but kept: the benchmark's tracer wraps these module attributes
from scipy.optimize import lsq_linear
from .diffusion import bass_penetration, bass_rate, gompertz_penetration, gompertz_rate
from .errors import FitError, FormatError
from .evodyn import fisher_pry_share
from .market import IncomeModel
from .series import TimeSeries

__all__ = [
    "FitResult",
    "PriceDeclineFit",
    "FisherPryFit",
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
# been screened by its cost there.  Fewer refined starts miss the full
# lattice's optimum on noiseless goods with low imitation and shape
# (tests/test_properties.py).
_REFINE_STARTS = 4

# A refined run is stopped as merged at the first point it evaluates that
# lies closer than this fraction of the smallest max-norm distance between
# two log-starts to the end of a run that converged earlier in the same fit,
# at a cost not below that run's: it has reached a basin already refined.
# At 0.5, balls of that radius around distinct starts are disjoint, so runs
# merge only within the resolution the start lattice already has.  Zero
# runs every start to its end.
_MERGE_FRACTION = 0.5

# The refine ends after a converged run whose weighted residuals all lie
# below this many ``observed.size`` machine epsilons of the largest weighted
# observation: that run reproduces the data to rounding, and since the cost
# cannot go below zero no later start can do better.  Zero refines every
# screened start.
_ROUNDING_FLOOR = 1.0

# Observations below this fraction of a series' maximum are weighted as
# if they sat at it, so exact zeros (before an onset) keep a finite weight.
_WEIGHT_FLOOR = 1e-3


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates in the benchmark-table schema.

    ``sse`` maps fit stages (``price``, ``penetration``, ``sales``,
    ``share``) to their natural-scale residual sums of squares;
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
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for stage, value in self.sse.items():
            check_nonnegative(value, f"sse[{stage!r}]")


def series_digest(series: TimeSeries) -> str:
    """Stable hex digest of a series' numeric content."""
    payload = np.concatenate([series.years, series.values]).tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# price decline
# ---------------------------------------------------------------------------


class PriceDeclineFit:
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
        The introduction year, the years from it to the start of the
        decline (>= 0, fixed by the analyst, not fitted), the nominal
        price the series is scaled by (> 0), and an optional
        :class:`IncomeModel` that deflates nominal prices.

    Attributes
    ----------
    decline_rate_ : float
    floor_ratio_ : float
    sse_ : float
        Natural-scale residual sum of squares.
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

    def fit(self, series: TimeSeries):
        # nominal prices are deflated by the income model when there is
        # one, then scaled by the (equally deflated) introduction price
        check_positive(self.intro_price, "intro_price")
        check_nonnegative(self.onset_delay, "onset_delay")
        onset = self.intro_year + self.onset_delay
        mask = series.years >= onset - 1e-9
        years = series.years[mask]
        prices = series.values[mask]
        ref = self.intro_price
        if self.income is not None:
            prices = prices / self.income.at_year(years)
            ref = ref / self.income.at_year(onset)
        t_prime, scaled = years - onset, prices / ref
        if t_prime.size < 4:
            raise FitError("price fit needs at least 4 observations after the onset")
        # the amplitude refers to the first observation, so a clock far
        # from zero does not scale the amplitude column out of reach
        elapsed = t_prime - t_prime.min()

        def design(log_rate):
            # a log rate of shape (1,) gives one start's rows, (k, 1) k starts'
            rate = np.exp(log_rate)
            decay = np.exp(-rate * elapsed)
            columns = np.ones(decay.shape + (2,))
            columns[..., 0] = decay
            derivatives = np.zeros(decay.shape + (2, 1))
            derivatives[..., 0, 0] = -rate * elapsed * decay
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
        resid = scaled - best.design @ best.plateaus
        self.sse_ = float((resid**2).sum())
        self.converged_ = bool(best.success)
        self.nfev_ = int(best.nfev)
        # once the model falls below the weight floor between the first two
        # observations, the residuals hardly depend on the rate: it is only
        # bounded from below
        self.rate_identified_ = bool(
            np.exp(-self.decline_rate_ * elapsed[1]) >= _WEIGHT_FLOOR
        )
        return self


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

    The model is ``columns @ plateaus``, with one or two columns.
    ``design`` maps log-parameters, clipped to ``[log_lo, log_hi]``, to
    ``(columns, derivatives)``: the model columns at unit plateau, one
    row per observation, and ``derivatives[i, j, k]``, the derivative of
    column ``j`` at observation ``i`` with respect to log-parameter
    ``k``.  Given a ``(k, p)`` batch of log-parameters, ``design``
    returns both arrays with a leading axis of ``k``, each row with the
    bits of its own one-point call.  At every point the plateaus are the
    weighted linear least-squares solution, bounded to ``[0, upper]``
    (``upper`` is one bound or one per column) through
    :func:`_bounded_two_column` when ``lstsq``'s solution leaves the box.
    Residuals are ``weights * (observed - model)``.

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

    The search runs in two stages.  The screen evaluates every start
    (given on the natural scale) in one batched ``design`` call, solves
    every start's bounded plateaus and cost at once with
    :func:`_bounded_two_column`, and drops the starts whose weighted
    columns or cost are not finite.  The refinement ranks the rest by
    cost, ties going to the smaller coordinates (so the order of
    ``starts`` does not matter), and runs Levenberg–Marquardt only from
    the ``_REFINE_STARTS`` best of them, cheapest first, each from its
    start rather than from the screen's plateaus.  A run is stopped as
    merged at the first point it evaluates that lies closer than
    :func:`_merge_radius` of the log-starts (half the smallest max-norm
    distance between two of them) to the end of an earlier run that
    converged, at a cost not below that run's final cost.  A run stopped
    on its evaluation limit or a tolerance too small to reach did not end
    at a minimum, so it takes in no later run.  The refine ends after a
    converged run whose weighted residuals all lie below the rounding
    floor, ``_ROUNDING_FLOOR`` times ``observed.size`` machine epsilons of
    the largest weighted observation: that run reproduces the data to
    rounding, and as the cost cannot go below zero no later start can
    do better, so ``starts_refined`` can read 1.  A run stopped on its
    evaluation limit, or merged, never ends the refine.

    Returns the refined run of lowest cost that was not merged, ties
    going to the earliest, with ``log_params`` (clipped), ``design`` (the
    unweighted columns there), ``plateaus``, ``starts_screened`` (the
    starts with finite residuals), ``starts_refined``, ``starts_merged``
    (the refined runs stopped as merged) and ``nfev_refined`` (the
    residual evaluations of all refined runs, merged ones included)
    added.

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
            (coef,), _ = _bounded_two_column(weighted_design[None], weighted_observed, upper)
        return coef

    last = None  # [log_params, columns, derivatives, plateaus, residuals, jacobian]

    def solve(log_params):
        """Columns, derivatives, plateaus, residuals and Jacobian at one point.

        The last point is kept, so the Jacobian reuses the plateau solve of
        the residuals there, and is computed once however often it is asked.
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
            last = [log_params.copy(), columns, derivatives, coef, resid, None]
        return last

    def weighted_residuals(log_params) -> np.ndarray:
        return solve(log_params)[4]

    def jacobian(log_params) -> np.ndarray:
        point = solve(log_params)
        if point[5] is None:
            _, columns, derivatives, coef, *_ = point
            slope = weights[:, None] * (coef @ derivatives)
            free = (coef > 0) & (coef < upper)
            if np.any(free):
                basis = weights[:, None] * columns[:, free]
                slope -= basis @ np.linalg.lstsq(basis, slope, rcond=None)[0]
            slope[:, (log_params < log_lo) | (log_params > log_hi)] = 0.0
            point[5] = -slope
        return point[5]

    # screen: every start in one design call and one batched plateau solve
    points = np.asarray(starts, dtype=float)
    columns, _ = design(np.clip(np.log(points), log_lo, log_hi))
    _, cost = _bounded_two_column(weights[:, None] * columns, weighted_observed, upper)
    screened = np.flatnonzero(np.isfinite(cost))
    if not screened.size:
        raise FitError("no start gave finite residuals")

    # refine: Levenberg–Marquardt from the best screened starts, cheapest
    # first, ties going to the smaller coordinates
    order = np.lexsort((*points[screened].T[::-1], cost[screened]))
    ends = []  # (x, cost) of each run that converged without being merged
    radius = _merge_radius(np.log(points))

    def merged(x, x_cost):
        return any(
            x_cost >= end_cost and np.max(np.abs(x - end)) < radius
            for end, end_cost in ends
        )

    floor = _ROUNDING_FLOOR * observed.size * np.finfo(float).eps
    floor *= np.max(np.abs(weighted_observed))
    runs = []
    for index in screened[order[:_REFINE_STARTS]]:
        x0 = np.log(starts[index])
        runs.append(least_squares(weighted_residuals, x0, jac=jacobian, merged=merged))
        if runs[-1].success:
            ends.append((runs[-1].x, runs[-1].cost))
            if np.max(np.abs(runs[-1].fun)) < floor:
                break
    best = min((run for run in runs if not run.merged), key=lambda run: run.cost)

    best.log_params = np.clip(best.x, log_lo, log_hi)
    _, best.design, _, best.plateaus, *_ = solve(best.x)
    best.starts_screened = len(screened)
    best.starts_refined = len(runs)
    best.starts_merged = sum(run.merged for run in runs)
    best.nfev_refined = sum(run.nfev for run in runs)
    return best


def _merge_radius(log_starts):
    """``_MERGE_FRACTION`` of the smallest max-norm distance between two
    rows of ``log_starts`` (``(k, n)``), or 0 for fewer than two rows.

    Like the critical distance of multi-level single linkage (Rinnooy Kan
    & Timmer 1987), it shrinks as the starts sample the box more densely,
    and it does not depend on the order of the starts.
    """
    if len(log_starts) < 2:
        return 0.0
    gaps = np.max(np.abs(log_starts[:, None] - log_starts[None]), axis=-1)
    return _MERGE_FRACTION * np.min(gaps[np.triu_indices(len(log_starts), 1)])


def _bounded_two_column(columns, observed, upper):
    """Bounded linear least squares of a batch of one- or two-column problems.

    ``columns`` is ``(k, n, c)``, k problems of ``n`` rows and ``c`` of
    1 or 2 columns that share ``observed`` (``n`` values); each
    coefficient lies in ``[0, upper]``, with ``upper`` one bound or one
    per column, possibly infinite.  A single column is solved as two,
    the second zero.  The solve is exact, as BVLS is on two variables:
    it keeps the unbounded solution, from a QR factorization and back
    substitution, when that lies in the box and the ratio of ``R``'s
    singular values exceeds ``max(n, 2)`` machine epsilons (``lstsq``'s
    default rank cutoff); otherwise the optimum lies on the box's
    boundary, and the cheapest of its at most four edges wins, each
    edge one coefficient at a finite bound and the other the clipped
    one-column solution.

    Each problem's sums run along its own rows, so its result does not
    depend on the others in the batch.  Returns ``(coefficients,
    cost)``: ``(k, c)`` and the residual sums of squares ``(k,)``, where
    a problem whose columns or cost are not finite gets cost ``inf``.
    """
    k, n, c = columns.shape
    finite = np.all(np.isfinite(columns), axis=(1, 2))
    a = np.zeros((k, 2, n))
    a[:, :c] = np.swapaxes(columns, 1, 2)
    a[~finite] = 0.0
    hi = np.zeros(2)
    hi[:c] = upper
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q, r = np.linalg.qr(np.swapaxes(a, 1, 2))
        qty = np.add.reduce(np.ascontiguousarray(np.swapaxes(q, 1, 2)) * observed, axis=-1)
        r00, r01, r11 = r[:, 0, 0], r[:, 0, 1], r[:, 1, 1]
        interior = np.empty((k, 2))
        interior[:, 1] = qty[:, 1] / r11
        interior[:, 0] = (qty[:, 0] - r01 * interior[:, 1]) / r00
        well = np.abs(r00 * r11) > max(n, 2) * np.finfo(float).eps * (
            r00 * r00 + r01 * r01 + r11 * r11
        )
        inside = well & np.all((interior >= 0) & (interior <= hi), axis=1)

        # the edges: one coefficient at a bound, the other solved and clipped
        aty = np.add.reduce(a * observed, axis=-1)
        gram = np.add.reduce(a[:, :, None] * a[:, None, :], axis=-1)
        candidates = [interior]
        for fixed, free in ((0, 1), (1, 0)):
            norm = gram[:, free, free]
            for bound in (0.0, hi[fixed]):
                if bound == np.inf:  # no edge at an infinite bound
                    continue
                edge = np.empty((k, 2))
                edge[:, fixed] = bound
                solved = (aty[:, free] - bound * gram[:, fixed, free]) / norm
                edge[:, free] = np.where(norm > 0, np.clip(solved, 0.0, hi[free]), 0.0)
                candidates.append(edge)
        coef = np.stack(candidates)
        resid = observed - coef[..., :1] * a[:, 0] - coef[..., 1:] * a[:, 1]
        cost = np.add.reduce(resid * resid, axis=-1)
    # the interior where it lies in the box, else the cheapest edge, ties to the first
    pick = np.where(inside, 0, 1 + np.argmin(cost[1:], axis=0))
    rows = np.arange(k)
    coef, cost = coef[pick, rows], cost[pick, rows]
    cost[~(finite & np.isfinite(cost))] = np.inf
    return coef[:, :c], cost


class _Merged(Exception):
    """Stops a Levenberg–Marquardt run at the point ``x`` of cost ``cost``."""

    def __init__(self, x, cost):
        super().__init__()
        self.x, self.cost = x, cost


def least_squares(fun, x0, jac, merged=None):
    """One Levenberg–Marquardt run: MINPACK's ``lmder`` (Moré 1978) through
    ``scipy.optimize.leastsq``.

    ``lmder`` scales each step by the column norms of the Jacobian
    (``diag=None``) with step bound ``factor=100``, stops at relative
    tolerances of 1e-12 on the cost, the step and the gradient, and
    gives up after ``100 * x0.size`` residual evaluations.  The limit is
    passed explicitly, since ``leastsq``'s own default with a Jacobian is
    ``100 * (x0.size + 1)``.

    ``merged(x, cost)``, when given, is asked at every point the run
    evaluates; the run stops at the first point where it holds, and
    returns that point.  It does not change the iterates before.

    Returns the end point ``x``, its residuals ``fun`` (None for a merged
    run), ``cost`` (half their squared norm), the residual and Jacobian
    evaluations ``nfev`` and ``njev`` (None for a merged run), ``merged``
    (whether ``merged`` stopped the run), MINPACK's return code
    ``status`` (None for a merged run) and ``success``: whether a
    tolerance was met (codes 1 to 4) rather than the evaluation limit (5)
    or a tolerance too small to reach (6 to 8).
    """
    # leastsq evaluates x0 more than once before its first step, so a
    # stopped run counts its points, each repeat once
    nfev, last = 0, None

    def residuals(x):
        nonlocal nfev, last
        resid = fun(x)
        if merged is not None and (point := x.tobytes()) != last:
            nfev, last = nfev + 1, point
            cost = 0.5 * np.dot(resid, resid)
            if merged(x, cost):
                raise _Merged(x.copy(), cost)
        return resid

    try:
        x, _, info, _, status = leastsq(
            residuals,
            x0,
            Dfun=jac,
            full_output=True,
            xtol=1e-12,
            ftol=1e-12,
            gtol=1e-12,
            maxfev=100 * x0.size,
        )
    except _Merged as stop:
        return OptimizeResult(
            x=stop.x,
            cost=stop.cost,
            fun=None,
            nfev=nfev,
            njev=None,
            merged=True,
            status=None,
            success=False,
        )
    resid = info["fvec"]
    return OptimizeResult(
        x=x,
        cost=0.5 * np.dot(resid, resid),
        fun=resid,
        nfev=info["nfev"],
        njev=info["njev"],
        merged=False,
        status=status,
        success=status in (1, 2, 3, 4),
    )


# ---------------------------------------------------------------------------
# the two-wave model
# ---------------------------------------------------------------------------


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
    ``j`` at row ``i`` by the log of parameter ``k``.  Parameters given
    as ``(k, 1)`` arrays evaluate k parameter sets at once, with a
    leading axis of k on both results.  The model assumes valid
    parameters and does not check them.
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
                pen[..., :n_pen, :],
                out[..., sales, :]
                + multiple * pen[..., sales, :]
                + echo_weight[:, None] * out[..., echo, :],
            ],
            axis=-2,
        )

    def model(innovation, imitation, shape):
        spreading = wave(
            *_bass_jets(spread_times, innovation, imitation, 1.0),
            spread_wave.multiple_rate,
            spread_weight,
        )
        evolutionary = wave(
            *_gompertz_jets(evo_times, 1.0, shape, rate),
            evo_wave.multiple_rate,
            evo_weight,
        )
        derivatives = np.zeros(spreading.shape[:-1] + (2, 3))
        derivatives[..., 0, :2] = spreading[..., 1:]
        derivatives[..., 1, 2] = evolutionary[..., 1]
        return np.stack([spreading[..., 0], evolutionary[..., 0]], axis=-1), derivatives

    return model


# ---------------------------------------------------------------------------
# logistic substitution
# ---------------------------------------------------------------------------


class FisherPryFit:
    """Fit the logistic substitution law to a market-share series.

    Linear regression of the log share ratio (logit) on time; the slope
    is the per-year fitness advantage, the intercept fixes where the
    contest stood at the time origin.
    """

    def __init__(self, origin_year: float = 0.0):
        self.origin_year = origin_year

    def fit(self, series: TimeSeries):
        t = series.years - self.origin_year
        shares = series.values
        outside = np.flatnonzero((shares <= 0) | (shares >= 1))
        if outside.size:
            first = outside[0]
            raise FormatError(
                "shares must lie strictly inside (0, 1): "
                f"year {float(series.years[first])!r} has share {float(shares[first])!r}"
            )
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
        resid = logits - (slope * t + icept)
        self.sse_ = float((resid**2).sum())
        return self


# ---------------------------------------------------------------------------
# synthetic fixtures
# ---------------------------------------------------------------------------


def synthesize(
    kind: str,
    good: GoodParams,
    n_points: int = 30,
    noise: float = 0.0,
    seed: int | None = None,
) -> TimeSeries:
    """Sample a model curve annually, optionally with multiplicative noise.

    ``kind="nominal_price"`` samples the decline path from its onset;
    penetration and sales are sampled from the introduction year from
    the model that ``fit_two_wave`` fits, at the good's parameters: both
    waves, the evolutionary one delayed by the onset.  ``noise`` must be
    non-negative.  Deterministic per seed.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    check_nonnegative(noise, "noise")
    t = np.arange(n_points, dtype=float)
    if kind == "nominal_price":
        years = good.intro_year + good.onset_delay + t
        decline = PriceDecline(1.0, good.floor_ratio or 0.0, good.decline_rate)
        values = mean_price(t, decline)
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
    against floating-point saturation.  ``noise`` must be non-negative.
    Deterministic per seed.
    """
    years = as_float_array(years, "years")
    check_nonnegative(noise, "noise")
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
    * every start of ``TWO_WAVE_STARTS`` is screened by its cost, all in
      one batched evaluation, and Levenberg–Marquardt searches log
      innovation, log imitation and log shape from the four starts of
      lowest cost, cheapest first, stopping a run that comes within
      half the lattice's smallest spacing (0.49 in every log-parameter,
      half the imitation gap ln(4/1.5)) of the optimum of an earlier one,
      and refining no further start once a converged run reproduces the
      data to rounding (see :func:`_separable_lm`);
    * inside every residual evaluation the spreading and evolutionary
      plateaus are the weighted linear least-squares solution, bounded
      to [0, 1];
    * the model columns and their derivatives come from raw-array
      kernels on evaluation times (the lags, echo weights and onset
      shift) that the model computes once per fit, and give
      Levenberg–Marquardt its analytic Jacobian.

    The lowest weighted cost of the refined runs that were not merged
    wins, ties going to the earliest.  ``sse`` reports each series on its
    natural scale.
    ``provenance["converged"]``, ``provenance["nfev"]`` and
    ``provenance["njev"]`` (its Jacobian evaluations) describe the
    winning Levenberg–Marquardt run, so a fit that stopped on its
    evaluation limit says so, and ``price_converged`` does the same for
    the price fit.  ``provenance["nfev_refined"]`` counts the residual
    evaluations of all refined runs together, merged ones included.
    ``provenance["at_bound"]`` names those of innovation, imitation and
    shape whose log value ended within 1e-9 of the search box's edge,
    where the fit cannot move them.  ``price_rate_identified`` is False when the price collapsed
    below the weight floor by its second observation, so the decline
    rate is only a lower bound.  ``provenance["starts_screened"]`` counts
    the starts with finite residuals at the screen,
    ``provenance["starts_refined"]`` the runs refined from them (1 when
    the first run reproduces noiseless data to rounding) and
    ``provenance["starts_merged"]`` those of the runs stopped as merged.

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

    def design(log_params):
        # one start as scalars; k starts as (k, 1) parameter columns
        params = np.exp(log_params)
        return model(*(params.T[..., None] if params.ndim > 1 else params))

    best = _separable_lm(
        design,
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
            "starts_merged": best.starts_merged,
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
    tolerance checks, the count of fits whose Levenberg–Marquardt run
    did not converge (``unconverged``), the residual evaluations of
    every refined run of every fit (``nfev_refined``) and ``n_seeds``.
    Deterministic for a fixed master seed.
    """
    errors: dict[str, list[float]] = {name: [] for name in _ROUND_TRIP_FIELDS}
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
            errors[name].append(getattr(result, name) / getattr(good, name) - 1.0)
    return _report(good.name, errors, ROUND_TRIP_TOLERANCES, n_seeds, unconverged, nfev_refined)


def vhs_round_trip(
    advantage: float = VCR_FORMAT_CONTEST["advantage"],
    intercept: float = VCR_FORMAT_CONTEST["intercept"],
    n_seeds: int = 50,
    noise: float = 0.02,
    master_seed: int = 20250808,
) -> dict:
    """Round trip of the logistic share contest; its closed-form refit leaves both counters 0."""
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
    return _report("vcr_formats", {"advantage": errors}, {"advantage": 0.15}, n_seeds)


def _report(good, errors, tolerances, n_seeds, unconverged=0, nfev_refined=0) -> dict:
    """A round trip's relative-error medians, their tolerance checks and its fit counters."""
    medians = {name: float(np.median(values)) for name, values in errors.items()}
    return {
        "good": good,
        "medians": medians,
        "passed": {name: abs(medians[name]) <= tolerances[name] for name in medians},
        "unconverged": unconverged,
        "nfev_refined": nfev_refined,
        "n_seeds": n_seeds,
    }
