"""Property tests of the estimators, their design derivatives, the replacement
echoes and the series CSV format.

Each parameter is drawn between its smallest and largest value over the
six benchmark goods, so the tests cover the whole box the fixtures span
rather than a few hand-picked points.  The two-wave fit properties take
their goods from the seeded table ``FIT_DRAWS``; the rest draw through
Hypothesis.
"""

import contextlib
import dataclasses
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from evomarket import calibration, diffusion
from evomarket.benchmarks import BENCHMARKS, GoodParams, wave_params
from evomarket.calibration import (
    TWO_WAVE_STARTS,
    PriceDeclineFit,
    _separable_lm,
    fit_two_wave,
    synthesize,
)
from evomarket.diffusion import (
    BassParams,
    GompertzParams,
    bass_penetration,
    bass_rate,
    gompertz_penetration,
)
from evomarket.lifecycle import WaveParams, wave_sales
from evomarket.errors import FormatError
from evomarket.series import TimeSeries, read_series_csv, write_series_csv

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


def benchmark_box(field):
    """The smallest and largest value of ``field`` over the goods.

    A blank (a value that was not established) counts as zero.
    """
    values = [getattr(good, field) or 0.0 for good in BENCHMARKS.values()]
    return min(values), max(values)


def benchmark_range(field):
    """Floats between the smallest and largest value of ``field`` over the goods."""
    return st.floats(*benchmark_box(field))


bass_params = st.builds(
    BassParams,
    benchmark_range("innovation"),
    benchmark_range("imitation"),
    benchmark_range("spreading_plateau"),
)
price_floors = benchmark_range("floor_ratio")
spreading_multiples = benchmark_range("spreading_multiple")
seeds = st.integers(0, 2**32 - 1)

T_PRICE = np.arange(30.0)
# the decline clock of a good observed for 40 years, with the price
# decline setting in after up to 4 years
T_EVOLVE = np.arange(40.0) - 4.0


# the shape values of the two-wave start lattice
GOMPERTZ_STARTS = [(shape,) for shape in sorted({s for *_, s in TWO_WAVE_STARTS})]


def gompertz_design(rate):
    """One Gompertz penetration column on ``T_EVOLVE`` and its log-shape derivative."""

    def design(log_shape):
        pen, _ = diffusion._gompertz_jets(T_EVOLVE, 1.0, np.exp(log_shape), rate)
        return pen[..., :1], pen[..., None, 1:]

    return design


def gompertz_lm(rate, observed, bound):
    """The separable solve of one Gompertz wave, its plateau within [0, bound]."""
    return _separable_lm(
        gompertz_design(rate),
        observed,
        np.ones(observed.size),
        GOMPERTZ_STARTS,
        calibration._TWO_WAVE_LOG_LO[2:],
        calibration._TWO_WAVE_LOG_HI[2:],
        upper=bound,
    )


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    shape=benchmark_range("shape"),
    rate=benchmark_range("decline_rate"),
    bound=st.sampled_from([0.5, 0.9, 1.0]),
    seed=seeds,
)
def test_gompertz_plateau_stays_in_bounds_near_saturation(shape, rate, bound, seed):
    """Penetration near 1 with 2% noise, clipped to [0, 1] like the fixtures."""
    rng = np.random.default_rng(seed)
    clean = gompertz_penetration(T_EVOLVE, GompertzParams(0.995, shape, rate))
    noisy = np.clip(clean * (1.0 + 0.02 * rng.standard_normal(clean.size)), 0.0, 1.0)
    best = gompertz_lm(rate, noisy, bound)
    assert 0.0 <= best.plateaus[0] <= bound


def price_path(rate, floor, scale=1.0, noise=1.0):
    values = scale * (np.exp(-rate * T_PRICE) + floor) * noise
    return TimeSeries(T_PRICE, values, "nominal_price")


@PROPERTY_SETTINGS
@given(rate=benchmark_range("decline_rate"), floor=price_floors)
def test_price_noiseless_recovery(rate, floor):
    fit = PriceDeclineFit().fit(price_path(rate, floor))
    assert fit.decline_rate_ == pytest.approx(rate, rel=1e-6)
    assert fit.floor_ratio_ == pytest.approx(floor, rel=1e-6, abs=1e-9)


@PROPERTY_SETTINGS
@given(
    rate=benchmark_range("decline_rate"),
    floor=price_floors,
    scale=st.floats(1e-3, 1e4),
    seed=seeds,
)
def test_price_fit_does_not_depend_on_the_intro_price_scale(rate, floor, scale, seed):
    rng = np.random.default_rng(seed)
    noise = 1.0 + 0.02 * rng.standard_normal(T_PRICE.size)
    unit = PriceDeclineFit().fit(price_path(rate, floor, noise=noise))
    scaled = PriceDeclineFit(intro_price=scale).fit(price_path(rate, floor, scale, noise))
    assert scaled.decline_rate_ == pytest.approx(unit.decline_rate_, rel=1e-6)
    assert scaled.floor_ratio_ == pytest.approx(unit.floor_ratio_, rel=1e-6, abs=1e-9)
    assert scaled.sse_ == pytest.approx(unit.sse_, rel=1e-6)


# The Bass and Gompertz curves written out here rather than taken from
# ``diffusion``, so the echo sums are checked against an oracle that shares
# no code with the kernels the sums run on.


def bass_oracle(t, params):
    """Penetration and rate of the spreading wave at non-negative ``t``."""
    a, b = params.innovation, params.imitation
    decay = np.exp(-(a + b) * t)
    pen = params.plateau * (1.0 - decay) / (1.0 + (b / a) * decay)
    rate = params.plateau * a * (a + b) ** 2 * decay / (a + b * decay) ** 2
    return pen, rate


def gompertz_oracle(t, params):
    """Penetration and rate of the price-driven wave, zero where they underflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-2.0 * params.rate * t)
        pen = params.plateau * np.exp(-params.shape * decay)
        rate = np.where(pen > 0, 2.0 * params.rate * params.shape * decay * pen, 0.0)
    return pen, rate


@PROPERTY_SETTINGS
@given(
    params=bass_params,
    multiple=spreading_multiples,
    fraction=st.floats(0.0, 1.0),
    lifetime=st.floats(1.0, 15.0),
    echoes=st.integers(1, 5),
)
def test_wave_sales_is_the_closed_form_echo_sum(params, multiple, fraction, lifetime, echoes):
    grid = 0.05 * np.arange(801)
    out = wave_sales(
        grid,
        bass_penetration(grid, params),
        lambda t: bass_rate(t, params),
        WaveParams(multiple, fraction, lifetime),
        echoes,
    )
    pen, rate = bass_oracle(grid, params)
    expected = rate + multiple * pen
    for k in range(1, echoes + 1):
        # the lifetime is drawn off the grid, so the echo starts between cells
        lag = grid - k * lifetime
        echo = np.where(lag >= 0, bass_oracle(np.maximum(lag, 0.0), params)[1], 0.0)
        expected = expected + fraction**k * echo
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(expected)


# the replacement lifetimes the benchmark table establishes
established_lifetimes = [
    value
    for good in BENCHMARKS.values()
    for value in (good.spreading_lifetime, good.evolutionary_lifetime)
    if value is not None
]
LIFETIME_BOX = (min(established_lifetimes), max(established_lifetimes))

# the fields of a drawn two-wave good and their boxes, in the order drawn
TWO_WAVE_BOX = {
    field: LIFETIME_BOX if field.endswith("_lifetime") else benchmark_box(field)
    for field in (
        "spreading_plateau",
        "evolutionary_plateau",
        "onset_delay",
        "floor_ratio",
        "decline_rate",
        "shape",
        "innovation",
        "imitation",
        "spreading_replacement",
        "spreading_multiple",
        "evolutionary_replacement",
        "evolutionary_multiple",
        "spreading_lifetime",
        "evolutionary_lifetime",
    )
}


def drawn_good(fields):
    """The good of one draw of every ``TWO_WAVE_BOX`` field."""
    # penetration cannot exceed 1, so neither can the sum of the plateaus
    cap = 1.0 - fields["spreading_plateau"]
    fields = {**fields, "evolutionary_plateau": min(fields["evolutionary_plateau"], cap)}
    return GoodParams(name="drawn", intro_year=1950.0, **fields)


@st.composite
def two_wave_goods(draw):
    """A good drawn from the benchmark box, repurchase machinery included."""
    return drawn_good({field: draw(st.floats(*box)) for field, box in TWO_WAVE_BOX.items()})


def box_value(rng, low, high):
    """One of the box's edges with probability 0.3, else a uniform value on it."""
    if rng.random() < 0.3:
        return low if rng.random() < 0.5 else high
    return rng.uniform(low, high)


class FitDraw(NamedTuple):
    good: GoodParams
    seed: int  # of the 2% noise
    order: list  # of TWO_WAVE_STARTS


def fit_draws(rng, rows):
    """Two-wave goods from the benchmark box, with a noise seed and a start order."""
    return [
        FitDraw(
            drawn_good({field: box_value(rng, *box) for field, box in TWO_WAVE_BOX.items()}),
            int(rng.integers(2**32)),
            rng.permutation(len(TWO_WAVE_STARTS)).tolist(),
        )
        for _ in range(rows)
    ]


# The goods of the two-wave fit properties: a fixed table rather than
# Hypothesis draws, which take in the numeric literals of the loaded
# modules and so move whenever a constant in src/ is added or deleted.
FIT_DRAWS = fit_draws(np.random.default_rng(27), 32)


def fit_draw_params(*names):
    """``FIT_DRAWS`` as pytest params of the named ``FitDraw`` fields."""
    return [
        pytest.param(*(getattr(row, name) for name in names), id=f"draw{i}")
        for i, row in enumerate(FIT_DRAWS)
    ]


def one_echo_sum(kind, good, t):
    """Penetration or sales of both waves from the oracle curves.

    A sale is first purchases, plus multiple purchase in proportion to
    the penetration, plus one replacement echo a lifetime behind.
    """
    spreading, evolutionary, _ = wave_params(good)
    bass = BassParams(good.innovation, good.imitation, good.spreading_plateau)
    gompertz = GompertzParams(good.evolutionary_plateau, good.shape, good.decline_rate)
    t_evo = t - good.onset_delay
    bass_pen, bass_rate_t = bass_oracle(t, bass)
    gompertz_pen, gompertz_rate_t = gompertz_oracle(t_evo, gompertz)
    if kind == "penetration":
        return bass_pen + gompertz_pen
    # the spreading echo is zero less than one lifetime after the introduction
    spreading_echo = np.zeros_like(t)
    if spreading.replacement_fraction > 0:
        aged = t >= spreading.lifetime
        spreading_echo[aged] = bass_oracle(t[aged] - spreading.lifetime, bass)[1]
    # the evolutionary echo runs on the all-real clock and is never cut off
    _, evolutionary_echo = gompertz_oracle(
        t_evo - (evolutionary.lifetime or 0.0), gompertz
    )
    return (
        bass_rate_t
        + spreading.multiple_rate * bass_pen
        + spreading.replacement_fraction * spreading_echo
        + gompertz_rate_t
        + evolutionary.multiple_rate * gompertz_pen
        + evolutionary.replacement_fraction * evolutionary_echo
    )


def assert_synthesized_is_the_one_echo_sum(good, n_points=40):
    t = np.arange(float(n_points))
    for kind in ("penetration", "sales"):
        expected = one_echo_sum(kind, good, t)
        out = synthesize(kind, good, n_points).values
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(expected), kind


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_synthesize_is_the_one_echo_sum_of_the_closed_forms(name):
    assert_synthesized_is_the_one_echo_sum(BENCHMARKS[name])


@PROPERTY_SETTINGS
@given(good=two_wave_goods())
def test_synthesize_is_the_one_echo_sum_of_the_closed_forms_on_the_box(good):
    assert_synthesized_is_the_one_echo_sum(good)


def first_purchases_only(good):
    return dataclasses.replace(
        good,
        spreading_replacement=0.0,
        spreading_multiple=0.0,
        evolutionary_replacement=0.0,
        evolutionary_multiple=0.0,
    )


def fit_draw(good, noise=0.0, seed=None):
    seeds = np.random.SeedSequence(seed).spawn(3) if noise else [None] * 3
    series = [
        synthesize(kind, good, noise=noise, seed=channel_seed)
        for kind, channel_seed in zip(("nominal_price", "penetration", "sales"), seeds)
    ]
    return fit_two_wave(*series, good)


TWO_WAVE_FIELDS = (
    "decline_rate",
    "floor_ratio",
    "shape",
    "evolutionary_plateau",
    "innovation",
    "imitation",
    "spreading_plateau",
)


def assert_same_fit(result, expected):
    """Every fitted field within rel 1e-6; a zero floor ratio within 1e-9."""
    for name in TWO_WAVE_FIELDS:
        abs_tol = 1e-9 if name == "floor_ratio" else 0.0
        assert getattr(result, name) == pytest.approx(
            getattr(expected, name), rel=1e-6, abs=abs_tol
        ), name


def first_purchase_draw(**fields):
    """A box draw with no repurchase, no onset delay, no price floor and
    lifetimes of 10; the remaining fields are given."""
    return GoodParams(
        name="drawn",
        intro_year=1950.0,
        onset_delay=0.0,
        floor_ratio=0.0,
        spreading_replacement=0.0,
        spreading_multiple=0.0,
        evolutionary_replacement=0.0,
        evolutionary_multiple=0.0,
        spreading_lifetime=10.0,
        evolutionary_lifetime=10.0,
        **fields,
    )


def assert_noiseless_recovery(good):
    for truth in (good, first_purchases_only(good)):
        result = fit_draw(truth)
        assert result.provenance["converged"]
        assert_same_fit(result, truth)


@pytest.mark.parametrize(
    "good",
    [
        *fit_draw_params("good"),
        # a draw that racing the screened starts (5-evaluation heats, only
        # the cheapest finished) ends in another basin with converged True
        pytest.param(
            first_purchase_draw(
                innovation=0.001953125,
                imitation=0.8125,
                shape=9.0,
                decline_rate=0.25,
                evolutionary_plateau=0.78125,
                spreading_plateau=0.037109375,
            ),
            id="racing",
        ),
    ],
)
def test_two_wave_noiseless_recovery(good):
    assert_noiseless_recovery(good)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the 4-start screen misses these draws, which the full 18-start lattice "
    "recovers (CHANGES.md, FOUND: _separable_lm's 4-start screen misses a "
    "noiseless two-wave draw)",
)
@pytest.mark.parametrize(
    "fields",
    [
        dict(
            innovation=0.001953125,
            imitation=1.0,
            shape=9.0,
            decline_rate=0.3125,
            evolutionary_plateau=0.875,
            spreading_plateau=0.03125,
        ),
        # found by test_two_wave_noiseless_recovery; fits shape 17.650 with
        # converged True, and six or more refined starts recover it
        dict(
            innovation=0.001,
            imitation=2.5,
            shape=18.0,
            decline_rate=0.125,
            evolutionary_plateau=0.875,
            spreading_plateau=0.125,
        ),
    ],
)
def test_two_wave_noiseless_recovery_of_a_draw_the_screen_misses(fields):
    assert_noiseless_recovery(first_purchase_draw(**fields))


@pytest.mark.parametrize("good, seed, order", fit_draw_params("good", "seed", "order"))
def test_two_wave_fit_does_not_depend_on_start_order(good, seed, order):
    forward = fit_draw(good, noise=0.02, seed=seed)
    starts = [TWO_WAVE_STARTS[i] for i in order]
    with mock.patch.object(calibration, "TWO_WAVE_STARTS", starts):
        permuted = fit_draw(good, noise=0.02, seed=seed)
    assert_same_fit(permuted, forward)


@pytest.mark.parametrize("good, seed", fit_draw_params("good", "seed"))
def test_screened_two_wave_fit_matches_the_full_lattice(good, seed):
    screened = fit_draw(good, noise=0.02, seed=seed)
    with mock.patch.object(calibration, "_REFINE_STARTS", len(TWO_WAVE_STARTS)):
        full = fit_draw(good, noise=0.02, seed=seed)
    assert full.provenance["starts_refined"] == screened.provenance["starts_screened"]
    assert_same_fit(screened, full)


def per_start_screen(design, observed, weights, starts, log_lo, log_hi, upper=1.0):
    """The starts the per-start screen refines, cheapest first, ties going
    to the smaller coordinates.

    A copy of the screen the batched solve replaced: each start's columns
    from a design call of its own, its plateaus by ``lstsq``, then by BVLS
    when they leave ``[0, upper]``, and its cost ``resid @ resid``.
    """
    weighted_observed = weights * observed
    screened = []
    for index, start in enumerate(starts):
        columns, _ = design(np.clip(np.log(start), log_lo, log_hi))
        weighted = weights[:, None] * columns
        if not np.all(np.isfinite(weighted)):
            continue
        coef = np.linalg.lstsq(weighted, weighted_observed, rcond=None)[0]
        if np.any((coef < 0) | (coef > upper)):
            coef = lsq_linear(
                weighted, weighted_observed, bounds=(0.0, upper), method="bvls"
            ).x
        resid = weighted_observed - weighted @ coef
        if np.all(np.isfinite(resid)):
            screened.append((float(resid @ resid), tuple(start), index))
    return [index for *_, index in sorted(screened)[: calibration._REFINE_STARTS]]


SCREEN_FITS = [
    *(
        pytest.param(good, noise, seed, id=f"{name}-{noise}")
        for seed, (name, good) in enumerate(BENCHMARKS.items())
        for noise in (0.0, 0.02)
    ),
    *(
        pytest.param(row.good, noise, row.seed, id=f"draw{i}-{noise}")
        for i, row in enumerate(FIT_DRAWS)
        for noise in (0.0, 0.02)
    ),
]


@pytest.mark.parametrize("good, noise, seed", SCREEN_FITS)
def test_batched_screen_refines_the_starts_of_the_per_start_screen(good, noise, seed):
    searches = []  # (args, kwargs, x0 of each refined run) of each search
    search, refine = calibration._separable_lm, calibration.least_squares

    def searching(*args, **kwargs):
        searches.append((args, kwargs, []))
        return search(*args, **kwargs)

    def refining(*args, **kwargs):
        searches[-1][2].append(args[1])
        return refine(*args, **kwargs)

    with mock.patch.multiple(calibration, _separable_lm=searching, least_squares=refining):
        fit_draw(good, noise, seed)
    for (design, *problem), kwargs, refined in searches:
        observed, weights, starts, log_lo, log_hi = problem
        # every row of the batched design call has the bits of its start's own call
        batch = design(np.clip(np.log(np.asarray(starts, dtype=float)), log_lo, log_hi))
        for index, start in enumerate(starts):
            single = design(np.clip(np.log(start), log_lo, log_hi))
            for rows, alone in zip(batch, single):
                assert rows[index].shape == alone.shape
                assert rows[index].tobytes() == alone.tobytes()
        chosen = per_start_screen(design, *problem, **kwargs)
        # a run at the rounding floor may end the refine early, never on noisy data
        assert 1 <= len(refined) <= len(chosen)
        if noise:
            assert len(refined) == len(chosen)
        for x0, index in zip(refined, chosen):
            assert x0.tobytes() == np.log(starts[index]).tobytes()


@pytest.mark.parametrize("good, noise, seed", SCREEN_FITS)
def test_merged_runs_leave_the_fit_of_every_run_refined_to_its_end(good, noise, seed):
    merged = fit_draw(good, noise, seed)
    with mock.patch.object(calibration, "_MERGE_FRACTION", 0.0):
        unmerged = fit_draw(good, noise, seed)
    assert unmerged.provenance["starts_merged"] == 0
    assert_same_fit(merged, unmerged)


@pytest.mark.parametrize("good, noise, seed", SCREEN_FITS)
def test_exact_stop_leaves_the_fit_of_every_screened_start_refined(good, noise, seed):
    stopped = fit_draw(good, noise, seed)
    with mock.patch.object(calibration, "_ROUNDING_FLOOR", 0.0):
        refined = fit_draw(good, noise, seed)
    assert refined.provenance["starts_refined"] == calibration._REFINE_STARTS
    assert_same_fit(stopped, refined)


def recorded_calls(fit, *names):
    """Run ``fit()`` and return the arguments of every call it made to the
    named functions of ``calibration``, by name."""
    calls = {name: [] for name in names}
    with contextlib.ExitStack() as stack:
        for name in names:
            original = getattr(calibration, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                calls[_name].append((args, kwargs))
                return _original(*args, **kwargs)

            stack.enter_context(mock.patch.object(calibration, name, recording))
        fit()
    return calls


def designs(fit):
    """The ``design`` callback of every separable solve ``fit()`` runs."""
    return [args[0] for args, _ in recorded_calls(fit, "_separable_lm")["_separable_lm"]]


DERIVATIVE_STEP = 1e-6


def assert_derivatives_match_central_differences(design, log_params):
    """Each derivative column within 1e-6 of its largest entry, or exactly zero."""
    log_params = np.log(log_params)
    columns, derivatives = design(log_params)
    assert derivatives.shape == columns.shape + log_params.shape
    for k in range(log_params.size):
        shift = np.zeros(log_params.size)
        shift[k] = DERIVATIVE_STEP
        central = (design(log_params + shift)[0] - design(log_params - shift)[0]) / (
            2.0 * DERIVATIVE_STEP
        )
        analytic = derivatives[:, :, k]
        scale = np.abs(analytic).max(axis=0)
        assert np.all(np.abs(central - analytic) <= 1e-6 * scale), k


@PROPERTY_SETTINGS
@given(rate=benchmark_range("decline_rate"), floor=price_floors)
def test_price_design_derivatives(rate, floor):
    (design,) = designs(lambda: PriceDeclineFit().fit(price_path(rate, floor)))
    assert_derivatives_match_central_differences(design, [rate])


@PROPERTY_SETTINGS
# the decline sets in between half a year and the table's largest onset
@given(good=two_wave_goods(), onset=st.floats(0.5, 4.0))
def test_two_wave_design_derivatives(good, onset):
    good = dataclasses.replace(good, onset_delay=onset)
    for truth in (good, first_purchases_only(good)):
        price_design, design = designs(lambda: fit_draw(truth))
        assert_derivatives_match_central_differences(price_design, [truth.decline_rate])
        assert_derivatives_match_central_differences(
            design, [truth.innovation, truth.imitation, truth.shape]
        )


def assert_gradient_is_exact(fun, jac, log_params):
    """``J.T @ r`` against central differences of the cost."""
    resid = fun(log_params)
    gradient = jac(log_params).T @ resid
    central = np.empty(log_params.size)
    for k in range(log_params.size):
        shift = np.zeros(log_params.size)
        shift[k] = DERIVATIVE_STEP
        up, down = fun(log_params + shift), fun(log_params - shift)
        central[k] = (up @ up - down @ down) / (4.0 * DERIVATIVE_STEP)
    assert gradient == pytest.approx(central, rel=1e-6, abs=1e-6 * np.abs(central).max())


@PROPERTY_SETTINGS
@given(good=two_wave_goods(), seed=seeds)
def test_two_wave_jacobian_gives_the_cost_gradient(good, seed):
    calls = recorded_calls(lambda: fit_draw(good, noise=0.02, seed=seed), "least_squares")
    for (fun, start), kwargs in calls["least_squares"]:
        assert_gradient_is_exact(fun, kwargs["jac"], start)
    # below the box's lower edge the clipped innovation no longer moves the
    # residuals of the last two-wave run
    (fun, start), kwargs = calls["least_squares"][-1]
    outside = start.copy()
    outside[0] = calibration._TWO_WAVE_LOG_LO[0] - 1.0
    assert_gradient_is_exact(fun, kwargs["jac"], outside)


@PROPERTY_SETTINGS
@given(
    shape=benchmark_range("shape"),
    rate=benchmark_range("decline_rate"),
    bound=st.sampled_from([0.5, 0.9]),
    seed=seeds,
)
def test_jacobian_gives_the_cost_gradient_with_a_plateau_held_at_its_bound(
    shape, rate, bound, seed
):
    """Penetration near 1 with 2% noise: the plateau bound holds at some start."""
    rng = np.random.default_rng(seed)
    clean = gompertz_penetration(T_EVOLVE, GompertzParams(0.995, shape, rate))
    noisy = clean * (1.0 + 0.02 * rng.standard_normal(clean.size))
    calls = recorded_calls(lambda: gompertz_lm(rate, noisy, bound), "least_squares")
    design = gompertz_design(rate)
    held = []
    for (fun, start), kwargs in calls["least_squares"]:
        columns, _ = design(start)
        plateau = lsq_linear(columns, noisy, bounds=(0.0, bound), method="bvls").x
        held.append(plateau[0] == bound)
        assert_gradient_is_exact(fun, kwargs["jac"], start)
    assert any(held)


# ---------------------------------------------------------------------------
# series CSV files
# ---------------------------------------------------------------------------

# every finite double: subnormals, negative values and the range ends
finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def time_series(draw):
    years = sorted(draw(st.lists(finite_doubles, min_size=1, max_size=40, unique=True)))
    values = draw(st.lists(finite_doubles, min_size=len(years), max_size=len(years)))
    kind = draw(st.sampled_from([None, "sales", "nominal_price"]))
    return TimeSeries(np.array(years), np.array(values), kind)


def per_row_text(series):
    """The series file, written one row at a time."""
    header = "year,value" if series.kind is None else "year,value,kind"
    tail = "" if series.kind is None else f",{series.kind}"
    rows = [f"{y!r},{v!r}{tail}" for y, v in zip(series.years.tolist(), series.values.tolist())]
    return "\n".join([header, *rows]) + "\n"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(series=time_series())
@example(
    series=TimeSeries(
        np.array([-1e308, -2.2250738585072014e-308, 5e-324, 1e308]),
        np.array([1e308, -5e-324, -0.0, -1e308]),
        "sales",
    )
)
def test_series_file_is_the_per_row_text_and_round_trips(series, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "property_series.csv"
    write_series_csv(series, path)
    assert path.read_bytes() == per_row_text(series).encode("utf-8")
    clone = read_series_csv(path)
    assert np.array_equal(clone.years, series.years)
    assert np.array_equal(clone.values, series.values)
    assert clone.kind == series.kind


def break_row(cells, previous_year, fault):
    if fault == "short":
        return cells[:-1]
    if fault == "long":
        return [*cells, "1.0"]
    if fault == "text":
        return [cells[0], "abc", *cells[2:]]
    if fault == "repeat":
        return [previous_year, *cells[1:]]
    if fault == "nonfinite":
        return [cells[0], "nan", *cells[2:]]
    return [*cells[:2], "share"]  # a second kind


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    series=time_series(),
    kind=st.sampled_from([None, "sales"]),
    row=st.integers(0, 39),
    fault=st.sampled_from(["short", "long", "text", "repeat", "kind", "nonfinite"]),
    noise=st.lists(st.tuples(st.integers(0, 41), st.sampled_from(["", "  ", "# note", " #x,y"]))),
)
def test_a_broken_row_is_named_by_its_line(series, kind, row, fault, noise, tmp_path_factory):
    """Comments and blank lines anywhere: the error still names the broken line."""
    series = TimeSeries(series.years, series.values, kind)
    row = min(row, len(series) - 1)
    # a repeated year or a second kind shows only from the second row on
    if fault in ("repeat", "kind") and row == 0 or fault == "kind" and kind is None:
        fault = "short"
    lines = per_row_text(series).splitlines()
    cells = lines[row + 1].split(",")
    lines[row + 1] = ",".join(break_row(cells, lines[row].split(",")[0], fault))
    broken = row + 1  # index of the broken line
    for position, extra in sorted(noise, reverse=True):
        lines.insert(position, extra)
        broken += position <= broken
    path = tmp_path_factory.getbasetemp() / "property_broken.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f":{broken + 1}: "):
        read_series_csv(path)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    grids=st.lists(time_series(), min_size=2, max_size=2),
    order=st.lists(st.integers(0, 1), min_size=1, max_size=8),
)
@example(
    grids=[
        TimeSeries(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
        TimeSeries(np.array([-0.0, 1.0]), np.array([0.5, 0.5])),
    ],
    order=[0, 1, 0, 0, 1, 1],
)
def test_series_files_are_exact_under_any_interleaving_of_two_grids(grids, order, tmp_path_factory):
    """Each write and read after any earlier one, on the same grid or the other."""
    path = tmp_path_factory.getbasetemp() / "property_interleaved.csv"
    for step, which in enumerate(order):
        grid = grids[which]
        kind = (None, "sales")[step % 2]
        series = TimeSeries(grid.years, np.roll(grid.values, step), kind)
        write_series_csv(series, path)
        assert path.read_bytes() == per_row_text(series).encode("utf-8")
        clone = read_series_csv(path)
        assert clone.years.tobytes() == series.years.tobytes()
        assert clone.values.tobytes() == series.values.tobytes()
        assert clone.kind == kind
