"""Property tests of the estimators and the replacement echoes over the benchmark box.

Each parameter is drawn between its smallest and largest value over the
six benchmark goods, so the tests cover the whole box the fixtures span
rather than a few hand-picked points.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evomarket.benchmarks import BENCHMARKS, wave_params
from evomarket.calibration import (
    DEFAULT_STARTS,
    BassCurveFit,
    GompertzCurveFit,
    PriceDeclineFit,
    spreading_wave_model,
)
from evomarket.diffusion import (
    AdoptionCurve,
    BassParams,
    GompertzParams,
    bass_penetration,
    bass_rate,
    gompertz_penetration,
)
from evomarket.lifecycle import WaveParams, replacement_sales, wave_sales
from evomarket.series import TimeSeries

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=25)


def benchmark_range(field):
    values = [getattr(good, field) for good in BENCHMARKS.values()]
    return st.floats(min(values), max(values))


bass_params = st.builds(
    BassParams,
    benchmark_range("innovation"),
    benchmark_range("imitation"),
    benchmark_range("spreading_plateau"),
)
gompertz_params = st.builds(
    GompertzParams,
    plateau=benchmark_range("evolutionary_plateau"),
    shape=benchmark_range("shape"),
    rate=benchmark_range("decline_rate"),
)
# a good without a floor ratio has a floor of zero
price_floors = st.floats(
    0.0, max(good.floor_ratio or 0.0 for good in BENCHMARKS.values())
)
# a good without a multiple-purchase rate has a rate of zero
spreading_multiples = st.floats(
    0.0, max(good.spreading_multiple or 0.0 for good in BENCHMARKS.values())
)
goods = st.sampled_from(sorted(BENCHMARKS))
seeds = st.integers(0, 2**32 - 1)

T_SPREAD = np.arange(30.0)
T_PRICE = np.arange(30.0)
# the decline clock of a good observed for 40 years, with the price
# decline setting in after up to 4 years
T_EVOLVE = np.arange(40.0) - 4.0


def assert_bass_recovered(fit, params):
    assert fit.innovation_ == pytest.approx(params.innovation, rel=1e-6)
    assert fit.imitation_ == pytest.approx(params.imitation, rel=1e-6)
    assert fit.plateau_ == pytest.approx(params.plateau, rel=1e-6)


@PROPERTY_SETTINGS
@given(params=bass_params)
def test_bass_noiseless_penetration_recovery(params):
    target = bass_penetration(T_SPREAD, params)
    fit = BassCurveFit(kind="penetration").fit(T_SPREAD, target)
    assert_bass_recovered(fit, params)


@PROPERTY_SETTINGS
@given(params=bass_params, good=goods)
def test_bass_noiseless_sales_recovery_with_repurchase(params, good):
    wave = wave_params(BENCHMARKS[good])[0]
    target = spreading_wave_model(T_SPREAD, params, wave)
    fit = BassCurveFit(kind="sales", wave=wave).fit(T_SPREAD, target)
    assert_bass_recovered(fit, params)


@PROPERTY_SETTINGS
@given(params=gompertz_params)
def test_gompertz_noiseless_recovery(params):
    target = gompertz_penetration(T_EVOLVE, params)
    fit = GompertzCurveFit(decline_rate=params.rate).fit(T_EVOLVE, target)
    assert fit.shape_ == pytest.approx(params.shape, rel=1e-6)
    assert fit.plateau_ == pytest.approx(params.plateau, rel=1e-6)


@PROPERTY_SETTINGS
@given(params=gompertz_params)
def test_gompertz_noiseless_recovery_fixed_plateau(params):
    target = gompertz_penetration(T_EVOLVE, params)
    fit = GompertzCurveFit(
        decline_rate=params.rate, fixed_plateau=params.plateau
    ).fit(T_EVOLVE, target)
    assert fit.plateau_ == params.plateau
    assert fit.shape_ == pytest.approx(params.shape, rel=1e-6)


@PROPERTY_SETTINGS
@given(
    params=bass_params,
    seed=seeds,
    order=st.permutations(range(len(DEFAULT_STARTS))),
)
def test_bass_fit_does_not_depend_on_start_order(params, seed, order):
    rng = np.random.default_rng(seed)
    target = bass_penetration(T_SPREAD, params)
    target = target * (1.0 + 0.02 * rng.standard_normal(T_SPREAD.size))
    forward = BassCurveFit(kind="penetration").fit(T_SPREAD, target)
    permuted = BassCurveFit(
        kind="penetration", starts=[DEFAULT_STARTS[i] for i in order]
    ).fit(T_SPREAD, target)
    assert permuted.sse_ == pytest.approx(forward.sse_, rel=1e-9)
    assert permuted.innovation_ == pytest.approx(forward.innovation_, rel=1e-6)
    assert permuted.imitation_ == pytest.approx(forward.imitation_, rel=1e-6)
    assert permuted.plateau_ == pytest.approx(forward.plateau_, rel=1e-6)


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
    fit = GompertzCurveFit(decline_rate=rate, plateau_bound=bound).fit(T_EVOLVE, noisy)
    assert 0.0 <= fit.plateau_ <= bound


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


def convolved_echoes(source, step, fraction, lifetime, echoes):
    """Replacement echoes as a grid convolution with a delta failure kernel."""
    lag = round(lifetime / step)
    kernel = np.zeros(lag + 1)
    kernel[lag] = 1.0
    out = np.zeros_like(source)
    echo = source
    for _ in range(echoes):
        echo = fraction * np.convolve(echo, kernel)[: source.size]
        out += echo
    return out


ECHO_STEP = 0.1


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    source=arrays(float, st.integers(1, 300), elements=st.floats(-1e6, 1e6)),
    scale=st.sampled_from([1.0, 1e-300]),
    lifetime=st.floats(1e-3, 35.0),
    fraction=st.floats(0.0, 1.0),
    echoes=st.integers(1, 5),
)
# lags of 0, of exactly the series length, and past it
@example(source=np.ones(50), scale=1.0, lifetime=0.01, fraction=0.5, echoes=5)
@example(source=np.ones(50), scale=1.0, lifetime=5.0, fraction=0.5, echoes=3)
@example(source=np.ones(50), scale=1.0, lifetime=30.0, fraction=0.5, echoes=1)
def test_replacement_sales_is_the_delta_convolution(
    source, scale, lifetime, fraction, echoes
):
    source = scale * source
    out = replacement_sales(source, ECHO_STEP, fraction, lifetime, echoes)
    expected = convolved_echoes(source, ECHO_STEP, fraction, lifetime, echoes)
    assert np.array_equal(out, expected)


@PROPERTY_SETTINGS
@given(
    params=bass_params,
    multiple=spreading_multiples,
    fraction=st.floats(0.0, 1.0),
    lifetime_cells=st.integers(20, 300),
    echoes=st.integers(1, 5),
)
def test_wave_sales_is_the_closed_form_echo_sum(
    params, multiple, fraction, lifetime_cells, echoes
):
    step = 0.05
    cells = np.arange(801)
    grid = step * cells
    curve = AdoptionCurve(grid, bass_penetration(grid, params), bass_rate(grid, params))
    out = wave_sales(curve, WaveParams(multiple, fraction, lifetime_cells * step), echoes)
    expected = curve.rate + multiple * curve.penetration
    for k in range(1, echoes + 1):
        # t - k * lifetime counted in whole cells, so it is exactly 0 where the echo starts
        lag = step * (cells - k * lifetime_cells)
        echo = np.where(lag >= 0, bass_rate(np.maximum(lag, 0.0), params), 0.0)
        expected = expected + fraction**k * echo
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(expected)
