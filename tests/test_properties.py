"""Property tests of the one-wave and price estimators over the benchmark box.

Each parameter is drawn between its smallest and largest value over the
six benchmark goods, so the tests cover the whole box the fixtures span
rather than a few hand-picked points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evomarket.benchmarks import BENCHMARKS, wave_params
from evomarket.calibration import (
    DEFAULT_STARTS,
    BassCurveFit,
    GompertzCurveFit,
    PriceDeclineFit,
    spreading_wave_model,
)
from evomarket.diffusion import (
    BassParams,
    GompertzParams,
    bass_penetration,
    gompertz_penetration,
)
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
