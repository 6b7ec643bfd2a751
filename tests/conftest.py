import numpy as np
import pytest

# Hypothesis also draws the numeric literals of every loaded non-test
# module, and the full suite loads evomarket.cli; loading it here gives a
# test file run on its own the same draws as the full suite
import evomarket.cli  # noqa: F401
from evomarket import calibration
from evomarket.market import MarketStructure


@pytest.fixture
def market():
    return MarketStructure(upper_share=0.03, minimum_price=0.05, width=0.4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lm_stops_at_three_evaluations(monkeypatch):
    """Every Levenberg–Marquardt run stops on MINPACK's evaluation limit, set to 3."""
    original = calibration.leastsq

    def limited(*args, **kwargs):
        return original(*args, **{**kwargs, "maxfev": 3})

    monkeypatch.setattr(calibration, "leastsq", limited)
