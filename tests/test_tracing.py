"""The benchmark's traced runs wrap program functions by name; they must all exist."""

from pathlib import Path

import pytest

from evomarket import calibration, cli, diffusion, evodyn, series, stochastic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

OWNERS = (
    calibration,
    calibration.PriceDeclineFit,
    calibration.FisherPryFit,
    cli,
    diffusion,
    evodyn,
    series,
    stochastic,
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_install_then_uninstall_restores_every_patched_attribute(tracing):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner in OWNERS
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        assert all(new[name] is value for name, value in old.items()), owner
