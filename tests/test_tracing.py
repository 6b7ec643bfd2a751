"""The benchmark's traced runs wrap program functions by name; they must all exist."""

from pathlib import Path

import pytest

from evomarket import calibration, cli, diffusion, evodyn, series, stochastic
from evomarket.market import MarketStructure

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


def test_evodyn_steps_reach_the_wrapped_step_layers(tracing):
    # the steps must call market_volume and rk4_step through evodyn's
    # namespace, or market.volume_calls and integrate.rk4_steps read 0
    market = MarketStructure(upper_share=0.02, minimum_price=0.05, width=0.5)
    pop = evodyn.Population(
        [evodyn.Product(0.5, 1.0, 0.3, 1.0, g) for g in (0.02, -0.02)]
    )
    demand = evodyn.stationary_demand(pop, 3.0, market)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        with tracer.op("evolve"):
            evodyn.micro_step(pop, demand, market, 0.01)
            evodyn.replicator_step(pop, demand.prefactor, market, 0.01)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, {"evolve": 1})
    assert metrics["evodyn.steps"]["value"] == 2
    assert metrics["integrate.rk4_steps"]["value"] == 1  # the micro step; the replicator is exact
    # one per micro stage, and one for the replicator's fitnesses
    assert metrics["market.volume_calls"]["value"] == 4 + 1


def test_replicator_steps_reuse_the_growth_factor(tracing):
    # fitnesses are computed again only when prefactor, market or dtau change
    market = MarketStructure(upper_share=0.02, minimum_price=0.05, width=0.5)
    pop = evodyn.Population(
        [evodyn.Product(0.5, 1.0, 0.3, 1.0, g) for g in (0.02, -0.02)]
    )
    tracer = tracing.Tracer()

    def volume_calls():
        return tracing.layer_metrics(tracer, {"evolve": 1})["market.volume_calls"]["value"]

    try:
        tracing.install(tracer)
        with tracer.op("evolve"):
            pop = evodyn.replicator_step(pop, 1.0, market, 0.01)
            pop = evodyn.replicator_step(pop, 1.0, market, 0.01)
        assert volume_calls() == 1
        with tracer.op("evolve"):
            evodyn.replicator_step(pop, 1.0, market, 0.02)
        assert volume_calls() == 2
    finally:
        tracer.uninstall()


def test_simulate_files_reach_the_wrapped_series_layers(tracing, tmp_path):
    # simulate must write through cli's write_series_csv and the reads go
    # through series.read_series_csv, or the series metrics read 0
    config = tmp_path / "run.ini"
    config.write_text(
        "[good]\nbenchmark = bw_tv\n[simulate]\nhorizon = 20\nstep = 0.1\n", encoding="utf-8"
    )
    grid = 201
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        with tracer.op("simulate"):
            assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
            lengths = [
                len(series.read_series_csv(tmp_path / f"{name}.csv"))
                for name in ("penetration", "sales", "price")
            ]
    finally:
        tracer.uninstall()
    assert lengths == [grid] * 3
    for name in ("series.write", "series.read"):
        assert sum(span[0] == name for span in tracer.spans) == 3
        total = tracer.totals[("simulate", name)]
        assert total["calls"] == 3
        assert total["rows"] == 3 * grid
    metrics = tracing.layer_metrics(tracer, {"simulate": 1})
    assert metrics["series.rows"]["value"] == 6 * grid


def test_simulate_reaches_the_wrapped_lifecycle_and_closed_form_layers(tracing, tmp_path):
    # simulate must call wave_sales, total_sales and the closed forms
    # through cli's namespace, or the lifecycle and diffusion metrics read 0
    config = tmp_path / "run.ini"
    config.write_text(
        "[good]\nbenchmark = bw_tv\n[simulate]\nhorizon = 20\nstep = 0.1\nechoes = 3\n",
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        with tracer.op("simulate"):
            assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert sum(span[0] == "lifecycle.wave_sales" for span in tracer.spans) == 2
    assert sum(span[0] == "lifecycle.total_sales" for span in tracer.spans) == 1
    assert tracer.totals[("simulate", "diffusion.closed_form")]["calls"] > 0
