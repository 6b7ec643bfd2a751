"""The benchmark's workloads: inputs made from a seed, operations, checks.

A workload's ``ops(round_index)`` yields the operations of one round as
``(kind, run, check)``: ``run()`` calls the program and returns its
output, ``check(output)`` returns failure messages.  Every round holds
the same operations.  Program functions are looked up on their modules
at call time, so a traced run sees the wrappers in ``tracing.py``.

``reference`` names the kernel in ``reference.py`` whose work is most
like the workload's; ``run.py`` scales the workload's times by it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from evomarket import calibration, cli, diffusion, evodyn, series
from evomarket.benchmarks import BENCHMARKS, ROUND_TRIP_GOODS
from evomarket.market import MarketStructure

import checks

# Distinct rounds of calibrate inputs; a run that needs more reuses them.
POOL_ROUNDS = 32


def _seed(seed, *path):
    return np.random.SeedSequence(entropy=seed, spawn_key=path)


def _as_arrays(ts, origin):
    return ts.years - origin, ts.values


class Calibrate:
    """Two-wave fits of noisy and noiseless draws, plus the VHS share fits.

    A round: one 2%-noise draw (30 annual points) of each of the four
    round-trip goods, one noiseless draw of each of the six benchmark
    goods, and one pass over 50 noisy VHS share series.
    """

    primary = "fit"
    reference = "lm_fit"
    noise = 0.02
    points = 30
    share_draws = 50
    vhs_advantage = 0.22

    def __init__(self, seed, out):
        synth = calibration.synthesize
        self.noisy = [
            [
                (
                    BENCHMARKS[name],
                    *(
                        synth(kind, BENCHMARKS[name], self.points, self.noise,
                              _seed(seed, r, g, c))
                        for c, kind in enumerate(("nominal_price", "penetration", "sales"))
                    ),
                )
                for g, name in enumerate(ROUND_TRIP_GOODS)
            ]
            for r in range(POOL_ROUNDS)
        ]
        self.noiseless = [
            (good, *(synth(kind, good, self.points) for kind in ("nominal_price", "penetration", "sales")))
            for good in BENCHMARKS.values()
        ]
        years = 1977.0 + np.arange(12.0)
        self.shares = [
            calibration.synthesize_share(
                self.vhs_advantage, 0.0, years, self.noise, _seed(seed, 99, d),
                origin_year=1976.0,
            )
            for d in range(self.share_draws)
        ]
        self.errors = {name: [] for name in ROUND_TRIP_GOODS}

    def _fit(self, good, price, pen, sales):
        return calibration.fit_two_wave(price, pen, sales, good)

    def _check(self, good, pen, sales, noiseless, result):
        failures = checks.check_fit(
            result, good,
            _as_arrays(pen, good.intro_year), _as_arrays(sales, good.intro_year),
            noiseless,
        )
        if not noiseless and not failures:
            self.errors[good.name].append(checks.relative_errors(result, good))
        return failures

    def _share_fits(self):
        return [calibration.FisherPryFit(origin_year=1976.0).fit(s).advantage_ for s in self.shares]

    def _check_shares(self, advantages):
        return checks.check_share_fits(
            advantages, [_as_arrays(s, 1976.0) for s in self.shares], self.vhs_advantage
        )

    def ops(self, r):
        for noiseless, draws in ((False, self.noisy[r % POOL_ROUNDS]), (True, self.noiseless)):
            for good, price, pen, sales in draws:
                yield (
                    "fit",
                    functools.partial(self._fit, good, price, pen, sales),
                    functools.partial(self._check, good, pen, sales, noiseless),
                )
        yield "share", self._share_fits, self._check_shares

    def finish(self):
        return checks.check_noisy_medians(self.errors)


class Montecarlo:
    """One ``evomarket dist`` run per round, at its default sizes."""

    primary = "dist"
    reference = "vector_steps"

    def __init__(self, seed, out):
        self.seed = seed
        self.out = out / "dist"

    def _dist(self, dist_seed):
        code = cli.main(["dist", "--seed", str(dist_seed), "--out", str(self.out)])
        return code, (self.out / "dist_report.txt").read_text(encoding="utf-8")

    @staticmethod
    def _check(output):
        code, text = output
        if code != 0:
            return [f"dist exited with {code}"]
        return checks.check_dist(checks.parse_dist_report(text))

    def ops(self, r):
        # dist also uses dist_seed + 1 and + 2 for its other two simulations
        dist_seed = int(_seed(self.seed, r).generate_state(1)[0])
        yield "dist", functools.partial(self._dist, dist_seed), self._check

    def finish(self):
        return []


class Simulate:
    """``evomarket simulate`` of each of the six goods, read back from CSV.

    Every good but fax has its innovation, imitation, shape and decline
    rate scaled by a seeded factor in [0.9, 1.1].  fax keeps its table
    row on every seed: its sales past the horizon are a known fault.
    """

    primary = "simulate"
    reference = "interpreter"
    horizon = 40.0
    step = 0.01
    echoes = 3
    varied = ("innovation", "imitation", "shape", "decline_rate")

    def __init__(self, seed, out):
        rng = np.random.default_rng(_seed(seed))
        self.goods = []
        for name, good in BENCHMARKS.items():
            factors = rng.uniform(0.9, 1.1, len(self.varied))
            if name != "fax":
                good = dataclasses.replace(
                    good, **{f: getattr(good, f) * x for f, x in zip(self.varied, factors)}
                )
            directory = out / name
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "config.ini").write_text(self._config(good), encoding="utf-8")
            self.goods.append((good, directory))

    def _config(self, good):
        lines = ["[good]", f"name = {good.name}"]
        for field in dataclasses.fields(good):
            value = getattr(good, field.name)
            if field.name != "name" and value is not None:
                lines.append(f"{field.name} = {float(value)!r}")
        lines += [
            "[simulate]",
            f"horizon = {self.horizon!r}",
            f"step = {self.step!r}",
            f"echoes = {self.echoes}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _simulate(directory):
        code = cli.main(["simulate", "--config", str(directory / "config.ini"), "--out", str(directory)])
        read = series.read_series_csv
        return code, *(read(directory / f"{kind}.csv") for kind in ("penetration", "sales", "price"))

    def _check(self, good, output):
        code, *written = output
        if code != 0:
            return [f"{good.name}: simulate exited with {code}"]
        return checks.check_simulate(
            good, self.step, self.echoes, *((s.years, s.values) for s in written)
        )

    def ops(self, r):
        for good, directory in self.goods:
            yield (
                "simulate",
                functools.partial(self._simulate, directory),
                functools.partial(self._check, good),
            )

    def finish(self):
        return []


class Evolve:
    """Micro purchase cycle and replicator side by side, plus a Bass ODE run.

    A round: three seeded four-product populations, each stepped over
    tau in [0, 10] with dtau = 0.01 (1,000 steps of each model), then one
    ``bass_ode`` run of seeded Bass parameters over 20 years at step 0.01.
    Populations follow acceptance criterion 6: unit stocks and
    preferences, every price at the minimum price, and reproduction
    coefficients drawn from U(-0.02, 0.02) and centred, so the shared
    pool stays stationary to first order.
    """

    primary = "evolve"
    reference = "interpreter"
    market = MarketStructure(upper_share=0.02, minimum_price=0.05, width=0.5)
    products = 4
    populations = 3
    creation_rate = 3.0
    dtau = 0.01
    steps = 1000
    ode_horizon = 20.0
    ode_step = 0.01

    def __init__(self, seed, out):
        rng = np.random.default_rng(_seed(seed))
        self.rounds = []
        for _ in range(POOL_ROUNDS):
            pops = []
            for _ in range(self.populations):
                gammas = rng.uniform(-0.02, 0.02, self.products)
                gammas -= gammas.mean()
                pops.append(gammas)
            bass = (rng.uniform(0.001, 0.03), rng.uniform(0.8, 2.5), rng.uniform(0.01, 0.2))
            self.rounds.append((pops, bass))

    def _evolve(self, gammas):
        price = self.market.minimum_price
        micro = evodyn.Population([evodyn.Product(0.0, 1.0, price, 1.0, g) for g in gammas])
        macro = evodyn.Population(
            [evodyn.Product(1.0 / gammas.size, 1.0, price, 1.0, g) for g in gammas]
        )
        demand = evodyn.stationary_demand(micro, self.creation_rate, self.market)
        prefactor = demand.prefactor
        micro_shares = np.empty((self.steps + 1, gammas.size))
        macro_shares = np.empty_like(micro_shares)
        taus = np.empty(self.steps + 1)
        micro_shares[0] = macro_shares[0] = 1.0 / gammas.size
        taus[0] = 0.0
        for i in range(1, self.steps + 1):
            micro, demand = evodyn.micro_step(micro, demand, self.market, self.dtau)
            macro = evodyn.replicator_step(macro, prefactor, self.market, self.dtau)
            micro_shares[i] = micro.shares
            macro_shares[i] = macro.shares
            taus[i] = macro.tau
        return micro_shares, macro_shares, taus

    def _check_evolve(self, gammas, output):
        m = self.market
        # unit preferences and stocks: prefactor = creation rate / n
        prefactor = self.creation_rate / gammas.size
        volume = checks.market_volume(m.minimum_price, m.upper_share, m.minimum_price, m.width)
        return checks.check_evolve(*output, gammas * prefactor * volume)

    def _ode(self, bass):
        curve = diffusion.bass_ode(diffusion.BassParams(*bass), self.ode_horizon, self.ode_step)
        return curve.times, curve.penetration

    @staticmethod
    def _check_ode(bass, output):
        return checks.check_bass_ode(*output, *bass)

    def ops(self, r):
        pops, bass = self.rounds[r % POOL_ROUNDS]
        for gammas in pops:
            yield (
                "evolve",
                functools.partial(self._evolve, gammas),
                functools.partial(self._check_evolve, gammas),
            )
        yield "ode", functools.partial(self._ode, bass), functools.partial(self._check_ode, bass)

    def finish(self):
        return []


WORKLOADS = {
    "calibrate": Calibrate,
    "montecarlo": Montecarlo,
    "simulate": Simulate,
    "evolve": Evolve,
}
