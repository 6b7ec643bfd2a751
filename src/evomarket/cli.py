"""Command-line front door.

Usage::

    evomarket <simulate|fit|synth|dist|replicate> [--config PATH]
              [--seed N] [--out DIR] [--plot]

Commands
--------
simulate
    Sample the model curves (price, penetration, sales) of a configured
    good on a fine grid and write them as CSV (optionally SVG).
fit
    Run the full fit procedure on the series files named in the config
    and emit a parameter table plus a metadata report.
synth
    Write synthetic (optionally noisy) series for a configured good.
dist
    Run the distribution checks (price-noise stationarity, growth-rate
    accumulation, reproduction-coefficient windows) and write a report.
replicate
    Run the benchmark round-trip suite and print a pass/fail matrix;
    write the matrix and a side file with each good's seconds, count
    of unconverged fits and residual evaluations of all refined
    Levenberg–Marquardt runs.

Configuration is an INI file with one section per parameter block (see
README).  ``_COMMANDS`` declares each command's keys once, with their
types, defaults and bounds; :func:`main` checks every value of the
command's section, a seed that ``--seed`` overrides too, before any
work.  Exit codes: 0 success, 2 usage or bad configuration, 3 malformed
input data, 4 fit failure, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import calibration, stochastic
from ._svg import write_line_plot
from .benchmarks import BENCHMARKS, GoodParams, ROUND_TRIP_GOODS, VCR_FORMAT_CONTEST, wave_params
from .diffusion import (
    BassParams,
    GompertzParams,
    PriceDecline,
    bass_penetration,
    bass_rate,
    gompertz_penetration,
    gompertz_rate,
    mean_price,
)
from .errors import FitError, FormatError, NumericError
from .lifecycle import total_sales, wave_sales
from .market import IncomeModel
from .series import SERIES_KINDS, TimeSeries, read_series_csv, write_series_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_FIT = 4
EXIT_NUMERIC = 5

class UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evomarket",
        description="Simulate and calibrate the two-wave durable-goods market model.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--plot", action="store_true", help="also write SVG plots")
    return parser


def _load_config(path: Path | None) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    if path is not None:
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        config.read(path, encoding="utf-8")
    return config


def _get(config, section, option, cast, default, low=None, strict=False):
    """One config value, or ``default`` when the option is absent.

    A float that is not finite is a usage error, and so, with ``low``
    given, is a value below it (or equal to it, when ``strict``).
    """
    value = default
    if config.has_option(section, option):
        raw = config.get(section, option)
        try:
            value = cast(raw)
        except ValueError as exc:
            raise UsageError(f"[{section}] {option}: cannot parse {raw!r}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"[{section}] {option} must be finite, got {raw!r}")
    if low is not None and not (value > low if strict else value >= low):
        bound = "above" if strict else "at least"
        raise UsageError(f"[{section}] {option} must be {bound} {low}, got {value!r}")
    return value


def _check_keys(config, section, known, where="unknown"):
    """A ``[section]`` key that is neither in ``known`` nor a ``[DEFAULT]`` key is a usage error."""
    if config.has_section(section):
        for key in config[section]:
            if key not in known and key not in config.defaults():
                raise UsageError(f"[{section}] key {key!r} is {where}")


def _read_good(config) -> GoodParams:
    """The benchmark that ``[good]`` names, or the good its keys spell out.

    The keys are :class:`GoodParams`' fields; a field without a default
    is required.  A key that is neither a field nor ``benchmark``, a
    field beside ``benchmark`` and a good that fails its checks are
    usage errors.
    """
    fields = dataclasses.fields(GoodParams)
    name = _get(config, "good", "benchmark", str, None)
    if name is not None:
        _check_keys(config, "good", {"benchmark"}, "not allowed beside 'benchmark'")
        if name not in BENCHMARKS:
            raise UsageError(
                f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS)}"
            )
        return BENCHMARKS[name]
    _check_keys(config, "good", {field.name for field in fields})
    values = {"name": _get(config, "good", "name", str, "custom")}
    # every field after the name is a number
    for field in fields[1:]:
        required = field.default is dataclasses.MISSING
        value = _get(config, "good", field.name, float, None if required else field.default)
        if value is None and required:
            raise UsageError(f"[good] needs either 'benchmark' or '{field.name}'")
        values[field.name] = value
    try:
        return GoodParams(**values)
    except ValueError as exc:
        raise UsageError(f"[good] {exc}") from exc


def _warn(messages):
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args, config, settings) -> int:
    good = _read_good(config)
    step, echoes = settings["step"], settings["echoes"]
    n_steps = int(round(settings["horizon"] / step))
    if n_steps < 1:
        raise UsageError("[simulate] horizon must cover at least one step")
    spread_wave, evo_wave, warnings = wave_params(good)
    _warn(warnings)

    grid = step * np.arange(n_steps + 1)
    bass = BassParams(good.innovation, good.imitation, good.spreading_plateau)
    gomp = GompertzParams(good.evolutionary_plateau, good.shape, good.decline_rate)
    # the evolutionary wave starts at the onset delay
    evo_grid = grid - good.onset_delay
    spread_pen = bass_penetration(grid, bass)
    evo_pen = gompertz_penetration(evo_grid, gomp)
    # the calls and the lambdas look the closed forms up in this module at
    # call time, where the benchmark's tracer wraps them
    spreading = wave_sales(
        grid, spread_pen, lambda t: bass_rate(t, bass), spread_wave, echoes
    )
    evolutionary = wave_sales(
        evo_grid, evo_pen, lambda t: gompertz_rate(t, gomp), evo_wave, echoes
    )
    sales = total_sales(spreading, evolutionary)
    penetration = spread_pen + evo_pen
    decline = PriceDecline(1.0, good.floor_ratio or 0.0, good.decline_rate)
    price = mean_price(grid, decline)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(
        TimeSeries(good.intro_year + grid, np.clip(penetration, 0.0, 1.0), "penetration"),
        out / "penetration.csv",
    )
    write_series_csv(TimeSeries(good.intro_year + grid, sales, "sales"), out / "sales.csv")
    write_series_csv(
        TimeSeries(good.intro_year + good.onset_delay + grid, price, "nominal_price"),
        out / "price.csv",
    )
    if args.plot:
        write_line_plot(
            out / "simulate.svg",
            good.intro_year + grid,
            [
                ("penetration", np.clip(penetration, 0.0, 1.0)),
                ("sales", sales),
            ],
            title=f"{good.name}: simulated curves",
            x_label="year",
        )
    print(f"simulate: wrote penetration.csv, sales.csv, price.csv to {out}")
    return EXIT_OK


def _fit_series(settings, option, kind, required=True) -> TimeSeries | None:
    path = settings[option]
    if path is None:
        if not required:
            return None
        raise UsageError(f"[fit] {option} is required")
    if not Path(path).exists():
        raise UsageError(f"[fit] {option}: file not found: {path}")
    series = read_series_csv(path)
    if series.kind is not None and series.kind != kind:
        raise FormatError(f"{path}: expected kind {kind!r}, got {series.kind!r}")
    return series


def _format_float(value) -> str:
    return "" if value is None else repr(float(value))


def write_fit_table(result: calibration.FitResult, path: Path) -> None:
    """Write a fit result as a ``parameter,value`` CSV table.

    One row per field of :class:`~evomarket.calibration.FitResult`, in
    field order, leaving out ``sse`` and ``provenance``.
    """
    lines = ["parameter,value", f"good,{result.good or ''}"]
    lines += [
        f"{item.name},{_format_float(getattr(result, item.name))}"
        for item in dataclasses.fields(result)
        if item.name not in ("good", "sse", "provenance")
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_fit(args, config, settings) -> int:
    good = _read_good(config)
    income = None
    if settings["income_mean"] is not None:
        try:
            income = IncomeModel(
                settings["income_mean"], settings["income_growth"], settings["income_ref_year"]
            )
        except ValueError as exc:
            raise UsageError(f"[fit] income_mean or income_growth: {exc}") from exc
    price = _fit_series(settings, "price_series", "nominal_price")
    penetration = _fit_series(settings, "penetration_series", "penetration")
    sales = _fit_series(settings, "sales_series", "sales")
    share = _fit_series(settings, "share_series", "share", required=False)

    result = calibration.fit_two_wave(
        price, penetration, sales, good, intro_price=settings["intro_price"], income=income
    )
    _warn(result.provenance.get("analyst_warnings", []))

    if share is not None:
        share_fit = calibration.FisherPryFit(origin_year=good.intro_year).fit(share)
        result = dataclasses.replace(
            result,
            advantage=share_fit.advantage_,
            intercept=share_fit.intercept_,
            sse={**result.sse, "share": share_fit.sse_},
        )

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_fit_table(result, out / "fit_table.csv")
    meta_lines = [f"good: {result.good}"]
    for stage, sse in result.sse.items():
        meta_lines.append(f"sse[{stage}]: {sse!r}")
    for key, value in result.provenance.items():
        meta_lines.append(f"{key}: {value}")
    (out / "fit_meta.txt").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")
    if args.plot:
        # the fitted plateau may be 0, which GompertzParams rejects, so
        # scale the unit-plateau curve by it
        t_prime = penetration.years - good.intro_year - good.onset_delay
        unit = GompertzParams(plateau=1.0, shape=result.shape, rate=result.decline_rate)
        evolutionary = result.evolutionary_plateau * gompertz_penetration(t_prime, unit)
        write_line_plot(
            out / "fit.svg",
            penetration.years,
            [
                ("observed penetration", penetration.values),
                ("evolutionary wave", evolutionary),
            ],
            title=f"{result.good}: penetration fit",
            x_label="year",
        )
    print(f"fit: wrote fit_table.csv and fit_meta.txt to {out}")
    return EXIT_OK


def _cmd_synth(args, config, settings) -> int:
    good = _read_good(config)
    n_points, noise, seed = settings["points"], settings["noise"], settings["seed"]
    kinds = [k.strip() for k in settings["kinds"].split(",")]
    for index, kind in enumerate(kinds):
        if kind not in SERIES_KINDS:
            raise UsageError(f"[synth] kinds: unknown series kind {kind!r}")
        if kind in kinds[:index]:
            raise UsageError(f"[synth] kinds: series kind {kind!r} is repeated")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for index, kind in enumerate(kinds):
        if kind == "share":
            series = calibration.synthesize_share(
                VCR_FORMAT_CONTEST["advantage"],
                VCR_FORMAT_CONTEST["intercept"],
                good.intro_year + 1.0 + np.arange(float(n_points)),
                noise,
                np.random.SeedSequence(entropy=seed, spawn_key=(index,)),
                origin_year=good.intro_year,
            )
        else:
            series = calibration.synthesize(
                kind,
                good,
                n_points,
                noise,
                np.random.SeedSequence(entropy=seed, spawn_key=(index,)),
            )
        write_series_csv(series, out / f"{kind}.csv")
        written.append(f"{kind}.csv")
    print(f"synth: wrote {', '.join(written)} to {out}")
    return EXIT_OK


def _cmd_dist(args, config, settings) -> int:
    seed, n_paths = settings["seed"], settings["paths"]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    noise = stochastic.PriceNoiseParams(restoring=1.0, noise=1.0)
    samples = stochastic.langevin_price_ensemble(noise, 0.5, n_paths, seed)
    ks = stochastic.ks_statistic(
        samples, lambda x: stochastic.laplace_cdf(x, noise.restoring, noise.noise)
    )
    variance = float(samples.var())
    location, scale = stochastic.laplace_fit(samples)

    sizes = stochastic.multiplicative_growth_sim(
        10_000, 100, lambda rng, size: rng.laplace(0.0, 1.0, size), seed + 1
    )
    logs = np.log(sizes)
    centered = logs - logs.mean()
    m2 = float((centered**2).mean())
    skew = float((centered**3).mean() / m2**1.5)
    kurt = float((centered**4).mean() / m2**2 - 3.0)

    repro_params = stochastic.ReproductionSimParams(
        compensation=10.0, jump_size=0.05, amortization=100.0
    )
    repro = stochastic.reproduction_param_sim(
        repro_params, dt=0.02, steps=1_500_000, seed=seed + 2
    )
    long_target = repro_params.jump_size / (
        repro_params.amortization * repro_params.compensation
    )
    short_mean = float(repro.short_window_means.mean())

    lines = [
        "distribution checks",
        f"price-noise samples: {samples.size}",
        f"price-noise variance: {variance!r} (stationary {noise.stationary_variance!r})",
        f"price-noise ks distance: {ks!r}",
        f"price-noise ks band at 1% false alarm: {1.628 / math.sqrt(n_paths)!r}",
        f"laplace fit location/scale: {location!r} / {scale!r}",
        f"log-size skew: {skew!r}",
        f"log-size excess kurtosis: {kurt!r}",
        f"reproduction short-window mean: {short_mean!r}",
        f"reproduction long-window mean: {repro.long_window_mean!r}",
        f"reproduction long-window target: {long_target!r}",
        "reproduction long-window standard error: "
        f"{repro.long_window_standard_error!r}",
    ]
    (out / "dist_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.plot:
        hist, edges = np.histogram(samples, bins=200, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        write_line_plot(
            out / "dist.svg",
            centers,
            [
                ("empirical", hist),
                ("stationary law", stochastic.laplace_pdf(centers, 1.0, 1.0)),
            ],
            title="price deviation distribution",
            x_label="deviation",
            y_label="density",
        )
    print(f"dist: wrote dist_report.txt to {out}")
    return EXIT_OK


def _cmd_replicate(args, config, settings) -> int:
    seed, n_seeds, noise = settings["seed"], settings["seeds"], settings["noise"]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    suites = [
        functools.partial(
            calibration.round_trip,
            BENCHMARKS[name],
            good_index=index,
            n_seeds=n_seeds,
            noise=noise,
            master_seed=seed,
        )
        for index, name in enumerate(ROUND_TRIP_GOODS)
    ]
    suites.append(
        functools.partial(
            calibration.vhs_round_trip,
            VCR_FORMAT_CONTEST["advantage"],
            VCR_FORMAT_CONTEST["intercept"],
            n_seeds=n_seeds,
            noise=noise,
            master_seed=seed,
        )
    )
    reports, seconds = [], []
    for suite in suites:
        start = time.perf_counter()
        reports.append(suite())
        seconds.append(time.perf_counter() - start)

    fields = list(calibration.ROUND_TRIP_TOLERANCES) + ["advantage"]
    lines = ["good," + ",".join(f"{f}_err,{f}_ok" for f in fields)]
    all_ok = True
    for report in reports:
        cells = [report["good"]]
        for field in fields:
            if field in report["medians"]:
                ok = report["passed"][field]
                all_ok &= ok
                cells.append(repr(report["medians"][field]))
                cells.append("pass" if ok else "FAIL")
            else:
                cells.extend(["", ""])
        lines.append(",".join(cells))
    (out / "replicate_matrix.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # timings vary from run to run, so they stay out of the matrix
    meta_lines = []
    for report, elapsed in zip(reports, seconds):
        good = report["good"]
        meta_lines.append(f"seconds[{good}]: {elapsed!r}")
        meta_lines.append(f"unconverged[{good}]: {report['unconverged']}")
        meta_lines.append(f"nfev_refined[{good}]: {report['nfev_refined']}")
    (out / "replicate_meta.txt").write_text("\n".join(meta_lines) + "\n", encoding="utf-8")

    print(f"round-trip suite: {n_seeds} seeds, {noise:.0%} noise")
    for report in reports:
        status = " ".join(
            f"{name}={'pass' if ok else 'FAIL'}" for name, ok in report["passed"].items()
        )
        print(f"  {report['good']:12s} {status}")
    print(f"replicate: wrote replicate_matrix.csv and replicate_meta.txt to {out}")
    if not all_ok:
        print("replicate: at least one round trip missed its tolerance", file=sys.stderr)
        return EXIT_FIT
    return EXIT_OK


# each command and the keys it reads from its own section ([good]'s:
# _read_good), each with the (type, default[, lowest[, lowest excluded]])
# that _get takes
_COMMANDS = {
    "simulate": (
        _cmd_simulate,
        {"horizon": (float, 30.0), "step": (float, 0.1, 0.0, True), "echoes": (int, 1, 1)},
    ),
    "fit": (
        _cmd_fit,
        {
            "income_mean": (float, None),
            "income_growth": (float, 0.0),
            "income_ref_year": (float, 0.0),
            "intro_price": (float, 1.0, 0.0, True),
            "price_series": (str, None),
            "penetration_series": (str, None),
            "sales_series": (str, None),
            "share_series": (str, None),
        },
    ),
    "synth": (
        _cmd_synth,
        {
            "kinds": (str, "nominal_price,penetration,sales"),
            "points": (int, 30, 2),
            "noise": (float, 0.0, 0.0),
            "seed": (int, 0, 0),
        },
    ),
    "dist": (_cmd_dist, {"seed": (int, 7, 0), "paths": (int, 200_000, 2)}),
    "replicate": (
        _cmd_replicate,
        {"seed": (int, 20250808, 0), "seeds": (int, 50, 1), "noise": (float, 0.02, 0.0)},
    ),
}
# every key some section of some command reads, the keys a [DEFAULT] key may be
_READ_KEYS = {"benchmark", *(field.name for field in dataclasses.fields(GoodParams))}.union(
    *(keys for _, keys in _COMMANDS.values())
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        config = _load_config(args.config)
        command, table = _COMMANDS[args.command]
        _check_keys(config, args.command, table)
        for key in config.defaults():
            if key not in _READ_KEYS:
                raise UsageError(f"[DEFAULT] key {key!r} is read by no command")
        settings = {key: _get(config, args.command, key, *spec) for key, spec in table.items()}
        if args.seed is not None and "seed" in settings:
            settings["seed"] = args.seed
        return command(args, config, settings)
    except UsageError as exc:
        print(f"evomarket: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"evomarket: format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except FitError as exc:
        print(f"evomarket: fit failed: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (NumericError, ValueError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"evomarket: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
