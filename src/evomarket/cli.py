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
README); command-line flags override file values.  Exit codes: 0
success, 2 usage or bad configuration, 3 malformed input data, 4 fit
failure, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import calibration, stochastic
from ._svg import write_line_plot
from .benchmarks import BENCHMARKS, GoodParams, ROUND_TRIP_GOODS, VCR_FORMAT_CONTEST, wave_params
from .diffusion import (
    AdoptionCurve,
    BassParams,
    GompertzParams,
    bass_penetration,
    bass_rate,
    gompertz_penetration,
    gompertz_rate,
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
    parser.add_argument(
        "command", choices=("simulate", "fit", "synth", "dist", "replicate")
    )
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


def _get(config, section, option, cast, default):
    if config.has_option(section, option):
        raw = config.get(section, option)
        try:
            return cast(raw)
        except ValueError as exc:
            raise UsageError(f"[{section}] {option}: cannot parse {raw!r}") from exc
    return default


def _good_from_config(config) -> GoodParams:
    name = _get(config, "good", "benchmark", str, None)
    if name is not None:
        if name not in BENCHMARKS:
            raise UsageError(
                f"unknown benchmark {name!r}; available: {', '.join(BENCHMARKS)}"
            )
        return BENCHMARKS[name]
    required = (
        "decline_rate",
        "shape",
        "evolutionary_plateau",
        "spreading_plateau",
        "innovation",
        "imitation",
    )
    values = {}
    for key in required:
        value = _get(config, "good", key, float, None)
        if value is None:
            raise UsageError(f"[good] needs either 'benchmark' or '{key}'")
        values[key] = value
    optional = {
        "intro_year": 0.0,
        "onset_delay": 0.0,
        "floor_ratio": None,
        "spreading_replacement": None,
        "spreading_multiple": None,
        "evolutionary_replacement": None,
        "evolutionary_multiple": None,
        "spreading_lifetime": None,
        "evolutionary_lifetime": None,
        "market_potential_millions": None,
    }
    for key, default in optional.items():
        values[key] = _get(config, "good", key, float, default)
    return GoodParams(name=_get(config, "good", "name", str, "custom"), **values)


def _income_from_config(config) -> IncomeModel | None:
    mean = _get(config, "fit", "income_mean", float, None)
    if mean is None:
        return None
    return IncomeModel(
        mean_income=mean,
        growth=_get(config, "fit", "income_growth", float, 0.0),
        ref_year=_get(config, "fit", "income_ref_year", float, 0.0),
    )


def _warn(messages):
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(args, config) -> int:
    good = _good_from_config(config)
    horizon = _get(config, "simulate", "horizon", float, 30.0)
    step = _get(config, "simulate", "step", float, 0.1)
    echoes = _get(config, "simulate", "echoes", int, 1)
    spread_wave, evo_wave, warnings = wave_params(good)
    _warn(warnings)

    bass = BassParams(good.innovation, good.imitation, good.spreading_plateau)
    gomp = GompertzParams(
        plateau=good.evolutionary_plateau,
        shape=good.shape,
        rate=good.decline_rate,
    )
    grid = step * np.arange(int(round(horizon / step)) + 1)
    bass_curve = AdoptionCurve(grid, bass_penetration(grid, bass), bass_rate(grid, bass))
    evo_curve = AdoptionCurve(
        grid, gompertz_penetration(grid, gomp), gompertz_rate(grid, gomp)
    )
    spreading = wave_sales(bass_curve, spread_wave, echoes)
    evolutionary = wave_sales(evo_curve, evo_wave, echoes)
    # the evolutionary wave runs past the horizon by the onset delay; cut
    # the sales to the penetration grid
    sales = total_sales(spreading, evolutionary, step, shift=good.onset_delay)[: grid.size]
    penetration = bass_curve.penetration + gompertz_penetration(
        grid - good.onset_delay, gomp
    )
    price = np.exp(-good.decline_rate * grid) + (good.floor_ratio or 0.0)

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


def _require_series(config, option, kind) -> TimeSeries:
    path = _get(config, "fit", option, str, None)
    if path is None:
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
    field order, leaving out ``sse``, ``residuals`` and ``provenance``.
    """
    lines = ["parameter,value", f"good,{result.good or ''}"]
    lines += [
        f"{item.name},{_format_float(getattr(result, item.name))}"
        for item in dataclasses.fields(result)
        if item.name not in ("good", "sse", "residuals", "provenance")
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_fit_table(path) -> dict:
    """Parse a table written by :func:`write_fit_table`."""
    table: dict[str, object] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "parameter,value":
        raise FormatError(f"{path}: missing 'parameter,value' header")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            key, value = line.split(",", 1)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: expected 'parameter,value'") from exc
        if key == "good":
            table[key] = value or None
        else:
            table[key] = float(value) if value else None
    return table


def _cmd_fit(args, config) -> int:
    good = _good_from_config(config)
    income = _income_from_config(config)
    intro_price = _get(config, "fit", "intro_price", float, 1.0)
    price = _require_series(config, "price_series", "nominal_price")
    penetration = _require_series(config, "penetration_series", "penetration")
    sales = _require_series(config, "sales_series", "sales")

    result = calibration.fit_two_wave(
        price, penetration, sales, good, intro_price=intro_price, income=income
    )
    _warn(result.provenance.get("analyst_warnings", []))

    share_path = _get(config, "fit", "share_series", str, None)
    if share_path is not None:
        if not Path(share_path).exists():
            raise UsageError(f"[fit] share_series: file not found: {share_path}")
        share = read_series_csv(share_path)
        share_fit = calibration.FisherPryFit(origin_year=good.intro_year).fit(share)
        result = dataclasses.replace(
            result, advantage=share_fit.advantage_, intercept=share_fit.intercept_
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
        t_prime = penetration.years - good.intro_year - good.onset_delay
        model = GompertzParams(
            plateau=result.evolutionary_plateau,
            shape=result.shape,
            rate=result.decline_rate,
        )
        write_line_plot(
            out / "fit.svg",
            penetration.years,
            [
                ("observed penetration", penetration.values),
                ("evolutionary wave", gompertz_penetration(t_prime, model)),
            ],
            title=f"{result.good}: penetration fit",
            x_label="year",
        )
    print(f"fit: wrote fit_table.csv and fit_meta.txt to {out}")
    return EXIT_OK


def _cmd_synth(args, config) -> int:
    good = _good_from_config(config)
    kinds = _get(config, "synth", "kinds", str, "nominal_price,penetration,sales")
    n_points = _get(config, "synth", "points", int, 30)
    noise = _get(config, "synth", "noise", float, 0.0)
    seed = args.seed if args.seed is not None else _get(config, "synth", "seed", int, 0)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for index, kind in enumerate(k.strip() for k in kinds.split(",")):
        if kind not in SERIES_KINDS:
            raise UsageError(f"[synth] unknown series kind {kind!r}")
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


def _cmd_dist(args, config) -> int:
    seed = args.seed if args.seed is not None else _get(config, "dist", "seed", int, 7)
    n_paths = _get(config, "dist", "paths", int, 20000)
    keep = _get(config, "dist", "keep", int, 500)
    dt = _get(config, "dist", "dt", float, 1e-3)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    noise = stochastic.PriceNoiseParams(restoring=1.0, noise=1.0)
    samples = stochastic.langevin_price_ensemble(noise, dt, n_paths, keep, seed)
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

    repro = stochastic.reproduction_param_sim(
        stochastic.ReproductionSimParams(
            compensation=10.0, jump_size=0.05, amortization=100.0
        ),
        dt=0.02,
        steps=1_500_000,
        seed=seed + 2,
    )
    short_mean = float(repro.short_window_means.mean())

    lines = [
        "distribution checks",
        f"price-noise samples: {samples.size}",
        f"price-noise variance: {variance!r} (stationary {noise.stationary_variance!r})",
        f"price-noise ks distance: {ks!r}",
        f"laplace fit location/scale: {location!r} / {scale!r}",
        f"log-size skew: {skew!r}",
        f"log-size excess kurtosis: {kurt!r}",
        f"reproduction short-window mean: {short_mean!r}",
        f"reproduction long-window mean: {repro.long_window_mean!r}",
        "reproduction long-window target: "
        f"{0.05 / (100.0 * 10.0)!r}",
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


def _cmd_replicate(args, config) -> int:
    seed = (
        args.seed
        if args.seed is not None
        else _get(config, "replicate", "seed", int, 20250808)
    )
    n_seeds = _get(config, "replicate", "seeds", int, 50)
    noise = _get(config, "replicate", "noise", float, 0.02)
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
    # timings vary from run to run, so they stay out of the matrix; the
    # share contest is a closed-form regression with nothing to converge
    # and no Levenberg–Marquardt run
    meta_lines = []
    for report, elapsed in zip(reports, seconds):
        good = report["good"]
        meta_lines.append(f"seconds[{good}]: {elapsed!r}")
        meta_lines.append(f"unconverged[{good}]: {report.get('unconverged', 0)}")
        meta_lines.append(f"nfev_refined[{good}]: {report.get('nfev_refined', 0)}")
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


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "synth": _cmd_synth,
    "dist": _cmd_dist,
    "replicate": _cmd_replicate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
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
