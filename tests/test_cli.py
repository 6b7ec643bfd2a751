import configparser
import csv
import dataclasses

import numpy as np
import pytest

from evomarket import calibration
from evomarket.benchmarks import BENCHMARKS, ROUND_TRIP_GOODS, VCR_FORMAT_CONTEST
from evomarket.calibration import FisherPryFit, TWO_WAVE_STARTS, synthesize
from evomarket.cli import (
    EXIT_FIT,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_USAGE,
    _read_good,
    main,
    write_fit_table,
)
from evomarket.calibration import FitResult
from evomarket.diffusion import BassParams, bass_penetration, bass_rate
from evomarket.series import TimeSeries, read_series_csv, write_series_csv


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def fit_table(path):
    """The rows of a fit table below its header, as written: values are strings."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["parameter", "value"]
    return dict(rows)


# a custom good with bw_tv's diffusion parameters and no repurchase rows
CUSTOM_GOOD = {
    "decline_rate": "0.2",
    "shape": "8.5",
    "evolutionary_plateau": "0.77",
    "spreading_plateau": "0.18",
    "innovation": "0.02",
    "imitation": "2.5",
}


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("explode") == EXIT_USAGE

    def test_missing_config_file(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "nope.ini")) == EXIT_USAGE

    def test_unknown_benchmark(self, tmp_path):
        cfg = write_config(tmp_path, "[good]\nbenchmark = hoverboard\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE

    def test_missing_required_series(self, tmp_path):
        cfg = write_config(tmp_path, "[good]\nbenchmark = colour_tv\n")
        assert run("fit", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command, good, setting",
        [
            ("simulate", "bw_tv", "[simulate]\nstep = 0"),
            ("simulate", "bw_tv", "[simulate]\nstep = -0.1"),
            ("simulate", "bw_tv", "[simulate]\nstep = abc"),
            ("simulate", "bw_tv", "[simulate]\nhorizon = 0"),
            ("simulate", "bw_tv", "[simulate]\nhorizon = inf"),
            ("simulate", "bw_tv", "[simulate]\nechoes = 0"),
            ("simulate", "colour_tv", "[simulate]\nechoes = 0"),
            ("dist", "bw_tv", "[dist]\npaths = 0"),
            ("dist", "bw_tv", "[dist]\npaths = 1"),
            ("synth", "bw_tv", "[synth]\npoints = 1"),
            ("synth", "bw_tv", "[synth]\nnoise = -0.1"),
            ("synth", "bw_tv", "[synth]\nkinds = penetration,volume"),
            ("synth", "bw_tv", "[synth]\nkinds = sales, sales"),
            ("replicate", "bw_tv", "[replicate]\nseeds = 0"),
            ("replicate", "bw_tv", "[replicate]\nnoise = -0.02"),
            ("simulate", "custom", "[good]\nshape = -2"),
            ("simulate", "custom", "[good]\nonset_delay = -1"),
            ("simulate", "custom", "[good]\nspreading_replacement = 0.3"),
            ("synth", "custom", "[good]\nevolutionary_plateau = 0"),
            ("simulate", "custom", "[good]\nevolutionary_plateau = 0.9"),
            ("simulate", "custom", "[good]\nfloor_ratio = -0.5"),
            ("synth", "custom", "[good]\nfloor_ratio = 1"),
            ("simulate", "custom", "[good]\nspreading_multple = 0.06"),
            ("simulate", "bw_tv", "[good]\nspreading_multple = 0.06"),
            ("simulate", "bw_tv", "[good]\nshape = 3"),
            ("simulate", "bw_tv", "[good]\nname = widget"),
            ("synth", "bw_tv", "[synth]\nseed = -1"),
            ("dist", "bw_tv", "[dist]\nseed = -1"),
            ("replicate", "bw_tv", "[replicate]\nseed = -1"),
            ("fit", "bw_tv", "[fit]\nintro_price = 0"),
            ("fit", "bw_tv", "[fit]\nprice_series = no_such_dir/price.csv"),
            ("fit", "bw_tv", "[fit]\nincome_mean = 0"),
            ("fit", "bw_tv", "[fit]\nincome_growth = -1\nincome_mean = 100"),
            # checked though no income_mean asks for an income model
            ("fit", "bw_tv", "[fit]\nincome_growth = abc"),
            # a key the command does not read, a typo or a retired setting
            ("simulate", "bw_tv", "[simulate]\nechos = 3"),
            ("fit", "bw_tv", "[fit]\nincome_men = 100"),
            ("synth", "bw_tv", "[synth]\npoint = 10"),
            ("dist", "bw_tv", "[dist]\npath = 2000"),
            ("replicate", "bw_tv", "[replicate]\nseed_count = 3"),
            ("dist", "bw_tv", "[dist]\nkeep = 0"),
            ("dist", "bw_tv", "[dist]\ndt = -1"),
            ("dist", "bw_tv", "[dist]\ndt = nan"),
        ],
    )
    def test_bad_config_value(self, tmp_path, capsys, command, good, setting):
        # read one after the other, the setting's [good] options join the good's
        config = configparser.ConfigParser()
        config.read_dict({"good": CUSTOM_GOOD if good == "custom" else {"benchmark": good}})
        config.read_string(setting)
        cfg = tmp_path / "run.ini"
        with cfg.open("w", encoding="utf-8") as handle:
            config.write(handle)
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--out", str(out)) == EXIT_USAGE
        option = setting.split("\n")[1].split(" =")[0]
        assert option in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", list(CUSTOM_GOOD))
    def test_custom_good_without_a_required_key(self, tmp_path, capsys, key):
        lines = [f"{k} = {v}\n" for k, v in CUSTOM_GOOD.items() if k != key]
        cfg = write_config(tmp_path, "[good]\n" + "".join(lines))
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_USAGE
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_default_section_keys_are_not_good_keys(self, tmp_path):
        cfg = write_config(tmp_path, "[DEFAULT]\nseed = 3\n[good]\nbenchmark = bw_tv\n")
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_OK

    def test_only_the_sections_a_command_reads_are_checked(self, tmp_path):
        # synth reads [good] and [synth]; a [DEFAULT] key shows in both
        cfg = write_config(
            tmp_path,
            "[DEFAULT]\nhorizon = 3\n[good]\nbenchmark = bw_tv\n[synth]\npoints = 5\n"
            "[fit]\nprice_series = price.csv\n[dist]\nkeep = 2\n",
        )
        assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_OK

    @pytest.mark.parametrize("command", ["simulate", "synth", "dist"])
    def test_a_default_key_no_command_reads_is_rejected(self, tmp_path, capsys, command):
        # every section inherits [DEFAULT], so the section checks pass it by
        cfg = write_config(tmp_path, "[DEFAULT]\nechos = 3\n[good]\nbenchmark = bw_tv\n")
        out = tmp_path / "out"
        assert run(command, "--config", str(cfg), "--out", str(out)) == EXIT_USAGE
        assert "'echos'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, seed, setting",
        [
            ("synth", "-1", ""),
            ("dist", "-1", ""),
            ("replicate", "-1", ""),
            # a seed in the file is checked though --seed overrides it
            ("synth", "3", "[synth]\nseed = abc\n"),
            ("dist", "3", "[dist]\nseed = -4\n"),
            ("replicate", "3", "[replicate]\nseed = -1\n"),
        ],
        ids=["synth", "dist", "replicate", "synth-file", "dist-file", "replicate-file"],
    )
    def test_negative_seed_flag(self, tmp_path, capsys, command, seed, setting):
        cfg = write_config(tmp_path, "[good]\nbenchmark = bw_tv\n" + setting)
        out = tmp_path / "out"
        code = run(command, "--config", str(cfg), "--seed", seed, "--out", str(out))
        assert code == EXIT_USAGE
        assert (f"[{command}] seed" if setting else "--seed") in capsys.readouterr().err
        assert not out.exists()


class TestReadGood:
    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_benchmark_spelt_out_reads_back_equal(self, name):
        good = BENCHMARKS[name]
        config = configparser.ConfigParser()
        config.read_dict(
            {
                "good": {
                    field.name: str(getattr(good, field.name))
                    for field in dataclasses.fields(good)
                    if getattr(good, field.name) is not None
                }
            }
        )
        assert _read_good(config) == good


class TestSimulate:
    def test_writes_series_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[good]\nbenchmark = bw_tv\n[simulate]\nhorizon = 25\nstep = 0.1\nechoes = 2\n",
        )
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        for name in ("penetration.csv", "sales.csv", "price.csv"):
            series = read_series_csv(out / name)
            assert len(series) > 100

    def test_plot_flag_writes_svg(self, tmp_path):
        cfg = write_config(tmp_path, "[good]\nbenchmark = colour_tv\n")
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out), "--plot") == EXIT_OK
        svg = (out / "simulate.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg

    def test_sales_end_at_the_horizon(self, tmp_path):
        # fax's price decline sets in 4 years after introduction; its
        # sales must still stop where the penetration grid does
        cfg = write_config(tmp_path, "[good]\nbenchmark = fax\n[simulate]\nhorizon = 20\n")
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        sales = read_series_csv(out / "sales.csv")
        penetration = read_series_csv(out / "penetration.csv")
        assert np.array_equal(sales.years, penetration.years)

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(
                "bw_tv",
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="the fit's one-echo model keeps bw_tv's evolutionary echo "
                    "before the introduction (the FOUND line on "
                    "calibration.evolutionary_wave_model's uncut echo in CHANGES.md); "
                    "simulate cuts it, 1.27e-3 of the peak apart at year 10",
                ),
            ),
            *(name for name in BENCHMARKS if name != "bw_tv"),
        ],
    )
    # at step 0.2 colour_tv's 0.5-year onset falls between grid cells
    @pytest.mark.parametrize("step", [0.1, 0.2])
    def test_sales_at_the_integer_years_are_the_fits_model(self, tmp_path, name, step):
        # simulate's echo sum with one echo against the model that
        # synthesize samples and fit_two_wave fits
        cfg = write_config(
            tmp_path,
            f"[good]\nbenchmark = {name}\n[simulate]\nhorizon = 30\nstep = {step}\n",
        )
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        cells = round(1 / step)
        simulated = read_series_csv(out / "sales.csv").values[: 30 * cells : cells]
        expected = synthesize("sales", BENCHMARKS[name], 30).values
        assert np.max(np.abs(simulated - expected)) <= 1e-9 * np.max(expected)

    def test_zero_decline_rate_freezes_the_price(self, tmp_path):
        good = {**CUSTOM_GOOD, "decline_rate": "0", "floor_ratio": "0.2"}
        lines = "".join(f"{key} = {value}\n" for key, value in good.items())
        cfg = write_config(tmp_path, "[good]\n" + lines)
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        assert np.all(read_series_csv(out / "price.csv").values == 1.0 + 0.2)

    def test_does_not_mutate_inputs(self, tmp_path):
        cfg = write_config(tmp_path, "[good]\nbenchmark = colour_tv\n")
        before = cfg.read_bytes()
        run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert cfg.read_bytes() == before


def assert_same_csv_files(out_a, out_b, names):
    assert sorted(path.name for path in out_a.glob("*.csv")) == sorted(names)
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestByteIdenticalSeries:
    def test_simulate_twice(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[good]\nbenchmark = fax\n[simulate]\nhorizon = 25\nstep = 0.05\nechoes = 2\n",
        )
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        assert_same_csv_files(*outs, ["penetration.csv", "sales.csv", "price.csv"])

    def test_synth_twice_with_one_noise_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[good]\nbenchmark = vcr\n[synth]\nnoise = 0.02\n"
            "kinds = nominal_price,penetration,sales,share\n",
        )
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = run("synth", "--config", str(cfg), "--seed", "11", "--out", str(out))
            assert code == EXIT_OK
        kinds = ("nominal_price", "penetration", "sales", "share")
        assert_same_csv_files(*outs, [f"{kind}.csv" for kind in kinds])


class TestSynthAndFit:
    def fit_config(self, tmp_path, data_dir, benchmark="colour_tv"):
        return write_config(
            tmp_path,
            f"""
[good]
benchmark = {benchmark}
[fit]
price_series = {data_dir}/nominal_price.csv
penetration_series = {data_dir}/penetration.csv
sales_series = {data_dir}/sales.csv
""",
            name="fit.ini",
        )

    def test_synth_then_fit_round_trip(self, tmp_path):
        data = tmp_path / "data"
        synth_cfg = write_config(
            tmp_path, "[good]\nbenchmark = colour_tv\n[synth]\nnoise = 0\n"
        )
        assert run("synth", "--config", str(synth_cfg), "--out", str(data)) == EXIT_OK
        fit_cfg = self.fit_config(tmp_path, data)
        out = tmp_path / "fitted"
        assert run("fit", "--config", str(fit_cfg), "--out", str(out)) == EXIT_OK
        table = fit_table(out / "fit_table.csv")
        good = BENCHMARKS["colour_tv"]
        assert float(table["decline_rate"]) == pytest.approx(good.decline_rate, rel=1e-3)
        assert float(table["shape"]) == pytest.approx(good.shape, rel=1e-3)
        assert float(table["spreading_plateau"]) == pytest.approx(
            good.spreading_plateau, rel=1e-3
        )
        meta = (out / "fit_meta.txt").read_text(encoding="utf-8")
        assert "converged: True" in meta
        assert "nfev: " in meta
        assert "njev: " in meta
        assert "price_rate_identified: True" in meta
        assert f"starts_screened: {len(TWO_WAVE_STARTS)}" in meta
        # noiseless, so the first run reproduces the data to rounding and ends the refine
        assert "starts_refined: 1" in meta
        assert "nfev_refined: " in meta
        assert "nfev_refined" not in (out / "fit_table.csv").read_text(encoding="utf-8")

    def test_fit_plot_flag_writes_svg(self, tmp_path):
        data = tmp_path / "data"
        synth_cfg = write_config(
            tmp_path, "[good]\nbenchmark = colour_tv\n[synth]\nnoise = 0\n"
        )
        assert run("synth", "--config", str(synth_cfg), "--out", str(data)) == EXIT_OK
        fit_cfg = self.fit_config(tmp_path, data)
        out = tmp_path / "fitted"
        assert run("fit", "--config", str(fit_cfg), "--out", str(out), "--plot") == EXIT_OK
        svg = (out / "fit.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg

    def test_fit_plot_flag_with_a_zero_fitted_plateau(self, tmp_path, monkeypatch):
        # a pure spreading wave: the fit puts the evolutionary plateau at
        # its lower bound 0, where GompertzParams cannot hold it; with every
        # screened start refined, since the first exact run ends at 6.4e-17
        monkeypatch.setattr(calibration, "_ROUNDING_FLOOR", 0.0)
        vcr = BENCHMARKS["vcr"]
        data = tmp_path / "data"
        data.mkdir()
        write_series_csv(synthesize("nominal_price", vcr), data / "nominal_price.csv")
        t = np.arange(30.0)
        wave = BassParams(innovation=0.01, imitation=1.0, plateau=0.5)
        penetration = bass_penetration(t, wave)
        write_series_csv(
            TimeSeries(vcr.intro_year + t, penetration, "penetration"),
            data / "penetration.csv",
        )
        write_series_csv(
            TimeSeries(vcr.intro_year + t, bass_rate(t, wave) + 0.3 * penetration, "sales"),
            data / "sales.csv",
        )
        fit_cfg = self.fit_config(tmp_path, data, benchmark="vcr")
        out = tmp_path / "fitted"
        assert run("fit", "--config", str(fit_cfg), "--out", str(out), "--plot") == EXIT_OK
        assert float(fit_table(out / "fit_table.csv")["evolutionary_plateau"]) == 0.0
        svg = (out / "fit.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg

    def test_synth_share_near_saturation_is_not_clipped(self, tmp_path):
        # vcr's share passes 0.998 within 30 years; noise on the share
        # itself, not on its logit, clipped 7 of these values to 1 - 1e-6
        # and biased the fitted advantage to 0.435
        cfg = write_config(
            tmp_path,
            "[good]\nbenchmark = vcr\n[synth]\nkinds = share\npoints = 30\nnoise = 0.02\n",
        )
        out = tmp_path / "out"
        assert run("synth", "--config", str(cfg), "--seed", "0", "--out", str(out)) == EXIT_OK
        share = read_series_csv(out / "share.csv")
        assert np.all(share.values < 1.0 - 1e-6)
        fit = FisherPryFit(origin_year=BENCHMARKS["vcr"].intro_year).fit(share)
        assert fit.advantage_ == pytest.approx(VCR_FORMAT_CONTEST["advantage"], rel=0.01)

    def synth_with_share(self, tmp_path):
        data = tmp_path / "data"
        cfg = write_config(
            tmp_path,
            "[good]\nbenchmark = colour_tv\n[synth]\n"
            "kinds = nominal_price,penetration,sales,share\nnoise = 0\n",
            name="synth.ini",
        )
        assert run("synth", "--config", str(cfg), "--out", str(data)) == EXIT_OK
        return data

    def test_share_series_of_another_kind_is_format_error(self, tmp_path, capsys):
        data = self.synth_with_share(tmp_path)
        cfg = self.fit_config(tmp_path, data)
        with cfg.open("a", encoding="utf-8") as handle:
            handle.write(f"share_series = {data}/penetration.csv\n")
        out = tmp_path / "fitted"
        assert run("fit", "--config", str(cfg), "--out", str(out)) == EXIT_FORMAT
        assert "expected kind 'share', got 'penetration'" in capsys.readouterr().err
        assert not out.exists()

    def test_share_of_exactly_one_is_format_error(self, tmp_path, capsys):
        data = self.synth_with_share(tmp_path)
        share = read_series_csv(data / "share.csv")
        values = share.values.copy()
        values[[4, 9]] = 1.0
        write_series_csv(TimeSeries(share.years, values, "share"), data / "share.csv")
        cfg = self.fit_config(tmp_path, data)
        with cfg.open("a", encoding="utf-8") as handle:
            handle.write(f"share_series = {data}/share.csv\n")
        out = tmp_path / "fitted"
        assert run("fit", "--config", str(cfg), "--out", str(out)) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert f"year {float(share.years[4])!r} has share 1.0" in err

    def test_share_series_sets_the_advantage(self, tmp_path):
        data = self.synth_with_share(tmp_path)
        cfg = self.fit_config(tmp_path, data)
        with cfg.open("a", encoding="utf-8") as handle:
            handle.write(f"share_series = {data}/share.csv\n")
        out = tmp_path / "fitted"
        assert run("fit", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        share = read_series_csv(data / "share.csv")
        expected = FisherPryFit(origin_year=BENCHMARKS["colour_tv"].intro_year).fit(share)
        table = fit_table(out / "fit_table.csv")
        assert float(table["advantage"]) == expected.advantage_
        assert float(table["intercept"]) == expected.intercept_
        meta = (out / "fit_meta.txt").read_text(encoding="utf-8").splitlines()
        assert f"sse[share]: {expected.sse_!r}" in meta

    @pytest.mark.usefixtures("lm_stops_at_three_evaluations")
    def test_fit_stopped_by_the_evaluation_limit_reads_unconverged(self, tmp_path):
        data = tmp_path / "data"
        synth_cfg = write_config(
            tmp_path, "[good]\nbenchmark = colour_tv\n[synth]\nnoise = 0\n"
        )
        assert run("synth", "--config", str(synth_cfg), "--out", str(data)) == EXIT_OK
        fit_cfg = self.fit_config(tmp_path, data)
        out = tmp_path / "fitted"
        assert run("fit", "--config", str(fit_cfg), "--out", str(out)) == EXIT_OK
        meta = (out / "fit_meta.txt").read_text(encoding="utf-8").splitlines()
        assert "converged: False" in meta
        assert "price_converged: False" in meta

    def test_malformed_series_is_format_error(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("nominal_price", "penetration", "sales"):
            (data / f"{name}.csv").write_text(
                "year,value\n1950,0.5\n1950,0.6\n", encoding="utf-8"
            )
        cfg = self.fit_config(tmp_path, data)
        assert run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_FORMAT

    @pytest.mark.parametrize(
        "text",
        [b"year,value\n1950,0.5\n1951,nan\n", b"year,value\n1950,0.5\n# caf\xe9\n"],
        ids=["non_finite", "not_utf8"],
    )
    def test_unreadable_price_file_is_format_error(self, tmp_path, capsys, text):
        data = tmp_path / "data"
        data.mkdir()
        good = BENCHMARKS["colour_tv"]
        (data / "nominal_price.csv").write_bytes(text)
        write_series_csv(synthesize("penetration", good), data / "penetration.csv")
        write_series_csv(synthesize("sales", good), data / "sales.csv")
        cfg = self.fit_config(tmp_path, data)
        assert run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_FORMAT
        assert "nominal_price.csv" in capsys.readouterr().err

    def test_wrong_kind_is_format_error(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        good = BENCHMARKS["colour_tv"]
        write_series_csv(
            synthesize("sales", good), data / "nominal_price.csv"
        )
        write_series_csv(synthesize("penetration", good), data / "penetration.csv")
        write_series_csv(synthesize("sales", good), data / "sales.csv")
        cfg = self.fit_config(tmp_path, data)
        assert run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_FORMAT

    def test_undecaying_price_is_fit_error(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        good = BENCHMARKS["colour_tv"]
        years = 1954.5 + np.arange(30.0)
        write_series_csv(
            TimeSeries(years, np.full(30, 0.9), "nominal_price"),
            data / "nominal_price.csv",
        )
        write_series_csv(synthesize("penetration", good), data / "penetration.csv")
        write_series_csv(synthesize("sales", good), data / "sales.csv")
        cfg = self.fit_config(tmp_path, data)
        assert run("fit", "--config", str(cfg), "--out", str(tmp_path / "o")) == EXIT_FIT

    def test_no_feasible_start_is_fit_error(self, tmp_path, capsys):
        # sales so small that their relative weights overflow cannot be
        # weighed; the fit fails naming the series
        data = tmp_path / "data"
        data.mkdir()
        good = BENCHMARKS["fax"]
        sales = synthesize("sales", good)
        write_series_csv(synthesize("nominal_price", good), data / "nominal_price.csv")
        write_series_csv(synthesize("penetration", good), data / "penetration.csv")
        write_series_csv(
            TimeSeries(sales.years, 1e-310 * sales.values, "sales"), data / "sales.csv"
        )
        cfg = self.fit_config(tmp_path, data, benchmark="fax")
        code = run("fit", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_FIT
        assert "sales series" in capsys.readouterr().err

    def test_price_collapse_fits(self, tmp_path):
        # a price that collapses within a year implies a decline rate so
        # steep that exp(-2 rate t') overflows before the onset; the
        # evolutionary rate and its derivative are zero there, so the fit
        # still runs, and the price fit reports its rate as unidentified
        data = tmp_path / "data"
        data.mkdir()
        good = BENCHMARKS["fax"]
        t = np.arange(30.0)
        write_series_csv(
            TimeSeries(1981.0 + t, np.exp(-100.0 * t), "nominal_price"),
            data / "nominal_price.csv",
        )
        write_series_csv(synthesize("penetration", good), data / "penetration.csv")
        write_series_csv(synthesize("sales", good), data / "sales.csv")
        cfg = self.fit_config(tmp_path, data, benchmark="fax")
        code = run("fit", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_OK
        assert float(fit_table(tmp_path / "o" / "fit_table.csv")["decline_rate"]) > 50.0
        meta = (tmp_path / "o" / "fit_meta.txt").read_text(encoding="utf-8").splitlines()
        assert "price_rate_identified: False" in meta
        assert "converged: True" in meta
        assert "at_bound: ('shape',)" in meta


class TestFitTable:
    def test_write_read_round_trip(self, tmp_path):
        result = FitResult(
            good="colour_tv",
            decline_rate=0.103,
            floor_ratio=1 / 3.0,
            shape=27.0,
            evolutionary_plateau=0.97,
            innovation=0.001,
            imitation=1.8,
            spreading_plateau=0.01,
        )
        path = tmp_path / "table.csv"
        write_fit_table(result, path)
        table = fit_table(path)
        assert table["good"] == "colour_tv"
        assert table["decline_rate"] == "0.103"
        assert table["floor_ratio"] == repr(1 / 3.0)
        # a field the fit did not set is blank
        assert table["advantage"] == ""
        assert list(table) == [
            "good",
            "decline_rate",
            "floor_ratio",
            "shape",
            "evolutionary_plateau",
            "innovation",
            "imitation",
            "spreading_plateau",
            "spreading_multiple",
            "spreading_replacement",
            "spreading_lifetime",
            "evolutionary_multiple",
            "evolutionary_replacement",
            "evolutionary_lifetime",
            "advantage",
            "intercept",
        ]


class TestDist:
    def test_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, "[dist]\npaths = 2000\n")
        out = tmp_path / "out"
        assert run("dist", "--config", str(cfg), "--seed", "3", "--out", str(out)) == EXIT_OK
        report = (out / "dist_report.txt").read_text(encoding="utf-8")
        assert "ks distance" in report
        assert "long-window mean" in report

    def test_plot_flag_writes_svg(self, tmp_path):
        cfg = write_config(tmp_path, "[dist]\npaths = 2000\n")
        out = tmp_path / "out"
        code = run("dist", "--config", str(cfg), "--seed", "3", "--out", str(out), "--plot")
        assert code == EXIT_OK
        svg = (out / "dist.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg

    def test_reports_long_window_standard_error(self, tmp_path):
        cfg = write_config(tmp_path, "[dist]\npaths = 2000\n")
        out = tmp_path / "out"
        assert run("dist", "--config", str(cfg), "--seed", "3", "--out", str(out)) == EXIT_OK
        report = (out / "dist_report.txt").read_text(encoding="utf-8")
        values = dict(line.split(": ", 1) for line in report.splitlines()[1:])
        # dist's reproduction run: AR(1) with 1 - phi = compensation * dt,
        # Gaussian plus Poisson-jump innovations, and a burn-in of
        # 5 / compensation before the long window
        compensation, jump, amortization, noise_amp, dt = 10.0, 0.05, 100.0, 0.05, 0.02
        sigma = np.sqrt(noise_amp**2 * dt + jump**2 * dt / amortization)
        n = 1_500_000 - round(5.0 / compensation / dt)
        expected = sigma / (compensation * dt * np.sqrt(n))
        reported = float(values["reproduction long-window standard error"])
        assert reported == pytest.approx(expected, rel=1e-12)

    def test_deterministic_given_seed(self, tmp_path):
        cfg = write_config(tmp_path, "[dist]\npaths = 2000\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("dist", "--config", str(cfg), "--seed", "9", "--out", str(out_a))
        run("dist", "--config", str(cfg), "--seed", "9", "--out", str(out_b))
        assert (out_a / "dist_report.txt").read_bytes() == (
            out_b / "dist_report.txt"
        ).read_bytes()


class TestReplicate:
    def test_small_suite_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "[replicate]\nseeds = 2\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = run("replicate", "--config", str(cfg), "--seed", "77", "--out", str(out_a))
        code_b = run("replicate", "--config", str(cfg), "--seed", "77", "--out", str(out_b))
        assert code_a == code_b
        assert (out_a / "replicate_matrix.csv").read_bytes() == (
            out_b / "replicate_matrix.csv"
        ).read_bytes()

    def test_missed_tolerance_exits_with_fit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(calibration.ROUND_TRIP_TOLERANCES, "shape", 0.0)
        cfg = write_config(tmp_path, "[replicate]\nseeds = 2\n")
        out = tmp_path / "out"
        assert run("replicate", "--config", str(cfg), "--out", str(out)) == EXIT_FIT
        assert "missed its tolerance" in capsys.readouterr().err
        matrix = (out / "replicate_matrix.csv").read_text(encoding="utf-8")
        assert matrix.count("FAIL") == len(ROUND_TRIP_GOODS)

    def test_side_file_lists_every_good(self, tmp_path):
        cfg = write_config(tmp_path, "[replicate]\nseeds = 2\n")
        out = tmp_path / "out"
        run("replicate", "--config", str(cfg), "--seed", "5", "--out", str(out))
        meta = (out / "replicate_meta.txt").read_text(encoding="utf-8").splitlines()
        for good in ROUND_TRIP_GOODS + ("vcr_formats",):
            seconds = next(line for line in meta if line.startswith(f"seconds[{good}]: "))
            assert float(seconds.split(": ")[1]) >= 0
            assert f"unconverged[{good}]: 0" in meta
            nfev = next(line for line in meta if line.startswith(f"nfev_refined[{good}]: "))
            # the share contest is a closed-form regression
            assert (int(nfev.split(": ")[1]) > 0) == (good != "vcr_formats")
