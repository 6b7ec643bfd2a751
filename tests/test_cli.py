import numpy as np
import pytest

from evomarket.benchmarks import BENCHMARKS, ROUND_TRIP_GOODS, VCR_FORMAT_CONTEST
from evomarket.calibration import FisherPryFit, TWO_WAVE_STARTS, _REFINE_STARTS, synthesize
from evomarket.cli import (
    EXIT_FIT,
    EXIT_FORMAT,
    EXIT_OK,
    EXIT_USAGE,
    main,
    read_fit_table,
    write_fit_table,
)
from evomarket.calibration import FitResult
from evomarket.series import TimeSeries, read_series_csv, write_series_csv


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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
        table = read_fit_table(out / "fit_table.csv")
        good = BENCHMARKS["colour_tv"]
        assert table["decline_rate"] == pytest.approx(good.decline_rate, rel=1e-3)
        assert table["shape"] == pytest.approx(good.shape, rel=1e-3)
        assert table["spreading_plateau"] == pytest.approx(
            good.spreading_plateau, rel=1e-3
        )
        meta = (out / "fit_meta.txt").read_text(encoding="utf-8")
        assert "converged: True" in meta
        assert "nfev: " in meta
        assert "njev: " in meta
        assert "price_rate_identified: True" in meta
        assert f"starts_screened: {len(TWO_WAVE_STARTS)}" in meta
        assert f"starts_refined: {_REFINE_STARTS}" in meta
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
        assert read_fit_table(tmp_path / "o" / "fit_table.csv")["decline_rate"] > 50.0
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
        table = read_fit_table(path)
        assert table["good"] == "colour_tv"
        assert table["decline_rate"] == 0.103
        assert table["floor_ratio"] == 1 / 3.0
        assert table["advantage"] is None
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
        cfg = write_config(tmp_path, "[dist]\npaths = 500\nkeep = 50\n")
        out = tmp_path / "out"
        assert run("dist", "--config", str(cfg), "--seed", "3", "--out", str(out)) == EXIT_OK
        report = (out / "dist_report.txt").read_text(encoding="utf-8")
        assert "ks distance" in report
        assert "long-window mean" in report

    def test_plot_flag_writes_svg(self, tmp_path):
        cfg = write_config(tmp_path, "[dist]\npaths = 300\nkeep = 40\n")
        out = tmp_path / "out"
        code = run("dist", "--config", str(cfg), "--seed", "3", "--out", str(out), "--plot")
        assert code == EXIT_OK
        svg = (out / "dist.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "polyline" in svg

    def test_reports_long_window_standard_error(self, tmp_path):
        cfg = write_config(tmp_path, "[dist]\npaths = 300\nkeep = 40\n")
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
        cfg = write_config(tmp_path, "[dist]\npaths = 300\nkeep = 40\n")
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
