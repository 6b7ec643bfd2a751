import re

import numpy as np
import pytest

from evomarket.errors import FormatError
from evomarket.series import TimeSeries, read_series_csv, write_series_csv


class TestTimeSeries:
    def test_basic_construction(self):
        ts = TimeSeries(np.array([1950.0, 1951.0]), np.array([0.1, 0.2]), "penetration")
        assert len(ts) == 2

    def test_non_increasing_years_rejected(self):
        with pytest.raises(FormatError):
            TimeSeries(np.array([1950.0, 1950.0]), np.array([0.1, 0.2]))

    def test_penetration_range_enforced(self):
        with pytest.raises(FormatError):
            TimeSeries(np.array([1950.0, 1951.0]), np.array([0.1, 1.2]), "penetration")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError):
            TimeSeries(np.array([1950.0]), np.array([0.1]), "price_index")

    @pytest.mark.parametrize("years", [np.array(1950.0), np.array([[1950.0, 1951.0]])])
    def test_years_must_be_one_dimensional(self, years):
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeSeries(years, np.array([0.1, 0.2]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1950.0, 1951.0]), np.array([0.1, np.nan]))

    def test_caller_writes_after_construction_leave_the_series_unchanged(self):
        years, values = np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])
        ts = TimeSeries(years, values, "penetration")
        years[2], values[0] = 0.0, 5.0
        assert ts.years.tolist() == [1.0, 2.0, 3.0]
        assert ts.values.tolist() == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("field", ["years", "values"])
    def test_arrays_are_read_only(self, field):
        ts = TimeSeries(np.array([1.0, 2.0]), np.array([0.1, 0.2]), "penetration")
        with pytest.raises(ValueError, match="read-only"):
            getattr(ts, field)[0] = 5.0
        assert ts.years.tolist() == [1.0, 2.0] and ts.values.tolist() == [0.1, 0.2]



class TestReadSeriesCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_row_file(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1950,0.5\n1951,0.75\n")
        ts = read_series_csv(path)
        assert len(ts) == 2
        assert ts.kind is None
        assert ts.values[1] == 0.75

    def test_kind_column(self, tmp_path):
        path = self.write(tmp_path, "year,value,kind\n1950,0.5,sales\n1951,0.7,sales\n")
        assert read_series_csv(path).kind == "sales"

    def test_comments_and_blank_lines(self, tmp_path):
        path = self.write(
            tmp_path, "# header comment\nyear,value\n\n1950,0.5\n# mid comment\n1951,0.6\n"
        )
        assert len(read_series_csv(path)) == 2

    def test_duplicate_year_names_line(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1950,0.5\n1950,0.6\n")
        with pytest.raises(FormatError, match=":3"):
            read_series_csv(path)

    def test_out_of_range_penetration(self, tmp_path):
        path = self.write(
            tmp_path, "year,value,kind\n1950,0.5,penetration\n1951,1.2,penetration\n"
        )
        with pytest.raises(FormatError):
            read_series_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1950,0.5\n1951,abc\n")
        with pytest.raises(FormatError, match=":3"):
            read_series_csv(path)

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "1950,0.5\n1951,0.6\n")
        with pytest.raises(FormatError, match="header"):
            read_series_csv(path)

    def test_third_column_other_than_kind(self, tmp_path):
        path = self.write(tmp_path, "year,value,note\n1950,0.5,a\n")
        with pytest.raises(FormatError, match=":1: third column must be 'kind'"):
            read_series_csv(path)

    def test_mixed_kinds_rejected(self, tmp_path):
        path = self.write(
            tmp_path, "year,value,kind\n1950,0.5,sales\n1951,0.6,share\n"
        )
        with pytest.raises(FormatError, match="mixed"):
            read_series_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            read_series_csv(tmp_path / "absent.csv")

    def test_short_row_after_comment_names_line(self, tmp_path):
        path = self.write(
            tmp_path, "year,value,kind\n1950,0.5,sales\n# note\n1951,0.6\n"
        )
        with pytest.raises(FormatError, match=re.escape(":4: expected 3 cells, got 2")):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("year,value\n1950,0.5,1951\n0.6\n", ":2: expected 2 cells, got 3"),
            # the cells of both rows, run together, fill every column with
            # numbers and one kind
            ("year,value,kind\n1950,0.5\n7,1951,0.6,\n", ":2: expected 3 cells, got 2"),
        ],
    )
    def test_rows_whose_cell_counts_balance_name_the_first(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(FormatError, match=re.escape(message)):
            read_series_csv(path)

    def test_header_without_rows(self, tmp_path):
        path = self.write(tmp_path, "year,value\n")
        with pytest.raises(FormatError, match="no data rows"):
            read_series_csv(path)

    def test_only_comments_and_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "# first\n\n   \n  # second\n")
        with pytest.raises(FormatError, match="missing header line"):
            read_series_csv(path)

    def test_duplicate_year_after_comment_and_blank_line_names_line(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1950,0.5\n# note\n\n1950,0.6\n")
        with pytest.raises(FormatError, match=":5"):
            read_series_csv(path)

    def test_padded_cells(self, tmp_path):
        path = self.write(
            tmp_path, " year , value , kind \n 1950 , 0.5 , sales \n1951,  0.75 ,sales\n"
        )
        ts = read_series_csv(path)
        assert ts.kind == "sales"
        assert list(ts.years) == [1950.0, 1951.0]
        assert list(ts.values) == [0.5, 0.75]

    def test_cells_padded_with_any_whitespace_strip_removes(self, tmp_path):
        # float() keeps \x1f where str.strip drops it
        path = self.write(tmp_path, "year,value,kind\n\x1f1950\xa0,\u30000.5\x1f,\tsales\x1f\n")
        ts = read_series_csv(path)
        assert (list(ts.years), list(ts.values), ts.kind) == ([1950.0], [0.5], "sales")

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"year,value\r\n1950,0.5\r\n1951,0.75\r\n")
        ts = read_series_csv(path)
        assert list(ts.years) == [1950.0, 1951.0]
        assert list(ts.values) == [0.5, 0.75]

    def test_number_syntax_is_python_float(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1_950,0.5\n")
        assert read_series_csv(path).years[0] == 1950.0

    def test_inline_comment_is_a_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1950,0.5 # x\n")
        with pytest.raises(FormatError, match=":2: non-numeric cell"):
            read_series_csv(path)

    @pytest.mark.parametrize("row", ["1951,nan", "inf,0.6", "1951,-1e999"])
    def test_non_finite_cell_names_line(self, tmp_path, row):
        path = self.write(tmp_path, f"year,value\n1950,0.5\n{row}\n")
        with pytest.raises(FormatError, match=re.escape("series.csv:3: non-finite cell")):
            read_series_csv(path)

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes("year,value\n1950,0.5\n# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(FormatError, match="series.csv: cannot read series file"):
            read_series_csv(path)


class TestWriteReadRoundTrip:
    def test_exact_round_trip(self, tmp_path, rng):
        years = np.arange(1950.0, 1980.0)
        values = rng.uniform(0.0, 3.0, years.size)
        original = TimeSeries(years, values, "sales")
        path = tmp_path / "out.csv"
        write_series_csv(original, path)
        clone = read_series_csv(path)
        assert np.array_equal(clone.years, original.years)
        assert np.array_equal(clone.values, original.values)
        assert clone.kind == original.kind

    def test_round_trip_without_kind(self, tmp_path):
        original = TimeSeries(np.array([1.5, 2.5]), np.array([0.1234567890123, 7.0]))
        path = tmp_path / "out.csv"
        write_series_csv(original, path)
        clone = read_series_csv(path)
        assert np.array_equal(clone.values, original.values)
        assert clone.kind is None

    def test_write_is_deterministic(self, tmp_path):
        ts = TimeSeries(np.array([1.0, 2.0]), np.array([1 / 3.0, 2 / 3.0]), "share")
        write_series_csv(ts, tmp_path / "a.csv")
        write_series_csv(ts, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestLastYearColumn:
    """The writer and the reader each keep their last year column; what
    they keep shows in no byte written and no value read."""

    def write(self, path, years, text):
        path.write_text("year,value\n" + "".join(f"{y},{text}\n" for y in years), "utf-8")
        return path

    def test_warm_write_is_the_cold_write(self, tmp_path):
        years = 1950.0 + 0.01 * np.arange(400)
        b = TimeSeries(years, np.linspace(0.0, 1.0, years.size), "penetration")
        write_series_csv(TimeSeries(years[:3] - 1.0, np.ones(3)), tmp_path / "other.csv")
        write_series_csv(b, tmp_path / "b_cold.csv")
        write_series_csv(TimeSeries(years, np.full(years.size, 7.5), "sales"), tmp_path / "a.csv")
        write_series_csv(b, tmp_path / "b_warm.csv")
        assert (tmp_path / "b_warm.csv").read_bytes() == (tmp_path / "b_cold.csv").read_bytes()
        a = (tmp_path / "a.csv").read_text(encoding="utf-8").splitlines()
        assert [row.split(",")[0] for row in a[1:]] == [repr(y) for y in years.tolist()]

    def test_negative_zero_after_zero(self, tmp_path):
        write_series_csv(TimeSeries([0.0, 1.0], [0.5, 0.5]), tmp_path / "zero.csv")
        years = read_series_csv(tmp_path / "zero.csv").years
        assert years.tobytes() == np.array([0.0, 1.0]).tobytes()
        write_series_csv(TimeSeries([-0.0, 1.0], [0.5, 0.5]), tmp_path / "negative.csv")
        text = (tmp_path / "negative.csv").read_text(encoding="utf-8")
        assert text == "year,value\n-0.0,0.5\n1.0,0.5\n"
        years = read_series_csv(tmp_path / "negative.csv").years
        assert years.tobytes() == np.array([-0.0, 1.0]).tobytes()

    def test_reads_parse_year_cells_that_differ_from_the_last(self, tmp_path):
        for cells, expected in [
            (["1950.0", "1951.0"], [1950.0, 1951.0]),
            (["1950", "1951"], [1950.0, 1951.0]),
            ([" 1950", "1951 "], [1950.0, 1951.0]),
            (["\x1f1950", "1951"], [1950.0, 1951.0]),
            (["1950", "1952"], [1950.0, 1952.0]),
            (["1_950", "1.952e3"], [1950.0, 1952.0]),
        ]:
            ts = read_series_csv(self.write(tmp_path / "s.csv", cells, "0.5"))
            assert ts.years.tolist() == expected

    def test_a_file_with_the_last_years_is_still_checked(self, tmp_path):
        path = self.write(tmp_path / "s.csv", ["1950", "1951"], "0.5")
        read_series_csv(path)
        with pytest.raises(FormatError, match=":2: non-numeric"):
            read_series_csv(self.write(path, ["1950", "1951"], "abc"))
        with pytest.raises(FormatError, match=":3: non-numeric"):
            read_series_csv(self.write(path, ["1950", "19x1"], "0.5"))
        ts = read_series_csv(self.write(path, ["1950", "1951"], "0.25"))
        assert ts.years.tolist() == [1950.0, 1951.0] and ts.values.tolist() == [0.25, 0.25]

    def test_the_writer_renders_years_the_reader_parsed(self, tmp_path):
        # a memo shared with the reader would write the padded cells back
        read_series_csv(self.write(tmp_path / "padded.csv", [" 1950", " 1951"], "0.5"))
        write_series_csv(TimeSeries([1950.0, 1951.0], [0.5, 0.5]), tmp_path / "out.csv")
        text = (tmp_path / "out.csv").read_text(encoding="utf-8")
        assert text == "year,value\n1950.0,0.5\n1951.0,0.5\n"
