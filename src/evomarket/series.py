"""Time series container and its CSV interchange format.

The universal I/O currency of the package: ordered ``(year, value)``
records with an optional kind tag.  The on-disk format is UTF-8 CSV
with header ``year,value[,kind]``, ``.`` as decimal separator and
whole-line ``#`` comments.  Both functions work on whole columns, not
row by row: the writer renders each column with ``repr`` and joins the
text once, and the reader splits all cells in one pass and checks each
column at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._validation import read_only_copy
from .errors import FormatError

__all__ = ["SERIES_KINDS", "TimeSeries", "read_series_csv", "write_series_csv"]

SERIES_KINDS = ("nominal_price", "penetration", "sales", "share")

_UNIT_KINDS = {"penetration", "share"}


@dataclass(frozen=True)
class TimeSeries:
    """Strictly time-ordered observations of one market quantity.

    ``years`` and ``values`` are read-only float copies of the arrays
    given, so no write by the caller can undo the checks made here.
    """

    years: np.ndarray
    values: np.ndarray
    kind: str | None = None

    def __post_init__(self):
        years = read_only_copy(self.years, "years")
        values = read_only_copy(self.values, "values")
        if years.size != values.size:
            raise FormatError("years and values must have equal length")
        if years.size == 0:
            raise FormatError("series must contain at least one observation")
        if np.any(np.diff(years) <= 0):
            raise FormatError("years must be strictly increasing")
        if self.kind is not None:
            if self.kind not in SERIES_KINDS:
                raise FormatError(
                    f"unknown series kind {self.kind!r}; expected one of {SERIES_KINDS}"
                )
            if self.kind in _UNIT_KINDS and np.any((values < 0) | (values > 1)):
                raise FormatError(f"{self.kind} values must lie in [0, 1]")
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.years.size


def read_series_csv(path) -> TimeSeries:
    """Parse a series file, reporting a malformed file by its first bad line.

    Expected layout: a ``year,value[,kind]`` header, then one record per
    line.  What the reader accepts:

    - blank lines and whole-line ``#`` comments are skipped; a ``#``
      after a cell is part of the cell, which then fails to parse;
    - cells may be padded with spaces, and any line ending works;
    - number syntax is Python's ``float`` (``1_950``, ``1e3``), but a
      cell must be finite: ``nan``, ``inf`` and an overflowing ``1e999``
      are rejected;
    - years must increase strictly, and the kind column, when present,
      must be constant over the file.

    Every error is a ``FormatError`` naming the file; a bad header or
    row is named by its line number.  The file is checked column by
    column; once a check fails, the lines are scanned again to find the
    first line at fault.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: cannot read series file ({exc})") from exc

    rows = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    if not rows:
        raise FormatError(f"{path}: missing header line")
    header = [cell.strip().lower() for cell in rows[0].split(",")]
    width = len(header)
    if header[:2] != ["year", "value"] or header[2:] not in ([], ["kind"]):
        raise _first_bad_line(path, text)
    data = rows[1:]
    if not data:
        raise FormatError(f"{path}: no data rows")
    # every cell in one split: a lone "\n" cell (no row holds a newline)
    # separates the rows, and it sits in every (width + 1)-th slot exactly
    # when every row has width cells
    cells = ",\n,".join(data).split(",")
    stride = width + 1
    if len(cells) != stride * len(data) - 1 or set(cells[width::stride]) - {"\n"}:
        raise _first_bad_line(path, text)
    try:
        years = np.array(list(map(float, map(str.strip, cells[0::stride]))))
        values = np.array(list(map(float, map(str.strip, cells[1::stride]))))
    except ValueError:
        raise _first_bad_line(path, text) from None
    kinds = set(map(str.strip, cells[2::stride])) if width == 3 else {None}
    finite = np.isfinite(years).all() and np.isfinite(values).all()
    if not finite or len(kinds) != 1 or (years[1:] <= years[:-1]).any():
        raise _first_bad_line(path, text)
    try:
        return TimeSeries(years, values, kinds.pop())
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _first_bad_line(path: Path, text: str) -> FormatError:
    """The error naming the first line at fault, once a column check has failed."""
    width = previous = kind = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if width is None:
            header = [c.lower() for c in cells]
            if header[:2] != ["year", "value"] or len(header) > 3:
                return FormatError(
                    f"{path}:{lineno}: header must be 'year,value[,kind]', got {line!r}"
                )
            if header[2:] not in ([], ["kind"]):
                return FormatError(f"{path}:{lineno}: third column must be 'kind'")
            width = len(header)
            continue
        if len(cells) != width:
            return FormatError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
        try:
            year = float(cells[0])
            value = float(cells[1])
        except ValueError as exc:
            return FormatError(f"{path}:{lineno}: non-numeric cell ({exc})")
        if not np.isfinite([year, value]).all():
            return FormatError(f"{path}:{lineno}: non-finite cell")
        if previous is not None and year <= previous:
            return FormatError(
                f"{path}:{lineno}: year {cells[0]} does not increase over the previous row"
            )
        if width == 3:
            if kind is None:
                kind = cells[2]
            elif cells[2] != kind:
                return FormatError(f"{path}:{lineno}: mixed series kinds in one file")
        previous = year
    raise AssertionError(f"{path}: a column check failed but no line is at fault")


def write_series_csv(series: TimeSeries, path) -> None:
    """Write a series in the format read by :func:`read_series_csv`.

    Emits a ``year,value`` or ``year,value,kind`` header, then one
    ``year,value[,kind]`` row per observation: newline line endings, no
    comments, no padding.  Numbers are rendered with ``repr`` (shortest
    round-trip), so write followed by read reproduces the series exactly.
    """
    header, tail = "year,value\n", "\n"
    if series.kind is not None:
        header, tail = "year,value,kind\n", f",{series.kind}\n"
    parts = [None, ",", None, tail] * len(series)  # year, ",", value, tail per row
    parts[0::4] = map(repr, series.years.tolist())
    parts[2::4] = map(repr, series.values.tolist())
    Path(path).write_text(header + "".join(parts), encoding="utf-8")
