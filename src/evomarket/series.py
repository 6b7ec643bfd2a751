"""Time series container and its CSV interchange format.

The universal I/O currency of the package: ordered ``(year, value)``
records with an optional kind tag.  The on-disk format is UTF-8 CSV
with header ``year,value[,kind]``, ``.`` as decimal separator and
``#`` comment lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._validation import as_float_array
from .errors import FormatError

__all__ = ["SERIES_KINDS", "TimeSeries", "read_series_csv", "write_series_csv"]

SERIES_KINDS = ("nominal_price", "penetration", "sales", "share")

_UNIT_KINDS = {"penetration", "share"}


@dataclass(frozen=True)
class TimeSeries:
    """Strictly time-ordered observations of one market quantity."""

    years: np.ndarray
    values: np.ndarray
    kind: str | None = None

    def __post_init__(self):
        years = as_float_array(self.years, "years")
        values = as_float_array(self.values, "values")
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

    def window(self, start: float | None = None, end: float | None = None) -> "TimeSeries":
        """Sub-series with years in ``[start, end]`` (inclusive)."""
        mask = np.ones(len(self), dtype=bool)
        if start is not None:
            mask &= self.years >= start
        if end is not None:
            mask &= self.years <= end
        if not mask.any():
            raise FormatError("window selects no observations")
        return TimeSeries(self.years[mask], self.values[mask], self.kind)


def read_series_csv(path) -> TimeSeries:
    """Parse a series file, reporting malformed rows with line numbers.

    Expected layout: a ``year,value[,kind]`` header, then one record per
    line.  Blank lines and lines starting with ``#`` are skipped.  The
    kind column, when present, must be constant over the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: cannot read series file ({exc})") from exc

    header = None
    has_kind = False
    years: list[float] = []
    values: list[float] = []
    kind: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = [c.lower() for c in cells]
            if header[:2] != ["year", "value"] or len(header) > 3:
                raise FormatError(
                    f"{path}:{lineno}: header must be 'year,value[,kind]', got {line!r}"
                )
            has_kind = len(header) == 3
            if has_kind and header[2] != "kind":
                raise FormatError(f"{path}:{lineno}: third column must be 'kind'")
            continue
        if len(cells) != (3 if has_kind else 2):
            raise FormatError(
                f"{path}:{lineno}: expected {3 if has_kind else 2} cells, got {len(cells)}"
            )
        try:
            year = float(cells[0])
            value = float(cells[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-numeric cell ({exc})") from exc
        if years and year <= years[-1]:
            raise FormatError(
                f"{path}:{lineno}: year {cells[0]} does not increase over the previous row"
            )
        if has_kind:
            if kind is None:
                kind = cells[2]
            elif cells[2] != kind:
                raise FormatError(f"{path}:{lineno}: mixed series kinds in one file")
        years.append(year)
        values.append(value)
    if header is None:
        raise FormatError(f"{path}: missing header line")
    if not years:
        raise FormatError(f"{path}: no data rows")
    try:
        return TimeSeries(np.array(years), np.array(values), kind)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_series_csv(series: TimeSeries, path) -> None:
    """Write a series in the format read by :func:`read_series_csv`.

    Values are rendered with ``repr`` (shortest round-trip), so write
    followed by read reproduces the series exactly.
    """
    path = Path(path)
    lines = []
    if series.kind is None:
        lines.append("year,value")
        for year, value in zip(series.years, series.values):
            lines.append(f"{float(year)!r},{float(value)!r}")
    else:
        lines.append("year,value,kind")
        for year, value in zip(series.years, series.values):
            lines.append(f"{float(year)!r},{float(value)!r},{series.kind}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
