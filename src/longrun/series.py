"""Dated-series ingestion, monthly resampling, alignment and lag transforms.

Calendar months are the only resampling bucket; a month with no observations
inside the sample span is an error rather than an interpolation target, since
a silent gap would corrupt the effective sample size of every test downstream.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    DuplicateDate,
    EmptyFile,
    GapError,
    NoOverlap,
    ParseError,
    TooShort,
)


def month_index(year: int, month: int) -> int:
    """Months since year 0, a single integer axis for alignment."""
    return year * 12 + (month - 1)


def month_label(index: int) -> str:
    return f"{index // 12:04d}:{index % 12 + 1:02d}"


@dataclass(frozen=True)
class RawSeries:
    """Irregularly dated observations of one variable."""

    name: str
    points: tuple  # of (datetime.date, float), strictly increasing dates

    def __post_init__(self):
        last = None
        for d, v in self.points:
            if last is not None:
                if d == last:
                    raise DuplicateDate(d)
                if d < last:
                    raise DomainError(f"dates out of order at {d}")
            if not math.isfinite(v):
                raise DomainError(f"non-finite value at {d}")
            last = d

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Series:
    """Gap-free monthly observations starting at ``start`` = (year, month)."""

    name: str
    start: tuple  # (year, month)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if not np.isfinite(vals).all():
            raise DomainError(f"non-finite value in series {self.name!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def start_index(self) -> int:
        return month_index(*self.start)

    @property
    def end_index(self) -> int:
        return self.start_index + len(self) - 1

    def period_labels(self) -> list:
        return [month_label(self.start_index + i) for i in range(len(self))]


@dataclass(frozen=True)
class Panel:
    """Two or more series on one shared month axis; data is T x m."""

    labels: tuple
    periods: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        periods = np.asarray(self.periods, dtype=int)
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape != (len(periods), len(self.labels)):
            raise DimensionMismatch("panel data must be T x m with matching periods and labels")
        if len(periods) < 2 or len(self.labels) < 2:
            raise DimensionMismatch("panel needs at least 2 periods and 2 series")
        periods.flags.writeable = False
        data.flags.writeable = False
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    def column(self, label: str) -> np.ndarray:
        return self.data[:, self.labels.index(label)]


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_date(text: str, date_format: str) -> dt.date:
    """``strptime(text, date_format).date()``, built directly for plain ISO dates.

    Under the default format an ASCII ``dddd-dd-dd`` field skips strptime;
    every other field, and any ISO-shaped field that is not a real date, goes
    to strptime, so the accepted dates and the error messages are its own.
    """
    if date_format == "%Y-%m-%d" and _ISO_DATE.fullmatch(text):
        try:
            return dt.date(int(text[:4]), int(text[5:7]), int(text[8:]))
        except ValueError:
            pass
    return dt.datetime.strptime(text, date_format).date()


def load_csv(path, date_format: str = "%Y-%m-%d", name: str | None = None,
             require_positive: bool = False) -> RawSeries:
    """Load a two-column ``date,value`` CSV into a RawSeries.

    Line 1 is taken as a header when neither its date nor its value parses.
    Rows are sorted by date; duplicate dates are rejected.
    """
    path = Path(path)
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(lineno, f"expected 2 fields, got {len(row)}")
            date_text, value_text = row[0].strip(), row[1].strip()
            try:
                date = _parse_date(date_text, date_format)
            except ValueError as exc:
                if lineno == 1:
                    try:
                        float(value_text)
                    except ValueError:
                        continue  # header row
                raise ParseError(lineno, f"bad date {date_text!r}: {exc}") from exc
            try:
                value = float(value_text)
            except ValueError as exc:
                raise ParseError(lineno, f"bad value {value_text!r}") from exc
            if not math.isfinite(value):
                raise ParseError(lineno, f"non-finite value {value_text!r}")
            if require_positive and value <= 0.0:
                raise ParseError(lineno, f"value must be positive, got {value_text!r}")
            rows.append((date, value, lineno))
    if not rows:
        raise EmptyFile(f"{path} contains no data rows")
    rows.sort(key=lambda r: r[0])
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] == prev[0]:
            raise DuplicateDate(cur[0])
    return RawSeries(name or path.stem, tuple((d, v) for d, v, _ in rows))


def save_csv(raw: RawSeries, path) -> None:
    """Write a RawSeries back to ``date,value`` rows with ISO ``YYYY-MM-DD`` dates.

    Values are printed with 17 significant digits so a load/save/load cycle
    reproduces every date and float bit-exactly.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        for d, v in raw.points:
            fh.write(f"{d.isoformat()},{v:.17g}\n")


def aggregate_monthly(raw: RawSeries) -> Series:
    """Collapse daily observations to the arithmetic mean of each month.

    Every month between the first and last observation must contain at least
    one point; the first empty month raises GapError.
    """
    if len(raw) == 0:
        raise EmptyFile("cannot aggregate an empty series")
    buckets: dict[int, list] = {}
    for d, v in raw.points:
        buckets.setdefault(month_index(d.year, d.month), []).append(v)
    first = month_index(raw.points[0][0].year, raw.points[0][0].month)
    last = month_index(raw.points[-1][0].year, raw.points[-1][0].month)
    values = []
    for idx in range(first, last + 1):
        if idx not in buckets:
            raise GapError(idx // 12, idx % 12 + 1)
        month_values = buckets[idx]
        values.append(math.fsum(month_values) / len(month_values))
    return Series(raw.name, (first // 12, first % 12 + 1), np.array(values))


def align(*series: Series) -> Panel:
    """Restrict two or more monthly series to their common month span."""
    if len(series) < 2:
        raise DimensionMismatch("align needs at least two series")
    start = max(s.start_index for s in series)
    end = min(s.end_index for s in series)
    if end - start + 1 < 2:
        raise NoOverlap("common span shorter than 2 months")
    periods = np.arange(start, end + 1)
    data = np.column_stack([s.values[start - s.start_index: end - s.start_index + 1] for s in series])
    return Panel(tuple(s.name for s in series), periods, data)


def diff(s: Series, order: int = 1) -> Series:
    """Difference a series ``order`` times; the result is shorter by ``order``."""
    if order < 1:
        raise DomainError("order must be >= 1")
    if len(s) <= order:
        raise TooShort(f"series of length {len(s)} cannot be differenced {order} times")
    values = np.diff(s.values, n=order)
    start_idx = s.start_index + order
    return Series(s.name, (start_idx // 12, start_idx % 12 + 1), values)


def lag_matrix(x, p: int) -> np.ndarray:
    """Matrix of p lags: row t holds (x[t-1], ..., x[t-p]) for the last T-p periods.

    ``x`` is a Series, a 1-D array or a T x m array; a T x m array gives p
    blocks of m columns, lag 1 first.  With p = 0 the result is an empty
    (T, 0) block.
    """
    if p < 0:
        raise DomainError("p must be >= 0")
    x = np.asarray(x.values if isinstance(x, Series) else x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = len(x)
    if p == 0:
        return np.empty((n, 0))
    if n <= p:
        raise TooShort(f"series of length {n} has no rows with {p} lags")
    return np.hstack([x[p - 1 - j: n - 1 - j] for j in range(p)])
