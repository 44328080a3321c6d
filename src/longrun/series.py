"""Dated-series ingestion, monthly resampling, alignment and lag transforms.

Calendar months are the only resampling bucket; a month with no observations
inside the sample span is an error rather than an interpolation target, since
a silent gap would corrupt the effective sample size of every test downstream.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import itertools
import math
import operator
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


def _year_month(index: int) -> tuple:
    """(year, month) of a month index, the inverse of ``month_index``."""
    return index // 12, index % 12 + 1


def _frozen_finite(array: np.ndarray, labels: tuple) -> np.ndarray:
    """``array`` (one column per label) set read-only; a NaN/±inf is a DomainError naming its label."""
    finite = np.isfinite(array)
    if not finite.all():  # a flat pass; the per-column reduction is ~20x slower
        column = finite.reshape(len(array), len(labels)).all(axis=0).argmin()
        raise DomainError(f"non-finite value in series {labels[column]!r}")
    array.flags.writeable = False
    return array


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


def _checked_start(start) -> tuple:
    """``start`` as a (year, month) pair of ints with the month in 1..12, else DomainError."""
    try:
        year, month = map(operator.index, start)
    except (TypeError, ValueError):
        raise DomainError(f"start must be a (year, month) pair of ints, got {start!r}") from None
    if not 1 <= month <= 12:
        raise DomainError(f"start month must lie in 1..12, got {month}")
    return year, month


@dataclass(frozen=True)
class Series:
    """Gap-free monthly observations starting at ``start`` = (year, month)."""

    name: str
    start: tuple  # (year, month)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "start", _checked_start(self.start))
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise DimensionMismatch(f"series {self.name!r} must be 1-D, got {values.ndim}-D")
        object.__setattr__(self, "values", _frozen_finite(values, (self.name,)))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def start_index(self) -> int:
        return month_index(*self.start)

    @property
    def end_index(self) -> int:
        return self.start_index + len(self) - 1


@dataclass(frozen=True)
class Panel:
    """Two or more series on one month axis from ``start`` = (year, month); data is T x m."""

    labels: tuple
    start: tuple  # (year, month)
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "start", _checked_start(self.start))
        data = np.array(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.labels):
            raise DimensionMismatch("panel data must be T x m with one column per label")
        if len(data) < 2 or len(self.labels) < 2:
            raise DimensionMismatch("panel needs at least 2 periods and 2 series")
        object.__setattr__(self, "data", _frozen_finite(data, self.labels))

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


def _parse_date(text: str, date_format: str) -> dt.date:
    """``strptime(text, date_format).date()``, or the ValueError it raises.

    Under the default format a 10-character field with ``-`` at positions 4
    and 7 is tried with ``date.fromisoformat`` first; on that shape it accepts
    exactly the dates strptime accepts.  Every field it rejects, and every
    field under another format, goes to strptime, so the verdict and the
    error message are strptime's own.
    """
    if date_format == "%Y-%m-%d" and len(text) == 10 and text[4] == text[7] == "-":
        try:
            return dt.date.fromisoformat(text)
        except ValueError:
            pass
    return dt.datetime.strptime(text, date_format).date()


def _read_text(path) -> str:
    """The UTF-8 text of a file, without one leading byte-order mark.

    A byte that is not UTF-8 raises the ParseError of its line, lines counted
    as ``str.splitlines`` counts them.
    """
    # the mark is dropped from the bytes, not by utf-8-sig, whose error offsets omit it
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"not valid UTF-8: byte {data[exc.start]:#04x} "
                               f"({exc.reason})") from None


def load_csv(path, date_format: str = "%Y-%m-%d", name: str | None = None) -> RawSeries:
    """Load a two-column ``date,value`` CSV into a RawSeries.

    Records are read in file order and numbered from 1, blank ones included.
    A blank record is skipped; any other record is checked for 2 fields, then
    its date, then its value, then that the value is finite, and its first
    failing check raises the ParseError of that record.  Record 1 is taken as
    a header when neither its date nor its value parses.  Rows are sorted by
    date; duplicate dates are rejected.
    """
    path = Path(path)
    records = csv.reader(io.StringIO(_read_text(path), newline=""))
    points = []
    lineno = 0
    try:
        for lineno, row in enumerate(records, start=1):
            if not row or len(row) == 1 and not row[0].strip():
                continue  # a blank record
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
                        continue  # the header
                raise ParseError(lineno, f"bad date {date_text!r}: {exc}") from exc
            try:
                value = float(value_text)
            except ValueError as exc:
                raise ParseError(lineno, f"bad value {value_text!r}") from exc
            if not math.isfinite(value):
                raise ParseError(lineno, f"non-finite value {value_text!r}")
            points.append((date, value))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ParseError(lineno + 1, str(exc)) from None
    if not points:
        raise EmptyFile(f"{path} contains no data rows")
    # sorted in one pass when already in order; RawSeries rejects a duplicate date
    points.sort(key=operator.itemgetter(0))
    return RawSeries(name or path.stem, tuple(points))


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
    one point; the first empty month raises GapError.  A month whose values
    overflow when summed (math.fsum's intermediate sums leave the float range,
    even where the mean would fit) raises DomainError naming it.
    """
    if len(raw) == 0:
        raise EmptyFile("cannot aggregate an empty series")
    first = month_index(raw.points[0][0].year, raw.points[0][0].month)
    values = []
    # RawSeries dates are sorted and unique, so each month's points form one run
    for idx, run in itertools.groupby(raw.points, key=lambda p: month_index(p[0].year, p[0].month)):
        if idx != first + len(values):
            raise GapError(*_year_month(first + len(values)))
        month_values = [v for _, v in run]
        try:
            values.append(math.fsum(month_values) / len(month_values))
        except OverflowError:
            raise DomainError("values of month {:04d}:{:02d} overflow when summed"
                              .format(*_year_month(idx))) from None
    return Series(raw.name, _year_month(first), values)


def align(*series: Series) -> Panel:
    """Restrict two or more monthly series to their common month span."""
    if len(series) < 2:
        raise DimensionMismatch("align needs at least two series")
    start = max(s.start_index for s in series)
    end = min(s.end_index for s in series)
    if end - start + 1 < 2:
        raise NoOverlap("common span shorter than 2 months")
    data = np.column_stack([s.values[start - s.start_index: end - s.start_index + 1] for s in series])
    return Panel(tuple(s.name for s in series), _year_month(start), data)


def diff(s: Series) -> Series:
    """First difference of a series; the result is one month shorter and starts a month later."""
    if len(s) < 2:
        raise TooShort(f"series of length {len(s)} cannot be differenced")
    return Series(s.name, _year_month(s.start_index + 1), np.diff(s.values))


def _values(x) -> np.ndarray:
    """The float values of a Series, or ``x`` itself as a float array."""
    return np.asarray(x.values if isinstance(x, Series) else x, dtype=float)


def lag_matrix(x, p: int) -> np.ndarray:
    """Matrix of p lags: row t holds (x[t-1], ..., x[t-p]) for the last T-p periods.

    ``x`` is a Series, a 1-D array or a T x m array; a T x m array gives p
    blocks of m columns, lag 1 first.  With p = 0 the result is an empty
    (T, 0) block.
    """
    if p < 0:
        raise DomainError("p must be >= 0")
    x = _values(x)
    if x.ndim == 1:
        x = x[:, None]
    n = len(x)
    if p == 0:
        return np.empty((n, 0))
    if n <= p:
        raise TooShort(f"series of length {n} has no rows with {p} lags")
    return np.hstack([x[p - 1 - j: n - 1 - j] for j in range(p)])


def _lag_design(x, p: int, *others, terms: int = 1) -> tuple:
    """(x[p:], X) for a regression of x on its lags: X is ``terms`` deterministic columns (1,
    then t = 1, 2, ...), then the ``lag_matrix`` blocks of x and of each of ``others``."""
    lags = [lag_matrix(z, p) for z in (x, *others)]
    trend = np.vander(np.arange(1.0, len(lags[0]) + 1.0), terms, increasing=True)
    return _values(x)[p:], np.hstack([trend, *lags])
