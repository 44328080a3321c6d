"""Dated-series ingestion, monthly resampling, alignment and lag transforms.

Calendar months are the only resampling bucket; a month with no observations
inside the sample span is an error rather than an interpolation target, since
a silent gap would corrupt the effective sample size of every test downstream.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import datetime as dt
import io
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


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of ``values``, so the caller's array stays its own."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


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
        object.__setattr__(self, "values", _frozen(self.values, float))
        if not np.isfinite(self.values).all():
            raise DomainError(f"non-finite value in series {self.name!r}")

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
    """Two or more series on one shared month axis; data is T x m."""

    labels: tuple
    periods: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "periods", _frozen(self.periods, int))
        object.__setattr__(self, "data", _frozen(self.data, float))
        if self.data.shape != (len(self.periods), len(self.labels)):
            raise DimensionMismatch("panel data must be T x m with matching periods and labels")
        if len(self.periods) < 2 or len(self.labels) < 2:
            raise DimensionMismatch("panel needs at least 2 periods and 2 series")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    def column(self, label: str) -> np.ndarray:
        return self.data[:, self.labels.index(label)]


_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # positions of the digits in YYYY-MM-DD


def _iso_dates(texts: list):
    """Positions and dates of the fields that are plain ASCII ``dddd-dd-dd``
    real dates, built at once from their digit columns."""
    n = len(texts)
    codes = np.array(texts, dtype="U10").view(np.uint32).reshape(n, 10)
    digits = codes[:, _ISO_DIGITS] - ord("0")  # unsigned: a code below "0" wraps past 9
    shaped = ((np.fromiter(map(len, texts), np.intp, n) == 10) & (digits <= 9).all(axis=1)
              & (codes[:, 4] == ord("-")) & (codes[:, 7] == ord("-")))
    where = np.flatnonzero(shaped)
    d = digits[where].astype(np.int64)
    year, month, day = d[:, :4] @ [1000, 100, 10, 1], d[:, 4:6] @ [10, 1], d[:, 6:] @ [10, 1]
    first = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = first.astype("datetime64[D]") + (day - 1)
    # day 0, or a day past the end of its month, lands in another month
    real = (year >= 1) & (month >= 1) & (month <= 12) & (days.astype("datetime64[M]") == first)
    return where[real], days[real].astype(object)


def _parse_dates(texts: list, date_format: str) -> tuple:
    """``strptime(text, date_format).date()`` of each field up to the first
    field it rejects, and that field's ValueError (None when every field parses).

    Under the default format the plain ASCII ``dddd-dd-dd`` real dates are
    built by ``_iso_dates``; every other field goes to strptime, so the
    accepted dates and the error messages are its own.
    """
    dates = np.empty(len(texts), dtype=object)
    rest = range(len(texts))
    if date_format == "%Y-%m-%d" and texts:
        where, built = _iso_dates(texts)
        dates[where] = built
        todo = np.ones(len(texts), dtype=bool)
        todo[where] = False
        rest = np.flatnonzero(todo)
    for i in rest:  # the fields _iso_dates rejected go to strptime
        try:
            dates[i] = dt.datetime.strptime(texts[i], date_format).date()
        except ValueError as exc:
            return dates[:i].tolist(), exc
    return dates.tolist(), None


def _parse_floats(texts: list) -> list:
    """``float`` of each field, up to the first field it rejects."""
    values = []
    with contextlib.suppress(ValueError):
        values.extend(map(float, texts))  # keeps the items before the one that fails
    return values


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


def _is_header(row: list, date_format: str) -> bool:
    """A record of 2 fields whose date and value both fail to parse."""
    fields = [text.strip() for text in row]
    return (len(fields) == 2 and _parse_dates(fields[:1], date_format)[1] is not None
            and not _parse_floats(fields[1:]))


def load_csv(path, date_format: str = "%Y-%m-%d", name: str | None = None) -> RawSeries:
    """Load a two-column ``date,value`` CSV into a RawSeries.

    Line 1 is taken as a header when neither its date nor its value parses.
    Rows are sorted by date; duplicate dates are rejected.  A bad row raises
    the ParseError of the first bad row in the file.
    """
    path = Path(path)
    text = _read_text(path)
    rows = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
        fault = None
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        fault = ParseError(len(rows) + 1, str(exc))
    linenos = [i for i, row in enumerate(rows, start=1) if len(row) > 1 or row and row[0].strip()]
    if len(linenos) < len(rows):  # drop blank lines
        rows = [rows[i - 1] for i in linenos]
    if linenos and linenos[0] == 1 and _is_header(rows[0], date_format):
        del linenos[0], rows[0]
    # Every column is checked over the records before the first one with the
    # wrong field count; the first record that fails any check raises the
    # error of its first failing check, in the order field count, date, value, finite.
    wrong = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != 2)
    head = rows[:wrong[0]] if wrong.size else rows
    date_texts = list(map(str.strip, map(operator.itemgetter(0), head)))
    value_texts = list(map(str.strip, map(operator.itemgetter(1), head)))
    dates, date_error = _parse_dates(date_texts, date_format)
    values = _parse_floats(value_texts)
    # the appended inf makes the argmin stop at the first bad or non-finite value
    n = min(len(dates), int(np.argmin(np.isfinite(values + [math.inf]))))
    if n < len(rows):
        if n == len(head):
            raise ParseError(linenos[n], f"expected 2 fields, got {len(rows[n])}")
        if n == len(dates):
            raise ParseError(linenos[n],
                             f"bad date {date_texts[n]!r}: {date_error}") from date_error
        if n == len(values):
            raise ParseError(linenos[n], f"bad value {value_texts[n]!r}")
        raise ParseError(linenos[n], f"non-finite value {value_texts[n]!r}")
    if fault:
        raise fault
    if not rows:
        raise EmptyFile(f"{path} contains no data rows")
    # sorted in one pass when already in order; RawSeries rejects a duplicate date
    points = sorted(zip(dates, values), key=operator.itemgetter(0))
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
            raise GapError(*_year_month(idx))
        month_values = buckets[idx]
        values.append(math.fsum(month_values) / len(month_values))
    return Series(raw.name, _year_month(first), values)


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
    return Series(s.name, _year_month(s.start_index + order), np.diff(s.values, n=order))


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
