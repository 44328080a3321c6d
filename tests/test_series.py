import codecs
import csv
import datetime as dt
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longrun.errors import (
    DimensionMismatch,
    DomainError,
    DuplicateDate,
    EmptyFile,
    GapError,
    NoOverlap,
    ParseError,
    TooShort,
)
from longrun.series import (
    Panel,
    RawSeries,
    Series,
    _parse_date,
    _year_month,
    aggregate_monthly,
    align,
    diff,
    lag_matrix,
    load_csv,
    month_index,
    save_csv,
)
from longrun.synth import Rng

from conftest import make_series


def write_csv(path, rows):
    path.write_text("".join(f"{r}\n" for r in rows), encoding="utf-8")
    return path


def monthly_dates(start_year, start_month, n):
    idx0 = month_index(start_year, start_month)
    return [dt.date((idx0 + i) // 12, (idx0 + i) % 12 + 1, 1) for i in range(n)]


class TestLoadCsv:
    def test_two_rows(self, tmp_path):
        p = write_csv(tmp_path / "g.csv", ["2010-09-01,32000", "2010-09-02,32100"])
        raw = load_csv(p)
        assert len(raw) == 2
        assert raw.points[0] == (dt.date(2010, 9, 1), 32000.0)
        assert raw.name == "g"

    def test_header_detected(self, tmp_path):
        p = write_csv(tmp_path / "h.csv", ["date,value", "2010-09-01,1.5"])
        assert len(load_csv(p)) == 1

    def test_malformed_first_row_is_not_a_header(self, tmp_path):
        p = write_csv(tmp_path / "h1.csv", ["2000-01-01,1.0x", "2000-01-02,1.5"])
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.line_number == 1

    def test_unsorted_input_sorted(self, tmp_path):
        p = write_csv(tmp_path / "u.csv", ["2010-09-03,3", "2010-09-01,1", "2010-09-02,2"])
        raw = load_csv(p)
        assert [v for _, v in raw.points] == [1.0, 2.0, 3.0]

    def test_duplicate_date(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["2010-09-01,1", "2010-09-01,2"])
        with pytest.raises(DuplicateDate):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", [])
        with pytest.raises(EmptyFile):
            load_csv(p)

    def test_parse_error_carries_line(self, tmp_path):
        p = write_csv(tmp_path / "b.csv", ["2010-09-01,1", "notadate,2"])
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.line_number == 2

    def test_bad_value(self, tmp_path):
        p = write_csv(tmp_path / "v.csv", ["2010-09-01,1", "2010-09-02,oops"])
        with pytest.raises(ParseError):
            load_csv(p)

    def test_custom_date_format(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", ["01/09/2010,5"])
        raw = load_csv(p, date_format="%d/%m/%Y")
        assert raw.points[0][0] == dt.date(2010, 9, 1)

    @pytest.mark.parametrize("data", [
        b"2010-09-01,1\r\n2010-09-02,2\xff\n2010-09-03,3\n",
        b"2010-09-01,1\r2010-09-02,2\xff\r2010-09-03,3\r",  # CR-only line endings
        b"2010-09-01,1\n\r\n2010-09-02,2\xff\n",  # after a blank line: record 3
        codecs.BOM_UTF8 + b"2010-09-01,1\n2010-09-02,2\xff\n",  # after a byte-order mark
    ])
    def test_invalid_utf8_is_a_parse_error_on_its_line(self, tmp_path, data):
        p = tmp_path / "u.csv"
        p.write_bytes(data)
        line = 3 if b"\n\r\n" in data else 2
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.line_number == line
        assert str(err.value) == f"line {line}: not valid UTF-8: byte 0xff (invalid start byte)"

    @pytest.mark.parametrize("header", [[], ["date,value"]])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        plain = write_csv(tmp_path / "plain.csv", [*header, "2010-09-01,1.5", "2010-09-02,2"])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert load_csv(marked, name="plain") == load_csv(plain)

    @pytest.mark.parametrize("lines, line, message", [
        (["2010-09-01,1", "2010-09-02,{long}"], 2, "field larger than field limit ({limit})"),
        (["2010-09-01,1", "", "2010-09-02,{long}"], 3, "field larger than field limit ({limit})"),
        (["2010-09-01,1", "2010-09-02,x", "2010-09-03,{long}"], 2, "bad value 'x'"),
    ])
    def test_field_over_the_csv_limit_is_a_parse_error_on_its_record(self, tmp_path, lines,
                                                                     line, message):
        p = write_csv(tmp_path / "long.csv", [r.format(long="1" * 200_000) for r in lines])
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.line_number == line
        assert str(err.value) == f"line {line}: " + message.format(limit=csv.field_size_limit())

    def test_58_month_span(self, tmp_path):
        dates = monthly_dates(2010, 9, 58)
        assert dates[-1] == dt.date(2015, 6, 1)
        p = write_csv(tmp_path / "m.csv", [f"{d.isoformat()},{100 + i}" for i, d in enumerate(dates)])
        series = aggregate_monthly(load_csv(p))
        assert len(series) == 58
        assert series.start == (2010, 9)

    def test_round_trip_bit_exact(self, tmp_path):
        values = [0.1, 1.0 / 3.0, 32000.123456789, 7.25e-5, 123456789.987654321]
        rows = [f"{d.isoformat()},{v!r}" for d, v in zip(monthly_dates(2011, 1, 5), values)]
        p = write_csv(tmp_path / "r.csv", rows)
        first = load_csv(p)
        out = tmp_path / "r2.csv"
        save_csv(first, out)
        second = load_csv(out)
        assert second.points == first.points

    def test_year_below_1000_written_zero_padded(self, tmp_path):
        out = tmp_path / "early.csv"
        save_csv(RawSeries("x", ((dt.date(999, 1, 1), 2.5),)), out)
        assert out.read_text(encoding="utf-8") == "0999-01-01,2.5\n"
        assert load_csv(out).points == ((dt.date(999, 1, 1), 2.5),)

    @given(st.lists(st.tuples(st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31)),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=20, unique_by=lambda p: p[0]))
    def test_save_load_round_trip_property(self, points):
        raw = RawSeries("x", tuple(sorted(points)))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "r.csv"
            save_csv(raw, out)
            back = load_csv(out, name="x")
        assert [d for d, _ in back.points] == [d for d, _ in raw.points]
        assert [np.float64(v).tobytes() for _, v in back.points] == \
            [np.float64(v).tobytes() for _, v in raw.points]


def row_loop_load_csv(path, date_format="%Y-%m-%d", name=None):
    """load_csv as one loop over the rows, with strptime for every date: the
    reference for load_csv's fromisoformat fast path."""
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
                date = dt.datetime.strptime(date_text, date_format).date()
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
            rows.append((date, value, lineno))
    if not rows:
        raise EmptyFile(f"{path} contains no data rows")
    rows.sort(key=lambda r: r[0])
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] == prev[0]:
            raise DuplicateDate(cur[0])
    return RawSeries(name or path.stem, tuple((d, v) for d, v, _ in rows))


DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y")
# dates strptime alone accepts, impossible dates, year 0, other shapes
ODD_DATES = ("2010-1-5", "2010-01-5", "5/1/2010", "2010-02-30", "30/02/2010", "0000-01-01",
             "00/01/0000", "2010-13-01", "2010-01-32", "20100105", "2010-01-05T00", "notadate",
             "", "\uff12\uff10\uff11\uff10-\uff10\uff11-\uff10\uff15", "0001-01-01",
             "9999-12-31", "2010/01-05", "2010-01/05", "2010.01.05", "2010-W01", "2010-W01-1",
             "2010W011", "2010W01")
ODD_VALUES = ("inf", "-inf", "nan", "NaN", "1e400", "0", "-0.0", "-1.5", "abc", "", "1_000",
              "1.0x", "0x10")
ODD_RECORDS = ([], ["  "], ["a"], ["1", "2", "3"], ["2010-01-04", "1", ""], ["date", "value"],
               ["Date", "1.5"])


@st.composite
def csv_files(draw):
    """(text, date format): a date,value CSV of plausible rows with up to two
    faulty records, an optional header, up to two blank lines anywhere,
    whitespace, quoting and one of three line endings."""
    date_format = draw(st.sampled_from(DATE_FORMATS))
    # a narrow date range, so duplicate dates occur
    good_date = st.dates(dt.date(2009, 12, 1), dt.date(2010, 6, 30)).map(
        lambda d: d.strftime(date_format))
    good_value = st.one_of(st.floats(0.5, 1e9),
                           st.floats(allow_nan=False, allow_infinity=False)).map(repr)
    records = [[d, v] for d, v in draw(st.lists(st.tuples(good_date, good_value), max_size=12))]
    faults = st.one_of(st.tuples(st.sampled_from(ODD_DATES), good_value).map(list),
                       st.tuples(good_date, st.sampled_from(ODD_VALUES)).map(list),
                       st.sampled_from(ODD_RECORDS).map(list))
    for _ in range(draw(st.integers(0, 2))):
        records.insert(draw(st.integers(0, len(records))), draw(faults))
    if draw(st.booleans()):
        records.insert(0, ["date", "value"])
    for _ in range(draw(st.integers(0, 2))):
        records.insert(draw(st.integers(0, len(records))), [])

    def render(field):
        if draw(st.booleans()):
            pad = draw(st.sampled_from(["", " ", "\n"]))
            return f'"{pad}{field}{pad}"'
        pad = draw(st.sampled_from(["", " ", "\t"]))
        return f"{pad}{field}{pad}"

    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(",".join(map(render, r)) for r in records)
    return text + (newline if draw(st.booleans()) else ""), date_format


def load_outcome(load, path, date_format):
    """The loaded series with each value's type and bits, or the exception's type and text."""
    try:
        raw = load(path, date_format=date_format)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return raw.name, [(d, type(v), v.hex()) for d, v in raw.points]


class TestLoadCsvMatchesRowLoop:
    @pytest.mark.parametrize("date_format", DATE_FORMATS)
    @pytest.mark.parametrize("record", [[d, "1.5"] for d in ODD_DATES]
                             + [[None, v] for v in ODD_VALUES] + list(ODD_RECORDS))
    def test_each_fault_between_good_rows(self, tmp_path, record, date_format):
        def day(n):
            return dt.date(2010, 1, n).strftime(date_format)

        record = [day(5) if field is None else field for field in record]
        path = tmp_path / "in.csv"
        path.write_text(f"{day(4)},1\n{','.join(record)}\n{day(6)},2\n", encoding="utf-8")
        assert load_outcome(load_csv, path, date_format) == \
            load_outcome(row_loop_load_csv, path, date_format)

    @settings(max_examples=200, deadline=None)
    @given(csv_files())
    @example(("2010-01-01,1\n2010-01-01,x\n", "%Y-%m-%d"))
    @example(("2010-01-01,1\n2010-01-02,inf\n1,2,3\n", "%Y-%m-%d"))
    @example(("2010-01-02,1\n2010-01-01,-1\n2010-1-3,2\n", "%Y-%m-%d"))
    @example(("date,value\r\n\r\n 2010-01-02 ,\"1\"\r\n2010-02-30,2\r\n", "%Y-%m-%d"))
    @example(("05/01/2010,1\n2010-01-06,2\n", "%d/%m/%Y"))
    @example(("\ndate,value\n2010-01-01,1\n", "%Y-%m-%d"))
    def test_same_series_or_same_error(self, case):
        text, date_format = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(text.encode("utf-8"))
            want = load_outcome(row_loop_load_csv, path, date_format)
            got = load_outcome(load_csv, path, date_format)
        assert got == want


def strptime_outcome(text):
    """The date strptime parses, or its ValueError text."""
    try:
        return dt.datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError as exc:
        return f"ValueError: {exc}"


def parse_date_outcome(text):
    """The date ``_parse_date`` parses from ``text``, or its ValueError text."""
    try:
        return _parse_date(text, "%Y-%m-%d")
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestIsoDateFastPath:
    @pytest.mark.parametrize("text", [
        "2010-01-04", "2012-02-29", "2013-02-29", "2010-02-30", "0000-01-01",
        "0001-01-01", "9999-12-31", "2010-13-01", "2010-00-10", "2010-01-00",
        "2010-01-32", "2010-1-04", " 2010-01-04", "2010-01-04 ",
        "\uff12\uff10\uff11\uff10-\uff10\uff11-\uff10\uff14",  # full-width digits
        # week dates, which date.fromisoformat accepts and strptime rejects
        "2010-W01", "2010-W01-1", "2010W011", "2010W01",
        # 10 characters with "-" at positions 4 and 7, yet not dddd-dd-dd
        "-010-01-01", "2010-0a-01", "2010-01-0\uff11",
    ])
    def test_same_date_or_error_as_strptime(self, text):
        assert parse_date_outcome(text) == strptime_outcome(text)

    @given(st.one_of(
        st.dates().map(dt.date.isoformat),
        st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", fullmatch=True),
    ))
    def test_iso_shaped_fields_match_strptime(self, text):
        assert parse_date_outcome(text) == strptime_outcome(text)

    def test_impossible_date_reports_strptime_error(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ["2013-02-28,1", "2013-02-29,2"])
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.line_number == 2
        assert "day is out of range for month" in str(err.value)


class TestRawSeries:
    def test_dates_out_of_order(self):
        points = ((dt.date(2012, 2, 1), 1.0), (dt.date(2012, 1, 1), 2.0))
        with pytest.raises(DomainError, match="dates out of order at 2012-01-01"):
            RawSeries("x", points)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value(self, value):
        points = ((dt.date(2012, 1, 1), 1.0), (dt.date(2012, 2, 1), value))
        with pytest.raises(DomainError, match="non-finite value at 2012-02-01"):
            RawSeries("x", points)


class TestSeriesAndPanelChecks:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("build", [
        lambda value: Series("x", (2000, 1), [1.0, value, 2.0]),
        lambda value: Panel(("a", "x"), (2000, 1), [[1.0, 2.0], [3.0, value], [4.0, 5.0]]),
    ], ids=["Series", "Panel"])
    def test_series_with_a_non_finite_value(self, build, value):
        with pytest.raises(DomainError, match=r"^non-finite value in series 'x'$"):
            build(value)

    def test_panel_names_the_first_column_with_a_non_finite_value(self):
        data = np.ones((3, 3))
        data[2, 1] = data[0, 2] = math.nan
        with pytest.raises(DomainError, match=r"^non-finite value in series 'b'$"):
            Panel(("a", "b", "c"), (2000, 1), data)

    def test_shape_is_checked_before_finiteness(self):
        with pytest.raises(DimensionMismatch, match=r"^series 'x' must be 1-D, got 2-D$"):
            Series("x", (2000, 1), [[math.nan]])
        with pytest.raises(DimensionMismatch, match=r"^panel needs at least 2 periods"):
            Panel(("a", "b"), (2000, 1), [[math.nan, 1.0]])

    @pytest.mark.parametrize("shape", [(4, 3), (4,), (4, 2, 1)], ids=["3 columns", "1-D", "3-D"])
    def test_panel_data_must_be_t_by_m_with_one_column_per_label(self, shape):
        with pytest.raises(DimensionMismatch,
                           match=r"^panel data must be T x m with one column per label$"):
            Panel(("a", "b"), (2000, 1), np.ones(shape))

    @pytest.mark.parametrize("labels, t", [(("a", "b"), 1), (("a",), 3)],
                             ids=["1 period", "1 series"])
    def test_panel_needs_two_periods_and_two_series(self, labels, t):
        with pytest.raises(DimensionMismatch,
                           match=r"^panel needs at least 2 periods and 2 series$"):
            Panel(labels, (2000, 1), np.ones((t, len(labels))))

    @pytest.mark.parametrize("values", [np.ones((4, 2)), 5.0], ids=["2-D", "0-D"])
    def test_series_values_must_be_1d(self, values):
        with pytest.raises(DimensionMismatch,
                           match=rf"^series 'x' must be 1-D, got {np.ndim(values)}-D$"):
            Series("x", (2000, 1), values)

    @pytest.mark.parametrize("start, message", [
        ((2000, 13), "start month must lie in 1..12, got 13"),
        ((2000, 0), "start month must lie in 1..12, got 0"),
        ((2000,), "start must be a (year, month) pair of ints, got (2000,)"),
        ((2000, 1, 1), "start must be a (year, month) pair of ints, got (2000, 1, 1)"),
        ((2000, 1.0), "start must be a (year, month) pair of ints, got (2000, 1.0)"),
        ("2000", "start must be a (year, month) pair of ints, got '2000'"),
        (None, "start must be a (year, month) pair of ints, got None"),
    ])
    @pytest.mark.parametrize("build", [
        lambda start: Series("x", start, [1.0, 2.0]),
        lambda start: Panel(("a", "b"), start, np.ones((2, 2))),
    ], ids=["Series", "Panel"])
    def test_start_must_be_a_year_month_pair(self, build, start, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build(start)

    def test_start_is_stored_as_a_tuple_of_python_ints(self):
        for stored in (Series("x", [np.int64(2010), np.int64(9)], [1.0]).start,
                       Panel(("a", "b"), np.array([2010, 9]), np.ones((2, 2))).start):
            assert stored == (2010, 9)
            assert [type(v) for v in stored] == [int, int]


class TestStoredArraysAreCopies:
    def test_series_keeps_a_read_only_copy(self):
        values = np.arange(10.0)
        s = Series("x", (2000, 1), values)
        values[0] = 5.0  # the caller's array stays writable
        assert s.values[0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            s.values[0] = 5.0

    def test_panel_keeps_read_only_copies(self):
        data = np.ones((4, 2))
        panel = Panel(("a", "b"), (2000, 1), data)
        data[0, 0] = 5.0
        assert panel.data[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            panel.data[0] = 7


class TestAggregateMonthly:
    def test_one_per_month_identity(self):
        raw = RawSeries("x", tuple(zip(monthly_dates(2012, 3, 4), [1.0, 2.0, 3.0, 4.0])))
        series = aggregate_monthly(raw)
        assert series.values == pytest.approx([1.0, 2.0, 3.0, 4.0])

    def test_month_mean(self):
        points = (
            (dt.date(2012, 1, 5), 10.0),
            (dt.date(2012, 1, 15), 20.0),
            (dt.date(2012, 1, 25), 30.0),
        )
        assert aggregate_monthly(RawSeries("x", points)).values == pytest.approx([20.0])

    def test_daily_oracle_seed17(self):
        rng = Rng(17)
        points = []
        per_month = {}
        for year, month, days in [(2013, 1, 31), (2013, 2, 28), (2013, 3, 31)]:
            vals = [rng.normal() * 10.0 + 100.0 for _ in range(days)]
            per_month[(year, month)] = sum(vals) / len(vals)
            points.extend((dt.date(year, month, d + 1), v) for d, v in enumerate(vals))
        series = aggregate_monthly(RawSeries("x", tuple(points)))
        expected = [per_month[(2013, 1)], per_month[(2013, 2)], per_month[(2013, 3)]]
        assert series.values == pytest.approx(expected, rel=1e-12)

    def test_mean_within_month_bounds(self):
        rng = Rng(29)
        vals = [rng.normal() for _ in range(20)]
        points = tuple((dt.date(2014, 5, d + 1), v) for d, v in enumerate(vals))
        got = aggregate_monthly(RawSeries("x", points)).values[0]
        assert min(vals) <= got <= max(vals)

    def test_gap_error_names_month(self):
        points = ((dt.date(2012, 1, 1), 1.0), (dt.date(2012, 3, 1), 3.0))
        with pytest.raises(GapError) as err:
            aggregate_monthly(RawSeries("x", points))
        assert (err.value.year, err.value.month) == (2012, 2)
        assert "2012:02" in str(err.value)

    def test_series_ending_in_january(self):
        raw = RawSeries("x", tuple(zip(monthly_dates(2000, 1, 25), map(float, range(25)))))
        series = aggregate_monthly(raw)
        assert len(series) == 25
        assert series.start == (2000, 1)
        assert series.values[-1] == raw.points[-1][1]

    def test_empty_series_is_an_empty_file(self):
        with pytest.raises(EmptyFile, match=r"^cannot aggregate an empty series$"):
            aggregate_monthly(RawSeries("x", ()))

    def test_multi_month_gap_names_its_first_month(self):
        points = ((dt.date(2012, 1, 31), 1.0), (dt.date(2012, 4, 1), 4.0))
        with pytest.raises(GapError) as err:
            aggregate_monthly(RawSeries("x", points))
        assert (err.value.year, err.value.month) == (2012, 2)

    def test_first_of_two_gaps_late_in_a_long_series_is_named(self):
        days = (dt.date(2000, 1, 1) + dt.timedelta(n) for n in range(20 * 365))
        points = tuple((d, float(d.day)) for d in days
                       if (d.year, d.month) not in ((2019, 8), (2019, 11)))
        with pytest.raises(GapError) as err:
            aggregate_monthly(RawSeries("x", points))
        assert (err.value.year, err.value.month) == (2019, 8)
        assert "2019:08" in str(err.value)

    @pytest.mark.parametrize("values", [(1e308, 1e308), (-1e308, -1e308, 1e308)],
                             ids=["sum overflows", "partial sum overflows"])
    def test_month_sum_beyond_the_float_range_is_a_domain_error(self, values):
        points = ((dt.date(2011, 12, 31), 1.0),
                  *((dt.date(2012, 1, 1 + i), v) for i, v in enumerate(values)),
                  (dt.date(2012, 2, 1), 2.0))
        with pytest.raises(DomainError, match=r"^values of month 2012:01 overflow when summed$"):
            aggregate_monthly(RawSeries("x", points))


def bucket_dict_aggregate_monthly(raw):
    """aggregate_monthly as a dict of month buckets, then a loop over the month
    range: the reference for aggregate_monthly's single walk over month runs."""
    if len(raw) == 0:
        raise EmptyFile("cannot aggregate an empty series")
    buckets = {}
    for d, v in raw.points:
        buckets.setdefault(month_index(d.year, d.month), []).append(v)
    first = month_index(raw.points[0][0].year, raw.points[0][0].month)
    last = month_index(raw.points[-1][0].year, raw.points[-1][0].month)
    values = []
    for idx in range(first, last + 1):
        if idx not in buckets:
            raise GapError(*_year_month(idx))
        month_values = buckets[idx]
        try:
            values.append(math.fsum(month_values) / len(month_values))
        except OverflowError:
            raise DomainError("values of month {:04d}:{:02d} overflow when summed"
                              .format(*_year_month(idx))) from None
    return Series(raw.name, _year_month(first), values)


@st.composite
def dated_points(draw):
    """Points on strictly increasing dates.  Steps of up to 28 days never skip a
    month; longer steps can skip one or more, so some series have gaps."""
    day = draw(st.dates(dt.date(1, 1, 1), dt.date(9000, 12, 31)))
    max_step = draw(st.sampled_from([1, 28, 31, 75]))
    steps = draw(st.lists(st.integers(1, max_step), max_size=80))
    values = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))
    points = []
    for step in [0, *steps]:
        day += dt.timedelta(step)
        points.append((day, draw(values)))
    return tuple(points)


def aggregate_outcome(aggregate, raw):
    """Name, start and each mean's bits, or the exception's type, text and gap month."""
    try:
        series = aggregate(raw)
    except Exception as exc:  # compared by type, message and month
        return type(exc), str(exc), getattr(exc, "year", None), getattr(exc, "month", None)
    return series.name, series.start, [v.hex() for v in series.values.tolist()]


class TestAggregateMonthlyMatchesBucketDict:
    @settings(max_examples=200, deadline=None)
    @given(dated_points())
    def test_same_means_or_same_gap(self, points):
        raw = RawSeries("x", points)
        assert aggregate_outcome(aggregate_monthly, raw) == \
            aggregate_outcome(bucket_dict_aggregate_monthly, raw)


class TestAlign:
    def test_identical_spans(self):
        a = make_series([1.0, 2.0, 3.0], name="a")
        b = make_series([4.0, 5.0, 6.0], name="b")
        panel = align(a, b)
        assert len(panel) == 3
        assert panel.labels == ("a", "b")

    def test_58_month_overlap(self):
        a = make_series(np.arange(58.0), name="a", start=(2010, 9))
        b = make_series(np.arange(58.0) * 2, name="b", start=(2010, 9))
        assert len(align(a, b)) == 58

    def test_partial_overlap_symmetric(self):
        a = make_series(np.arange(10.0), name="a", start=(2010, 1))
        b = make_series(np.arange(8.0), name="b", start=(2010, 4))
        ab, ba = align(a, b), align(b, a)
        assert ab.start == ba.start == (2010, 4)
        assert len(ab) == 7
        assert ab.data[:, 0] == pytest.approx(a.values[3:])
        late = make_series(np.arange(8.0), name="late", start=(2010, 9))
        assert len(align(a, late)) == len(align(late, a)) == 2

    def test_disjoint_spans(self):
        a = make_series([1.0, 2.0], name="a", start=(2010, 1))
        b = make_series([1.0, 2.0], name="b", start=(2012, 1))
        with pytest.raises(NoOverlap):
            align(a, b)
        one_month = make_series([1.0, 2.0], name="c", start=(2010, 2))
        with pytest.raises(NoOverlap, match=r"^common span shorter than 2 months$"):
            align(a, one_month)

    def test_one_series_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"^align needs at least two series$"):
            align(make_series([1.0, 2.0, 3.0]))


class TestDiff:
    def test_constant_to_zeros(self):
        assert diff(make_series([5.0] * 6)).values == pytest.approx([0.0] * 5)

    def test_first_difference(self):
        assert diff(make_series([1.0, 3.0, 6.0, 10.0])).values == pytest.approx([2.0, 3.0, 4.0])

    def test_diff_of_cumsum_recovers(self):
        rng = Rng(55)
        eps = rng.normals(80)
        walk = make_series(np.cumsum(eps))
        assert diff(walk).values == pytest.approx(eps[1:], abs=1e-12)

    def test_length_and_start_shift(self):
        s = make_series(np.arange(12.0), start=(2019, 12))
        d = diff(s)
        assert len(d) == 11
        assert d.start == (2020, 1)

    def test_too_short(self):
        with pytest.raises(TooShort, match=r"^series of length 1 cannot be differenced$"):
            diff(make_series([1.0]))

    def test_two_points_give_one_difference(self):
        d = diff(make_series([1.0, 4.0], start=(2000, 12)))
        assert (d.start, d.values.tolist()) == ((2001, 1), [3.0])


class TestLagMatrix:
    def test_single_lag(self):
        m = lag_matrix(make_series([1.0, 2.0, 3.0, 4.0]), 1)
        assert m[:, 0] == pytest.approx([1.0, 2.0, 3.0])

    def test_boundary_one_row(self):
        m = lag_matrix(make_series([1.0, 2.0, 3.0, 4.0]), 3)
        assert m.shape == (1, 3)
        assert m[0] == pytest.approx([3.0, 2.0, 1.0])

    def test_index_arithmetic_oracle_seed19(self):
        x = Rng(19).normals(40)
        m = lag_matrix(make_series(x), 2)
        assert m.shape == (38, 2)
        for t in range(38):
            for j in range(2):
                assert m[t, j] == x[t + 2 - (j + 1)]

    def test_too_short(self):
        with pytest.raises(TooShort):
            lag_matrix(make_series([1.0, 2.0]), 2)

    def test_zero_lags_is_an_empty_block(self):
        assert lag_matrix(np.arange(5.0), 0).shape == (5, 0)
        assert lag_matrix(np.ones((5, 3)), 0).shape == (5, 0)
        with pytest.raises(DomainError):
            lag_matrix(np.arange(5.0), -1)

    def test_array_and_series_agree(self):
        x = Rng(23).normals(30)
        assert np.array_equal(lag_matrix(x, 3), lag_matrix(make_series(x), 3))

    def test_panel_gives_one_block_per_lag(self):
        data = np.arange(24.0).reshape(8, 3)
        m = lag_matrix(data, 2)
        assert m.shape == (6, 6)
        for t in range(6):
            assert list(m[t]) == [*data[t + 1], *data[t]]
