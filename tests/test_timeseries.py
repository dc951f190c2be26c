import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridsim.core import timeseries as ts_mod
from gridsim.core import (
    CLAMP,
    ERROR,
    LINEAR,
    STEPWISE,
    TimeSeries,
    TimeSeriesRangeError,
    parse_time,
)

from conftest import DATA


def test_parse_time_integers_and_iso():
    assert parse_time(42) == 42
    assert parse_time("42") == 42
    assert parse_time(7.0) == 7
    assert parse_time("1970-01-01T00:01:00+00:00") == 60
    assert parse_time("1970-01-02") == 86400
    with pytest.raises(ValueError):
        parse_time(1.5)
    with pytest.raises(ValueError):
        parse_time("not a time")


def test_stepwise_lookup():
    ts = TimeSeries([0, 10, 20], [1.0, 2.0, 3.0])
    assert ts.value_at(0) == [1.0]
    assert ts.value_at(9) == [1.0]
    assert ts.value_at(10) == [2.0]
    assert ts.value_at(15) == [2.0]
    assert ts.value_at(20) == [3.0]


def test_linear_interpolation():
    ts = TimeSeries([0, 10], [0.0, 5.0], interpolation=LINEAR)
    assert ts.value_at(5) == pytest.approx([2.5])
    assert ts.value_at(0) == [0.0]
    assert ts.value_at(10) == [5.0]


def test_vector_valued_series():
    ts = TimeSeries([0, 10], [[1.0, 2.0], [3.0, 4.0]], interpolation=LINEAR)
    assert ts.dimension == 2
    np.testing.assert_allclose(ts.value_at(5), [2.0, 3.0])


def test_out_of_range_clamp_and_error():
    ts = TimeSeries([10, 20], [1.0, 2.0], out_of_range=CLAMP)
    assert ts.value_at(0) == [1.0]
    assert ts.value_at(99) == [2.0]
    ts_err = TimeSeries([10, 20], [1.0, 2.0], out_of_range=ERROR)
    with pytest.raises(TimeSeriesRangeError):
        ts_err.value_at(9)
    with pytest.raises(TimeSeriesRangeError):
        ts_err.value_at(21)


def test_next_knot_after():
    ts = TimeSeries([0, 10, 20], [1.0, 2.0, 3.0])
    assert ts.next_knot_after(-5) == 0
    assert ts.next_knot_after(0) == 10
    assert ts.next_knot_after(15) == 20
    assert ts.next_knot_after(20) is None


def test_validation_errors():
    with pytest.raises(ValueError):
        TimeSeries([], [])
    with pytest.raises(ValueError):
        TimeSeries([0, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        TimeSeries([10, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        TimeSeries([0], [1.0], interpolation="spline")
    with pytest.raises(ValueError):
        TimeSeries([0], [1.0], out_of_range="wrap")
    with pytest.raises(ValueError):
        TimeSeries([0, 1], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected(bad):
    with pytest.raises(ValueError, match=r"value at time 60 is not finite"):
        TimeSeries([0, 60, 120], [[1.0, 2.0], [3.0, bad], [5.0, 6.0]])


@pytest.mark.parametrize("row,message", [
    ("60,nan,20.0", r"value is not finite: \[nan, 20\.0\]"),
    ("60,2.0,-inf", r"value is not finite: \[2\.0, -inf\]"),
    ("60,2.0", r"1 values, where the first row has 2"),
    ("60,2.0,20.0,7.0", r"3 values, where the first row has 2"),
    ("60,2.0,abc", r"could not convert string to float"),
    ("0,2.0,20.0", r"times must be strictly increasing: 0 after 0"),
    ("-60,2.0,20.0", r"times must be strictly increasing: -60 after 0"),
    ("99999999999999999999,2.0,20.0",
     r"time 99999999999999999999 does not fit in 64 bits"),
    (None, r"time series must contain at least one point"),
], ids=["nan", "inf", "short", "long", "not-a-number", "repeat", "decreasing",
        "past-int64", "empty"])
def test_from_csv_names_the_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "series.csv"
    if row is None:  # comments and a blank line, and no row: only the file
        path.write_text("# header\n\n# time,P,Q\n")
        where = ""
    else:
        path.write_text(f"# header\n0,1.0,10.0\n{row}\n120,3.0,30.0\n")
        where = ":3"
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}{where}: {message}"):
        TimeSeries.from_csv(path)


# Cells a time or a value may be: integers signed, padded or underscored,
# numbers float() reads and int() does not, tokens neither reads, and
# ISO-8601 times, which only parse_time reads.
_TIME = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.builds("{}{:_}{}".format, st.sampled_from(["", " ", "+", "\xa0"]),
              st.integers(0, 10**7), st.sampled_from(["", " ", "\u2003"])),
    st.sampled_from(["600.0", "1970-01-01T00:10:00", "1970-01-01 00:20:00+00:00",
                     "\u0661", "1_0", "99999999999999999999", "1e3", "abc", ""]),
)
_VALUE = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "\u0661", "nan", "-inf", "inf", "1e500", "-0",
                     "600.0", " 2.5 ", "1e", "abc", ""]),
)


@st.composite
def _csv_text(draw):
    """A CSV text: rows of one width mostly and of another at times, '#'
    lines, blank lines and '#' in a row, with LF or CRLF line ends."""
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 5 + ["ragged", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# time_s,P_MW", "  #", "#,1"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            n = width if kind == "row" else width + draw(st.sampled_from([-1, 1]))
            row = ",".join([draw(_TIME | st.just("60"))] + draw(st.lists(
                _VALUE | st.sampled_from(["1.5", "2"]), min_size=n, max_size=n)))
            lines.append(row + draw(st.sampled_from([""] * 5 + [" # note"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _read(read, text):
    """What ``read`` makes of a CSV text: the bytes of its times and
    values, or the message of the error it raised."""
    rows, lines = ts_mod._data_rows(text)
    try:
        times, values = read("s.csv", rows, lines)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return (times.dtype, times.shape, times.tobytes(),
            values.dtype, values.shape, values.tobytes())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=_csv_text())
def test_a_series_reads_as_it_does_row_by_row(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _read(ts_mod._read_columns, text) == _read(ts_mod._read_rows, text)


def test_a_clean_series_is_read_in_one_call(monkeypatch):
    monkeypatch.setattr(ts_mod, "_read_rows", None)
    for path in (DATA / "pvdemo" / "loads").iterdir():
        assert TimeSeries.from_csv(path).values.shape == (145, 2)


def test_from_csv(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("# header comment\n0,1.0,10.0\n60,2.0,20.0\n\n120,3.0,30.0\n")
    ts = TimeSeries.from_csv(path, interpolation=LINEAR)
    assert ts.dimension == 2
    np.testing.assert_allclose(ts.value_at(30), [1.5, 15.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("0\n")
    with pytest.raises(ValueError):
        TimeSeries.from_csv(bad)


@given(
    st.lists(
        st.integers(min_value=0, max_value=10_000), unique=True, min_size=2, max_size=8
    ),
    st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
    st.floats(0.0, 1.0),
)
def test_linear_interpolation_is_affine(times, values, frac):
    times = sorted(times)
    values = values[: len(times)]
    ts = TimeSeries(times, values, interpolation=LINEAR)
    # check inside the first segment with an exact affine reference
    t0, t1 = times[0], times[1]
    t = t0 + frac * (t1 - t0)
    w = (t - t0) / (t1 - t0)
    expect = (1.0 - w) * values[0] + w * values[1]
    got = ts.value_at(int(t)) if float(t).is_integer() else None
    if got is not None:
        w_int = (int(t) - t0) / (t1 - t0)
        expect_int = (1.0 - w_int) * values[0] + w_int * values[1]
        assert abs(got[0] - expect_int) <= 1e-12 * max(1.0, abs(expect_int))
    assert abs(expect) < np.inf  # the reference itself is finite
