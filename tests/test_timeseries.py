import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridsim.core import (
    CLAMP,
    ERROR,
    LINEAR,
    STEPWISE,
    TimeSeries,
    TimeSeriesRangeError,
    parse_time,
)


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
], ids=["nan", "inf", "short", "long", "not-a-number"])
def test_from_csv_names_the_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "series.csv"
    path.write_text(f"# header\n0,1.0,10.0\n{row}\n120,3.0,30.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {message}"):
        TimeSeries.from_csv(path)


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
