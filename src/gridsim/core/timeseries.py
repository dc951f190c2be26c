"""Time series with stepwise or linear interpolation.

Times are integer seconds since the Unix epoch; quasi-steady-state work
never needs sub-second resolution.  Values are fixed-dimension real
vectors, so a single series can carry e.g. (P, Q) pairs per knot.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

STEPWISE = "stepwise"
LINEAR = "linear"
CLAMP = "clamp"
ERROR = "error"


class TimeSeriesRangeError(ValueError):
    """Raised when a lookup falls outside the series and policy is 'error'."""


def parse_time(value) -> int:
    """Parse an ISO-8601 timestamp or an integer second count."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, float):
        if value != int(value):
            raise ValueError(f"non-integer timestamp: {value!r}")
        return int(value)
    text = str(value).strip()
    try:
        return int(text)
    except ValueError:
        pass
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def knot_times(times) -> np.ndarray:
    """``times`` as int64 seconds; a time with a fractional part is an
    error, where the cast alone would cut it off."""
    knots = np.asarray(times, dtype=np.int64)
    given = np.asarray(times)
    if given.dtype.kind == "f" and (cut := given != knots).any():
        raise ValueError(f"non-integer timestamp: {given[cut][0].item()!r}")
    return knots


def _first_non_finite(values: np.ndarray) -> int | None:
    """The first row of ``values`` holding a NaN or an infinity, or None."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    return int(finite.all(axis=1).argmin())


class TimeSeries:
    def __init__(
        self,
        times,
        values,
        interpolation: str = STEPWISE,
        out_of_range: str = CLAMP,
    ):
        self.times = knot_times(times)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self.values = values
        if interpolation not in (STEPWISE, LINEAR):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        if out_of_range not in (CLAMP, ERROR):
            raise ValueError(f"unknown out-of-range policy {out_of_range!r}")
        self.interpolation = interpolation
        self.out_of_range = out_of_range
        if len(self.times) == 0:
            raise ValueError("time series must contain at least one point")
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        k = _first_non_finite(self.values)
        if k is not None:
            raise ValueError(f"value at time {self.times[k]} is not finite: "
                             f"{self.values[k].tolist()}")

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def start_time(self) -> int:
        return int(self.times[0])

    @property
    def end_time(self) -> int:
        return int(self.times[-1])

    def value_at(self, t) -> np.ndarray:
        t = parse_time(t)
        if t < self.times[0] or t > self.times[-1]:
            if self.out_of_range == ERROR:
                raise TimeSeriesRangeError(
                    f"time {t} outside series range "
                    f"[{self.times[0]}, {self.times[-1]}]"
                )
            t = min(max(t, int(self.times[0])), int(self.times[-1]))
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        if self.interpolation == STEPWISE or self.times[idx] == t:
            return self.values[idx].copy()
        t0, t1 = self.times[idx], self.times[idx + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]

    def next_knot_after(self, t) -> int | None:
        """Earliest knot time strictly greater than t, or None."""
        t = parse_time(t)
        idx = int(np.searchsorted(self.times, t, side="right"))
        if idx >= len(self.times):
            return None
        return int(self.times[idx])

    @classmethod
    def from_csv(
        cls,
        path,
        interpolation: str = STEPWISE,
        out_of_range: str = CLAMP,
    ) -> "TimeSeries":
        """Load `time,value1[,value2...]` rows; '#' starts a comment line.

        Every row must carry as many values as the first, each a finite
        number, and a time later than the row before; an error names the
        file and line of the first row that does not.
        """
        rows, lines = _data_rows(Path(path).read_text())
        times, values = _read_columns(path, rows, lines)
        k = _first_non_finite(values)
        if k is not None:
            raise ValueError(f"{path}:{lines[k]}: value is not finite: "
                             f"{values[k].tolist()}")
        if len(times) == 0:
            raise ValueError(f"{path}: time series must contain at least one point")
        falls = np.flatnonzero(np.diff(times) <= 0)
        if len(falls):
            k = int(falls[0]) + 1
            raise ValueError(f"{path}:{lines[k]}: times must be strictly "
                             f"increasing: {times[k]} after {times[k - 1]}")
        return cls(times, values, interpolation, out_of_range)


def _data_rows(text: str) -> tuple[list[str], list[int]]:
    """The stripped text and the line number of each line of a CSV text
    that is neither blank nor a '#' comment."""
    rows, lines = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append(line)
            lines.append(lineno)
    return rows, lines


def _read_columns(path, rows, lines) -> tuple[np.ndarray, np.ndarray]:
    """The times and values of a CSV file's data rows.

    If every row has as many cells as the first, the time column and the
    value cells go through one numpy call each, which applies ``int()``
    and ``float()`` to every cell.  Rows those calls reject (ISO-8601
    times, bad cells) or that differ in width are read again by
    :func:`_read_rows`, which gives the same result or names the bad line.
    """
    width = rows[0].count(",") + 1 if rows else 0
    if width > 1 and all(row.count(",") == width - 1 for row in rows):
        cells = ",".join(rows).split(",")
        times = cells[::width]
        del cells[::width]
        try:
            return (np.array(times, dtype=np.int64),
                    np.array(cells, dtype=float).reshape(len(rows), -1))
        except (ValueError, OverflowError):
            pass
    return _read_rows(path, rows, lines)


def _read_rows(path, rows, lines) -> tuple[np.ndarray, np.ndarray]:
    """Parse data rows one by one through :func:`parse_time` and ``float``:
    the reference for :func:`_read_columns`, and the reader that names
    the line of the first bad row."""
    times: list[int] = []
    values: list[list[float]] = []
    t_range = np.iinfo(np.int64)
    for lineno, line in zip(lines, rows):
        parts = [p.strip() for p in line.split(",")]
        try:
            if len(parts) < 2:
                raise ValueError("expected time,value[,...]")
            t = parse_time(parts[0])
            if not t_range.min <= t <= t_range.max:
                raise ValueError(f"time {t} does not fit in 64 bits")
            times.append(t)
            values.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    for k, row in enumerate(values):
        if len(row) != len(values[0]):
            raise ValueError(f"{path}:{lines[k]}: {len(row)} values, "
                             f"where the first row has {len(values[0])}")
    return np.array(times, dtype=np.int64), np.array(values, dtype=float)
