from .collections import (
    ComponentCollection,
    DuplicateKeyError,
    MissingKeyError,
)
from .events import Event
from .timeseries import (
    CLAMP,
    ERROR,
    LINEAR,
    STEPWISE,
    TimeSeries,
    TimeSeriesRangeError,
    parse_time,
)

__all__ = [
    "ComponentCollection",
    "DuplicateKeyError",
    "MissingKeyError",
    "Event",
    "TimeSeries",
    "TimeSeriesRangeError",
    "parse_time",
    "STEPWISE",
    "LINEAR",
    "CLAMP",
    "ERROR",
]
