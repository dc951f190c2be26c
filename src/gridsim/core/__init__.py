from .collections import (
    ComponentCollection,
    DuplicateKeyError,
    MissingKeyError,
)
from .events import ActionToken, Event, StaleTokenError
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
    "ActionToken",
    "Event",
    "StaleTokenError",
    "TimeSeries",
    "TimeSeriesRangeError",
    "parse_time",
    "STEPWISE",
    "LINEAR",
    "CLAMP",
    "ERROR",
]
