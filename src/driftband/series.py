"""Core series types: splits, standardization, CSV ingestion.

Everything downstream (forecasters, conformal calibration, evaluation)
works on the types defined here. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError
from .fileio import atomic_write_text, format_csv, read_indexed_csv

SERIES_CSV_HEADER = ("index", "value")


@dataclass(frozen=True)
class TimeSeries:
    """A univariate real-valued series with contiguous integer indexing.

    ``values[i]`` is the observation at index ``start_index + i``.
    """

    values: np.ndarray
    start_index: int = 0

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ConfigError(f"series must be one-dimensional, got shape {values.shape}")
        if values.size < 1:
            raise ConfigError("series must contain at least one observation")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ConfigError(f"series contains a non-finite value at position {bad}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "start_index", int(self.start_index))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SplitSpec:
    """Exclusive end indices of the train / calibration / test windows.

    The calibration window ``[train_end, cal_end)`` always precedes every
    test point, which is what makes its residuals usable for calibration.
    """

    train_end: int
    cal_end: int
    test_end: int

    def __post_init__(self) -> None:
        if not (0 < self.train_end <= self.cal_end <= self.test_end):
            raise ConfigError(
                f"split boundaries must satisfy 0 < train_end <= cal_end <= test_end, "
                f"got ({self.train_end}, {self.cal_end}, {self.test_end})"
            )

    @classmethod
    def from_fractions(cls, n: int, fractions: tuple[float, float, float]) -> "SplitSpec":
        if len(fractions) != 3 or any(f <= 0 for f in fractions):
            raise ConfigError(f"split fractions must be three positive numbers, got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {fractions}")
        train_end = round(n * fractions[0])
        cal_end = train_end + round(n * fractions[1])
        return cls(train_end=train_end, cal_end=min(cal_end, n), test_end=n)


@dataclass(frozen=True)
class StandardScaler:
    """Affine standardization ``z = (x - mean) / std`` with ``std > 0``."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise NumericError("scaler statistics must be finite")
        if self.std <= 0:
            raise NumericError(f"scaler std must be positive, got {self.std}")

    def transform(self, x):
        return (x - self.mean) / self.std

    def inverse_transform(self, z):
        return z * self.std + self.mean


def fit_scaler(values, start: int | None = None, end: int | None = None) -> StandardScaler:
    """Sample mean and standard deviation (n-1 denominator) of a window.

    Constant or sub-length-2 windows are rejected outright rather than
    floored: a silently tiny std would corrupt every interval width
    downstream.
    """
    if isinstance(values, TimeSeries):
        values = values.values
    arr = np.asarray(values, dtype=float)
    lo = 0 if start is None else int(start)
    hi = arr.size if end is None else int(end)
    if lo < 0 or hi > arr.size or lo >= hi:
        raise ConfigError(f"window [{lo}, {hi}) out of bounds for length {arr.size}")
    window = arr[lo:hi]
    if window.size < 2:
        raise NumericError(f"degenerate window: need at least 2 points, got {window.size}")
    if window.min() == window.max():
        raise NumericError("degenerate window: all values identical, std would be 0")
    return StandardScaler(mean=float(window.mean()), std=float(window.std(ddof=1)))


def load_series_csv(path: str | Path) -> TimeSeries:
    """Read a series from a strict ``index,value`` CSV (rules in ``read_indexed_csv``)."""
    start, columns = read_indexed_csv(path, SERIES_CSV_HEADER)
    return TimeSeries(values=columns[0], start_index=start)


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    rows = enumerate(series.values, start=series.start_index)
    atomic_write_text(path, format_csv(SERIES_CSV_HEADER, rows))
