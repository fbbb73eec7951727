"""Core series types: splits, standardization, lag embedding, CSV ingestion.

Everything downstream (forecasters, conformal calibration, evaluation)
works on the types defined here. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError
from .fileio import atomic_write_text, format_float

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

    def check_length(self, n: int) -> None:
        if self.test_end > n:
            raise ConfigError(f"split test_end {self.test_end} exceeds series length {n}")


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


def _window(values, start: int | None, end: int | None) -> np.ndarray:
    if isinstance(values, TimeSeries):
        values = values.values
    arr = np.asarray(values, dtype=float)
    lo = 0 if start is None else int(start)
    hi = arr.size if end is None else int(end)
    if lo < 0 or hi > arr.size or lo >= hi:
        raise ConfigError(f"window [{lo}, {hi}) out of bounds for length {arr.size}")
    return arr[lo:hi]


def fit_scaler(values, start: int | None = None, end: int | None = None) -> StandardScaler:
    """Sample mean and standard deviation (n-1 denominator) of a window.

    Constant or sub-length-2 windows are rejected outright rather than
    floored: a silently tiny std would corrupt every interval width
    downstream.
    """
    window = _window(values, start, end)
    if window.size < 2:
        raise NumericError(f"degenerate window: need at least 2 points, got {window.size}")
    if window.min() == window.max():
        raise NumericError("degenerate window: all values identical, std would be 0")
    return StandardScaler(mean=float(window.mean()), std=float(window.std(ddof=1)))


def lag_embed(
    values, lag: int, start: int | None = None, end: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Embed a window into (lagged features, next value) rows.

    Returns read-only ``(features, targets)``: row i of ``features`` is
    y[i .. i+lag-1], oldest first, and ``targets[i]`` is y[i+lag], so
    ``features[i, -1]`` is the value immediately before ``targets[i]``.
    Produces ``window_length - lag`` rows; the window must be strictly
    longer than the lag so at least one row exists.
    """
    if lag < 1:
        raise ConfigError(f"lag must be a positive integer, got {lag}")
    window = _window(values, start, end)
    n_rows = window.size - lag
    if n_rows < 1:
        raise NumericError(
            f"window of length {window.size} is too short for lag {lag}: no target rows"
        )
    features = np.lib.stride_tricks.sliding_window_view(window, lag)[:n_rows].copy()
    targets = window[lag:].copy()
    features.setflags(write=False)
    targets.setflags(write=False)
    return features, targets


def load_series_csv(path: str | Path) -> TimeSeries:
    """Read a series from a strict ``index,value`` CSV.

    Rows must be index-sorted and gap-free; any malformed row is a hard
    error naming the offending line.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty file, expected header 'index,value'") from None
        if tuple(h.strip() for h in header) != SERIES_CSV_HEADER:
            raise ConfigError(f"{path}: line 1: expected header 'index,value', got {header!r}")
        indices: list[int] = []
        values: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise ConfigError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                idx = int(row[0])
                val = float(row[1])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
            if not math.isfinite(val):
                raise ConfigError(f"{path}: line {lineno}: non-finite value {row[1]!r}")
            if indices and idx != indices[-1] + 1:
                raise ConfigError(
                    f"{path}: line {lineno}: index {idx} breaks the gap-free order "
                    f"(previous was {indices[-1]})"
                )
            indices.append(idx)
            values.append(val)
    if not values:
        raise ConfigError(f"{path}: no data rows")
    return TimeSeries(values=np.asarray(values), start_index=indices[0])


def write_series_csv(path: str | Path, series: TimeSeries) -> None:
    lines = ["index,value"]
    for i, value in enumerate(series.values):
        lines.append(f"{series.start_index + i},{format_float(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")
