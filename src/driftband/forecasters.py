"""One-step-ahead forecasters behind a single small contract.

A forecaster is fit once on a training window, asked for a point
prediction of the next value given the full observed history so far,
and then told what actually happened. The calibration layer never looks
inside: predictions made elsewhere reach it through the ``forecast``
argument of ``evaluate.run_rolling`` or a trace CSV given to ``wrap``.

All forecasters operate in standardized units; rescaling to the
original data units happens in the evaluation layer.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, ConfigError, NumericError
from .fileio import read_indexed_csv
from .series import TimeSeries

TRACE_CSV_HEADER = ("index", "y_true", "y_hat")


class Forecaster(ABC):
    """Contract between a point forecaster and the calibration loop.

    ``predict_one`` receives the entire history prefix observed so far
    (training window included), oldest first. Implementations may keep
    their own internal window; the passed history is authoritative for
    the prediction itself.
    """

    @abstractmethod
    def fit(self, window) -> None:
        """Train on an initial window of observations."""

    @abstractmethod
    def predict_one(self, history) -> float:
        """Point prediction for the value following ``history``."""

    def observe(self, y: float) -> None:
        """Ingest the realized value for the most recent prediction."""


class PersistenceForecaster(Forecaster):
    """Predicts the most recent observation. The no-skill baseline."""

    def fit(self, window) -> None:
        if len(window) < 1:
            raise NumericError("persistence needs at least one observation to fit")

    def predict_one(self, history) -> float:
        if len(history) < 1:
            raise NumericError("persistence needs a non-empty history")
        return float(history[-1])


@dataclass(frozen=True)
class ArModel:
    """Fitted autoregression y_t = intercept + coef . (p previous values).

    ``coef[j]`` multiplies the j-th oldest of the p lags, so prediction
    takes the last p history values in natural (oldest first) order.
    """

    coef: np.ndarray
    intercept: float
    order: int

    def __post_init__(self) -> None:
        coef = np.asarray(self.coef, dtype=float)
        if coef.shape != (self.order,):
            raise ConfigError(f"expected {self.order} coefficients, got shape {coef.shape}")
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)

    def predict(self, history) -> float:
        history = np.asarray(history, dtype=float)
        if history.size < self.order:
            raise NumericError(
                f"history of length {history.size} is shorter than the model order "
                f"{self.order}"
            )
        return float(self.intercept + self.coef @ history[-self.order :])


def ar_fit(window, order: int) -> ArModel:
    """Least-squares autoregression of the given order on a window.

    Solves the centered normal equations of the lag rows, width
    ``order + 1`` slices of the window minus its mean: the order x order
    lag block of their Gram is eigendecomposed, eigenvalues at or below
    ``(n + order**2) * eps * max`` are dropped, and one refinement step
    follows. So a rank-deficient window predicts as a minimum-norm
    ``lstsq`` does, and a constant window gives exactly zero coefficients
    and its level as intercept.

    The Gram is formed as in the covariance method of linear prediction,
    from one correlation of the window and a running update down its
    diagonals; the refinement step reads the window through correlations
    too, so no lag row is copied. Cost per call: O(n * order) plus
    O(order**3).

    The cutoff is taken from measurement, not derived. ``n * eps * max``
    alone is the rounding floor of n-term sums. On windows of order + 2
    points, where a segmented AR refits after an alarm, the rounding of
    the order updates that each entry gathers, and of ``eigh``, outweighs
    those sums: noise eigenvalues reach 4.6 times that floor on windows of
    order + 2 to order + 6 points of the Lorenz and toy series at order 24.
    The ``order**2`` term covers them about five times over.
    """
    if order < 1:
        raise ConfigError(f"autoregression order must be >= 1, got {order}")
    window = np.asarray(window, dtype=float)
    if window.size < order + 1:
        raise NumericError(
            f"window of length {window.size} cannot fit an order-{order} autoregression"
        )
    # Clamped into [min, max]: a constant window centers to exact zeros even if
    # its sum overflows.
    shift = min(max(window.mean(), window.min()), window.max())
    c = window - shift
    # An exact power-of-two scale keeps the Gram from overflowing or underflowing.
    scale = np.ldexp(1.0, np.frexp(np.abs(c).max())[1] - 1)
    c /= scale
    # G is the Gram of the m lag rows c[k : k + q]. Row i of ``skew`` holds
    # G[i, i:], so the first q * q values of its flat buffer are G in row-major
    # order; only G's upper triangle is formed.
    m, q = c.size - order, order + 1
    skew = np.zeros((q, q + 1))
    skew[0, :q] = np.correlate(c, c[:m], "valid")
    # P[i, j] = c[i+m] c[j+m] - c[i] c[j] is G[i+1, j+1] - G[i, j]. Laid out with
    # row length q, row i of ``steps`` holds P[i, i:], so one cumsum down the
    # rows sums each diagonal.
    steps = np.zeros(order * q)
    steps[: order * order] = (c[m:, None] * c[m:] - c[:order, None] * c[:order]).ravel()
    np.cumsum(steps.reshape(order, q), axis=0, out=skew[1:, :q])
    skew[1:, :q] += skew[0, :q]
    sums = np.concatenate(([0.0], np.cumsum(c)))
    mean = (sums[m:] - sums[:q]) / m
    gram = skew.ravel()[: q * q].reshape(q, q) - m * np.outer(mean, mean)
    eigvals, eigvecs = np.linalg.eigh(gram[:order, :order], UPLO="U")
    keep = eigvals > (window.size + order * order) * np.finfo(float).eps * eigvals[-1]
    basis, inverse = eigvecs[:, keep], 1.0 / eigvals[keep]
    coef = basis @ (inverse * (basis.T @ gram[:order, order]))
    # One refinement step from the rows' own residual takes the error from the
    # normal equations' cond**2 * eps down to about lstsq's cond * eps.
    resid = c[order:] - np.correlate(c[:-1], coef, "valid")
    coef += basis @ (inverse * (basis.T @ np.correlate(c[:-1], resid - resid.mean(), "valid")))
    intercept = float(shift + scale * mean[order] - (shift + scale * mean[:order]) @ coef)
    return ArModel(coef=coef, intercept=intercept, order=order)


class ArForecaster(Forecaster):
    """Autoregression refit periodically on a rolling window.

    The window length is pinned to the training window length at fit
    time; the model is refit every ``refit_every`` observations. Every value
    goes twice into a ring of twice that length, so refits read a view.

    A ``detector`` (None here; see ``SegmentedArForecaster``) watches the
    one-step residuals. An alarm truncates the fit window to the
    observation that raised it, on the view that older data came from a
    different regime. Until the new segment has ``order + 2`` points the
    forecaster falls back to persistence, then refits eagerly. Without a
    detector the segment never shrinks, so every refit reads the whole ring.
    """

    detector: CusumDetector | None = None

    def __init__(self, order: int, refit_every: int = 25) -> None:
        if order < 1:
            raise ConfigError(f"autoregression order must be >= 1, got {order}")
        if refit_every < 1:
            raise ConfigError(f"refit interval must be >= 1, got {refit_every}")
        self.order = int(order)
        self.refit_every = int(refit_every)
        self._ring: np.ndarray | None = None
        self._head = 0  # ring slot of the oldest value; the next observation overwrites it
        self._model: ArModel | None = None  # None while a segment regrows
        self._since_refit = 0
        self._segment_len = 0  # the fit window and later values, or those since an alarm
        self._last_pred: float | None = None

    def fit(self, window) -> None:
        arr = np.asarray(window, dtype=float)
        self._model = ar_fit(arr, self.order)
        self._ring, self._head = np.concatenate([arr, arr]), 0
        self._since_refit = 0
        self._segment_len = arr.size
        self._last_pred = None
        if self.detector is not None:
            self.detector.reset()

    def predict_one(self, history) -> float:
        if self._ring is None:
            raise NumericError("forecaster is not fitted")
        if self._model is None:
            if len(history) < 1:
                raise NumericError("persistence fallback needs a non-empty history")
            pred = float(history[-1])
        else:
            pred = self._model.predict(history)
        self._last_pred = pred
        return pred

    def observe(self, y: float) -> None:
        if self._ring is None:
            raise NumericError("forecaster is not fitted")
        y = float(y)
        pred, self._last_pred = self._last_pred, None
        alarm = self.detector is not None and pred is not None and self.detector.update(y - pred)
        size = self._ring.size // 2
        self._ring[self._head] = self._ring[self._head + size] = y
        self._head = (self._head + 1) % size
        if alarm:
            self._segment_len, self._model, self._since_refit = 1, None, 0
            return
        self._segment_len += 1
        self._since_refit += 1
        if self._model is None:
            due = self._segment_len >= self.order + 2
        else:
            due = self._since_refit >= self.refit_every
        if due:
            self._model = ar_fit(self._fit_window(), self.order)
            self._since_refit = 0

    def _fit_window(self) -> np.ndarray:
        """The last min(window, segment) values, oldest first, as a view of the ring."""
        size = self._ring.size // 2
        return self._ring[self._head + size - min(self._segment_len, size) : self._head + size]


class CusumDetector:
    """Two-sided CUSUM on standardized values with a warm-up reference.

    The first ``warmup`` updates only collect reference statistics; each
    later value is standardized against them and accumulated into
    one-sided sums S+ and S- with the usual drift allowance. Crossing
    the threshold raises an alarm and resets the detector into a fresh
    warm-up, so successive alarms are always separated by a re-learned
    reference. A warm-up whose values are constant within rounding, as
    when an AR fits a plateau exactly, is discarded and collected again:
    until the values vary there is nothing to standardize against, and
    no alarm.
    """

    def __init__(self, drift: float = 0.5, threshold: float = 5.0, warmup: int = 50) -> None:
        if not drift >= 0:  # also true for NaN
            raise ConfigError(f"drift allowance must be non-negative, got {drift}")
        if not threshold > 0:
            raise ConfigError(f"alarm threshold must be positive, got {threshold}")
        # Shorter references make the plug-in std too noisy to standardize against.
        if warmup < 30:
            raise ConfigError(f"warm-up must be at least 30 samples, got {warmup}")
        self.drift = float(drift)
        self.threshold = float(threshold)
        self.warmup = int(warmup)
        self.reset()

    def reset(self) -> None:
        self._samples: list[float] = []
        self._mean: float | None = None
        self._std: float | None = None
        self._pos = 0.0
        self._neg = 0.0

    def update(self, value: float) -> bool:
        value = float(value)
        if not math.isfinite(value):
            raise NumericError(f"detector fed a non-finite value: {value}")
        if self._mean is None:
            self._samples.append(value)
            if len(self._samples) >= self.warmup:
                arr = np.asarray(self._samples, dtype=float)
                std = float(arr.std(ddof=1))
                self._samples = []
                # A constant sample can come out at a few ulps instead of 0; the
                # floor is the rounding error of a sum of warmup values.
                floor = self.warmup * np.finfo(float).eps * float(np.abs(arr).max())
                if std > floor:
                    self._mean = float(arr.mean())
                    self._std = std
            return False
        z = (value - self._mean) / self._std
        self._pos = max(0.0, self._pos + z - self.drift)
        self._neg = max(0.0, self._neg - z - self.drift)
        if max(self._pos, self._neg) > self.threshold:
            self.reset()
            return True
        return False


class SegmentedArForecaster(ArForecaster):
    """The rolling autoregression plus a CUSUM detector on its one-step
    residuals: an alarm restarts the fit window (see ``ArForecaster``).
    With an infinite threshold this is exactly the plain rolling
    autoregression.
    """

    def __init__(
        self,
        order: int,
        refit_every: int = 25,
        drift: float = 0.5,
        threshold: float = 5.0,
        warmup: int = 50,
    ) -> None:
        super().__init__(order, refit_every)
        self.detector = CusumDetector(drift=drift, threshold=threshold, warmup=warmup)


@dataclass(frozen=True)
class ExternalForecastTrace:
    """Predictions produced outside this package, aligned by series index.

    Rows must cover a contiguous index range. ``y_true`` is carried so a
    wrap run can prove the trace really belongs to the series it is
    being calibrated against.
    """

    indices: np.ndarray
    y_true: np.ndarray
    y_hat: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=int)
        y_true = np.asarray(self.y_true, dtype=float)
        y_hat = np.asarray(self.y_hat, dtype=float)
        if not (indices.size == y_true.size == y_hat.size):
            raise ConfigError("trace columns must have equal length")
        if indices.size < 1:
            raise ConfigError("trace must contain at least one row")
        if indices.size > 1 and not np.all(np.diff(indices) == 1):
            raise ConfigError("trace indices must be consecutive and increasing")
        if not (np.all(np.isfinite(y_true)) and np.all(np.isfinite(y_hat))):
            raise ConfigError("trace values must be finite")
        for name, arr in (("indices", indices), ("y_true", y_true), ("y_hat", y_hat)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def start(self) -> int:
        return int(self.indices[0])

    @property
    def end(self) -> int:
        return int(self.indices[-1]) + 1

    def y_hat_at(self, t: int) -> float:
        if not self.start <= t < self.end:
            raise AlignmentError(
                f"trace covers indices [{self.start}, {self.end}) and has no row for {t}"
            )
        return float(self.y_hat[t - self.start])

    def validate_against(self, series: TimeSeries, start: int, end: int) -> None:
        """Check the trace can serve predictions for indices [start, end).

        The trace's recorded truths must match the series values there to
        within 1e-9; a mismatch means the trace was made from different
        data and calibrating on it would be meaningless.
        """
        if self.start > start or self.end < end:
            raise AlignmentError(
                f"trace covers indices [{self.start}, {self.end}) but the run needs "
                f"[{start}, {end})"
            )
        lo = start - series.start_index
        hi = end - series.start_index
        if lo < 0 or hi > len(series):
            raise AlignmentError(
                f"series covers indices [{series.start_index}, "
                f"{series.start_index + len(series)}) but the run needs [{start}, {end})"
            )
        expected = series.values[lo:hi]
        recorded = self.y_true[start - self.start : end - self.start]
        mismatch = np.flatnonzero(np.abs(recorded - expected) > 1e-9)
        if mismatch.size:
            t = start + int(mismatch[0])
            raise AlignmentError(
                f"trace y_true disagrees with the series at index {t}: "
                f"{recorded[mismatch[0]]!r} vs {expected[mismatch[0]]!r}"
            )

    @classmethod
    def from_csv(cls, path: str | Path) -> "ExternalForecastTrace":
        """Read a strict ``index,y_true,y_hat`` CSV (rules in ``read_indexed_csv``)."""
        start, (y_true, y_hat) = read_indexed_csv(path, TRACE_CSV_HEADER)
        return cls(indices=np.arange(start, start + y_true.size), y_true=y_true, y_hat=y_hat)


class ReplayForecaster(Forecaster):
    """Serves an external trace through the forecaster contract.

    Predictions are looked up by series index (the length of the history
    prefix fixes the index) and mapped into standardized units with the
    run's scaler, so calibration sees them exactly as it would a native
    forecaster's output.
    """

    def __init__(self, trace: ExternalForecastTrace, scaler, series_start: int = 0) -> None:
        self.trace = trace
        self._scaler = scaler
        self._series_start = int(series_start)

    def fit(self, window) -> None:
        pass

    def predict_one(self, history) -> float:
        t = self._series_start + len(history)
        return float(self._scaler.transform(self.trace.y_hat_at(t)))


def make_forecaster(name: str, **params) -> Forecaster:
    """Build a native forecaster by name ("persistence", "ar", "segmented_ar");
    ``params`` go to its constructor unchanged."""
    if name == "persistence":
        return PersistenceForecaster(**params)
    if name not in ("ar", "segmented_ar"):
        raise ConfigError(f"unknown forecaster {name!r}")
    if "order" not in params:
        raise ConfigError(f"forecaster {name!r} requires an order")
    return (ArForecaster if name == "ar" else SegmentedArForecaster)(**params)
