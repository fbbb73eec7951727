"""One-step-ahead forecasters: the autoregression, its change-point
detector, and external forecast traces.

The forecast pass in ``evaluate`` holds the run's standardized series
``z``. Persistence is the column ``z[train_end - 1 : test_end - 1]`` and
needs no class. The autoregression is fit once on the training window,
asked for a point prediction of the next value given the observed history
so far, and then handed that history with the realized value appended;
both are views of ``z``, so it keeps no copy of the series. The
calibration layer never looks inside: predictions made elsewhere reach it
through the ``forecast`` argument of ``evaluate.run_rolling`` or a trace
CSV given to ``wrap``.

All forecasters operate in standardized units; rescaling to the
original data units happens in the evaluation layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, ConfigError, NumericError
from .fileio import read_indexed_csv
from .series import TimeSeries

TRACE_CSV_HEADER = ("index", "y_true", "y_hat")


# perfbench/tracing.py subclasses this name; nothing else reads it.
Forecaster = object


@dataclass(frozen=True)
class ArModel:
    """Fitted autoregression y_t = intercept + coef . (p previous values).

    ``coef[j]`` multiplies the j-th oldest of the p lags, so prediction
    takes the last p history values in natural (oldest first) order.
    ``ar_fit`` builds it, and every history it predicts from is longer than
    the window it was fit on.
    """

    coef: np.ndarray
    intercept: float

    def predict(self, history) -> float:
        return float(self.intercept + self.coef @ history[-self.coef.size :])


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
    window = np.asarray(window, dtype=float)
    if window.size < order + 1:
        raise NumericError(
            f"window of length {window.size} cannot fit an order-{order} autoregression"
        )
    # Clamped into [min, max]: a constant window centers to exact zeros even if
    # its sum overflows. A non-finite value, or values of both signs near the
    # float limit, center to a non-finite one.
    with np.errstate(over="ignore", invalid="ignore"):
        shift = min(max(window.mean(), window.min()), window.max())
        c = window - shift
    peak = np.abs(c).max()
    if not math.isfinite(peak):
        raise NumericError(f"window of length {window.size} spans more than the float range")
    # An exact power-of-two scale keeps the Gram from overflowing or underflowing.
    scale = np.ldexp(1.0, np.frexp(peak)[1] - 1)
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
    return ArModel(coef=coef, intercept=intercept)


class ArForecaster:
    """Autoregression refit periodically on a rolling window of the history.

    The forecast pass calls ``fit(window)`` on the training window, then
    ``predict_one(history)`` for the value after ``history``, the whole
    prefix observed so far, oldest first; ``observe(history)`` gets that
    prefix plus the value realized after it, and may keep views of it.

    The window length is pinned to the training window length at fit
    time, and each refit reads a view of the last min(window, segment)
    values of the history ``observe`` gets. One clock times the refits:
    ``_refit_at`` is the segment length at which the next is due. ``fit``
    sets it to the window plus ``refit_every``, and each refit to its
    segment length plus ``refit_every``.

    A ``detector`` (``make_forecaster("segmented_ar", ...)`` attaches a
    ``CusumDetector``) watches the one-step residuals. An alarm truncates
    the fit window to the observation that raised it, on the view that
    older data came from a different regime, and sets the clock to
    ``order + 2``: until the new segment has that many points the
    forecaster falls back to persistence. Without a detector the segment
    never shrinks, so every refit reads the whole window.
    """

    def __init__(self, order: int, refit_every: int = 25) -> None:
        if order < 1:
            raise ConfigError(f"autoregression order must be >= 1, got {order}")
        if refit_every < 1:
            raise ConfigError(f"refit interval must be >= 1, got {refit_every}")
        self.order = int(order)
        self.refit_every = int(refit_every)
        self.detector: CusumDetector | None = None
        self._window = 0  # the fit window length
        self._model: ArModel | None = None  # None while a segment regrows
        self._segment_len = 0  # the fit window and later values, or those since an alarm
        self._refit_at = 0
        self._last_pred: float | None = None

    def fit(self, window) -> None:
        self._model = ar_fit(window, self.order)
        self._window = self._segment_len = len(window)
        self._refit_at = self._window + self.refit_every
        self._last_pred = None
        if self.detector is not None:
            self.detector.reset()

    def predict_one(self, history) -> float:
        pred = float(history[-1]) if self._model is None else self._model.predict(history)
        self._last_pred = pred
        return pred

    def observe(self, history) -> None:
        pred, self._last_pred = self._last_pred, None
        if self.detector is not None and pred is not None:
            if self.detector.update(float(history[-1]) - pred):
                self._segment_len, self._model, self._refit_at = 1, None, self.order + 2
                return
        self._segment_len += 1
        if self._segment_len >= self._refit_at:
            self._model = ar_fit(history[-min(self._segment_len, self._window) :], self.order)
            self._refit_at = self._segment_len + self.refit_every


class CusumDetector:
    """Two-sided CUSUM on standardized values with a warm-up reference.

    The first ``warmup`` updates only collect reference statistics; each
    later value is standardized against them and accumulated into
    one-sided sums S+ and S- with the usual drift allowance. Crossing
    the threshold raises an alarm and resets the detector into a fresh
    warm-up, so successive alarms are always separated by a re-learned
    reference. A warm-up whose values are constant within rounding, as
    when an AR fits a plateau exactly, or whose mean or std overflows is
    discarded and collected again: until the values give a finite, nonzero
    spread there is nothing to standardize against, and no alarm.
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
                self._samples = []
                with np.errstate(over="ignore", invalid="ignore"):  # discarded below
                    mean, std = float(arr.mean()), float(arr.std(ddof=1))
                # A constant sample can come out at a few ulps instead of 0; the
                # floor is the rounding error of a sum of warmup values.
                floor = self.warmup * np.finfo(float).eps * float(np.abs(arr).max())
                if floor < std < math.inf and math.isfinite(mean):
                    self._mean, self._std = mean, std
            return False
        z = (value - self._mean) / self._std
        self._pos = max(0.0, self._pos + z - self.drift)
        self._neg = max(0.0, self._neg - z - self.drift)
        if max(self._pos, self._neg) > self.threshold:
            self.reset()
            return True
        return False


@dataclass(frozen=True)
class ExternalForecastTrace:
    """Predictions produced outside this package, aligned by series index:
    row i holds index ``start + i``. ``y_true`` is carried so a wrap run can
    prove the trace really belongs to the series it is being calibrated
    against. ``read_indexed_csv`` checks the rows of ``from_csv``, the one
    constructor runs use: at least one, consecutive indices, finite values.
    """

    start: int
    y_true: np.ndarray
    y_hat: np.ndarray

    @property
    def end(self) -> int:
        return self.start + self.y_hat.size

    def validate_against(self, series: TimeSeries, start: int, end: int) -> None:
        """Check the trace can serve predictions for indices [start, end) of
        ``series``, a range within it.

        The trace's recorded truths must match the series values there to
        within 1e-9; a mismatch means the trace was made from different
        data and calibrating on it would be meaningless.
        """
        if self.start > start or self.end < end:
            raise AlignmentError(
                f"trace covers indices [{self.start}, {self.end}) but the run needs "
                f"[{start}, {end})"
            )
        expected = series.values[start - series.start_index : end - series.start_index]
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
        return cls(start=start, y_true=y_true, y_hat=y_hat)


def make_forecaster(name: str, **params) -> ArForecaster:
    """Build a native AR forecaster by name: "ar", or "segmented_ar", which
    takes the ``CusumDetector`` params ``drift``, ``threshold`` and ``warmup``
    too and attaches that detector. The other ``params``, ``order`` among them,
    go to ``ArForecaster``."""
    if name == "ar":
        return ArForecaster(**params)
    cusum = {k: params.pop(k) for k in ("drift", "threshold", "warmup") if k in params}
    forecaster = ArForecaster(**params)
    forecaster.detector = CusumDetector(**cusum)
    return forecaster
