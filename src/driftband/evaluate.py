"""Rolling one-step evaluation: configs, the run loop, metrics, and grids.

A run is two passes. The forecast pass fits a forecaster on the training
window and makes one-step forecasts for the calibration and test windows.
The calibration pass seeds the score buffer from the calibration window,
then walks the test window one step at a time, forming a band before each
observation arrives. Everything numeric happens in standardized units;
the band table and metrics are reported in the original units of the data.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import conformal, datagen, forecasters
from .errors import ConfigError, NumericError
from .fileio import atomic_write_text, check_integer_fields, check_keys, format_csv, read_json
from .forecasters import make_forecaster  # perfbench/tracing.py patches this name
from .series import (
    SplitSpec,
    StandardScaler,
    TimeSeries,
    fit_scaler,
    load_series_csv,
)

METHODS = ("none", "split", "aci", "agaci")
FORECASTERS = ("persistence", "ar", "segmented_ar", "replay")
BANDS_CSV_HEADER = ("index", "y", "y_hat", "lower", "upper", "alpha_t", "covered")
# The JSON type of each metric, in the order of the metrics JSON and the comparison CSV.
_METRIC_TYPES = {
    "rmse": "a number", "coverage": "a number or null", "median_width": "a number or null",
    "n_infinite": "an integer", "n_zero_width": "an integer", "n_steps": "an integer",
}
COMPARISON_CSV_HEADER = ("dataset", "forecaster", "method", "status", *_METRIC_TYPES)

DEFAULT_GAMMA_GRID = (1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one evaluation run.

    ``dataset`` is "toy", "lorenz" (generated on the fly with this
    config's seed) or a path to a series CSV. The autoregression order
    is min(lag, train length / 4) unless ``forecaster_params`` sets
    ``order``, which is taken as is. ``forecaster_params`` the forecaster
    does not take, of the wrong type or out of its range are a ``ConfigError``.
    """

    dataset: str
    forecaster: str = "ar"
    method: str = "aci"
    name: str | None = None
    forecaster_params: dict = field(default_factory=dict)
    alpha: float = 0.1
    gamma: float = 0.01
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    eta: float = conformal.AgAciState.eta  # the bank's defaults
    weight_floor: float = conformal.AgAciState.weight_floor
    cap_factor: float = conformal.AgAciState.infinite_cap_factor
    lag: int = 24
    split: tuple[float, float, float] = (0.5, 0.2, 0.3)
    seed: int = 0
    buffer_mode: str = "rolling"

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ConfigError("config needs a dataset")
        # a run writes <name>.metrics.json and <name>.bands.csv into its output directory
        name = self.name or ""
        if name in (".", "..") or any(c and c in name for c in ("/", os.sep, os.altsep, "\0")):
            raise ConfigError(f"name must be a plain file name, got {self.name!r}")
        if self.forecaster not in FORECASTERS:
            raise ConfigError(
                f"forecaster must be one of {FORECASTERS}, got {self.forecaster!r}"
            )
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for key in ("alpha", "gamma", "eta", "weight_floor", "cap_factor"):
            if not isinstance(getattr(self, key), numbers.Real):  # named before a range check
                raise ConfigError(f"{key} must be a number, got {getattr(self, key)!r}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")
        if not math.isfinite(self.gamma):
            raise ConfigError(f"gamma must be finite, got {self.gamma}")
        _set_floats(self, "gamma_grid", "gamma_grid must be distinct non-negative steps")
        if self.method == "agaci" and not self.gamma_grid:
            raise ConfigError("agaci needs a nonempty gamma grid")
        grid = self.gamma_grid
        if any(g < 0 for g in grid) or len(set(grid)) < len(grid):
            raise ConfigError(f"gamma_grid must be distinct non-negative steps, got {list(grid)}")
        if not all(map(math.isfinite, grid)):
            raise ConfigError(f"gamma_grid steps must be finite, got {list(grid)}")
        if not self.eta >= 0:  # also true for NaN
            raise ConfigError(f"eta must be non-negative, got {self.eta}")
        if not 0 <= self.weight_floor < 1:
            raise ConfigError(f"weight_floor must lie in [0, 1), got {self.weight_floor}")
        if not self.cap_factor > 0:
            raise ConfigError(f"cap_factor must be positive, got {self.cap_factor}")
        _set_floats(self, "split", "split must be three positive fractions")
        if len(self.split) != 3 or any(not f > 0 for f in self.split):
            raise ConfigError(f"split must be three positive fractions, got {self.split}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {self.split}")
        if self.buffer_mode not in ("rolling", "frozen"):
            raise ConfigError(
                f"buffer_mode must be 'rolling' or 'frozen', got {self.buffer_mode!r}"
            )
        check_integer_fields(self, ("lag", "seed"), numbers_only=True)
        if self.lag < 1:
            raise ConfigError(f"lag must be >= 1, got {self.lag}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        check_integer_fields(self, ("lag", "seed"))
        where = f"{self.forecaster} forecaster_params"
        check_keys(self.forecaster_params, _FORECASTER_PARAM_TYPES[self.forecaster], where)
        if self.forecaster in ("ar", "segmented_ar"):
            try:  # the values, by the forecaster's own checks; the run builds its own later
                forecasters.make_forecaster(
                    self.forecaster, **{"order": self.lag, **self.forecaster_params}
                )
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from None

    @property
    def run_name(self) -> str:
        if self.name:
            return self.name
        return f"{dataset_label(self.dataset)}-{self.forecaster}-{self.method}"


def _set_floats(config: RunConfig, key: str, rule: str) -> None:
    """Make field ``key`` a tuple of floats; a value that is not a sequence of
    real numbers is a ``ConfigError``: ``rule``, with the value."""
    value = getattr(config, key)
    items = tuple(value) if isinstance(value, Iterable) else None
    if items is None or not all(isinstance(x, numbers.Real) for x in items):
        raise ConfigError(f"{rule}, got {value!r}")
    object.__setattr__(config, key, tuple(map(float, items)))


# The JSON type each key of a run config must have.
_RUN_CONFIG_TYPES = {
    "dataset": "a string", "forecaster": "a string", "method": "a string",
    "name": "a string or null", "forecaster_params": "an object", "alpha": "a number",
    "gamma": "a number", "gamma_grid": "a list of numbers", "eta": "a number",
    "weight_floor": "a number", "cap_factor": "a number", "lag": "an integer",
    "split": "a list of numbers", "seed": "an integer", "buffer_mode": "a string",
}
# The forecaster_params each forecaster takes, with their JSON types.
_AR_PARAM_TYPES = {"order": "an integer", "refit_every": "an integer"}
_FORECASTER_PARAM_TYPES = {
    "persistence": {}, "replay": {}, "ar": _AR_PARAM_TYPES,
    "segmented_ar": {**_AR_PARAM_TYPES, "drift": "a number", "threshold": "a number",
                     "warmup": "an integer"},
}


def run_config_from_dict(payload: dict) -> RunConfig:
    """Build a RunConfig from a parsed JSON object.

    Unknown keys, values of the wrong JSON type and forecaster_params the
    configured forecaster does not take are an error naming the key.
    """
    check_keys(payload, _RUN_CONFIG_TYPES, "run config", required=("dataset",))
    return RunConfig(**payload)


def dataset_label(dataset: str) -> str:
    return Path(dataset).stem


def load_dataset(config: RunConfig) -> TimeSeries:
    """Materialize the configured dataset (builtin generators use the run seed)."""
    if config.dataset in ("toy", "lorenz"):
        return datagen.generate({"kind": config.dataset, "seed": config.seed})[0]
    return load_series_csv(config.dataset)


@dataclass(frozen=True, eq=False)
class RunReport:
    """Metrics plus the per-step band table of one run.

    ``columns`` maps each bands CSV column to an array with one entry per
    test step, in the original units of the data: ``index`` (the series
    index), ``y``, ``y_hat``, and the band columns ``lower``, ``upper``,
    ``alpha_t`` (the working miscoverage level the band was formed at:
    nominal for split, the weighted effective level for aggregated runs)
    and ``covered``. A run without bands has None for the band columns.
    The arrays are read-only: the cells of one grid forecast key share
    their ``index``, ``y`` and ``y_hat`` arrays.
    """

    config: RunConfig
    rmse: float
    coverage: float | None
    median_width: float | None
    n_infinite: int
    n_zero_width: int
    n_steps: int
    alpha_final: float | None
    columns: dict[str, np.ndarray | None]

    def __post_init__(self) -> None:
        for column in self.columns.values():
            if column is not None:
                column.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()  # an unpickled array is writable again


def compute_metrics(columns: dict[str, np.ndarray | None]) -> dict:
    """Metric fields over a run's column table of at least one step.

    The width statistic is the lower median of the finite widths;
    infinite bands are counted separately so one of them cannot poison
    the number. Runs without bands get None for coverage and width.
    """
    y = columns["y"]
    with np.errstate(over="ignore"):  # an overflowing error makes an infinite rmse
        rmse = float(np.sqrt(np.mean((y - columns["y_hat"]) ** 2)))
    metrics = {
        "rmse": rmse,
        "coverage": None, "median_width": None, "n_infinite": 0, "n_zero_width": 0,
        "n_steps": len(y),
    }
    if columns["lower"] is not None:
        # Overflow to inf, as on Python floats; a band whose ends both overflow
        # to the same inf has a NaN width and is infinite too.
        with np.errstate(over="ignore", invalid="ignore"):
            widths = columns["upper"] - columns["lower"]
        finite = np.sort(widths[np.isfinite(widths)])
        metrics.update(
            coverage=int(np.count_nonzero(columns["covered"])) / len(widths),
            median_width=float(finite[(finite.size - 1) // 2]) if finite.size else math.inf,
            n_infinite=len(widths) - finite.size,
            n_zero_width=int(np.count_nonzero(widths == 0.0)),
        )
    return metrics


Forecast = Callable[[TimeSeries, SplitSpec, StandardScaler, np.ndarray], np.ndarray]


def _native_forecast(config: RunConfig) -> Forecast:
    """The forecast pass of the configured native forecaster.

    Persistence is the standardized series ``z`` shifted by one step. An AR
    is fit on the training window of ``z``, then predicts each index of
    [train_end, test_end) in turn on views of ``z``, observing each value
    just before the forecast that reads it, so never the last one. Its
    column is cut after the first non-finite prediction (``run_rolling``
    names it). A numeric failure while observing is re-raised naming the
    phase and series index of the value observed.
    """

    # An AR fed huge values overflows to inf, and inf - inf is NaN: the observe
    # guard or the column check names either, so numpy need not warn too.
    @np.errstate(over="ignore", invalid="ignore")
    def forecast(series: TimeSeries, split: SplitSpec, scaler: StandardScaler, z) -> np.ndarray:
        if config.forecaster == "replay":
            raise ConfigError(
                "forecaster 'replay' only runs through the wrap command with a trace file"
            )
        if config.forecaster == "persistence":
            return z[split.train_end - 1 : split.test_end - 1]
        params = dict(config.forecaster_params)
        params.setdefault("order", max(1, min(config.lag, split.train_end // 4)))
        forecaster = make_forecaster(config.forecaster, **params)
        try:
            forecaster.fit(z[: split.train_end])
        except NumericError as exc:
            raise NumericError(
                f"while fitting the forecaster on the training window: {exc}"
            ) from None
        predictions = [forecaster.predict_one(z[: split.train_end])]
        for t in range(split.train_end + 1, split.test_end):
            if not math.isfinite(predictions[-1]):
                break
            try:
                forecaster.observe(z[:t])  # the value at t - 1
            except NumericError as exc:
                phase = "calibration seeding" if t <= split.cal_end else "test step"
                raise NumericError(
                    f"{phase}: while observing series index {series.start_index + t - 1}: {exc}"
                ) from None
            predictions.append(forecaster.predict_one(z[:t]))
        return np.array(predictions, dtype=float)

    return forecast


def _forecast_pass(
    config: RunConfig, series: TimeSeries, forecast: Forecast
) -> tuple[SplitSpec, StandardScaler, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Split and scale ``series``, then run ``forecast`` over [train_end,
    test_end) and check its column. Returns what calibration reads: the
    split, the scaler, the standardized series ``z``, the column and the
    ``index``, ``y`` and ``y_hat`` report columns of the test window."""
    split = SplitSpec.from_fractions(len(series), config.split)
    try:
        scaler = fit_scaler(series.values[: split.train_end])
    except NumericError as exc:
        raise NumericError(f"while fitting the scaler on the training window: {exc}") from None
    z = scaler.transform(series.values)
    y_hat = np.asarray(forecast(series, split, scaler, z), float)
    n_seed, n_run = split.cal_end - split.train_end, split.test_end - split.train_end
    shape_error = ConfigError(
        f"the forecast pass gave shape {y_hat.shape} for indices "
        f"[{split.train_end}, {split.test_end})"
    )
    if y_hat.ndim != 1 or y_hat.size > n_run:
        raise shape_error
    bad = np.flatnonzero(~np.isfinite(y_hat))
    if bad.size:
        i = int(bad[0])
        raise NumericError(
            f"{'calibration seeding' if i < n_seed else 'test step'}: the forecast for "
            f"series index {series.start_index + split.train_end + i} is {float(y_hat[i])!r}"
        )
    # last: the native pass stops after its first non-finite forecast
    if y_hat.size < n_run:
        raise shape_error
    return split, scaler, z, y_hat, {
        "index": np.arange(split.cal_end, split.test_end) + series.start_index,
        "y": series.values[split.cal_end : split.test_end],
        # The same IEEE multiply-add per element as a scalar inverse_transform.
        "y_hat": scaler.inverse_transform(y_hat[n_seed:]),
    }


def run_rolling(
    config: RunConfig, series: TimeSeries | None = None, forecast: Forecast | None = None
) -> RunReport:
    """Execute one full evaluation run: a forecast pass, then calibration.

    ``forecast(series, split, scaler, z)`` returns the one-step forecasts,
    in the standardized units of ``z``, for the indices [train_end,
    test_end) of the split; by default the configured native forecaster
    makes them. ``series`` defaults to the config's dataset. Both exist
    for callers that bring their own data or predictions: the forecaster
    never sees a band, so one forecast pass serves every method.
    """
    if series is None:
        series = load_dataset(config)
    forecast = forecast or _native_forecast(config)
    [report] = _calibrate_key([config], *_forecast_pass(config, series, forecast))
    if isinstance(report, Exception):
        raise report
    return report


def _calibrate_key(
    configs: Sequence[RunConfig], split: SplitSpec, scaler: StandardScaler, z: np.ndarray,
    y_hat: np.ndarray, test_columns: dict[str, np.ndarray],
) -> list[RunReport | NumericError]:
    """The calibration pass of a key's cells on its forecast pass, whose ``test_columns``
    arrays the reports hold. A score does not depend on the method, so the banded cells
    of one buffer mode walk one score buffer in lockstep. A score beyond the float range
    fails, before any walk, every banded cell whose buffer would take it: all of them
    for a seeding score, the rolling ones for a test score."""
    n_seed = split.cal_end - split.train_end
    y_hat_test, z_test = y_hat[n_seed:], z[split.cal_end : split.test_end]
    # y and f are Python floats, so abs(y - f) is conformal.residual_score
    z_run, y_hat_run = z[split.train_end : split.test_end].tolist(), y_hat.tolist()
    scores = [abs(y - f) for y, f in zip(z_run, y_hat_run)]
    overflow = scores.index(math.inf) if math.inf in scores else len(scores)
    band_free = {**test_columns, "lower": None, "upper": None, "alpha_t": None, "covered": None}
    results: dict[int, RunReport | NumericError] = {}
    for mode in dict.fromkeys(c.buffer_mode for c in configs if c.method != "none"):
        cells = [i for i, c in enumerate(configs) if c.method != "none" and c.buffer_mode == mode]
        if overflow < (len(scores) if mode == "rolling" else n_seed):  # its buffer takes it
            results.update(dict.fromkeys(cells, NumericError(
                f"{'calibration seeding' if overflow < n_seed else 'test step'}: the score at "
                f"series index {int(test_columns['index'][0]) - n_seed + overflow} is inf"
            )))
            continue
        # Split conformal is ACI with gamma = 0, and ACI is a bank of one expert.
        banks = [conformal.AgAciState.from_gammas(
            c.alpha, {"split": (0.0,), "aci": (c.gamma,)}.get(c.method, c.gamma_grid),
            eta=c.eta, weight_floor=c.weight_floor, infinite_cap_factor=c.cap_factor,
        ) for c in map(configs.__getitem__, cells)]
        walks = conformal.calibrate(
            banks, conformal.ScoreBuffer(n_seed, scores[:n_seed]), z_run[n_seed:],
            y_hat_run[n_seed:], mode == "rolling",
        )
        for i, (half_widths, alphas, bank) in zip(cells, walks):
            with np.errstate(over="ignore"):  # overflow to inf, as on Python floats
                lower, upper = y_hat_test - half_widths, y_hat_test + half_widths
            columns = {**band_free, "lower": scaler.inverse_transform(lower),
                       "upper": scaler.inverse_transform(upper), "alpha_t": np.array(alphas),
                       "covered": (lower <= z_test) & (z_test <= upper)}  # as covers() does
            results[i] = RunReport(config=configs[i], **compute_metrics(columns),
                                   alpha_final=bank.alpha_t, columns=columns)
    return [results.get(i) or RunReport(config=c, **compute_metrics(band_free), alpha_final=None,
                                         columns=dict(band_free)) for i, c in enumerate(configs)]


@dataclass(frozen=True)
class RunFailure:
    """A grid cell whose run raised instead of reporting."""

    config: RunConfig
    kind: str
    error: str


def _failure(config: RunConfig, exc: BaseException) -> RunFailure:
    return RunFailure(config=config, kind=type(exc).__name__, error=str(exc))


def _forecast_key(config: RunConfig) -> tuple:
    """The fields a forecast pass depends on; cells that share them share it. The
    first is the load source, the fields ``load_dataset`` reads: the dataset, and
    the seed only for the builtin generators."""
    source = config.dataset, config.seed if config.dataset in ("toy", "lorenz") else None
    params = tuple(sorted(config.forecaster_params.items()))
    return (source, config.forecaster, params, config.lag, config.split)


def _run_key(
    configs: Sequence[RunConfig], series: TimeSeries | Exception
) -> list[RunReport | RunFailure]:
    """The cells of one forecast key on its series: one forecast pass, then
    ``_calibrate_key``. A failed load (``series`` is then its exception) or
    pass is reported for every cell, as every input of the pass is in the key."""
    if isinstance(series, Exception):
        return [_failure(config, series) for config in configs]
    try:
        made = _forecast_pass(configs[0], series, _native_forecast(configs[0]))
    except Exception as exc:  # noqa: BLE001 - grid cells must not abort siblings
        return [_failure(config, exc) for config in configs]
    return [_failure(config, result) if isinstance(result, Exception) else result
            for config, result in zip(configs, _calibrate_key(configs, *made))]


def grid_run(configs: Sequence[RunConfig], jobs: int = 1) -> list[RunReport | RunFailure]:
    """Run many configs independently; failures become RunFailure cells.
    ``cmd_run`` checks that there is at least one config and ``jobs >= 1``.

    Cells are grouped by forecast key (the load source, forecaster, its
    params, lag and split), and each distinct source is loaded once, before
    any cell runs. Each key is one task under every ``jobs``: it runs one
    forecast pass on its series, its banded cells of one buffer mode walk one
    score buffer in lockstep, and its reports share one ``index``, ``y`` and
    ``y_hat`` array each. A load or pass that fails runs once, and its failure
    is reported for every cell it feeds. With ``jobs > 1`` and more than one
    key, the keys run in a process pool of min(jobs, keys) workers; a dead
    worker fails every cell of each key not returned yet as ``BrokenProcessPool``.
    """
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(_forecast_key(config), []).append(i)
    keys = [[configs[i] for i in idx] for idx in groups.values()]
    loaded: dict[tuple, TimeSeries | Exception] = {}
    tasks = []
    for (source, *_), key in zip(groups, keys):
        if source not in loaded:
            try:
                loaded[source] = load_dataset(key[0])
            except Exception as exc:  # noqa: BLE001 - reported for every cell of the series
                loaded[source] = exc
        tasks.append((key, loaded[source]))
    if jobs == 1 or len(keys) == 1:
        done = [_run_key(*task) for task in tasks]
    else:
        # imported here: a process pool costs start-up time no other path needs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=min(jobs, len(keys))) as pool:
            futures = [pool.submit(_run_key, *task) for task in tasks]
            done = []
            for key, future in zip(keys, futures):
                try:
                    done.append(future.result())
                except BrokenProcessPool as exc:
                    done.append([_failure(config, exc) for config in key])
    results: list[RunReport | RunFailure | None] = [None] * len(configs)
    for idx, key_results in zip(groups.values(), done):
        for i, result in zip(idx, key_results):
            results[i] = result
    return results


def report_payload(result: RunReport | RunFailure) -> dict:
    """The metrics object of one run (or one failed grid cell) in Python floats;
    the metrics file codec (``write_metrics_json``/``load_metrics_json``) owns
    the string "inf" that stands for an infinite metric in JSON."""
    config = result.config
    payload = {
        "name": config.run_name,
        "dataset": dataset_label(config.dataset),
        "forecaster": config.forecaster,
        "method": config.method,
        "alpha": config.alpha,
        "gamma": config.gamma,
        "gamma_grid": list(config.gamma_grid),
        "split": list(config.split),
        "seed": config.seed,
        "buffer_mode": config.buffer_mode,
    }
    if isinstance(result, RunFailure):
        payload["status"] = "failed"
        payload["error"] = f"{result.kind}: {result.error}"
        return payload
    payload["status"] = "ok"
    payload["alpha_final"] = result.alpha_final
    payload["metrics"] = {key: getattr(result, key) for key in _METRIC_TYPES}
    return payload


# The metrics that can be infinite: an overflowing rmse, an all-infinite run's width.
_INFINITE_METRICS = ("rmse", "median_width")


def write_metrics_json(path: str | Path, result: RunReport | RunFailure) -> None:
    payload = report_payload(result)
    metrics = payload.get("metrics", {})
    for key in _INFINITE_METRICS:  # as a string, to keep the JSON strict
        if metrics.get(key) == math.inf:
            metrics[key] = "inf"
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


# The JSON type of each key of a metrics file: run config fields, then the outcome.
_METRICS_FILE_TYPES = {
    **_RUN_CONFIG_TYPES, "status": '"ok" or "failed"', "error": "a string",
    "alpha_final": "a number or null", "metrics": "an object",
}


def load_metrics_json(path: str | Path) -> dict:
    payload = read_json(path)
    check_keys(
        payload, _METRICS_FILE_TYPES, f"{path}: metrics file",
        required=("dataset", "forecaster", "method", "status"),
    )
    if payload["status"] == "ok":
        metrics = payload.get("metrics")
        if isinstance(metrics, dict):
            metrics.update({k: math.inf for k in _INFINITE_METRICS if metrics.get(k) == "inf"})
        check_keys(metrics, _METRIC_TYPES, f"{path}: 'metrics'")
    return payload


def write_bands_csv(
    path: str | Path, columns: dict[str, np.ndarray | None],
    shared: dict[tuple, list] | None = None,
) -> None:
    """Per-step band table in original units, one row per test step; an
    unbanded run's band columns are empty cells. ``shared`` is a
    ``fileio.shared_cells`` table of the columns other band tables hold too."""
    table = [columns[k] for k in BANDS_CSV_HEADER]
    atomic_write_text(path, format_csv(BANDS_CSV_HEADER, table, shared))


def comparison_rows(payloads: Sequence[dict]) -> list[dict]:
    """Normalize metrics payloads into sorted comparison rows.

    Rows are keyed (dataset, forecaster, method); exact duplicates are
    collapsed, conflicting duplicates rejected.
    """
    by_key: dict[tuple[str, str, str], dict] = {}
    for p in payloads:
        key = (str(p["dataset"]), str(p["forecaster"]), str(p["method"]))
        row = {
            "dataset": key[0],
            "forecaster": key[1],
            "method": key[2],
            "status": p["status"],
            "alpha": p.get("alpha"),
        }
        if p["status"] == "ok":
            row.update(p["metrics"])
        else:
            row["error"] = p.get("error", "")
        if key in by_key:
            if by_key[key] != row:
                raise ConfigError(
                    f"conflicting results for dataset={key[0]} forecaster={key[1]} "
                    f"method={key[2]}"
                )
            continue
        by_key[key] = row
    return [by_key[k] for k in sorted(by_key)]


def format_number(value: float) -> str:
    """A metric as the run line and the report table print it: with three
    decimals below 1e16 in magnitude, else in exponent form (``inf`` stays)."""
    return f"{value:.3f}" if abs(value) < 1e16 else f"{value:.3e}"


def _fmt_cell(row: dict | None, field_name: str) -> str:
    if row is None or row.get("status") != "ok":
        return "—"
    value = row.get(field_name)
    return "—" if value is None else format_number(value)


def render_comparison_table(rows: Sequence[dict]) -> str:
    """Aligned text table: datasets down, methods across, one column group
    per metric (Coverage@90% and median width)."""
    methods = sorted({r["method"] for r in rows})
    groups = sorted({(r["dataset"], r["forecaster"]) for r in rows})
    cells = {(r["dataset"], r["forecaster"], r["method"]): r for r in rows}
    alphas = {r.get("alpha") for r in rows if r.get("alpha") is not None}
    if len(alphas) == 1:
        coverage_title = f"Coverage@{100 * (1 - alphas.pop()):g}%"
    else:
        coverage_title = "Coverage"

    header = ["dataset", "forecaster"]
    for m in methods:
        header.append(f"{m} cov")
    for m in methods:
        header.append(f"{m} width")
    table = [header]
    for dataset, forecaster in groups:
        line = [dataset, forecaster]
        for m in methods:
            line.append(_fmt_cell(cells.get((dataset, forecaster, m)), "coverage"))
        for m in methods:
            line.append(_fmt_cell(cells.get((dataset, forecaster, m)), "median_width"))
        table.append(line)

    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    n_cov = len(methods)
    cov_span = sum(widths[2 : 2 + n_cov]) + 2 * (n_cov - 1)
    if cov_span < len(coverage_title):
        widths[1 + n_cov] += len(coverage_title) - cov_span
        cov_span = len(coverage_title)
    lead = widths[0] + widths[1] + 4
    out = [" " * lead + coverage_title.ljust(cov_span + 2) + "Median width"]
    for row in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def comparison_csv(rows: Sequence[dict]) -> str:
    """Machine-readable comparison table, one row per run."""
    return format_csv(
        COMPARISON_CSV_HEADER, [[row.get(col) for row in rows] for col in COMPARISON_CSV_HEADER]
    )
