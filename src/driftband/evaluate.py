"""Rolling one-step evaluation: configs, the run loop, metrics, and grids.

A run is: fit a scaler and a forecaster on the training window, seed
the score buffer from the calibration window, then walk the test window
one step at a time forming a band before each observation arrives.
Everything numeric happens in standardized units; records and metrics
are reported in the original units of the data.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import conformal, datagen
from .errors import ConfigError, NumericError
from .fileio import atomic_write_text, check_keys, format_csv, read_json
from .forecasters import Forecaster, make_forecaster
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
COMPARISON_CSV_HEADER = (
    "dataset", "forecaster", "method", "status", "rmse", "coverage",
    "median_width", "n_infinite", "n_zero_width", "n_steps",
)

DEFAULT_GAMMA_GRID = (1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one evaluation run.

    ``dataset`` is "toy", "lorenz" (generated on the fly with this
    config's seed) or a path to a series CSV. The autoregression order
    is min(lag, train length / 4) unless ``forecaster_params`` sets
    ``order``, which is taken as is. ``forecaster_params`` the forecaster
    does not take, or of the wrong type, are a ``ConfigError``.
    """

    dataset: str
    forecaster: str = "ar"
    method: str = "aci"
    name: str | None = None
    forecaster_params: dict = field(default_factory=dict)
    alpha: float = 0.1
    gamma: float = 0.01
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    eta: float = 1.0
    weight_floor: float = 1e-6
    aggregation: str = "ewa"
    cap_factor: float = 2.0
    lag: int = 24
    split: tuple[float, float, float] = (0.5, 0.2, 0.3)
    seed: int = 0
    buffer_mode: str = "rolling"

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ConfigError("config needs a dataset")
        if self.forecaster not in FORECASTERS:
            raise ConfigError(
                f"forecaster must be one of {FORECASTERS}, got {self.forecaster!r}"
            )
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")
        object.__setattr__(self, "gamma_grid", tuple(float(g) for g in self.gamma_grid))
        if self.method == "agaci" and not self.gamma_grid:
            raise ConfigError("agaci needs a nonempty gamma grid")
        object.__setattr__(self, "split", tuple(float(f) for f in self.split))
        if len(self.split) != 3 or any(f <= 0 for f in self.split):
            raise ConfigError(f"split must be three positive fractions, got {self.split}")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {self.split}")
        if self.buffer_mode not in ("rolling", "frozen"):
            raise ConfigError(
                f"buffer_mode must be 'rolling' or 'frozen', got {self.buffer_mode!r}"
            )
        if self.aggregation not in ("ewa", "fixed"):
            raise ConfigError(
                f"aggregation must be 'ewa' or 'fixed', got {self.aggregation!r}"
            )
        if self.lag < 1:
            raise ConfigError(f"lag must be >= 1, got {self.lag}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        check_keys(
            self.forecaster_params,
            _FORECASTER_PARAM_TYPES[self.forecaster],
            f"{self.forecaster} forecaster_params",
        )

    @property
    def run_name(self) -> str:
        if self.name:
            return self.name
        return f"{dataset_label(self.dataset)}-{self.forecaster}-{self.method}"


# The JSON type each key of a run config must have; ``out`` is the CLI's
# default output directory and not part of the RunConfig.
_RUN_CONFIG_TYPES = {
    "dataset": "a string", "forecaster": "a string", "method": "a string",
    "name": "a string or null", "forecaster_params": "an object", "alpha": "a number",
    "gamma": "a number", "gamma_grid": "a list of numbers", "eta": "a number",
    "weight_floor": "a number", "aggregation": "a string", "cap_factor": "a number",
    "lag": "an integer", "split": "a list of numbers", "seed": "an integer",
    "buffer_mode": "a string", "out": "a string or null",
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
    kwargs = {key: value for key, value in payload.items() if key != "out"}
    for key in ("gamma_grid", "split"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return RunConfig(**kwargs)


def dataset_label(dataset: str) -> str:
    if dataset in ("toy", "lorenz"):
        return dataset
    return Path(dataset).stem


def load_dataset(config: RunConfig) -> TimeSeries:
    """Materialize the configured dataset (builtin generators use the run seed)."""
    if config.dataset == "toy":
        series, _ = datagen.generate_toy(datagen.default_toy_spec(seed=config.seed))
        return series
    if config.dataset == "lorenz":
        return datagen.generate_lorenz(datagen.LorenzSpec(seed=config.seed))
    return load_series_csv(config.dataset)


@dataclass(frozen=True)
class ForecastRecord:
    """One test step, in the original units of the data.

    ``alpha_t`` is the working miscoverage level the band was formed at
    (the nominal level for split, the weighted effective level for
    aggregated runs); it is None when no band was formed.
    """

    index: int
    y: float
    y_hat: float
    lower: float | None
    upper: float | None
    alpha_t: float | None
    covered: bool | None

    @property
    def width(self) -> float | None:
        if self.lower is None or self.upper is None:
            return None
        return self.upper - self.lower


@dataclass(frozen=True)
class RunReport:
    """Metrics plus the full per-step record table for one run."""

    config: RunConfig
    rmse: float
    coverage: float | None
    median_width: float | None
    n_infinite: int
    n_zero_width: int
    n_steps: int
    alpha_final: float | None
    records: tuple[ForecastRecord, ...]

    @property
    def name(self) -> str:
        return self.config.run_name


def compute_metrics(records: Sequence[ForecastRecord]) -> dict:
    """Metric fields over a record table.

    The width statistic is the lower median of the finite widths;
    infinite bands are counted separately so one of them cannot poison
    the number. Runs without bands get None for coverage and width.
    """
    if not records:
        raise ConfigError("cannot compute metrics over zero records")
    errors = np.array([r.y - r.y_hat for r in records])
    rmse = float(np.sqrt(np.mean(errors**2)))
    banded = [r for r in records if r.lower is not None]
    if not banded:
        return {
            "rmse": rmse,
            "coverage": None,
            "median_width": None,
            "n_infinite": 0,
            "n_zero_width": 0,
            "n_steps": len(records),
        }
    widths = [r.width for r in banded]
    finite = sorted(w for w in widths if math.isfinite(w))
    n_infinite = sum(1 for w in widths if math.isinf(w))
    if finite:
        median_width = finite[(len(finite) - 1) // 2]
    else:
        median_width = math.inf
    return {
        "rmse": rmse,
        "coverage": sum(1 for r in banded if r.covered) / len(banded),
        "median_width": median_width,
        "n_infinite": n_infinite,
        "n_zero_width": sum(1 for w in widths if w == 0.0),
        "n_steps": len(records),
    }


def _default_forecaster_factory(config: RunConfig):
    def build(scaler: StandardScaler, series: TimeSeries, split: SplitSpec) -> Forecaster:
        if config.forecaster == "replay":
            raise ConfigError(
                "forecaster 'replay' only runs through the wrap command with a trace file"
            )
        params = dict(config.forecaster_params)
        if config.forecaster in ("ar", "segmented_ar") and "order" not in params:
            params["order"] = max(1, min(config.lag, split.train_end // 4))
        return make_forecaster(config.forecaster, **params)

    return build


def run_rolling(
    config: RunConfig,
    series: TimeSeries | None = None,
    forecaster_factory: Callable[[StandardScaler, TimeSeries, SplitSpec], Forecaster]
    | None = None,
) -> RunReport:
    """Execute one full evaluation run.

    ``series`` and ``forecaster_factory`` exist for callers that bring
    their own data or wrap external predictions; both default to what
    the config describes.
    """
    if series is None:
        series = load_dataset(config)
    split = SplitSpec.from_fractions(len(series), config.split)

    try:
        scaler = fit_scaler(series.values, 0, split.train_end)
    except NumericError as exc:
        raise NumericError(f"while fitting the scaler on the training window: {exc}") from None
    z = scaler.transform(series.values)

    factory = forecaster_factory or _default_forecaster_factory(config)
    forecaster = factory(scaler, series, split)

    def predict(t: int, phase: str) -> float:
        y_hat = forecaster.predict_one(z[:t])
        if not math.isfinite(y_hat):
            raise NumericError(
                f"{phase}: the forecast for series index {series.start_index + t} is {y_hat!r}"
            )
        return y_hat

    try:
        forecaster.fit(z[: split.train_end])
    except NumericError as exc:
        raise NumericError(f"while fitting the forecaster on the training window: {exc}") from None

    try:
        buffer = conformal.ScoreBuffer(capacity=split.cal_end - split.train_end)
    except ConfigError:
        raise ConfigError(
            f"calibration window [{split.train_end}, {split.cal_end}) is empty; "
            "widen the calibration fraction"
        ) from None
    for t in range(split.train_end, split.cal_end):
        y_hat = predict(t, "calibration seeding")
        buffer.append(conformal.residual_score(z[t], y_hat))
        forecaster.observe(z[t])

    # Split conformal is ACI with gamma = 0, and ACI is a bank of one expert.
    gammas = {"split": (0.0,), "aci": (config.gamma,)}.get(config.method, config.gamma_grid)
    bank = None
    if config.method != "none":
        bank = conformal.AgAciState.from_gammas(
            config.alpha,
            gammas,
            eta=config.eta,
            weight_floor=config.weight_floor,
            mode=config.aggregation,
            infinite_cap_factor=config.cap_factor,
        )

    records: list[ForecastRecord] = []
    for t in range(split.cal_end, split.test_end):
        y_hat_scaled = predict(t, "test step")
        y_scaled = float(z[t])
        lower = upper = alpha_used = covered = None
        if bank is not None:
            alpha_used = bank.alpha_t
            interval, per_expert = conformal.agaci_step(bank, buffer, y_hat_scaled)
            bank = conformal.agaci_update(bank, y_scaled, y_hat_scaled, per_expert)
            lower = float(scaler.inverse_transform(interval.lower))
            upper = float(scaler.inverse_transform(interval.upper))
            covered = interval.covers(y_scaled)
        if config.buffer_mode == "rolling":
            buffer.append(conformal.residual_score(y_scaled, y_hat_scaled))
        forecaster.observe(y_scaled)
        records.append(
            ForecastRecord(
                index=series.start_index + t,
                y=float(series.values[t]),
                y_hat=float(scaler.inverse_transform(y_hat_scaled)),
                lower=lower,
                upper=upper,
                alpha_t=alpha_used,
                covered=covered,
            )
        )

    if not records:
        raise ConfigError(
            f"test window [{split.cal_end}, {split.test_end}) is empty; "
            "widen the test fraction"
        )
    metrics = compute_metrics(records)
    return RunReport(
        config=config,
        rmse=metrics["rmse"],
        coverage=metrics["coverage"],
        median_width=metrics["median_width"],
        n_infinite=metrics["n_infinite"],
        n_zero_width=metrics["n_zero_width"],
        n_steps=metrics["n_steps"],
        alpha_final=None if bank is None else bank.alpha_t,
        records=tuple(records),
    )


@dataclass(frozen=True)
class RunFailure:
    """A grid cell whose run raised instead of reporting."""

    config: RunConfig
    kind: str
    error: str

    @property
    def name(self) -> str:
        return self.config.run_name


def _run_one(config: RunConfig) -> RunReport | RunFailure:
    try:
        return run_rolling(config)
    except Exception as exc:  # noqa: BLE001 - grid cells must not abort siblings
        return RunFailure(config=config, kind=type(exc).__name__, error=str(exc))


def grid_run(configs: Sequence[RunConfig], jobs: int = 1) -> list[RunReport | RunFailure]:
    """Run many configs independently; failures become RunFailure cells,
    and a dead worker fails every unfinished cell as ``BrokenProcessPool``."""
    if not configs:
        raise ConfigError("grid needs at least one config")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(configs) == 1:
        return [_run_one(c) for c in configs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
        futures = [pool.submit(_run_one, c) for c in configs]
    results: list[RunReport | RunFailure] = []
    for config, future in zip(configs, futures):
        try:
            results.append(future.result())
        except BrokenProcessPool as exc:
            results.append(RunFailure(config=config, kind="BrokenProcessPool", error=str(exc)))
    return results


def report_payload(result: RunReport | RunFailure) -> dict:
    """The metrics JSON object for one run (or one failed grid cell)."""
    config = result.config
    payload = {
        "name": result.name,
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
    payload["metrics"] = {
        "rmse": result.rmse,
        "coverage": result.coverage,
        # an all-infinite run's width, as a string to keep the JSON strict
        "median_width": "inf" if result.median_width == math.inf else result.median_width,
        "n_infinite": result.n_infinite,
        "n_zero_width": result.n_zero_width,
        "n_steps": result.n_steps,
    }
    return payload


def write_metrics_json(path: str | Path, result: RunReport | RunFailure) -> None:
    atomic_write_text(path, json.dumps(report_payload(result), indent=2) + "\n")


# The JSON type of each key of a metrics file (run config fields, then the
# outcome) and of its 'metrics' object.
_METRICS_FILE_TYPES = {
    **_RUN_CONFIG_TYPES, "status": "a string", "error": "a string",
    "alpha_final": "a number or null", "metrics": "an object",
}
_METRIC_TYPES = {
    "rmse": "a number", "coverage": "a number or null", "median_width": "a number or null",
    "n_infinite": "an integer", "n_zero_width": "an integer", "n_steps": "an integer",
}


def load_metrics_json(path: str | Path) -> dict:
    payload = read_json(path)
    check_keys(
        payload, _METRICS_FILE_TYPES, f"{path}: metrics file",
        required=("dataset", "forecaster", "method", "status"),
    )
    if payload["status"] == "ok":
        metrics = payload.get("metrics")
        if isinstance(metrics, dict) and metrics.get("median_width") == "inf":
            metrics["median_width"] = math.inf
        check_keys(metrics, _METRIC_TYPES, f"{path}: 'metrics'")
    return payload


def write_bands_csv(path: str | Path, records: Sequence[ForecastRecord]) -> None:
    """Per-step band table in original units, one row per test step."""
    rows = ((r.index, r.y, r.y_hat, r.lower, r.upper, r.alpha_t, r.covered) for r in records)
    atomic_write_text(path, format_csv(BANDS_CSV_HEADER, rows))


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


def _fmt_cell(row: dict | None, field_name: str) -> str:
    if row is None or row.get("status") != "ok":
        return "—"
    value = row.get(field_name)
    if value is None:
        return "—"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.3f}"


def render_comparison_table(rows: Sequence[dict]) -> str:
    """Aligned text table: datasets down, methods across, one column group
    per metric (Coverage@90% and median width)."""
    if not rows:
        raise ConfigError("no rows to render")
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
        COMPARISON_CSV_HEADER, ([row.get(col) for col in COMPARISON_CSV_HEADER] for row in rows)
    )
