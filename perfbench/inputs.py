"""Workload inputs, generated deterministically from the benchmark seed.

Each workload is one ``driftband`` CLI invocation (minus ``--out``) over
files written into a work directory. Only the inputs come from here; the
program under test reads them through its public CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLIT = (0.5, 0.2, 0.3)
ALPHA = 0.1

# Builtin dataset lengths of the program's default generator specs; the
# checks compare each run's n_steps against them, so a changed default shows.
TOY_T = 3000
LORENZ_T = 10000

GRID_FORECASTERS = ("persistence", "ar", "segmented_ar")
GRID_METHODS = ("split", "aci", "agaci")
GRID_SEEDS_PER_RUN = 2

WRAP_T = 20000
WRAP_AR_ORDER = 5
WRAP_GAMMA_GRID = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2)
# (intercept, coef, noise_std) per regime, and the chance of staying put.
WRAP_REGIMES = ((0.0, 0.9, 0.1), (2.0, -0.5, 0.4), (-1.0, 0.6, 0.25))
WRAP_STAY = 0.995


@dataclass(frozen=True)
class Cell:
    """One run the invocation must produce: its name, method and length."""

    name: str
    method: str
    series_length: int

    @property
    def forecast_steps(self) -> int:
        """Seeding plus test steps: everything after the training window."""
        return self.series_length - round(self.series_length * SPLIT[0])

    @property
    def test_steps(self) -> int:
        train_end = round(self.series_length * SPLIT[0])
        cal_end = train_end + round(self.series_length * SPLIT[1])
        return self.series_length - min(cal_end, self.series_length)


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    cells: tuple[Cell, ...]

    def argv(self, out_dir: Path) -> list[str]:
        return [*self.args, "--out", str(out_dir)]

    @property
    def forecast_steps(self) -> int:
        return sum(c.forecast_steps for c in self.cells)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _config(name: str, **fields) -> dict:
    return {"name": name, "alpha": ALPHA, "split": list(SPLIT), **fields}


def toy_grid(seed: int, work: Path) -> Workload:
    """Scenario matrix on the builtin toy series over several data seeds."""
    paths, cells = [], []
    for k in range(GRID_SEEDS_PER_RUN):
        data_seed = GRID_SEEDS_PER_RUN * seed + k
        for forecaster in GRID_FORECASTERS:
            for method in GRID_METHODS:
                name = f"toy-{forecaster}-{method}-s{data_seed}"
                path = work / f"{name}.json"
                _write_json(path, _config(
                    name, dataset="toy", forecaster=forecaster, method=method,
                    seed=data_seed,
                ))
                paths.append(str(path))
                cells.append(Cell(name, method, TOY_T))
    return Workload(("run", "--jobs", "1", "--config", *paths), tuple(cells))


def lorenz_ar(seed: int, work: Path) -> Workload:
    """One aci run of an order-24 autoregression on the builtin Lorenz series."""
    name = f"lorenz-ar-aci-s{seed}"
    path = work / f"{name}.json"
    _write_json(path, _config(
        name, dataset="lorenz", forecaster="ar", method="aci",
        forecaster_params={"order": 24}, seed=seed,
    ))
    return Workload(("run", "--config", str(path)), (Cell(name, "aci", LORENZ_T),))


def switching_ar(rng: np.random.Generator, T: int) -> np.ndarray:
    """Three-regime Markov-switching AR(1) series, simulated here with numpy."""
    params = np.asarray(WRAP_REGIMES)
    k = len(params)
    switch = rng.random(T) >= WRAP_STAY
    jumps = rng.integers(1, k, size=T)
    eps = rng.standard_normal(T)
    y = np.empty(T)
    y[0] = 0.0
    regime = 0
    for t in range(1, T):
        if switch[t]:
            regime = (regime + int(jumps[t])) % k
        c, phi, sigma = params[regime]
        y[t] = c + phi * y[t - 1] + sigma * eps[t]
    return y


def ar_trace(y: np.ndarray, order: int, fit_end: int) -> np.ndarray:
    """One-step predictions for indices [fit_end, len(y)) of a least-squares
    AR(order) with intercept, fit on y[:fit_end]: a forecaster foreign to
    the package."""
    lags = np.lib.stride_tricks.sliding_window_view(y[:-1], order)
    design = np.column_stack([np.ones(len(lags)), lags])
    targets = y[order:]
    n_fit = fit_end - order
    coef, *_ = np.linalg.lstsq(design[:n_fit], targets[:n_fit], rcond=None)
    return design[n_fit:] @ coef


def wrap_agaci(seed: int, work: Path) -> Workload:
    """AgACI with six experts around an external trace over a long series."""
    y = switching_ar(np.random.default_rng(seed), WRAP_T)
    fit_end = round(WRAP_T * SPLIT[0])
    y_hat = ar_trace(y, WRAP_AR_ORDER, fit_end)
    series = work / "wrap-series.csv"
    trace = work / "wrap-trace.csv"
    series.write_text(
        "index,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(y.tolist())),
        encoding="utf-8",
    )
    trace.write_text(
        "index,y_true,y_hat\n" + "".join(
            f"{fit_end + i},{v!r},{p!r}\n"
            for i, (v, p) in enumerate(zip(y[fit_end:].tolist(), y_hat.tolist()))
        ),
        encoding="utf-8",
    )
    name = f"wrap-agaci-s{seed}"
    config = work / f"{name}.json"
    _write_json(config, _config(
        name, dataset=str(series), method="agaci", gamma_grid=list(WRAP_GAMMA_GRID),
        seed=seed,
    ))
    args = ("wrap", "--trace", str(trace), "--series", str(series), "--config", str(config))
    return Workload(args, (Cell(name, "agaci", WRAP_T),))


BUILDERS = {"toy-grid": toy_grid, "wrap-agaci": wrap_agaci, "lorenz-ar": lorenz_ar}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files into ``work`` and describe the run."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work)
