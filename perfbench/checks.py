"""Output checks for one CLI invocation, and the digests compared across repeats.

Every cell must report ``status: ok`` with the expected number of test
steps, its bands CSV must hold one row per step, and an aci cell must
follow the adaptive update row by row,
alpha_{t+1} = alpha_t + gamma * (alpha - err_t), and satisfy its
telescoping identity, (alpha_T - alpha_0) / gamma = sum over steps of
(alpha - err_t), both recomputed from the ``alpha_t`` / ``covered``
columns of its bands CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

TELESCOPING_TOL = 1e-9


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def telescoping_residual(
    alpha: float, gamma: float, alpha_final: float, covered: list[bool]
) -> float:
    """|(alpha_T - alpha) / gamma - sum_t (alpha - err_t)| for one aci track."""
    surplus = math.fsum(alpha - (0.0 if c else 1.0) for c in covered)
    return abs((alpha_final - alpha) / gamma - surplus)


def recurrence_residual(
    alpha: float, gamma: float, alpha_final: float, alpha_t: list[float], covered: list[bool]
) -> tuple[int, float]:
    """Row and size of the worst |alpha_{t+1} - alpha_t - gamma * (alpha - err_t)|
    over one aci track, taking alpha_final as the level after the last row.
    A NaN counts as infinitely wrong."""
    following = [*alpha_t[1:], alpha_final]
    residuals = [
        abs(nxt - (level + gamma * (alpha - (0.0 if c else 1.0))))
        for level, nxt, c in zip(alpha_t, following, covered)
    ]
    residuals = [r if r == r else math.inf for r in residuals]
    if not residuals:
        return 0, 0.0
    row = max(range(len(residuals)), key=residuals.__getitem__)
    return row, residuals[row]


def read_bands(path: Path) -> tuple[list[float], list[bool]]:
    """The ``alpha_t`` and ``covered`` columns of a bands CSV."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return [float(r["alpha_t"]) for r in rows], [r["covered"] == "1" for r in rows]


@dataclass
class CellResult:
    name: str
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    coverage: float | None = None
    median_width: float | None = None


def check_cell(out_dir: Path, name: str, method: str, test_steps: int) -> CellResult:
    """Check one cell's metrics JSON and bands CSV; record their digests."""
    result = CellResult(name)
    metrics_path = out_dir / f"{name}.metrics.json"
    bands_path = out_dir / f"{name}.bands.csv"
    for path in (metrics_path, bands_path):
        if not path.is_file():
            result.problems.append(f"missing output {path.name}")
            return result
        result.digests[path.name] = sha256_file(path)
    payload = json.loads(metrics_path.read_text(encoding="utf-8"))
    if payload.get("status") != "ok":
        result.problems.append(f"status {payload.get('status')!r}: {payload.get('error')}")
        return result
    metrics = payload["metrics"]
    if metrics["n_steps"] != test_steps:
        result.problems.append(f"n_steps {metrics['n_steps']} != expected {test_steps}")
    result.coverage = metrics["coverage"]
    result.median_width = float(metrics["median_width"])
    alpha_t, covered = read_bands(bands_path)
    if len(covered) != metrics["n_steps"]:
        result.problems.append(f"bands CSV has {len(covered)} rows for {metrics['n_steps']} steps")
    if method == "aci":
        if alpha_t and alpha_t[0] != payload["alpha"]:
            result.problems.append(f"first alpha_t {alpha_t[0]!r} != alpha {payload['alpha']!r}")
        alpha, gamma, final = payload["alpha"], payload["gamma"], payload["alpha_final"]
        residual = telescoping_residual(alpha, gamma, final, covered)
        if not residual <= TELESCOPING_TOL:
            result.problems.append(f"telescoping identity off by {residual:.3e}")
        row, residual = recurrence_residual(alpha, gamma, final, alpha_t, covered)
        if not residual <= TELESCOPING_TOL:
            result.problems.append(f"alpha_t update off by {residual:.3e} after row {row}")
    return result
