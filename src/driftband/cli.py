"""Command-line interface: generate data, run evaluations, wrap traces, report.

stdout is for humans; every machine-readable byte goes to files, written
atomically. Exit codes: 0 ok, 2 config or parse problem, 3 I/O problem,
4 numeric failure, 5 trace misalignment.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datagen, evaluate
from .errors import AlignmentError, ConfigError, NumericError
from .fileio import atomic_write_text, read_json, shared_cells
from .forecasters import ExternalForecastTrace
from .series import load_series_csv, write_series_csv

# The exit code of each error class ``main`` reports; success is 0.
_EXIT_CODES = {AlignmentError: 5, ConfigError: 2, NumericError: 4, OSError: 3}

# perfbench/tracing.py patches this name; nothing calls it.
ReplayForecaster = None


def _parse_json_file(path: Path, parse):
    """``parse`` applied to a JSON file's content; its ConfigError or
    NumericError names the file."""
    payload = read_json(path)
    try:
        return parse(payload)
    except (ConfigError, NumericError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _out_dir(args) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_runs(out_dir: Path, results) -> None:
    """Write each result's metrics JSON and bands CSV, then print its run line,
    after ``<run name>: `` for the runs of a grid."""
    # the cells of a forecast key share arrays; format each of them once
    shared = shared_cells(r.columns.values() for r in results if isinstance(r, evaluate.RunReport))
    fmt = evaluate.format_number
    for result in results:
        name = result.config.run_name
        line = f"{name}: " if len(results) > 1 else ""
        evaluate.write_metrics_json(out_dir / f"{name}.metrics.json", result)
        if isinstance(result, evaluate.RunFailure):
            print(f"{line}failed: {result.kind}: {result.error}")
            continue
        evaluate.write_bands_csv(out_dir / f"{name}.bands.csv", result.columns, shared)
        if result.coverage is not None:
            line += f"coverage={fmt(result.coverage)} width={fmt(result.median_width)} "
        print(f"{line}rmse={fmt(result.rmse)}")


def cmd_generate(args) -> None:
    spec_arg = str(args.spec)
    if spec_arg in ("toy", "lorenz"):
        (series, regimes), name = datagen.generate({"kind": spec_arg}), spec_arg
    else:  # a spec whose series overflows or blows up is named like one that fails to parse
        series, regimes = _parse_json_file(Path(spec_arg), datagen.generate)
        name = Path(spec_arg).stem
    out_dir = _out_dir(args)
    series_path = out_dir / f"{name}.csv"
    write_series_csv(series_path, series)
    summary = f"generated {name}: T={len(series)}"
    if regimes is not None:
        datagen.write_regimes_csv(out_dir / f"{name}.regimes.csv", regimes)
        summary += f" regimes={int(np.unique(regimes).size)}"
    print(f"{summary} -> {series_path}")


def cmd_run(args) -> None:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    configs = [_parse_json_file(Path(p), evaluate.run_config_from_dict) for p in args.config]
    # Runs write <run name>.{metrics.json,bands.csv}, so two of one name would overwrite.
    first_with: dict[str, str] = {}
    for path, config in zip(args.config, configs):
        if config.run_name in first_with:
            raise ConfigError(
                f"run name {config.run_name!r} is used by both {first_with[config.run_name]} "
                f"and {path}; give one of them a distinct 'name'"
            )
        first_with[config.run_name] = path
    out_dir = _out_dir(args)
    if len(configs) == 1:  # raises what a grid records as a failed cell: exit 2 or 4
        results = [evaluate.run_rolling(configs[0])]
    else:
        results = evaluate.grid_run(configs, jobs=args.jobs)
    _write_runs(out_dir, results)


def cmd_wrap(args) -> None:
    config = _parse_json_file(Path(args.config), evaluate.run_config_from_dict)
    out_dir = _out_dir(args)
    series = load_series_csv(Path(args.series))
    trace = ExternalForecastTrace.from_csv(Path(args.trace))
    # forecaster_params were checked against the config's own forecaster
    config = replace(
        config, dataset=str(args.series), forecaster="replay", forecaster_params={}
    )

    def forecast(series_, split, scaler, z):
        start = series_.start_index + split.train_end
        end = series_.start_index + split.test_end
        trace.validate_against(series_, start, end)
        return scaler.transform(trace.y_hat[start - trace.start : end - trace.start])

    _write_runs(out_dir, [evaluate.run_rolling(config, series=series, forecast=forecast)])


def cmd_report(args) -> None:
    payloads = [evaluate.load_metrics_json(Path(p)) for p in args.inputs]
    rows = evaluate.comparison_rows(payloads)
    out_dir = _out_dir(args)
    table = evaluate.render_comparison_table(rows)
    atomic_write_text(out_dir / "report.csv", evaluate.comparison_csv(rows))
    atomic_write_text(out_dir / "report.txt", table)
    print(table, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftband",
        description="Online conformal prediction bands around one-step forecasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic series CSV (+ regime sidecar)")
    p_gen.add_argument("--spec", required=True,
                       help="generator spec JSON, or builtin name 'toy' / 'lorenz'")
    p_gen.add_argument("--out", default=".", help="output directory (default: .)")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="evaluate one or more run configs")
    p_run.add_argument("--config", required=True, nargs="+",
                       help="run config JSON file(s); several files form a grid")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel workers for grids")
    p_run.set_defaults(func=cmd_run)

    p_wrap = sub.add_parser("wrap", help="calibrate bands around an external forecast trace")
    p_wrap.add_argument("--trace", required=True, help="trace CSV (index,y_true,y_hat)")
    p_wrap.add_argument("--series", required=True, help="series CSV the trace was made from")
    p_wrap.add_argument("--config", required=True, help="run config JSON file")
    p_wrap.add_argument("--out", default=".", help="output directory (default: .)")
    p_wrap.set_defaults(func=cmd_wrap)

    p_rep = sub.add_parser("report", help="combine metrics JSONs into a comparison table")
    p_rep.add_argument("--inputs", required=True, nargs="+", help="metrics JSON files")
    p_rep.add_argument("--out", default=".", help="output directory (default: .)")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
    return 0
