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
from .forecasters import ReplayForecaster  # noqa: F401 - perfbench/tracing.py patches it
from .series import load_series_csv, write_series_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_ALIGNMENT = 5


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


def _parse_run_config(path: Path, seed_override: int | None) -> evaluate.RunConfig:
    config = _parse_json_file(path, evaluate.run_config_from_dict)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    return config


def _print_run_line(result, prefix: str = "") -> None:
    if isinstance(result, evaluate.RunFailure):
        print(f"{prefix}failed: {result.kind}: {result.error}")
        return
    parts = []
    if result.coverage is not None:
        parts.append(f"coverage={result.coverage:.3f}")
        parts.append(f"width={result.median_width:.3f}")
    parts.append(f"rmse={result.rmse:.3f}")
    print(prefix + " ".join(parts))


def _write_run_outputs(out_dir: Path, result, shared: dict | None = None) -> None:
    evaluate.write_metrics_json(out_dir / f"{result.name}.metrics.json", result)
    if isinstance(result, evaluate.RunReport):
        evaluate.write_bands_csv(out_dir / f"{result.name}.bands.csv", result.columns, shared)


def _generate(payload):
    """The series of a generator spec document and its regime path (None for lorenz)."""
    spec = datagen.generator_spec_from_json(payload)
    if isinstance(spec, datagen.SwitchingArSpec):
        return datagen.generate_toy(spec)
    return datagen.generate_lorenz(spec), None


def cmd_generate(args) -> int:
    spec_arg = str(args.spec)
    if spec_arg in ("toy", "lorenz"):
        (series, regimes), name = _generate({"kind": spec_arg}), spec_arg
    else:  # a spec whose series overflows or blows up is named like one that fails to parse
        (series, regimes), name = _parse_json_file(Path(spec_arg), _generate), Path(spec_arg).stem
    out_dir = _out_dir(args)
    series_path = out_dir / f"{name}.csv"
    write_series_csv(series_path, series)
    summary = f"generated {name}: T={len(series)}"
    if regimes is not None:
        datagen.write_regimes_csv(out_dir / f"{name}.regimes.csv", regimes)
        summary += f" regimes={int(np.unique(regimes).size)}"
    print(f"{summary} -> {series_path}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    configs = [_parse_run_config(Path(p), args.seed) for p in args.config]
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
    if len(configs) == 1:
        report = evaluate.run_rolling(configs[0])
        _write_run_outputs(out_dir, report)
        _print_run_line(report)
        return EXIT_OK
    results = evaluate.grid_run(configs, jobs=args.jobs)
    # the cells of a forecast key share arrays; format each of them once
    shared = shared_cells(r.columns.values() for r in results if isinstance(r, evaluate.RunReport))
    for result in results:
        _write_run_outputs(out_dir, result, shared)
        _print_run_line(result, prefix=f"{result.name}: ")
    return EXIT_OK


def cmd_wrap(args) -> int:
    config = _parse_run_config(Path(args.config), args.seed)
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
        # A trace value far beyond the scaler's range overflows to inf, which
        # run_rolling reports as a non-finite forecast; numpy need not warn too.
        with np.errstate(over="ignore"):
            return scaler.transform(trace.y_hat[start - trace.start : end - trace.start])

    report = evaluate.run_rolling(config, series=series, forecast=forecast)
    _write_run_outputs(out_dir, report)
    _print_run_line(report)
    return EXIT_OK


def cmd_report(args) -> int:
    payloads = [evaluate.load_metrics_json(Path(p)) for p in args.inputs]
    rows = evaluate.comparison_rows(payloads)
    out_dir = _out_dir(args)
    table = evaluate.render_comparison_table(rows)
    atomic_write_text(out_dir / "report.csv", evaluate.comparison_csv(rows))
    atomic_write_text(out_dir / "report.txt", table)
    print(table, end="")
    return EXIT_OK


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
    p_run.add_argument("--seed", type=int, default=None, help="override every config's seed")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel workers for grids")
    p_run.set_defaults(func=cmd_run)

    p_wrap = sub.add_parser("wrap", help="calibrate bands around an external forecast trace")
    p_wrap.add_argument("--trace", required=True, help="trace CSV (index,y_true,y_hat)")
    p_wrap.add_argument("--series", required=True, help="series CSV the trace was made from")
    p_wrap.add_argument("--config", required=True, help="run config JSON file")
    p_wrap.add_argument("--out", default=".", help="output directory (default: .)")
    p_wrap.add_argument("--seed", type=int, default=None, help="override the config's seed")
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
        return args.func(args)
    except AlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALIGNMENT
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
