import argparse
import dataclasses
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from driftband import cli, evaluate
from driftband.cli import main
from driftband.datagen import default_toy_spec, generate_toy
from driftband.series import TimeSeries, load_series_csv, write_series_csv


@pytest.fixture()
def series_csv(tmp_path):
    rng = np.random.default_rng(0)
    values = np.cumsum(rng.normal(size=300)) + rng.normal(scale=0.3, size=300)
    path = tmp_path / "walk.csv"
    write_series_csv(path, TimeSeries(values=values))
    return path


def write_config(tmp_path, name="cfg.json", **overrides):
    payload = {
        "dataset": "toy",
        "forecaster": "persistence",
        "method": "aci",
        "seed": 1,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_generate_builtin_toy(tmp_path, capsys):
    assert main(["generate", "--spec", "toy", "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "generated toy: T=3000 regimes=2" in out
    series = load_series_csv(tmp_path / "d" / "toy.csv")
    assert len(series) == 3000
    sidecar = (tmp_path / "d" / "toy.regimes.csv").read_text().splitlines()
    assert sidecar[0] == "index,regime"
    assert len(sidecar) == 3001


def test_generate_custom_spec_file(tmp_path, capsys):
    spec = tmp_path / "small.json"
    spec.write_text(json.dumps({"kind": "lorenz", "T": 120, "subsample": 2}))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    assert "generated small: T=120" in capsys.readouterr().out
    assert len(load_series_csv(tmp_path / "small.csv")) == 120


# SHA-256 of the series CSV and the regimes CSV that `generate --spec` writes
# for two custom toy documents: three regimes drawn from a mixed initial
# distribution, and a chain given without "initial" (it starts in regime 0).
CUSTOM_TOY_SPECS = {
    "three": ({
        "kind": "toy",
        "regimes": [
            {"intercept": 0.0, "coef": 0.9, "noise_std": 0.1},
            {"intercept": 2.0, "coef": -0.5, "noise_std": 0.4},
            {"intercept": -1.0, "coef": 0.3, "noise_std": 0.2},
        ],
        "chain": {
            "transition": [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]],
            "initial": [0.2, 0.5, 0.3],
        },
        "T": 500, "seed": 11, "y0": 1.5,
    }, "78129990bdb877802e912c8cb9a3c36fcbcfae6e5d15144939600be91f8cbb61",
       "82fbf1411895f5f456ba54d4bdb4e0313df7c1d0ff75f3ce1fb95808b853c812"),
    "chain": ({
        "kind": "toy", "chain": {"transition": [[0.9, 0.1], [0.3, 0.7]]}, "T": 400, "seed": 5,
    }, "1e6c17f17c604912b3d3f88c18d07f057336be942c8dac1798a00a5818e3e934",
       "dfdb3b523aa4a107d86c0d48d7f2b13eb2a35f11c621c5eb32cee8c58cb16588"),
}


@pytest.mark.parametrize("name", sorted(CUSTOM_TOY_SPECS))
def test_generate_custom_toy_spec_bytes_are_pinned(tmp_path, name):
    document, series_sha, regimes_sha = CUSTOM_TOY_SPECS[name]
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(document))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest()
        for suffix in (".csv", ".regimes.csv")
    )
    assert digests == (series_sha, regimes_sha)


def test_generate_malformed_json_reports_offset(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text('{"kind": "toy", }')
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path)]) == 2
    assert "byte offset" in capsys.readouterr().err


def test_generate_unknown_key_exits_2(tmp_path, capsys):
    spec = tmp_path / "typo.json"
    spec.write_text(json.dumps({"kind": "toy", "length": 100}))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path)]) == 2
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    {"kind": "lorenz", "T": 20, "obs_noise": 1e308},
    {"kind": "toy", "T": 50, "regimes": [
        {"intercept": 1e308, "coef": 0.5, "noise_std": 0.1},
        {"intercept": 0.0, "coef": 0.5, "noise_std": 0.1},
    ]},
], ids=["lorenz-obs_noise", "toy-intercept"])
def test_generate_a_finite_spec_whose_series_overflows_names_the_file(tmp_path, capsys, spec):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: series contains a non-finite value at position ")
    assert not (tmp_path / "out" / "huge.csv").exists()


def test_generate_a_spec_whose_integration_blows_up_exits_4_naming_the_file(tmp_path, capsys):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps({"kind": "lorenz", "T": 50, "dt": 0.5}))
    assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == (
        f"error: {path}: integration blew up at step 5 (dt = 0.5 is too coarse)\n"
    )
    assert not (tmp_path / "out" / "coarse.csv").exists()


def test_run_writes_outputs_and_prints_metrics(tmp_path, series_csv, capsys):
    config = write_config(tmp_path, dataset=str(series_csv))
    out_dir = tmp_path / "runs"
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "coverage=" in stdout and "width=" in stdout and "rmse=" in stdout

    metrics = json.loads((out_dir / "walk-persistence-aci.metrics.json").read_text())
    assert metrics["status"] == "ok"
    bands = (out_dir / "walk-persistence-aci.bands.csv").read_text().splitlines()
    assert bands[0] == "index,y,y_hat,lower,upper,alpha_t,covered"
    assert len(bands) == metrics["metrics"]["n_steps"] + 1
    first = bands[1].split(",")
    assert len(first) == 7 and first[6] in ("0", "1")


def test_run_method_none_omits_coverage(tmp_path, series_csv, capsys):
    config = write_config(tmp_path, dataset=str(series_csv), method="none")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    stdout = capsys.readouterr().out
    assert "rmse=" in stdout and "coverage=" not in stdout


def test_run_missing_dataset_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, dataset=str(tmp_path / "nope.csv"))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 3


def test_run_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"dataset": "toy", "alpa": 0.1}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "alpa" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("alpha", "0.1", "run config key 'alpha'"),
        ("gamma", None, "run config key 'gamma'"),
        ("gamma", float("nan"), "run config key 'gamma'"),
        ("gamma_grid", 5, "run config key 'gamma_grid'"),
        ("split", "abc", "run config key 'split'"),
        ("seed", "x", "run config key 'seed'"),
        ("forecaster_params", {"order": "4"}, "forecaster_params key 'order'"),
        ("lag", 1.5, "run config key 'lag'"),
        ("eta", True, "run config key 'eta'"),
        ("frequency", "monthly", "unknown keys in run config: frequency"),
    ],
)
def test_run_mistyped_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value, named):
    # "ar", because persistence takes no forecaster_params at all
    config = write_config(tmp_path, forecaster="ar", **{key: value})
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("name", None), ("lag", 1)])
def test_a_null_name_and_the_smallest_lag_run(tmp_path, capsys, key, value):
    config = tmp_path / "cfg.json"  # written here: write_config takes a name of its own
    config.write_text(json.dumps({"dataset": "toy", "forecaster": "ar", key: value}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "toy-ar-aci.bands.csv").is_file()


@pytest.mark.parametrize("key, value, message", [
    ("name", 5, "run config key 'name' must be a string or null, got 5"),
    ("alpha", 0, "alpha must lie in (0, 1), got 0"),
    ("weight_floor", 1, "weight_floor must lie in [0, 1), got 1"),
])
def test_config_values_at_the_edge_of_their_range_exit_2(tmp_path, capsys, key, value, message):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dataset": "toy", key: value}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {config}: {message}\n"


def test_one_expert_agaci_writes_the_aci_bands(tmp_path, series_csv, capsys):
    aci = write_config(tmp_path, "aci.json", dataset=str(series_csv), gamma=0.02)
    agaci = write_config(tmp_path, "agaci.json", dataset=str(series_csv), method="agaci",
                         gamma_grid=[0.02])
    out_dir = tmp_path / "o"
    for config in (aci, agaci):
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    aci_bands = (out_dir / "walk-persistence-aci.bands.csv").read_bytes()
    assert (out_dir / "walk-persistence-agaci.bands.csv").read_bytes() == aci_bands
    finals = [json.loads((out_dir / f"walk-persistence-{m}.metrics.json").read_text())
              ["alpha_final"] for m in ("aci", "agaci")]
    assert finals[0] == finals[1] is not None


def test_run_degenerate_series_exits_4(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    write_series_csv(flat, TimeSeries(values=np.zeros(100) + 3.0))
    config = write_config(tmp_path, dataset=str(flat))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 4
    assert "degenerate" in capsys.readouterr().err


def test_run_gapped_series_exits_2(tmp_path):
    gapped = tmp_path / "gap.csv"
    gapped.write_text("index,value\n0,1.0\n2,2.0\n")
    config = write_config(tmp_path, dataset=str(gapped))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_a_series_too_short_to_split_exits_2_naming_the_empty_window(tmp_path, capsys):
    # the split is checked before the scaler fits its 0- or 1-point training window
    for rows, window in [
        ("0,1.0\n", "training window [0, 0) is empty; widen the training fraction"),
        ("0,1.0\n1,2.0\n", "calibration window [1, 1) is empty; widen the calibration fraction"),
    ]:
        short = tmp_path / "short.csv"
        short.write_text("index,value\n" + rows)
        config = write_config(tmp_path, dataset=str(short))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {window}\n"


def test_run_grid_survives_failures(tmp_path, series_csv, capsys):
    ok = write_config(tmp_path, "ok.json", dataset=str(series_csv))
    bad = write_config(tmp_path, "bad.json", dataset=str(tmp_path / "missing.csv"))
    out_dir = tmp_path / "grid"
    code = main(["run", "--config", str(ok), str(bad), "--out", str(out_dir)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "walk-persistence-aci: coverage=" in stdout
    assert "failed: FileNotFoundError" in stdout
    failed = json.loads((out_dir / "missing-persistence-aci.metrics.json").read_text())
    assert failed["status"] == "failed"


def test_the_config_seed_changes_builtin_data(tmp_path, capsys):
    config_a = write_config(tmp_path, "a.json", dataset="toy", method="split", seed=1)
    config_b = write_config(tmp_path, "b.json", dataset="toy", method="split", seed=99)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", str(config_a), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_b), "--out", str(out_b)]) == 0
    a = json.loads((out_a / "toy-persistence-split.metrics.json").read_text())
    b = json.loads((out_b / "toy-persistence-split.metrics.json").read_text())
    assert a["seed"] == 1 and b["seed"] == 99
    assert a["metrics"]["rmse"] != b["metrics"]["rmse"]


def persistence_trace_csv(tmp_path, series_csv):
    series = load_series_csv(series_csv)
    lines = ["index,y_true,y_hat"]
    for t in range(1, len(series)):
        lines.append(f"{t},{float(series.values[t])!r},{float(series.values[t - 1])!r}")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_wrap_matches_direct_run(tmp_path, series_csv, capsys):
    config = write_config(tmp_path, dataset=str(series_csv))
    trace = persistence_trace_csv(tmp_path, series_csv)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    assert main([
        "wrap", "--trace", str(trace), "--series", str(series_csv),
        "--config", str(config), "--out", str(tmp_path / "w"),
    ]) == 0
    direct = json.loads((tmp_path / "r" / "walk-persistence-aci.metrics.json").read_text())
    wrapped = json.loads((tmp_path / "w" / "walk-replay-aci.metrics.json").read_text())
    assert wrapped["metrics"] == direct["metrics"]
    assert wrapped["forecaster"] == "replay"


def test_wrap_accepts_the_configured_forecasters_params(tmp_path, series_csv, capsys):
    config = write_config(
        tmp_path, dataset=str(series_csv), forecaster="ar", forecaster_params={"order": 3}
    )
    trace = persistence_trace_csv(tmp_path, series_csv)
    assert main([
        "wrap", "--trace", str(trace), "--series", str(series_csv),
        "--config", str(config), "--out", str(tmp_path / "w"),
    ]) == 0
    assert (tmp_path / "w" / "walk-replay-aci.metrics.json").exists()


BAD_FORECASTER_PARAMS = [
    ("ar", {"refit_every": 0}, "refit interval must be >= 1, got 0"),
    ("ar", {"order": 0}, "autoregression order must be >= 1, got 0"),
    ("segmented_ar", {"warmup": 5}, "warm-up must be at least 30 samples, got 5"),
    ("segmented_ar", {"threshold": 0}, "alarm threshold must be positive, got 0"),
]


@pytest.mark.parametrize(
    "forecaster, params, message", BAD_FORECASTER_PARAMS,
    ids=["refit_every", "order", "warmup", "threshold"],
)
@pytest.mark.parametrize("command", ["run", "run-missing-csv", "grid", "wrap"])
def test_bad_forecaster_param_values_exit_2_before_any_data_is_read(
    tmp_path, series_csv, capsys, forecaster, params, message, command
):
    dataset = str(tmp_path / "absent.csv") if command == "run-missing-csv" else "toy"
    bad = write_config(
        tmp_path, "bad.json", dataset=dataset, forecaster=forecaster, forecaster_params=params
    )
    good = write_config(tmp_path, "good.json", forecaster="ar", method="split")
    argv = {
        "run": ["run", "--config", str(bad)],
        "run-missing-csv": ["run", "--config", str(bad)],
        "grid": ["run", "--config", str(good), str(bad)],
        "wrap": ["wrap", "--trace", str(persistence_trace_csv(tmp_path, series_csv)),
                 "--series", str(series_csv), "--config", str(bad)],
    }[command]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {forecaster} forecaster_params: {message}\n"
    assert captured.out == "" and not out.exists()


def test_wrap_partial_trace_exits_5(tmp_path, series_csv, capsys):
    series = load_series_csv(series_csv)
    lines = ["index,y_true,y_hat"]
    for t in range(1, len(series) // 2):
        lines.append(f"{t},{float(series.values[t])!r},{float(series.values[t - 1])!r}")
    trace = tmp_path / "half.csv"
    trace.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, dataset=str(series_csv))
    code = main([
        "wrap", "--trace", str(trace), "--series", str(series_csv),
        "--config", str(config), "--out", str(tmp_path),
    ])
    assert code == 5
    err = capsys.readouterr().err
    assert "covers indices" in err and "needs" in err


def test_wrap_truth_mismatch_exits_5_naming_index(tmp_path, series_csv, capsys):
    series = load_series_csv(series_csv)
    lines = ["index,y_true,y_hat"]
    for t in range(1, len(series)):
        y = series.values[t] + (0.5 if t == 200 else 0.0)
        lines.append(f"{t},{float(y)!r},{float(series.values[t - 1])!r}")
    trace = tmp_path / "tampered.csv"
    trace.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, dataset=str(series_csv))
    code = main([
        "wrap", "--trace", str(trace), "--series", str(series_csv),
        "--config", str(config), "--out", str(tmp_path),
    ])
    assert code == 5
    assert "index 200" in capsys.readouterr().err


@pytest.mark.parametrize("offset, code", [(5e-10, 0), (2e-9, 5)])
def test_wrap_truth_tolerance_is_1e_9(tmp_path, series_csv, capsys, offset, code):
    series = load_series_csv(series_csv)
    lines = ["index,y_true,y_hat"]
    for t in range(1, len(series)):
        y = series.values[t] + (offset if t == 200 else 0.0)
        lines.append(f"{t},{float(y)!r},{float(series.values[t - 1])!r}")
    trace = tmp_path / "shifted.csv"
    trace.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, dataset=str(series_csv))
    assert main([
        "wrap", "--trace", str(trace), "--series", str(series_csv),
        "--config", str(config), "--out", str(tmp_path / "w"),
    ]) == code
    assert ("index 200" in capsys.readouterr().err) == (code == 5)


@pytest.mark.parametrize("first, extra, code", [(1001, 0, 0), (1001, 10, 0), (1151, 0, 5)],
                         ids=["exact", "ten-extra-rows", "late-start"])
def test_run_and_wrap_index_a_series_that_starts_at_1000_alike(
    tmp_path, capsys, first, extra, code
):
    """The train/calibration/test split of 300 rows ends at 150, 210 and 300,
    so the run needs forecasts for [1150, 1300) and writes bands from 1210.
    A persistence trace that covers them wraps to the bytes the run writes,
    whatever it holds past them; one that starts after 1150 exits 5."""
    values = np.random.default_rng(4).normal(size=300)
    series_csv = tmp_path / "late.csv"
    write_series_csv(series_csv, TimeSeries(values=values, start_index=1000))
    lines = ["index,y_true,y_hat"]
    for t in range(first, 1300 + extra):
        y, y_hat = (values[t - 1000], values[t - 1001]) if t < 1300 else (0.0, 0.0)
        lines.append(f"{t},{float(y)!r},{float(y_hat)!r}")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dataset": str(series_csv), "forecaster": "persistence",
                                  "name": "late"}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    assert main(["wrap", "--trace", str(trace), "--series", str(series_csv),
                 "--config", str(config), "--out", str(tmp_path / "w")]) == code
    if code:
        assert capsys.readouterr().err == (
            f"error: trace covers indices [{first}, 1300) but the run needs [1150, 1300)\n"
        )
        return
    bands = (tmp_path / "r" / "late.bands.csv").read_bytes()
    assert (tmp_path / "w" / "late.bands.csv").read_bytes() == bands
    assert bands.splitlines()[1].startswith(b"1210,")


def test_a_series_that_ends_at_the_largest_index_runs_and_wraps(tmp_path, capsys):
    """A 300-row series whose last index is 2**63 - 1 runs, and wraps a
    persistence trace, to bands whose index column ends there; a series
    that runs one past it exits 2 naming that row."""
    top = 2**63 - 1
    values = np.random.default_rng(4).normal(size=300)
    series_csv = tmp_path / "top.csv"
    write_series_csv(series_csv, TimeSeries(values=values, start_index=top - 299))
    assert load_series_csv(series_csv).start_index == top - 299
    trace = tmp_path / "trace.csv"
    trace.write_text("index,y_true,y_hat\n" + "".join(
        f"{top - 299 + t},{float(values[t])!r},{float(values[t - 1])!r}\n" for t in range(1, 300)
    ))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dataset": str(series_csv), "forecaster": "persistence",
                                  "name": "top"}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
    assert main(["wrap", "--trace", str(trace), "--series", str(series_csv),
                 "--config", str(config), "--out", str(tmp_path / "w")]) == 0
    bands = (tmp_path / "r" / "top.bands.csv").read_text()
    assert (tmp_path / "w" / "top.bands.csv").read_text() == bands
    index = [int(line.split(",")[0]) for line in bands.splitlines()[1:]]
    assert index == list(range(top - 89, top + 1))
    past = tmp_path / "past.csv"
    past.write_text("index,value\n" + "".join(f"{top - 1 + i},1.0\n" for i in range(3)))
    config = write_config(tmp_path, dataset=str(past))
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == (
        f"error: {past}: line 4: index 9223372036854775808 is outside the 64-bit range\n"
    )


def test_wrap_perfect_trace_gives_zero_width_full_coverage(tmp_path, series_csv, capsys):
    series = load_series_csv(series_csv)
    lines = ["index,y_true,y_hat"]
    for t in range(len(series)):
        lines.append(f"{t},{float(series.values[t])!r},{float(series.values[t])!r}")
    trace = tmp_path / "perfect.csv"
    trace.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, dataset=str(series_csv))
    out_dir = tmp_path / "perfect"
    assert main([
        "wrap", "--trace", str(trace), "--series", str(series_csv),
        "--config", str(config), "--out", str(out_dir),
    ]) == 0
    metrics = json.loads((out_dir / "walk-replay-aci.metrics.json").read_text())["metrics"]
    assert metrics["coverage"] == 1.0
    assert metrics["median_width"] == 0.0
    assert metrics["n_zero_width"] == metrics["n_steps"]


def test_an_overflowing_rmse_is_written_as_strict_json_and_reported(tmp_path, capsys):
    values = np.random.default_rng(0).normal(size=300)
    values[250], values[251] = 1e200, -1e200  # their squared errors overflow
    spiky = tmp_path / "spiky.csv"
    write_series_csv(spiky, TimeSeries(values=values))
    config = write_config(tmp_path, dataset=str(spiky), method="none")
    out_dir = tmp_path / "runs"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    metrics_json = out_dir / "spiky-persistence-none.metrics.json"

    def no_constants(token):
        raise AssertionError(f"non-strict JSON token {token}")

    metrics = json.loads(metrics_json.read_text(), parse_constant=no_constants)["metrics"]
    assert metrics["rmse"] == "inf"
    assert main(["report", "--inputs", str(metrics_json), "--out", str(tmp_path / "rep")]) == 0
    assert "spiky" in capsys.readouterr().out
    report_csv = (tmp_path / "rep" / "report.csv").read_text().splitlines()
    assert report_csv[1].split(",")[4] == "inf"


def test_report_single_and_failed_cells(tmp_path, series_csv, capsys):
    ok = write_config(tmp_path, "ok.json", dataset=str(series_csv), method="split")
    bad = write_config(tmp_path, "bad.json", dataset=str(tmp_path / "gone.csv"))
    out_dir = tmp_path / "runs"
    main(["run", "--config", str(ok), str(bad), "--out", str(out_dir)])
    capsys.readouterr()
    inputs = sorted(str(p) for p in out_dir.glob("*.metrics.json"))
    rep_dir = tmp_path / "rep"
    assert main(["report", "--inputs", *inputs, "--out", str(rep_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "Coverage@90%" in stdout and "Median width" in stdout
    assert "—" in stdout
    report_txt = (rep_dir / "report.txt").read_text()
    assert report_txt in stdout or stdout.strip() in report_txt
    lines = (rep_dir / "report.csv").read_text().splitlines()
    assert lines[0].startswith("dataset,forecaster,method,status")
    assert len(lines) == 3


def test_report_conflicting_duplicates_exit_2(tmp_path, capsys):
    # same (dataset, forecaster, method) key, different seeds on generated
    # data -> different metrics under one key must be refused
    config_a = write_config(tmp_path, "a.json", dataset="toy", method="split")
    config_b = write_config(tmp_path, "b.json", dataset="toy", method="split", seed=77)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_a), "--out", str(out_a)])
    main(["run", "--config", str(config_b), "--out", str(out_b)])
    capsys.readouterr()
    code = main([
        "report",
        "--inputs",
        str(out_a / "toy-persistence-split.metrics.json"),
        str(out_b / "toy-persistence-split.metrics.json"),
        "--out", str(tmp_path / "rep"),
    ])
    assert code == 2
    assert "conflicting" in capsys.readouterr().err


def test_report_identical_duplicates_collapse(tmp_path, series_csv, capsys):
    config = write_config(tmp_path, dataset=str(series_csv), method="split")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config), "--out", str(out_a)])
    main(["run", "--config", str(config), "--out", str(out_b)])
    capsys.readouterr()
    code = main([
        "report",
        "--inputs",
        str(out_a / "walk-persistence-split.metrics.json"),
        str(out_b / "walk-persistence-split.metrics.json"),
        "--out", str(tmp_path / "rep"),
    ])
    assert code == 0
    lines = (tmp_path / "rep" / "report.csv").read_text().splitlines()
    assert len(lines) == 2  # header + the single deduplicated row


def metrics_file(tmp_path, forecaster, method, coverage, width, alpha=0.1):
    payload = {
        "dataset": "toy", "forecaster": forecaster, "method": method, "status": "ok",
        "alpha": alpha, "metrics": {"rmse": 1.0, "coverage": coverage, "median_width": width,
                                    "n_infinite": 0, "n_zero_width": 0, "n_steps": 900},
    }
    path = tmp_path / f"{forecaster}-{method}.metrics.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("cells, table", [
    ([("persistence", "aci", 0.9, 1.25, 0.1), ("persistence", "split", 0.8765, 12.5, 0.1),
      ("ar", "aci", 0.905, 0.5, 0.1), ("ar", "split", 0.88, 1234.5, 0.1)],
     "                      Coverage@90%        Median width\n"
     "dataset  forecaster   aci cov  split cov  aci width  split width\n"
     "toy      ar           0.905    0.880      0.500      1234.500\n"
     "toy      persistence  0.900    0.876      1.250      12.500\n"),
    # the title is wider than the coverage column, which is padded to it
    ([("ar", "split", 0.9, 1.5, 0.125)],
     "                     Coverage@87.5%  Median width\n"
     "dataset  forecaster  split cov       split width\n"
     "toy      ar          0.900           1.500\n"),
], ids=["two-by-two", "wide-title"])
def test_report_txt_is_the_aligned_table_byte_for_byte(tmp_path, capsys, cells, table):
    inputs = [metrics_file(tmp_path, *cell) for cell in cells]
    assert main(["report", "--inputs", *inputs, "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "report.txt").read_bytes() == table.encode()
    assert capsys.readouterr().out == table


def test_report_missing_input_exits_3(tmp_path, capsys):
    assert main(["report", "--inputs", str(tmp_path / "no.json"),
                 "--out", str(tmp_path)]) == 3


def test_a_failed_output_write_names_its_target_and_leaves_no_temporary_file(tmp_path, capsys):
    out = tmp_path / "o"
    target = out / "toy-persistence-aci.metrics.json"
    target.mkdir(parents=True)
    assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{target}'\n"
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("dataset", ["toy", "lorenz"])
def test_a_builtin_dataset_runs_as_its_generated_csv(tmp_path, capsys, dataset):
    """``run`` on a builtin name writes the bytes that ``generate`` and a run
    of the CSV it wrote give, at the generator's default seed 0."""
    assert main(["generate", "--spec", dataset, "--out", str(tmp_path / "gen")]) == 0
    stdout = []
    for source in (dataset, str(tmp_path / "gen" / f"{dataset}.csv")):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": source, "forecaster": "ar", "method": "aci",
                                      "seed": 0}))
        capsys.readouterr()
        out = tmp_path / str(len(stdout))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]
    for name in (f"{dataset}-ar-aci.bands.csv", f"{dataset}-ar-aci.metrics.json"):
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_console_script_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "driftband", "generate", "--spec", "toy",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "generated toy" in proc.stdout


def test_the_package_runs_as_a_module_in_this_process(tmp_path, monkeypatch, capsys):
    # what `python -m driftband` runs, seen by the line audit's tracer
    monkeypatch.setattr(sys, "argv", ["driftband", "generate", "--spec", "toy",
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("driftband", run_name="__main__")
    assert exited.value.code == 0
    assert "generated toy" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.csv", "toy.regimes.csv"]


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only a grid that runs several forecast keys with --jobs > 1 imports it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import sys, driftband.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_blas_kernel_moves_only_ar_outputs_and_only_in_the_last_digits(tmp_path):
    # The README rule: persistence outputs are the same bytes under every
    # BLAS kernel; AR outputs (Gram correlations, eigh, BLAS dot products)
    # may differ in their last digits. The kernel is chosen per process.
    src = Path(__file__).resolve().parents[1] / "src"
    configs = []
    for forecaster in ("persistence", "segmented_ar"):
        path = tmp_path / f"{forecaster}.json"
        path.write_text(json.dumps({"name": forecaster, "dataset": "toy",
                                    "forecaster": forecaster, "method": "agaci", "seed": 7}))
        configs.append(str(path))
    outs = {}
    for coretype in (None, "Prescott"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = outs[coretype] = tmp_path / (coretype or "default")
        proc = subprocess.run(
            [sys.executable, "-m", "driftband", "run", "--config", *configs, "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
    default, other = outs[None], outs["Prescott"]
    for name in ("persistence.bands.csv", "persistence.metrics.json"):
        assert (default / name).read_bytes() == (other / name).read_bytes()
    a, b = (json.loads((d / "segmented_ar.metrics.json").read_text()) for d in (default, other))
    for key in ("rmse", "coverage", "median_width"):
        assert a["metrics"][key] == pytest.approx(b["metrics"][key], abs=1e-9)
    assert a["alpha_final"] == pytest.approx(b["alpha_final"], abs=1e-9)


# Each malformed input with the fragment its error must carry; {path} is the
# malformed file. "spec" inputs go to generate, "config" inputs to run,
# "series" inputs are a run's dataset, "metrics" inputs go to report
# and "trace" inputs to wrap.
MALFORMED_INPUTS = [
    ("spec", {"kind": "toy", "T": "abc"}, "{path}: toy generator spec key 'T'"),
    ("spec", {"kind": "toy", "T": 1.5}, "{path}: toy generator spec key 'T'"),
    ("spec", {"kind": "lorenz", "dt": "x"}, "{path}: lorenz generator spec key 'dt'"),
    ("spec", {"kind": "lorenz", "T": True}, "{path}: lorenz generator spec key 'T'"),
    ("spec", {"kind": "toy", "chain": {"transition": "ab"}},
     "{path}: chain spec key 'transition'"),
    ("spec", {"kind": "toy", "regimes": [{"intercept": "a", "coef": 0.5, "noise_std": 0.1}]},
     "{path}: regime 0 key 'intercept'"),
    ("config", b'{"dataset": "toy",\n "name": "\xff"}', "{path}: line 2: not UTF-8"),
    ("series", b"index,value\n0,1.0\n1,\xff\n", "{path}: line 3: not UTF-8"),
    ("metrics", {"dataset": "toy", "forecaster": "ar", "method": "aci", "status": "ok",
                 "metrics": {"coverage": "x"}}, "{path}: 'metrics' key 'coverage'"),
    ("trace", b"index,y_true,y_hat\n1,0.5,0.4\n2,0.6,nan\n", "{path}: line 3: non-finite y_hat"),
    ("trace", b"index,y_true,y_hat\n1,0.5,0.4\n3,0.6,0.5\n", "{path}: line 3: index 3"),
    ("spec", {"kind": "toy", "chain": {"transition": [[0.5, 0.5], [1]]}},
     "{path}: chain spec key 'transition'"),
    ("config", {"dataset": "toy", "seed": -1}, "{path}: seed must be non-negative"),
    ("config", {"dataset": "lorenz", "seed": -1}, "{path}: seed must be non-negative"),
    ("spec", {"kind": "toy", "seed": -1}, "{path}: seed must be non-negative"),
    ("spec", {"kind": "lorenz", "seed": -1}, "{path}: seed must be non-negative"),
    ("config", {"dataset": "toy", "forecaster": "persistence", "forecaster_params": {"order": 3}},
     "{path}: unknown keys in persistence forecaster_params: order"),
    ("config", {"dataset": "toy", "forecaster": "ar", "forecaster_params": {"warmup": 60}},
     "{path}: unknown keys in ar forecaster_params: warmup"),
    ("config", b'{"dataset": "toy", "forecaster": "persistence", "alpha": 0.1, "alpha": 0.5}',
     "{path}: duplicate key 'alpha'"),
    ("config", b"[" * 100000, "{path}: JSON nested too deeply"),
    ("config", {"dataset": "toy", "gamma_grid": [10**400]}, "{path}: run config key 'gamma_grid'"),
    ("spec", {"kind": "lorenz", "sigma": 10**400}, "{path}: lorenz generator spec key 'sigma'"),
    ("series", b"index,value\n0," + b"1" * 200000 + b"\n", "{path}: line 2: field larger"),
    ("spec", {"kind": "lorenz", "T": 10**20}, "{path}: series length T = 10"),
    ("spec", {"kind": "toy", "T": 2**62}, "{path}: series length T = 4611686018427387904"),
    ("metrics", {"dataset": "toy", "forecaster": "ar", "method": "aci", "status": "weird"},
     """{path}: metrics file key 'status' must be "ok" or "failed", got 'weird'"""),
    ("config", b'{"dataset": "toy", "forecaster_params": {"order": 3, "order": 4}}',
     "{path}: duplicate key 'order'"),
    ("spec", {"kind": "toy", "chain": {"transition": [[0.9, 0.1], [0.1, 0.9]], "initial": [1.0]}},
     "{path}: initial distribution must have length 2, got shape (1,)"),
    ("spec", {"kind": "toy", "y0": math.inf}, "{path}: starting value must be finite, got inf"),
    ("series", b"index" * 40000 + b",value\n0,1.0\n",
     "{path}: line 1: field larger than field limit"),
]


@pytest.mark.parametrize(
    "kind, content, fragment", MALFORMED_INPUTS,
    ids=[f"{i}-{kind}" for i, (kind, _, _) in enumerate(MALFORMED_INPUTS, start=1)],
)
def test_malformed_input_exits_2_naming_the_file_and_key_or_line(
    tmp_path, series_csv, capsys, kind, content, fragment
):
    path = tmp_path / ("bad.csv" if kind in ("series", "trace") else "bad.json")
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    out = ["--out", str(tmp_path / "o")]
    argv = {
        "spec": ["generate", "--spec", str(path)],
        "config": ["run", "--config", str(path)],
        "series": ["run", "--config", str(write_config(tmp_path, "s.json", dataset=str(path)))],
        "metrics": ["report", "--inputs", str(path)],
        "trace": ["wrap", "--trace", str(path), "--series", str(series_csv),
                  "--config", str(write_config(tmp_path))],
    }[kind]
    assert main(argv + out) == 2
    assert fragment.format(path=path) in capsys.readouterr().err


# Bank parameters each method's config must get right, with the message
# (after the file name) that rejects them.
BAD_BANK_PARAMETERS = [
    ({"eta": -1}, "eta must be non-negative, got -1"),
    ({"weight_floor": 1.5}, "weight_floor must lie in [0, 1), got 1.5"),
    ({"cap_factor": 0}, "cap_factor must be positive, got 0"),
    ({"gamma_grid": [0.01, 0.001, 0.01]}, "gamma_grid must be distinct non-negative steps"),
    ({"gamma_grid": [0.01, -0.5]}, "gamma_grid must be distinct non-negative steps"),
    # JSON Infinity is a number, but a step size must be finite
    ({"gamma": math.inf}, "gamma must be finite, got inf"),
    ({"gamma_grid": [0.01, math.inf]}, "gamma_grid steps must be finite, got [0.01, inf]"),
]


@pytest.mark.parametrize("method", ["none", "split", "aci", "agaci"])
@pytest.mark.parametrize(
    "bad, fragment", BAD_BANK_PARAMETERS, ids=[next(iter(b)) for b, _ in BAD_BANK_PARAMETERS]
)
def test_bad_bank_parameters_exit_2_for_every_method(tmp_path, capsys, method, bad, fragment):
    config = write_config(tmp_path, method=method, **bad)
    out = ["--out", str(tmp_path / "o")]
    assert main(["run", "--config", str(config)] + out) == 2
    assert f"{config}: {fragment}" in capsys.readouterr().err
    # in a grid the bad file stops the run before any cell, not as a failed cell
    good = write_config(tmp_path, "good.json", method=method)
    assert main(["run", "--config", str(good), str(config)] + out) == 2
    assert f"{config}: {fragment}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bank_parameters_are_checked_before_the_dataset_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    out = ["--out", str(tmp_path / "o")]
    config = write_config(tmp_path, dataset=missing, eta=-1)
    assert main(["run", "--config", str(config)] + out) == 2
    assert f"{config}: eta must be non-negative" in capsys.readouterr().err
    # the same config with a valid eta gets as far as the load
    assert main(["run", "--config", str(write_config(tmp_path, dataset=missing))] + out) == 3


@pytest.mark.parametrize("method", ["aci", "agaci"])
def test_a_huge_finite_step_size_runs_to_the_end(tmp_path, capsys, method):
    # the level runs to about +-1e306, where (n + 1) * level overflows
    config = write_config(tmp_path, method=method, gamma=1e306, gamma_grid=[0.01, 1e306])
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    name = f"toy-persistence-{method}"
    alpha_final = json.loads((tmp_path / "o" / f"{name}.metrics.json").read_text())["alpha_final"]
    # Gibbs & Candes 2021, Prop. 4.1: every expert's level stays in [-gamma, 1 + gamma]
    assert -1e306 <= alpha_final <= 1 + 1e306


def test_infinite_eta_cap_factor_and_threshold_still_run(tmp_path, capsys):
    config = write_config(
        tmp_path, forecaster="segmented_ar", method="agaci", eta=math.inf, cap_factor=math.inf,
        forecaster_params={"threshold": math.inf},
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_a_zero_weight_expert_with_an_infinite_cap_writes_no_nan_band(tmp_path, capsys):
    config = write_config(
        tmp_path, method="agaci", seed=3, gamma_grid=[0.01, 1e300], weight_floor=0,
        cap_factor=math.inf,
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    bands_csv = tmp_path / "o" / "toy-persistence-agaci.bands.csv"
    header, *rows = [line.split(",") for line in bands_csv.read_text().splitlines()]
    assert len(rows) == 900
    # at the zero weight's 0 * inf, 808 of the 900 rows read nan
    bands = [float(row[header.index(col)]) for row in rows for col in ("lower", "upper")]
    assert not any(map(math.isnan, bands))


@pytest.mark.parametrize("name", ["../escaped", "a/b"])
@pytest.mark.parametrize("command", ["run", "grid", "wrap"])
def test_a_name_with_path_parts_exits_2_and_writes_nothing(
    tmp_path, series_csv, capsys, command, name
):
    config = tmp_path / "named.json"  # write_config's own 'name' is the file's
    config.write_text(json.dumps({"dataset": str(series_csv), "method": "split", "name": name}))
    out = tmp_path / "o" / "inner"
    argv = {
        "run": ["run", "--config", str(config)],
        "grid": ["run", "--config", str(write_config(tmp_path)), str(config), "--jobs", "2"],
        "wrap": ["wrap", "--trace", str(persistence_trace_csv(tmp_path, series_csv)),
                 "--series", str(series_csv), "--config", str(config)],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: name must be a plain file name, got {name!r}\n"
    )
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("index, phase", [(1800, "calibration seeding"), (2500, "test step")])
def test_non_finite_forecast_exits_4_naming_the_phase_and_index(tmp_path, capsys, index, phase):
    series, _ = generate_toy(default_toy_spec(seed=1))
    series_csv = tmp_path / "toy.csv"
    write_series_csv(series_csv, series)
    lines = ["index,y_true,y_hat"]
    for t in range(1, len(series)):
        y_hat = -1.7e308 if t == index else float(series.values[t - 1])
        lines.append(f"{t},{float(series.values[t])!r},{y_hat!r}")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([
            "wrap", "--trace", str(trace), "--series", str(series_csv),
            "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o"),
        ]) == 4
    # the scaled trace overflows to -inf; that is the error, not a numpy warning
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"error: {phase}: the forecast for series index {index} is -inf\n"
    )


def spike_pair(n: int, at: int) -> TimeSeries:
    """Standard normal noise with +1e308 at index ``at`` and -1e308 after it.
    The first jump makes segmented_ar's CUSUM alarm, so its persistence
    fallback predicts +1e308 for the second, and that residual overflows."""
    values = np.random.default_rng(0).normal(size=n)
    values[at], values[at + 1] = 1e308, -1e308
    return TimeSeries(values=values)


@pytest.mark.parametrize("n, at, where", [
    (300, 200, "calibration seeding: while observing series index 201"),
    (400, 300, "test step: while observing series index 301"),
])
def test_a_failed_observation_names_its_phase_and_index(tmp_path, capsys, n, at, where):
    spiky = tmp_path / "spike-pair.csv"
    write_series_csv(spiky, spike_pair(n, at))
    params = {"order": 2, "refit_every": 50}
    config = write_config(tmp_path, "spike.json", dataset=str(spiky), forecaster="segmented_ar",
                          forecaster_params=params)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "one")]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {where}: detector fed a non-finite value: -inf\n"
    # in a grid the cell fails with the same message and its sibling runs
    other = write_config(tmp_path, "toy.json")
    assert main(["run", "--config", str(config), str(other), "--out", str(tmp_path / "grid")]) == 0
    failed = json.loads((tmp_path / "grid" / "spike-pair-segmented_ar-aci.metrics.json")
                        .read_text())
    assert failed["status"] == "failed"
    assert failed["error"] == "NumericError: " + err[len("error: "):-1]
    assert (tmp_path / "grid" / "toy-persistence-aci.bands.csv").exists()


@pytest.mark.parametrize("forecaster", ["ar", "segmented_ar"])
def test_a_series_that_turns_constant_runs_to_the_end(tmp_path, capsys, forecaster):
    # the AR fits the plateau exactly, so the CUSUM warm-up residuals are all 0
    walk = np.cumsum(np.random.default_rng(0).normal(size=600))
    plateau = tmp_path / "plateau.csv"
    write_series_csv(plateau, TimeSeries(values=np.concatenate([walk, np.full(400, 2.5)])))
    config = write_config(tmp_path, dataset=str(plateau), forecaster=forecaster)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    metrics = json.loads((tmp_path / "o" / f"plateau-{forecaster}-aci.metrics.json").read_text())
    assert metrics["metrics"]["n_steps"] == 300


@pytest.mark.parametrize("values", [
    np.random.default_rng(0).standard_normal(400) * 1e160,  # the std's squares overflow
    np.random.default_rng(0).standard_normal(400) * 1e154,  # and then their sum
    np.tile([1.7e308, 1.5e308, 1e308, 1.7e308], 100),  # the mean's sum overflows
])
def test_a_scaler_that_overflows_exits_4_with_one_line(tmp_path, capsys, values):
    big = tmp_path / "big.csv"
    write_series_csv(big, TimeSeries(values=values))
    config = write_config(tmp_path, dataset=str(big))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 4
    # the statistics overflow to inf; that is the error, not a numpy warning
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "error: while fitting the scaler on the training window: "
        "scaler statistics must be finite\n"
    )


def test_an_overflowing_cusum_warm_up_is_collected_again(tmp_path, capsys):
    # two standardized values near 1e308 make the warm-up's mean and std, and
    # the mean of an AR refit window, overflow; the run still ends quietly
    values = np.random.default_rng(0).normal(size=300)
    values[160] = values[161] = 1e308
    spiky = tmp_path / "spikes.csv"
    write_series_csv(spiky, TimeSeries(values=values))
    config = write_config(tmp_path, dataset=str(spiky), forecaster="segmented_ar",
                          forecaster_params={"order": 2, "refit_every": 50})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_a_band_beyond_the_float_range_is_written_as_inf(tmp_path, capsys):
    # five points of 8e307 make the AR predict near 8e307 and the band's
    # upper end, forecast plus half-width, overflow
    values = np.random.default_rng(0).normal(size=300)
    values[215:220] = 8e307
    burst = tmp_path / "burst.csv"
    write_series_csv(burst, TimeSeries(values=values))
    config = write_config(tmp_path, dataset=str(burst), forecaster="segmented_ar",
                          method="agaci", forecaster_params={"order": 2})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    bands = (tmp_path / "o" / "burst-segmented_ar-agaci.bands.csv").read_text()
    rows = [row.split(",") for row in bands.splitlines()[1:]]
    assert any(math.isfinite(float(y_hat)) and upper == "inf"
               for _, _, y_hat, _, upper, _, _ in rows)


def test_a_width_near_the_float_limit_prints_in_exponent_form(tmp_path, capsys):
    # the series of the test above: a median width of 1.6e308 in the data's units
    values = np.random.default_rng(0).normal(size=300)
    values[215:220] = 8e307
    burst = tmp_path / "burst.csv"
    write_series_csv(burst, TimeSeries(values=values))
    config = write_config(tmp_path, dataset=str(burst), forecaster="segmented_ar",
                          method="agaci", forecaster_params={"order": 2})
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == "coverage=0.889 width=1.600e+308 rmse=inf\n"
    metrics = tmp_path / "o" / "burst-segmented_ar-agaci.metrics.json"
    assert main(["report", "--inputs", str(metrics), "--out", str(tmp_path / "r")]) == 0
    table = (tmp_path / "r" / "report.txt").read_text()
    assert capsys.readouterr().out == table
    assert table.splitlines()[-1].split() == ["burst", "segmented_ar", "0.889", "1.600e+308"]
    assert max(map(len, table.splitlines())) < 60


@pytest.mark.parametrize("start, error", [
    (150, "calibration seeding: the score at series index 151 is inf"),
    (230, "test step: the score at series index 231 is inf"),
])
def test_a_score_beyond_the_float_range_exits_4_naming_its_index(tmp_path, capsys, start, error):
    # values near 1e-150 fit the scaler, so +-1.5e158 standardize to about +-1.5e308
    # and a sign change between two of them makes a persistence score of inf
    values = np.random.default_rng(0).standard_normal(300) * 1e-150
    values[start:] = 1.5e158
    values[start::7] *= -1
    path = tmp_path / "huge.csv"
    write_series_csv(path, TimeSeries(values=values))
    config = write_config(tmp_path, dataset=str(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 4
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {error}\n"


def test_an_agaci_half_width_past_the_float_range_is_an_infinite_band(tmp_path, capsys):
    # values near 1e-150 fit the scaler, so +-v standardize to +-8.988e307 and
    # every test score is the largest double; AgACI weights whose products
    # with it round up then sum past the float range
    v = 9.163922459267195e157
    values = np.random.default_rng(0).standard_normal(300) * 1e-150
    path = tmp_path / "top.csv"
    write_series_csv(path, TimeSeries(values=np.concatenate([values, np.tile([-v, v], 150)])))
    agaci = write_config(tmp_path, "agaci.json", dataset=str(path), method="agaci",
                         gamma_grid=[0.1, 0.01, 0.001, 1e-4, 1e-5], eta=0.5)
    aci = write_config(tmp_path, "aci.json", dataset=str(path))
    for out, configs in (("agaci", [agaci]), ("aci", [aci]), ("grid", [agaci, aci])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", *map(str, configs), "--out", str(tmp_path / out)])
        assert (code, capsys.readouterr().err, caught) == (0, "", [])
    metrics = json.loads((tmp_path / "agaci" / "top-persistence-agaci.metrics.json").read_text())
    assert (metrics["status"], metrics["metrics"]["n_infinite"]) == ("ok", 180)
    for alone in ("agaci", "aci"):
        for ext in ("metrics.json", "bands.csv"):
            name = f"top-persistence-{alone}.{ext}"
            grid, single = (tmp_path / out / name for out in ("grid", alone))
            assert grid.read_bytes() == single.read_bytes()


@pytest.mark.parametrize("forecaster, error", [
    ("persistence", "calibration seeding: the forecast for series index 201 is inf"),
    ("ar", "calibration seeding: the forecast for series index 201 is -inf"),
    ("segmented_ar", "calibration seeding: while observing series index 200: "
                     "detector fed a non-finite value: inf"),
])
def test_a_value_that_overflows_when_standardized_exits_4_with_one_line(
    tmp_path, capsys, forecaster, error
):
    # the scaler fits a training window of values near 1e-150; 1e160 then
    # standardizes to inf, which the column check or the observe guard names
    values = np.random.default_rng(0).standard_normal(300) * 1e-150
    values[200] = 1e160
    big = tmp_path / "big.csv"
    write_series_csv(big, TimeSeries(values=values))
    config = write_config(tmp_path, dataset=str(big), forecaster=forecaster)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 4
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {error}\n"


def last_value_overflows(tmp_path) -> Path:
    """Values near 1e-150, so 1e160 as the last one standardizes to inf; no
    forecast reads that value, and only a rolling buffer takes its score."""
    values = np.random.default_rng(0).standard_normal(300) * 1e-150
    values[-1] = 1e160
    path = tmp_path / "last.csv"
    write_series_csv(path, TimeSeries(values=values))
    return path


@pytest.mark.parametrize("forecaster, method, buffer_mode", [
    ("ar", "split", "frozen"),
    ("ar", "agaci", "frozen"),
    ("segmented_ar", "split", "frozen"),
    ("ar", "none", "rolling"),
    ("segmented_ar", "none", "rolling"),
    ("ar", "split", "rolling"),
    ("segmented_ar", "split", "rolling"),
])
def test_the_value_after_the_last_forecast_is_never_observed(
    tmp_path, capsys, forecaster, method, buffer_mode
):
    config = write_config(tmp_path, dataset=str(last_value_overflows(tmp_path)),
                          forecaster=forecaster, method=method, buffer_mode=buffer_mode,
                          forecaster_params={"order": 2, "refit_every": 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
    if method != "none" and buffer_mode == "rolling":
        assert (code, capsys.readouterr().err, caught) == (
            4, "error: test step: the score at series index 299 is inf\n", [])
    else:
        assert (code, capsys.readouterr().err, caught) == (0, "", [])


def test_a_frozen_cell_beside_a_failing_rolling_one_runs_as_alone(tmp_path, capsys):
    cell = dict(dataset=str(last_value_overflows(tmp_path)), forecaster="ar", method="split",
                forecaster_params={"order": 2, "refit_every": 1})
    frozen, rolling = (tmp_path / f"{mode}.json" for mode in ("frozen", "rolling"))
    for path in (frozen, rolling):
        path.write_text(json.dumps({**cell, "buffer_mode": path.stem, "name": path.stem}))
    assert main(["run", "--config", str(frozen), "--out", str(tmp_path / "alone")]) == 0
    grid = ["run", "--config", str(frozen), str(rolling), "--out", str(tmp_path / "grid")]
    assert main(grid) == 0
    capsys.readouterr()
    for ext in ("metrics.json", "bands.csv"):
        assert ((tmp_path / "grid" / f"frozen.{ext}").read_bytes()
                == (tmp_path / "alone" / f"frozen.{ext}").read_bytes())
    failed = json.loads((tmp_path / "grid" / "rolling.metrics.json").read_text())
    assert failed["error"] == "NumericError: test step: the score at series index 299 is inf"


def test_duplicate_run_names_exit_2_before_any_load(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    a = write_config(tmp_path, "a.json", dataset=missing, seed=1)
    b = write_config(tmp_path, "b.json", dataset=missing, seed=2)
    out = tmp_path / "o"
    for argv, paths in (
        (["--config", str(a), str(b)], (a, b)),
        (["--config", str(a), str(a)], (a, a)),
    ):
        assert main(["run", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: run name 'missing-persistence-aci' is used by both {paths[0]} "
            f"and {paths[1]}; give one of them a distinct 'name'\n"
        )
    assert not out.exists() or not any(out.iterdir())
    # distinct names run
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"dataset": "toy", "method": "split", "seed": 2, "name": "second"}))
    assert main(["run", "--config", str(write_config(tmp_path)), str(c), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "second.bands.csv", "second.metrics.json",
        "toy-persistence-aci.bands.csv", "toy-persistence-aci.metrics.json",
    ]


@pytest.mark.parametrize("command, key, value", [
    ("run", "out", "runs"), ("run", "aggregation", "fixed"), ("wrap", "out", "runs"),
])
def test_removed_config_keys_exit_2_before_any_load(tmp_path, capsys, monkeypatch,
                                                     command, key, value):
    """The output directory comes only from --out, and frozen AgACI weights
    only from eta 0; a config that still sets ``out`` or ``aggregation`` is
    an unknown key. The dataset is missing, so a check after the load would
    exit 3."""
    monkeypatch.chdir(tmp_path)
    missing = str(tmp_path / "missing.csv")
    config = str(write_config(tmp_path, dataset=missing, **{key: value}))
    argv = {"run": ["run", "--config", config],
            "wrap": ["wrap", "--config", config, "--series", missing, "--trace", missing]}
    assert main(argv[command]) == 2
    assert capsys.readouterr().err == f"error: {config}: unknown keys in run config: {key}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_no_cli_flag_spells_a_run_config_field():
    """A run setting has one spelling, its config key: no option of any
    subcommand sets a RunConfig field too."""
    [commands] = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sub in commands.choices.values() for a in sub._actions}
    assert dests & {f.name for f in dataclasses.fields(evaluate.RunConfig)} == set()


def test_a_grid_without_out_writes_every_run_into_the_current_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    configs = [str(write_config(tmp_path, f"{method}.json", method=method))
               for method in ("split", "aci")]
    assert main(["run", "--config", *configs]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "aci.json", "split.json",
        *(f"toy-persistence-{method}.{ext}" for method in ("aci", "split")
          for ext in ("bands.csv", "metrics.json")),
    ]


@pytest.mark.parametrize("n_configs", [1, 2])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_1_exit_2_for_every_run(tmp_path, capsys, n_configs, jobs):
    # the dataset is missing, so a check after the load would exit 3
    configs = [
        str(write_config(tmp_path, f"{method}.json", dataset=str(tmp_path / "missing.csv"),
                         method=method))
        for method in ("aci", "split")[:n_configs]
    ]
    argv = ["run", "--config", *configs, "--jobs", jobs, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"


def grid_configs(tmp_path):
    """Config files of a mixed grid, forecaster-major: two toy seeds of every
    method, a frozen-buffer cell and a key whose forecast pass fails."""
    spiky = tmp_path / "spike-pair.csv"  # segmented_ar's CUSUM is fed an infinite residual
    write_series_csv(spiky, spike_pair(300, 200))
    cells = [dict(dataset="toy", forecaster=f, method=m, seed=seed, name=f"{f}-{m}-{seed}")
             for f in ("persistence", "ar")
             for seed in (1, 2)
             for m in ("none", "split", "aci", "agaci")]
    cells.append(dict(dataset="toy", forecaster="ar", method="aci", seed=1,
                      buffer_mode="frozen", name="ar-aci-1-frozen"))
    cells += [dict(dataset=str(spiky), forecaster="segmented_ar", method=m, name=f"spike-{m}",
                   forecaster_params={"order": 2, "refit_every": 50})
              for m in ("split", "aci")]
    paths = []
    for cell in cells:
        path = tmp_path / "configs" / f"{cell['name']}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(cell))
        paths.append(path)
    return paths


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_grid_files_equal_each_config_run_alone(tmp_path, capsys, monkeypatch, jobs):
    paths = grid_configs(tmp_path)
    alone = {}
    for path in paths:
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "alone")])
        alone[path.stem] = code, capsys.readouterr().err
    assert [p.stem for p in paths if alone[p.stem][0] != 0] == ["spike-split", "spike-aci"]

    tables, reports = [], []

    def shared_cells(columns_of_each_run):
        table = cli_shared_cells(columns_of_each_run)
        tables.append((len(table), table))
        return table

    def grid_run(configs, jobs):
        results = real_grid_run(configs, jobs=jobs)
        reports.extend(results)
        return results

    cli_shared_cells, real_grid_run = cli.shared_cells, evaluate.grid_run
    monkeypatch.setattr(cli, "shared_cells", shared_cells)
    monkeypatch.setattr(evaluate, "grid_run", grid_run)

    def method_major(path):  # and, within a forecaster, the seeds interleaved
        cell = json.loads(path.read_text())
        return cell["method"], cell["forecaster"], cell.get("seed", 0)

    for order, grid in (("forecaster-major", paths),
                        ("method-major", sorted(paths, key=method_major))):
        out = tmp_path / order
        argv = ["run", "--jobs", jobs, "--config", *map(str, grid), "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        for path in paths:
            code, err = alone[path.stem]
            metrics = (out / f"{path.stem}.metrics.json").read_bytes()
            if code != 0:  # the cell reports the error the config alone exits with
                assert code == 4
                assert json.loads(metrics)["error"] + "\n" == "NumericError: " + err.removeprefix("error: ")
                assert not (out / f"{path.stem}.bands.csv").exists()
                continue
            assert metrics == (tmp_path / "alone" / f"{path.stem}.metrics.json").read_bytes()
            assert ((out / f"{path.stem}.bands.csv").read_bytes()
                    == (tmp_path / "alone" / f"{path.stem}.bands.csv").read_bytes())
    # shared by content: one index (both seeds test the same steps), each seed's
    # y, each of the 4 toy forecast keys' y_hat and the split cells' constant alpha_t
    assert [(n, table) for n, table in tables] == [(8, {}), (8, {})]
    columns = [c for r in reports if isinstance(r, evaluate.RunReport)
               for c in r.columns.values() if c is not None]
    assert len(columns) == 2 * (4 * 3 + 13 * 7)  # two grids: 4 unbanded and 13 banded cells
    for column in columns:
        with pytest.raises(ValueError):
            column[0] = 0.0
