import json
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from driftband import evaluate
from driftband.conformal import AgAciState, ScoreBuffer, agaci_step, agaci_update
from driftband.errors import ConfigError, NumericError
from driftband.evaluate import (
    ForecastRecord,
    RunConfig,
    RunFailure,
    RunReport,
    comparison_csv,
    comparison_rows,
    compute_metrics,
    grid_run,
    load_metrics_json,
    render_comparison_table,
    report_payload,
    run_config_from_dict,
    run_rolling,
    write_metrics_json,
)
from driftband.forecasters import Forecaster
from driftband.series import SplitSpec, TimeSeries, fit_scaler, write_series_csv

THIRDS = (1 / 3, 1 / 3, 1 / 3)


def record(index=0, y=0.0, y_hat=0.0, lower=None, upper=None, alpha_t=None, covered=None):
    return ForecastRecord(
        index=index, y=y, y_hat=y_hat, lower=lower, upper=upper, alpha_t=alpha_t, covered=covered
    )


def banded(width, covered=True):
    return record(lower=-width / 2, upper=width / 2, alpha_t=0.1, covered=covered)


class ZeroForecaster(Forecaster):
    """Predicts 0 in scaled units; turns i.i.d. data into i.i.d. scores."""

    def fit(self, window):
        pass

    def predict_one(self, history):
        return 0.0


def test_config_validation():
    # forecaster_params are checked against the forecaster in code as in JSON
    with pytest.raises(ConfigError, match="unknown keys in persistence forecaster_params: order"):
        RunConfig(dataset="toy", forecaster="persistence", forecaster_params={"order": 3})
    with pytest.raises(ConfigError, match="ar forecaster_params key 'order'"):
        RunConfig(dataset="toy", forecaster_params={"order": 2.5})
    with pytest.raises(ConfigError):
        RunConfig(dataset="toy", method="conformal")
    with pytest.raises(ConfigError):
        RunConfig(dataset="toy", alpha=1.0)
    with pytest.raises(ConfigError):
        RunConfig(dataset="toy", forecaster="lstm")
    with pytest.raises(ConfigError):
        RunConfig(dataset="toy", split=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        RunConfig(dataset="toy", method="agaci", gamma_grid=())
    with pytest.raises(ConfigError):
        RunConfig(dataset="toy", buffer_mode="sliding")
    with pytest.raises(ConfigError):
        RunConfig(dataset="")


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys.*alpa"):
        run_config_from_dict({"dataset": "toy", "alpa": 0.1})
    with pytest.raises(ConfigError, match="forecaster_params.*oder"):
        run_config_from_dict({"dataset": "toy", "forecaster_params": {"oder": 3}})
    with pytest.raises(ConfigError, match="missing 'dataset'"):
        run_config_from_dict({"method": "aci"})


def test_config_from_dict_builds_tuples():
    config = run_config_from_dict(
        {"dataset": "toy", "gamma_grid": [0.001, 0.01], "split": [0.6, 0.2, 0.2]}
    )
    assert config.gamma_grid == (0.001, 0.01)
    assert config.split == (0.6, 0.2, 0.2)


def test_run_name_default_and_override():
    assert RunConfig(dataset="toy").run_name == "toy-ar-aci"
    assert RunConfig(dataset="/data/apnea.csv").run_name == "apnea-ar-aci"
    assert RunConfig(dataset="toy", name="exp1").run_name == "exp1"


def test_compute_metrics_oracles():
    perfect = [record(y=1.0, y_hat=1.0), record(y=-2.0, y_hat=-2.0)]
    m = compute_metrics(perfect)
    assert m["rmse"] == 0.0
    assert m["coverage"] is None and m["median_width"] is None

    covered = [banded(w) for w in (1.0, 2.0, 3.0)]
    m = compute_metrics(covered)
    assert m["coverage"] == 1.0
    assert m["median_width"] == 2.0

    with_inf = covered + [banded(math.inf)]
    m = compute_metrics(with_inf)
    assert m["median_width"] == 2.0  # lower median over the finite widths
    assert m["n_infinite"] == 1

    four = [banded(w) for w in (1.0, 2.0, 3.0, 4.0)]
    assert compute_metrics(four)["median_width"] == 2.0

    degenerate = [banded(0.0), banded(math.inf)]
    m = compute_metrics(degenerate)
    assert m["n_zero_width"] == 1 and m["n_infinite"] == 1
    assert m["median_width"] == 0.0

    all_inf = [banded(math.inf), banded(math.inf)]
    assert compute_metrics(all_inf)["median_width"] == math.inf

    half = [banded(1.0, covered=True), banded(1.0, covered=False)]
    assert compute_metrics(half)["coverage"] == 0.5

    with pytest.raises(ConfigError):
        compute_metrics([])


def test_rmse_oracle():
    records = [record(y=3.0, y_hat=1.0), record(y=0.0, y_hat=2.0)]
    assert compute_metrics(records)["rmse"] == pytest.approx(2.0)


def test_method_none_reports_point_metrics_only():
    report = run_rolling(RunConfig(dataset="toy", forecaster="persistence", method="none"))
    assert report.coverage is None
    assert report.median_width is None
    assert report.alpha_final is None
    assert report.rmse > 0
    assert all(r.lower is None and r.covered is None for r in report.records)


def test_split_equals_aci_with_zero_gamma():
    base = dict(dataset="toy", forecaster="persistence", seed=3, split=THIRDS)
    split_report = run_rolling(RunConfig(method="split", **base))
    aci_report = run_rolling(RunConfig(method="aci", gamma=0.0, **base))
    assert split_report.records == aci_report.records
    assert split_report.alpha_final == 0.1
    # split never moves the working level
    assert all(r.alpha_t == 0.1 for r in split_report.records)


def test_telescoping_identity_from_report():
    config = RunConfig(
        dataset="toy", method="aci", gamma=0.01, seed=7, split=THIRDS,
        forecaster_params={"order": 12},
    )
    report = run_rolling(config)
    t = report.n_steps
    assert t == 1000
    lhs = report.coverage - (1 - config.alpha)
    rhs = (report.alpha_final - config.alpha) / (config.gamma * t)
    assert abs(lhs - rhs) < 1e-12


def test_unit_consistency_of_records():
    from driftband.datagen import default_toy_spec, generate_toy

    config = RunConfig(dataset="toy", method="aci", seed=2)
    report = run_rolling(config)
    series, _ = generate_toy(default_toy_spec(seed=2))
    for r in report.records:
        assert r.lower <= r.y_hat <= r.upper
        assert r.y == series.values[r.index]
        # the decision is made in scaled space; the scaling is strictly
        # monotone, so it reads the same in original units
        assert r.covered == (r.lower <= r.y <= r.upper)


def test_reports_are_deterministic():
    config = RunConfig(dataset="toy", method="agaci", seed=6)
    a = run_rolling(config)
    b = run_rolling(config)
    assert a.records == b.records
    assert a.rmse == b.rmse


def test_frozen_buffer_differs_from_rolling():
    base = dict(dataset="toy", method="aci", seed=1, split=THIRDS)
    rolling = run_rolling(RunConfig(buffer_mode="rolling", **base))
    frozen = run_rolling(RunConfig(buffer_mode="frozen", **base))
    assert rolling.records != frozen.records


def test_agaci_effective_alpha_recorded():
    # replay the run's bank by hand: a zero forecast and a frozen buffer
    # make every score |z_t|
    series = TimeSeries(values=np.random.default_rng(4).normal(size=600))
    config = RunConfig(dataset="iid", method="agaci", split=THIRDS, buffer_mode="frozen")
    report = run_rolling(config, series=series, forecaster_factory=lambda *a: ZeroForecaster())
    split = SplitSpec.from_fractions(len(series), THIRDS)
    z = fit_scaler(series.values, 0, split.train_end).transform(series.values)
    buffer = ScoreBuffer(split.cal_end - split.train_end, np.abs(z[split.train_end:split.cal_end]))
    bank = AgAciState.from_gammas(config.alpha, config.gamma_grid)
    for t, r in zip(range(split.cal_end, split.test_end), report.records):
        assert r.alpha_t == bank.alpha_t
        _, per_expert = agaci_step(bank, buffer, 0.0)
        bank = agaci_update(bank, float(z[t]), 0.0, per_expert)
    assert report.alpha_final == bank.alpha_t
    # the effective level stays in the vicinity of nominal
    assert 0.0 < np.median([r.alpha_t for r in report.records]) < 0.3


def test_split_cp_iid_control_hits_nominal_coverage():
    # i.i.d. data + constant forecast = exchangeable scores: split CP must
    # deliver ~90% marginal coverage averaged over seeded replications
    coverages = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        series = TimeSeries(values=rng.normal(size=600))
        config = RunConfig(
            dataset="control", forecaster="persistence", method="split",
            buffer_mode="frozen", seed=seed,
        )
        report = run_rolling(
            config, series=series, forecaster_factory=lambda *a: ZeroForecaster()
        )
        coverages.append(report.coverage)
    assert abs(np.mean(coverages) - 0.9) < 0.02


def test_degenerate_training_window_is_a_numeric_error():
    series = TimeSeries(values=np.ones(100))
    with pytest.raises(NumericError, match="scaler.*training"):
        run_rolling(RunConfig(dataset="flat", method="split"), series=series)


def test_too_short_series_is_a_config_error():
    series = TimeSeries(values=np.arange(3.0))
    with pytest.raises(ConfigError):
        run_rolling(RunConfig(dataset="tiny", method="split"), series=series)


def test_replay_without_wrap_is_rejected():
    with pytest.raises(ConfigError, match="wrap"):
        run_rolling(RunConfig(dataset="toy", forecaster="replay", method="split"))


def make_csv(tmp_path, name, seed):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=240)) + rng.normal(scale=0.2, size=240)
    path = tmp_path / f"{name}.csv"
    write_series_csv(path, TimeSeries(values=values))
    return str(path)


def test_grid_single_config_matches_direct_run(tmp_path):
    config = RunConfig(dataset=make_csv(tmp_path, "a", 0), forecaster="persistence",
                       method="split")
    [gridded] = grid_run([config])
    direct = run_rolling(config)
    assert isinstance(gridded, RunReport)
    assert gridded.records == direct.records


def test_grid_runs_cells_independently_and_sorts(tmp_path):
    datasets = [make_csv(tmp_path, n, i) for i, n in enumerate("abc")]
    configs = [
        RunConfig(dataset=d, forecaster=f, method=m, lag=8)
        for d in datasets
        for f in ("persistence", "ar")
        for m in ("split", "aci")
    ]
    results = grid_run(configs)
    assert len(results) == 12
    assert all(isinstance(r, RunReport) for r in results)
    rows = comparison_rows([report_payload(r) for r in results])
    keys = [(r["dataset"], r["forecaster"], r["method"]) for r in rows]
    assert keys == sorted(keys)
    assert len(keys) == 12


def test_grid_records_failures_without_aborting(tmp_path):
    good = RunConfig(dataset=make_csv(tmp_path, "ok", 1), forecaster="persistence",
                     method="split")
    bad = RunConfig(dataset=str(tmp_path / "missing.csv"), forecaster="persistence",
                    method="split")
    results = grid_run([good, bad])
    assert isinstance(results[0], RunReport)
    assert isinstance(results[1], RunFailure)
    assert results[1].kind == "FileNotFoundError"


def test_grid_parallel_matches_sequential(tmp_path):
    configs = [
        RunConfig(dataset=make_csv(tmp_path, "p1", 3), forecaster="persistence",
                  method="aci"),
        RunConfig(dataset=make_csv(tmp_path, "p2", 4), forecaster="persistence",
                  method="aci"),
    ]
    sequential = grid_run(configs, jobs=1)
    parallel = grid_run(configs, jobs=2)
    for s, p in zip(sequential, parallel):
        assert s.records == p.records


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched run_rolling",
)
def test_grid_turns_a_dead_worker_into_failed_cells(tmp_path, monkeypatch):
    configs = [
        RunConfig(dataset=make_csv(tmp_path, name, i), forecaster="persistence", method="aci")
        for i, name in enumerate(("a", "b", "dies"))
    ]
    done = [tmp_path / "a.done", tmp_path / "b.done"]
    real_run = evaluate.run_rolling

    def run_or_die(config, *args, **kwargs):
        name = Path(config.dataset).stem
        if name != "dies":
            report = real_run(config, *args, **kwargs)
            (tmp_path / f"{name}.done").touch()
            return report
        # let the other cells finish and send their reports, then kill the worker
        deadline = time.monotonic() + 30
        while not all(p.exists() for p in done) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        os._exit(1)

    monkeypatch.setattr(evaluate, "run_rolling", run_or_die)
    results = grid_run(configs, jobs=2)
    assert [type(r) for r in results] == [RunReport, RunReport, RunFailure]
    for result, config in zip(results[:2], configs):
        assert report_payload(result)["status"] == "ok"
        assert result.records == real_run(config).records
    assert results[2].kind == "BrokenProcessPool"
    assert report_payload(results[2])["status"] == "failed"


def test_grid_rejects_empty_and_bad_jobs():
    with pytest.raises(ConfigError):
        grid_run([])
    with pytest.raises(ConfigError):
        grid_run([RunConfig(dataset="toy")], jobs=0)


def test_metrics_json_round_trip(tmp_path):
    config = RunConfig(dataset="toy", forecaster="persistence", method="split",
                       split=THIRDS, seed=5)
    report = run_rolling(config)
    path = tmp_path / "m.json"
    write_metrics_json(path, report)
    payload = load_metrics_json(path)
    assert payload["status"] == "ok"
    assert payload["metrics"]["coverage"] == report.coverage
    assert payload["metrics"]["median_width"] == report.median_width
    assert payload["dataset"] == "toy"


def test_metrics_json_survives_infinite_median(tmp_path):
    config = RunConfig(dataset="toy")
    report = RunReport(
        config=config, rmse=1.0, coverage=1.0, median_width=math.inf,
        n_infinite=3, n_zero_width=0, n_steps=3, alpha_final=0.1,
        records=(banded(math.inf),),
    )
    path = tmp_path / "inf.json"
    write_metrics_json(path, report)
    raw = json.loads(path.read_text())
    assert raw["metrics"]["median_width"] == "inf"  # strict-JSON-safe encoding
    assert load_metrics_json(path)["metrics"]["median_width"] == math.inf


def test_comparison_rows_dedupe_and_conflict():
    ok = {
        "dataset": "toy", "forecaster": "ar", "method": "aci", "status": "ok",
        "alpha": 0.1,
        "metrics": {"rmse": 1.0, "coverage": 0.9, "median_width": 0.5,
                    "n_infinite": 0, "n_zero_width": 0, "n_steps": 10},
    }
    rows = comparison_rows([ok, json.loads(json.dumps(ok))])
    assert len(rows) == 1
    conflicting = json.loads(json.dumps(ok))
    conflicting["metrics"]["coverage"] = 0.8
    with pytest.raises(ConfigError, match="conflicting"):
        comparison_rows([ok, conflicting])


def test_comparison_table_rendering():
    payloads = [
        {
            "dataset": "toy", "forecaster": "ar", "method": m, "status": "ok",
            "alpha": 0.1,
            "metrics": {"rmse": 1.0, "coverage": 0.9, "median_width": 0.5,
                        "n_infinite": 0, "n_zero_width": 0, "n_steps": 10},
        }
        for m in ("aci", "split")
    ]
    payloads.append(
        {"dataset": "toy", "forecaster": "ar", "method": "agaci",
         "status": "failed", "error": "boom", "alpha": 0.1}
    )
    rows = comparison_rows(payloads)
    table = render_comparison_table(rows)
    assert "Coverage@90%" in table
    assert "Median width" in table
    assert "—" in table  # failed cell placeholder
    csv_text = comparison_csv(rows)
    assert csv_text.splitlines()[0].startswith("dataset,forecaster,method,status")
    assert any(line.startswith("toy,ar,agaci,failed") for line in csv_text.splitlines())
