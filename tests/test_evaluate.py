import concurrent.futures
import json
import math
import multiprocessing
import os
import pickle
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftband import conformal, datagen, evaluate, forecasters
from driftband.conformal import AgAciState, ScoreBuffer, agaci_step, agaci_update
from driftband.errors import ConfigError, NumericError
from driftband.evaluate import (
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
    write_bands_csv,
    write_metrics_json,
)
from driftband.series import (
    SplitSpec,
    TimeSeries,
    fit_scaler,
    load_series_csv,
    write_series_csv,
)

THIRDS = (1 / 3, 1 / 3, 1 / 3)
FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched functions",
)


def unbanded(y, y_hat):
    """The column table of a run without bands."""
    y = np.array(y, dtype=float)
    return {"index": np.arange(y.size), "y": y, "y_hat": np.array(y_hat, dtype=float),
            "lower": None, "upper": None, "alpha_t": None, "covered": None}


def banded(widths, covered=None):
    """The column table of zero forecasts and observations with bands of these widths."""
    widths = np.array(widths, dtype=float)
    n = widths.size
    return {**unbanded(np.zeros(n), np.zeros(n)), "lower": -widths / 2, "upper": widths / 2,
            "alpha_t": np.full(n, 0.1),
            "covered": np.ones(n, bool) if covered is None else np.array(covered)}


def same_columns(a, b):
    """Equal column tables: the same keys, None in the same places, equal arrays."""
    return a.keys() == b.keys() and all(
        (a[k] is None) == (b[k] is None) and (a[k] is None or np.array_equal(a[k], b[k]))
        for k in a
    )


def zero_forecast(series, split, scaler, z):
    """Predicts 0 in scaled units; turns i.i.d. data into i.i.d. scores."""
    return np.zeros(split.test_end - split.train_end)


def test_config_validation():
    # forecaster_params are checked against the forecaster in code as in JSON
    with pytest.raises(ConfigError, match="unknown keys in persistence forecaster_params: order"):
        RunConfig(dataset="toy", forecaster="persistence", forecaster_params={"order": 3})
    with pytest.raises(ConfigError, match="ar forecaster_params key 'order'"):
        RunConfig(dataset="toy", forecaster_params={"order": 2.5})
    # and their values by the forecaster's own rules, before any data is read
    with pytest.raises(ConfigError) as raised:
        RunConfig(dataset="absent.csv", forecaster_params={"refit_every": 0})
    assert str(raised.value) == "ar forecaster_params: refit interval must be >= 1, got 0"
    with pytest.raises(ConfigError) as raised:
        RunConfig(dataset="toy", forecaster="segmented_ar", forecaster_params={"drift": -1.0})
    assert str(raised.value) == (
        "segmented_ar forecaster_params: drift allowance must be non-negative, got -1.0"
    )
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


@pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", ".", "..", "a\0b"])
def test_run_name_must_be_a_plain_file_name(name):
    with pytest.raises(ConfigError, match="name must be a plain file name"):
        RunConfig(dataset="toy", name=name)


@pytest.mark.parametrize("bad, message", [
    ({"gamma": math.inf}, "gamma must be finite, got inf"),
    ({"gamma": math.nan}, "gamma must be finite, got nan"),
    ({"gamma_grid": (0.01, math.inf)}, "gamma_grid steps must be finite, got [0.01, inf]"),
    ({"gamma_grid": (math.nan,)}, "gamma_grid steps must be finite, got [nan]"),
    # a negative infinity is named as negative, as before
    ({"gamma": -math.inf}, "gamma must be non-negative, got -inf"),
    ({"gamma_grid": (-math.inf,)}, "gamma_grid must be distinct non-negative steps, got [-inf]"),
], ids=["gamma-inf", "gamma-nan", "grid-inf", "grid-nan", "gamma-minus-inf", "grid-minus-inf"])
def test_config_rejects_non_finite_steps(bad, message):
    with pytest.raises(ConfigError) as raised:
        RunConfig(dataset="toy", **bad)
    assert str(raised.value) == message


@pytest.mark.parametrize("bad, message", [
    ({"eta": math.nan}, "eta must be non-negative, got nan"),
    ({"cap_factor": math.nan}, "cap_factor must be positive, got nan"),
    ({"split": (math.nan, 0.5, 0.5)},
     "split must be three positive fractions, got (nan, 0.5, 0.5)"),
    # a non-integer lag ran as some AR order, and a non-integer seed failed in numpy
    ({"lag": math.nan}, "lag must be an integer, got nan"),
    ({"lag": 2.5}, "lag must be an integer, got 2.5"),
    ({"seed": math.nan}, "seed must be an integer, got nan"),
    ({"seed": 2.5}, "seed must be an integer, got 2.5"),
    # values rejected before keep their messages
    ({"lag": 0.5}, "lag must be >= 1, got 0.5"),
    ({"seed": -1.5}, "seed must be non-negative, got -1.5"),
], ids=["eta", "cap_factor", "split", "lag-nan", "lag-2.5", "seed-nan", "seed-2.5",
        "lag-0.5", "seed-minus-1.5"])
def test_config_rejects_nan(bad, message):
    with pytest.raises(ConfigError) as raised:
        RunConfig(dataset="toy", **bad)
    assert str(raised.value) == message


def test_config_takes_numpy_integers_as_ints(tmp_path):
    config = RunConfig(dataset="toy", forecaster="persistence", method="split",
                       lag=np.int64(4), seed=np.int64(3))
    assert (type(config.lag), type(config.seed)) == (int, int)
    write_metrics_json(tmp_path / "m.json", run_rolling(config))
    assert load_metrics_json(tmp_path / "m.json")["seed"] == 3


def test_compute_metrics_oracles():
    perfect = unbanded([1.0, -2.0], [1.0, -2.0])
    m = compute_metrics(perfect)
    assert m["rmse"] == 0.0
    assert m["coverage"] is None and m["median_width"] is None

    m = compute_metrics(banded([1.0, 2.0, 3.0]))
    assert m["coverage"] == 1.0
    assert m["median_width"] == 2.0

    m = compute_metrics(banded([1.0, 2.0, 3.0, math.inf]))
    assert m["median_width"] == 2.0  # lower median over the finite widths
    assert m["n_infinite"] == 1

    assert compute_metrics(banded([1.0, 2.0, 3.0, 4.0]))["median_width"] == 2.0

    m = compute_metrics(banded([0.0, math.inf]))
    assert m["n_zero_width"] == 1 and m["n_infinite"] == 1
    assert m["median_width"] == 0.0

    assert compute_metrics(banded([math.inf, math.inf]))["median_width"] == math.inf

    # both ends beyond the float range in the data's units: an infinite band
    beyond = {**banded([1.0, 2.0]), "lower": np.array([math.inf, -1.0]),
              "upper": np.array([math.inf, 1.0])}
    m = compute_metrics(beyond)
    assert m["n_infinite"] == 1 and m["median_width"] == 2.0

    assert compute_metrics(banded([1.0, 1.0], covered=[True, False]))["coverage"] == 0.5


def test_rmse_oracle():
    assert compute_metrics(unbanded([3.0, 0.0], [1.0, 2.0]))["rmse"] == pytest.approx(2.0)


def test_method_none_reports_point_metrics_only():
    report = run_rolling(RunConfig(dataset="toy", forecaster="persistence", method="none"))
    assert report.coverage is None
    assert report.median_width is None
    assert report.alpha_final is None
    assert report.rmse > 0
    assert all(report.columns[k] is None for k in ("lower", "upper", "alpha_t", "covered"))


def test_split_equals_aci_with_zero_gamma():
    base = dict(dataset="toy", forecaster="persistence", seed=3, split=THIRDS)
    split_report = run_rolling(RunConfig(method="split", **base))
    aci_report = run_rolling(RunConfig(method="aci", gamma=0.0, **base))
    assert same_columns(split_report.columns, aci_report.columns)
    assert split_report.alpha_final == 0.1
    # split never moves the working level
    assert np.all(split_report.columns["alpha_t"] == 0.1)


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
    c = report.columns
    assert np.all((c["lower"] <= c["y_hat"]) & (c["y_hat"] <= c["upper"]))
    assert np.array_equal(c["y"], series.values[c["index"]])
    # the decision is made in scaled space; the scaling is strictly
    # monotone, so it reads the same in original units
    assert np.array_equal(c["covered"], (c["lower"] <= c["y"]) & (c["y"] <= c["upper"]))


def test_reports_are_deterministic():
    config = RunConfig(dataset="toy", method="agaci", seed=6)
    a = run_rolling(config)
    b = run_rolling(config)
    assert same_columns(a.columns, b.columns)
    assert a.rmse == b.rmse


def test_segmented_ar_agaci_metrics_are_pinned():
    # this run refits on 26- and 51-point post-alarm segments, where the
    # rank cutoff of ar_fit decides whether rounding noise enters the fit
    report = run_rolling(
        RunConfig(dataset="toy", forecaster="segmented_ar", method="agaci", seed=7)
    )
    assert report.rmse == pytest.approx(0.7102065456536328, abs=1e-9)
    assert report.coverage == pytest.approx(0.8833333333333333, abs=1e-9)
    assert report.median_width == pytest.approx(1.2120491595208822, abs=1e-9)
    assert report.alpha_final == pytest.approx(0.07175569191919343, abs=1e-9)


def test_frozen_buffer_differs_from_rolling():
    base = dict(dataset="toy", method="aci", seed=1, split=THIRDS)
    rolling = run_rolling(RunConfig(buffer_mode="rolling", **base))
    frozen = run_rolling(RunConfig(buffer_mode="frozen", **base))
    assert not same_columns(rolling.columns, frozen.columns)


def test_agaci_effective_alpha_recorded():
    # replay the run's bank by hand: a zero forecast and a frozen buffer
    # make every score |z_t|
    series = TimeSeries(values=np.random.default_rng(4).normal(size=600))
    config = RunConfig(dataset="iid", method="agaci", split=THIRDS, buffer_mode="frozen")
    report = run_rolling(config, series=series, forecast=zero_forecast)
    split = SplitSpec.from_fractions(len(series), THIRDS)
    scaler = fit_scaler(series.values[: split.train_end])
    z = scaler.transform(series.values)
    buffer = ScoreBuffer(split.cal_end - split.train_end, np.abs(z[split.train_end:split.cal_end]))
    bank = AgAciState.from_gammas(config.alpha, config.gamma_grid)
    alpha_t = report.columns["alpha_t"]
    assert alpha_t.size == split.test_end - split.cal_end
    # the vectorized columns equal the scalar rescale of each step's interval
    rows = zip(*(report.columns[k].tolist() for k in ("y_hat", "lower", "upper", "covered")))
    for t, recorded, row in zip(range(split.cal_end, split.test_end), alpha_t.tolist(), rows):
        assert recorded == bank.alpha_t
        interval, per_expert = agaci_step(bank, buffer, 0.0)
        assert row == (
            float(scaler.inverse_transform(0.0)), float(scaler.inverse_transform(interval.lower)),
            float(scaler.inverse_transform(interval.upper)), interval.covers(float(z[t])),
        )
        bank = agaci_update(bank, float(z[t]), 0.0, per_expert)
    assert report.alpha_final == bank.alpha_t
    # the effective level stays in the vicinity of nominal
    assert 0.0 < np.median(alpha_t) < 0.3


@pytest.mark.parametrize("method", ["split", "aci", "agaci", "none"])
@pytest.mark.parametrize("buffer_mode", ["rolling", "frozen"])
def test_run_loop_calls_step_update_and_append_per_step(monkeypatch, method, buffer_mode):
    """The calls an external tracer times by patching these attributes: a
    banded run walks its test window in one ``calibrate`` call, which reads
    one quantile per expert per test step; the buffer gets one append per
    seeding step plus, when it rolls, one per test step. An unbanded run
    fills no buffer."""
    calls = {"calibrate": 0, "quantile": 0, "append": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conformal, "calibrate", counting("calibrate", conformal.calibrate))
    monkeypatch.setattr(
        conformal, "empirical_quantile", counting("quantile", conformal.empirical_quantile)
    )
    monkeypatch.setattr(
        conformal.ScoreBuffer, "append", counting("append", conformal.ScoreBuffer.append)
    )
    config = RunConfig(dataset="toy", forecaster="persistence", method=method, seed=2,
                       buffer_mode=buffer_mode)
    report = run_rolling(config)
    split = SplitSpec.from_fractions(3000, config.split)
    seeding = split.cal_end - split.train_end
    assert report.n_steps == split.test_end - split.cal_end
    if method == "none":
        assert calls == {"calibrate": 0, "quantile": 0, "append": 0}
        return
    experts = len(config.gamma_grid) if method == "agaci" else 1
    assert calls["calibrate"] == 1
    assert calls["quantile"] == experts * report.n_steps
    assert calls["append"] == seeding + (report.n_steps if buffer_mode == "rolling" else 0)


def test_a_grid_key_walks_one_buffer_per_buffer_mode(monkeypatch):
    """The banded cells of one forecast key that share a buffer mode walk
    one score buffer in one ``calibrate`` call: each buffer is seeded once
    and a rolling one gets one append per test step, while every expert of
    every cell still reads one quantile per step."""
    calls = {"calibrate": 0, "quantile": 0, "append": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conformal, "calibrate", counting("calibrate", conformal.calibrate))
    monkeypatch.setattr(
        conformal, "empirical_quantile", counting("quantile", conformal.empirical_quantile)
    )
    monkeypatch.setattr(
        conformal.ScoreBuffer, "append", counting("append", conformal.ScoreBuffer.append)
    )
    configs = [RunConfig(dataset="toy", forecaster="persistence", method=m, seed=2, name=m)
               for m in ("split", "aci", "agaci")]
    configs.append(RunConfig(dataset="toy", forecaster="persistence", method="aci", seed=2,
                             buffer_mode="frozen", name="aci-frozen"))
    results = grid_run(configs, jobs=1)
    assert all(isinstance(r, RunReport) for r in results)
    split = SplitSpec.from_fractions(3000, configs[0].split)
    seeding, steps = split.cal_end - split.train_end, split.test_end - split.cal_end
    assert calls == {"calibrate": 2, "quantile": (1 + 1 + 3 + 1) * steps,
                     "append": 2 * seeding + steps}


def test_a_score_that_overflows_fails_the_rolling_cells_of_its_key_alone(tmp_path):
    """A test-step score |y - y_hat| that overflows to inf fails every rolling
    cell of the key with the error each raises alone; the frozen and unbanded
    cells of the key report as their single runs do."""
    # A scale small enough that two values finite in scaled units can lie further
    # apart there than the largest double while their squared errors in original
    # units stay finite, and large enough that the scaler's squares do not underflow.
    values = np.random.default_rng(0).normal(size=300) * 3e-155
    split = SplitSpec.from_fractions(values.size, (0.5, 0.2, 0.3))
    big = 0.9 * np.finfo(float).max * fit_scaler(values[: split.train_end]).std
    values[split.cal_end + 40 : split.cal_end + 42] = big, -big
    path = tmp_path / "overflow.csv"
    write_series_csv(path, TimeSeries(values=values))
    cells = [("split", "rolling"), ("aci", "rolling"), ("agaci", "rolling"),
             ("aci", "frozen"), ("none", "rolling")]
    configs = [RunConfig(dataset=str(path), forecaster="persistence", method=m, buffer_mode=b,
                         name=f"{m}-{b}") for m, b in cells]
    results = grid_run(configs, jobs=1)
    assert [type(r) for r in results] == [RunFailure] * 3 + [RunReport] * 2
    for config, result in zip(configs[:3], results):
        with pytest.raises(NumericError) as alone:
            run_rolling(config)
        # big - (-big) is the first score beyond the float range
        assert str(alone.value) == (
            f"test step: the score at series index {split.cal_end + 41} is inf"
        )
        assert (result.kind, result.error) == ("NumericError", str(alone.value))
    for config, result in zip(configs[3:], results[3:]):
        single = run_rolling(config)
        assert report_payload(result) == report_payload(single)
        assert same_columns(result.columns, single.columns)


def test_a_seeded_score_that_overflows_fails_every_banded_cell_of_its_key(tmp_path):
    """A calibration score that overflows fails the seeding of both buffer
    modes, with the error each banded cell raises alone; the unbanded cell reports."""
    values = np.random.default_rng(0).normal(size=300) * 3e-155
    split = SplitSpec.from_fractions(values.size, (0.5, 0.2, 0.3))
    big = 0.9 * np.finfo(float).max * fit_scaler(values[: split.train_end]).std
    values[split.train_end + 5 : split.train_end + 7] = big, -big
    path = tmp_path / "overflow.csv"
    write_series_csv(path, TimeSeries(values=values))
    cells = [("split", "rolling"), ("agaci", "rolling"), ("aci", "frozen"), ("none", "rolling")]
    configs = [RunConfig(dataset=str(path), forecaster="persistence", method=m, buffer_mode=b,
                         name=f"{m}-{b}") for m, b in cells]
    results = grid_run(configs, jobs=1)
    assert [type(r) for r in results] == [RunFailure] * 3 + [RunReport]
    error = f"calibration seeding: the score at series index {split.train_end + 6} is inf"
    for config, result in zip(configs[:3], results):
        with pytest.raises(NumericError, match=f"^{error}$"):
            run_rolling(config)
        assert (result.kind, result.error) == ("NumericError", error)
    assert report_payload(results[3]) == report_payload(run_rolling(configs[3]))


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
        report = run_rolling(config, series=series, forecast=zero_forecast)
        coverages.append(report.coverage)
    assert abs(np.mean(coverages) - 0.9) < 0.02


def test_band_bounds_overflowing_to_inf_raise_no_numpy_warning():
    # a huge cap makes an aggregated half-width finite but beyond the float
    # range once rescaled; like the Python floats of a scalar rescale, the
    # band edge becomes infinite without a RuntimeWarning
    series = TimeSeries(values=np.random.default_rng(1).normal(size=600) * 1e3)
    config = RunConfig(dataset="big", forecaster="persistence", method="agaci",
                       cap_factor=1e306, gamma_grid=(0.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_rolling(config, series=series)
    assert np.isinf(report.columns["upper"]).any()


SHORT_WALK = TimeSeries(values=np.cumsum(np.random.default_rng(4).normal(size=200)))
# Accepted step sizes up to 1e308, besides 0 and ordinary ones.
STEPS = st.floats(0, 1e308) | st.sampled_from([0.0, 0.01, 1.0, 1e306, 1e308])
ALPHAS = st.floats(0, 1, exclude_min=True, exclude_max=True) | st.sampled_from(
    [5e-324, 1e-300, 1e-16, 0.5, 1 - 1e-16, 1 - 2**-53]
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    method=st.sampled_from(["none", "split", "aci", "agaci"]),
    alpha=ALPHAS,
    gamma=STEPS,
    gamma_grid=st.lists(STEPS, min_size=1, max_size=4, unique=True),
    eta=st.floats(0) | st.sampled_from([0.0, 1e308, math.inf]),
    weight_floor=st.floats(0, 1, exclude_max=True) | st.just(0.0),
    cap_factor=st.floats(0, exclude_min=True) | st.sampled_from([5e-324, 1e308, math.inf]),
    buffer_mode=st.sampled_from(["rolling", "frozen"]),
)
def test_extreme_accepted_bank_values_raise_only_config_or_numeric_errors(**bank):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor does numpy warn
        try:
            run_rolling(RunConfig(dataset="walk", forecaster="persistence", **bank), SHORT_WALK)
        except (ConfigError, NumericError):
            pass


def test_degenerate_training_window_is_a_numeric_error():
    series = TimeSeries(values=np.ones(100))
    with pytest.raises(NumericError, match="scaler.*training"):
        run_rolling(RunConfig(dataset="flat", method="split"), series=series)
    # a training window shorter than the AR order is named as the fit's failure
    config = RunConfig(dataset="short", forecaster="ar", forecaster_params={"order": 3},
                       method="split")
    with pytest.raises(NumericError, match="^while fitting the forecaster on the training "
                                          "window: window of length 2 cannot fit an order-3 "):
        run_rolling(config, series=TimeSeries(values=np.arange(5.0)))


def test_too_short_series_is_a_config_error():
    series = TimeSeries(values=np.arange(3.0))
    with pytest.raises(ConfigError):
        run_rolling(RunConfig(dataset="tiny", method="split"), series=series)


@pytest.mark.parametrize("column, error, match", [
    # too long, with a NaN past test_end: the shape is named, not a step beyond the run
    (np.append(np.zeros(400), np.nan), ConfigError, "shape (401,)"),
    # 2-D with a NaN: the shape is named, not a TypeError from one row
    (np.full((400, 2), np.nan), ConfigError, "shape (400, 2)"),
    (np.zeros(399), ConfigError, "shape (399,)"),
    # short after a non-finite forecast, as the native pass stops: the forecast is named
    (np.array([0.0, 0.0, np.inf]), NumericError,
     "calibration seeding: the forecast for series index 202 is inf"),
], ids=["long-with-nan", "2d-with-nan", "short", "short-after-inf"])
def test_forecast_column_shape_is_checked_around_the_non_finite_scan(column, error, match):
    series = TimeSeries(values=np.random.default_rng(0).normal(size=600))
    with pytest.raises(error) as raised:
        run_rolling(RunConfig(dataset="iid", method="split", split=THIRDS), series=series,
                    forecast=lambda *_: column)
    assert match in str(raised.value)


def test_replay_without_wrap_is_rejected():
    with pytest.raises(ConfigError, match="wrap"):
        run_rolling(RunConfig(dataset="toy", forecaster="replay", method="split"))


def make_csv(tmp_path, name, seed):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(size=240)) + rng.normal(scale=0.2, size=240)
    path = tmp_path / f"{name}.csv"
    write_series_csv(path, TimeSeries(values=values))
    return str(path)


def test_report_columns_are_read_only_also_after_pickling(tmp_path):
    config = RunConfig(dataset=make_csv(tmp_path, "a", 0), forecaster="persistence",
                       method="aci")
    report = run_rolling(config)
    for columns in (report.columns, pickle.loads(pickle.dumps(report)).columns):
        assert [k for k, c in columns.items() if c is not None] == list(evaluate.BANDS_CSV_HEADER)
        for column in columns.values():
            with pytest.raises(ValueError):
                column[0] = column[0]


def test_grid_single_config_matches_direct_run(tmp_path):
    config = RunConfig(dataset=make_csv(tmp_path, "a", 0), forecaster="persistence",
                       method="split")
    [gridded] = grid_run([config])
    direct = run_rolling(config)
    assert isinstance(gridded, RunReport)
    assert same_columns(gridded.columns, direct.columns)


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_load_runs_once_and_fails_every_key_on_its_series(tmp_path, monkeypatch, jobs):
    missing = str(tmp_path / "missing.csv")
    configs = [RunConfig(dataset=missing, forecaster=f, method=m, lag=8)
               for f in ("persistence", "ar") for m in ("split", "aci")]
    configs.append(RunConfig(dataset=make_csv(tmp_path, "ok", 1), forecaster="ar", method="aci"))
    with pytest.raises(FileNotFoundError) as alone:
        run_rolling(configs[0])
    loads = []
    monkeypatch.setattr(evaluate, "load_series_csv",
                        lambda path: loads.append(path) or load_series_csv(path))
    results = grid_run(configs, jobs=jobs)
    assert loads == [missing, configs[-1].dataset]
    assert [(r.kind, r.error) for r in results[:4]] == [("FileNotFoundError", str(alone.value))] * 4
    assert isinstance(results[4], RunReport)


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
        assert same_columns(s.columns, p.columns)


@FORK_ONLY
def test_grid_turns_a_dead_worker_into_failed_cells(tmp_path, monkeypatch):
    configs = [
        RunConfig(dataset=make_csv(tmp_path, name, i), forecaster="persistence", method="aci")
        for i, name in enumerate(("a", "b", "dies"))
    ]
    done = [tmp_path / "a.done", tmp_path / "b.done"]
    real_calibrate = evaluate._calibrate_key

    def calibrate_or_die(key, *args):
        name = Path(key[0].dataset).stem
        if name != "dies":
            reports = list(real_calibrate(key, *args))
            (tmp_path / f"{name}.done").touch()
            return reports
        # let the other cells finish and send their reports, then kill the worker
        deadline = time.monotonic() + 30
        while not all(p.exists() for p in done) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        os._exit(1)

    monkeypatch.setattr(evaluate, "_calibrate_key", calibrate_or_die)
    results = grid_run(configs, jobs=2)
    assert [type(r) for r in results] == [RunReport, RunReport, RunFailure]
    for result, config in zip(results[:2], configs):
        assert report_payload(result)["status"] == "ok"
        assert same_columns(result.columns, run_rolling(config).columns)
    assert results[2].kind == "BrokenProcessPool"
    assert report_payload(results[2])["status"] == "failed"


@FORK_ONLY
def test_a_dead_worker_fails_every_cell_of_its_forecast_key(tmp_path, monkeypatch):
    shared = make_csv(tmp_path, "shared", 5)
    configs = [RunConfig(dataset=shared, forecaster="persistence", method=m)
               for m in ("split", "aci", "agaci")]
    configs.append(RunConfig(dataset=make_csv(tmp_path, "other", 6), forecaster="persistence",
                             method="aci"))
    other_done = tmp_path / "other.done"
    real_calibrate = evaluate._calibrate_key

    def calibrate_or_die(key, *args):
        if all(config.method != "agaci" for config in key):
            reports = list(real_calibrate(key, *args))
            if Path(key[0].dataset).stem == "other":
                other_done.touch()
            return reports
        # let the other key finish and send its report, then kill the worker
        deadline = time.monotonic() + 30
        while not other_done.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)
        os._exit(1)

    monkeypatch.setattr(evaluate, "_calibrate_key", calibrate_or_die)
    results = grid_run(configs, jobs=2)
    # the key is one task, so its split and aci cells die with its agaci cell
    assert [type(r) for r in results] == [RunFailure, RunFailure, RunFailure, RunReport]
    assert [r.kind for r in results[:3]] == ["BrokenProcessPool"] * 3
    assert [r.config.run_name for r in results] == [c.run_name for c in configs]
    assert same_columns(results[3].columns, run_rolling(configs[3]).columns)


def test_a_grid_of_one_forecast_key_runs_in_process(tmp_path, monkeypatch):
    configs = [RunConfig(dataset="toy", forecaster="ar", method=m, seed=3, name=m)
               for m in ("split", "aci", "agaci")]
    alone = grid_run(configs, jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a grid of one forecast key started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    pooled = grid_run(configs, jobs=2)
    for tag, results in (("jobs1", alone), ("jobs2", pooled)):
        for report in results:
            write_metrics_json(tmp_path / f"{tag}-{report.config.run_name}.json", report)
            write_bands_csv(tmp_path / f"{tag}-{report.config.run_name}.csv", report.columns)
    for config in configs:
        for ext in ("json", "csv"):
            one, two = (tmp_path / f"{tag}-{config.name}.{ext}" for tag in ("jobs1", "jobs2"))
            assert one.read_bytes() == two.read_bytes()


def spike_pair_csv(tmp_path):
    """A series whose jump to +1e308 and back to -1e308 feeds segmented_ar's
    CUSUM an infinite residual, so its forecast pass fails after the scaler fit."""
    values = np.random.default_rng(0).normal(size=300)
    values[200], values[201] = 1e308, -1e308
    path = tmp_path / "spike-pair.csv"
    write_series_csv(path, TimeSeries(values=values))
    return str(path)


def mixed_grid(tmp_path):
    """Six toy forecast groups of every method, a frozen-buffer cell and one
    group whose forecast pass fails."""
    configs = [
        RunConfig(dataset="toy", forecaster=f, method=m, seed=seed, name=f"{f}-{m}-{seed}")
        for seed in (1, 2)
        for f in ("persistence", "ar", "segmented_ar")
        for m in ("none", "split", "aci", "agaci")
    ]
    configs.append(RunConfig(dataset="toy", forecaster="ar", method="aci", seed=1,
                             buffer_mode="frozen", name="ar-aci-1-frozen"))
    params = {"order": 2, "refit_every": 50}
    configs += [
        RunConfig(dataset=spike_pair_csv(tmp_path), forecaster="segmented_ar", method=m,
                  forecaster_params=params, name=f"spike-{m}")
        for m in ("split", "aci")
    ]
    return configs


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_cells_equal_their_single_runs_byte_for_byte(tmp_path, jobs):
    configs = mixed_grid(tmp_path)
    results = grid_run(configs, jobs=jobs)
    assert [r.config.run_name for r in results] == [c.run_name for c in configs]
    failed = [r for r in results if isinstance(r, RunFailure)]
    assert [r.config.run_name for r in failed] == ["spike-split", "spike-aci"]
    for config, result in zip(configs, results):
        if isinstance(result, RunFailure):
            with pytest.raises(Exception) as alone:
                run_rolling(config)
            assert (result.kind, result.error) == (type(alone.value).__name__, str(alone.value))
            continue
        single = run_rolling(config)
        for tag, report in (("grid", result), ("single", single)):
            write_metrics_json(tmp_path / f"{tag}.json", report)
            write_bands_csv(tmp_path / f"{tag}.csv", report.columns)
        for ext in ("json", "csv"):
            grid, alone = (tmp_path / f"{tag}.{ext}" for tag in ("grid", "single"))
            assert grid.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_grid_runs_one_load_and_one_forecast_pass_per_group(tmp_path, monkeypatch, jobs):
    log = tmp_path / "calls.log"  # one line per call, written by whichever process made it

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as f:
                f.write(name + "\n")
            return fn(*args, **kwargs)

        return wrapper

    def calls():
        names = log.read_text().split() if log.exists() else []
        log.unlink(missing_ok=True)
        return {name: names.count(name)
                for name in ("make_forecaster", "generate_toy", "load_series_csv", "fit_scaler")}

    monkeypatch.setattr(evaluate, "make_forecaster",
                        counting("make_forecaster", evaluate.make_forecaster))
    monkeypatch.setattr(evaluate, "fit_scaler", counting("fit_scaler", evaluate.fit_scaler))
    monkeypatch.setattr(datagen, "generate_toy", counting("generate_toy", datagen.generate_toy))
    monkeypatch.setattr(evaluate, "load_series_csv",
                        counting("load_series_csv", evaluate.load_series_csv))
    configs = [c for c in mixed_grid(tmp_path) if c.dataset == "toy"]
    results = grid_run(configs, jobs=jobs)
    assert all(isinstance(r, RunReport) for r in results)
    # one series per seed, shared by its three forecasters; two seeds x three
    # forecasters make six passes (one scaler fit each, the four AR ones build
    # a forecaster), which methods and buffer modes share, and each cell
    # calibrates on its key's split, scaler and column
    assert calls() == {"make_forecaster": 4, "generate_toy": 2, "load_series_csv": 0,
                       "fit_scaler": 6}

    failing = [c for c in mixed_grid(tmp_path) if c.dataset != "toy"]
    assert all(isinstance(r, RunFailure) for r in grid_run(failing, jobs=jobs))
    # the key's series loads once; its failed pass runs once and is reported
    # for every cell of the key
    assert calls() == {"make_forecaster": 1, "generate_toy": 0, "load_series_csv": 1,
                       "fit_scaler": 1}

    csv = make_csv(tmp_path, "seeded", 0)
    seeded = [RunConfig(dataset=csv, forecaster="ar", method=m, seed=seed, name=f"{m}-{seed}")
              for seed in (1, 2) for m in ("aci", "agaci")]
    results = grid_run(seeded, jobs=jobs)
    # a CSV load does not read the seed, so cells that differ only in it share
    # one forecast key: one load and one forecast pass
    assert calls() == {"make_forecaster": 1, "generate_toy": 0, "load_series_csv": 1,
                       "fit_scaler": 1}
    for config, result in zip(seeded, results):
        single = run_rolling(config)
        assert report_payload(result) == report_payload(single)
        assert same_columns(result.columns, single.columns)


def test_an_ar_pass_refits_and_observes_only_what_a_forecast_reads(monkeypatch):
    fits, observed = [], []
    ar_fit, observe = forecasters.ar_fit, forecasters.ArForecaster.observe
    monkeypatch.setattr(forecasters, "ar_fit", lambda w, p: fits.append(len(w)) or ar_fit(w, p))
    monkeypatch.setattr(forecasters.ArForecaster, "observe",
                        lambda self, h: observed.append(len(h)) or observe(self, h))
    config = RunConfig(dataset="toy", forecaster="ar", method="none", seed=3,
                       forecaster_params={"refit_every": 25})
    assert run_rolling(config).n_steps == 900
    # 1,500 forecasts read the 1,499 values after the training window but the
    # last: the fit, then a refit every 25 of them
    assert observed == list(range(1501, 3000))
    assert fits == [1500] * 60


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
        columns=banded([math.inf]),
    )
    path = tmp_path / "inf.json"
    write_metrics_json(path, report)
    raw = json.loads(path.read_text())
    assert raw["metrics"]["median_width"] == "inf"  # strict-JSON-safe encoding
    assert load_metrics_json(path)["metrics"]["median_width"] == math.inf


def test_an_all_infinite_run_renders_through_the_payload_chain(tmp_path):
    """report_payload -> comparison_rows -> render_comparison_table, the chain
    acceptance criterion 9 uses, shows an all-infinite run's width as inf,
    as the CLI report path over its metrics file does."""
    report = RunReport(
        config=RunConfig(dataset="toy"), rmse=1.0, coverage=1.0, median_width=math.inf,
        n_infinite=3, n_zero_width=0, n_steps=3, alpha_final=0.1, columns=banded([math.inf]),
    )
    write_metrics_json(tmp_path / "inf.json", report)
    for payload in (report_payload(report), load_metrics_json(tmp_path / "inf.json")):
        rows = comparison_rows([payload])
        assert rows[0]["median_width"] == math.inf
        assert render_comparison_table(rows).splitlines()[-1].split()[-1] == "inf"


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
    # rows of several alphas title their coverage group without a level
    payloads.append({**payloads[0], "method": "split", "forecaster": "persistence", "alpha": 0.2})
    table = render_comparison_table(comparison_rows(payloads))
    assert table.splitlines()[0].split() == ["Coverage", "Median", "width"]
    assert "Coverage@" not in table
