import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftband.errors import ConfigError, NumericError
from driftband.forecasters import ExternalForecastTrace
from driftband.series import (
    SplitSpec,
    StandardScaler,
    TimeSeries,
    fit_scaler,
    load_series_csv,
    write_series_csv,
)


def test_series_basics():
    s = TimeSeries(values=[1.0, 2.0, 3.0], start_index=5)
    assert len(s) == 3
    assert s.values.dtype == np.float64
    assert s.start_index == 5


def test_series_values_are_read_only():
    s = TimeSeries(values=[1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


@pytest.mark.parametrize(
    "values",
    [[], [[1.0, 2.0]], [1.0, float("nan")], [1.0, float("inf")]],
)
def test_series_rejects_bad_values(values):
    with pytest.raises(ConfigError):
        TimeSeries(values=values)


def test_split_from_fractions_thirds():
    split = SplitSpec.from_fractions(3000, (1 / 3, 1 / 3, 1 / 3))
    assert (split.train_end, split.cal_end, split.test_end) == (1000, 2000, 3000)


def test_split_from_fractions_default():
    split = SplitSpec.from_fractions(1000, (0.5, 0.2, 0.3))
    assert (split.train_end, split.cal_end, split.test_end) == (500, 700, 1000)


@pytest.mark.parametrize(
    "bounds", [(0, 5, 10), (5, 4, 10), (5, 11, 10), (-1, 5, 10)]
)
def test_split_rejects_bad_boundaries(bounds):
    with pytest.raises(ConfigError):
        SplitSpec(*bounds)


@pytest.mark.parametrize(
    "fractions", [(0.5, 0.5), (0.5, 0.5, 0.5), (0.6, 0.4, 0.0), (0.5, -0.1, 0.6)]
)
def test_split_rejects_bad_fractions(fractions):
    with pytest.raises(ConfigError):
        SplitSpec.from_fractions(100, fractions)


def test_fit_scaler_matches_numpy():
    rng = np.random.default_rng(0)
    values = rng.normal(3.0, 2.0, size=200)
    scaler = fit_scaler(values, 10, 150)
    window = values[10:150]
    assert scaler.mean == pytest.approx(window.mean(), abs=1e-15)
    assert scaler.std == pytest.approx(window.std(ddof=1), abs=1e-15)


def test_fit_scaler_rejects_degenerate_windows():
    with pytest.raises(NumericError, match="degenerate"):
        fit_scaler([5.0, 5.0, 5.0])
    with pytest.raises(NumericError, match="degenerate"):
        fit_scaler([5.0])


def test_fit_scaler_rejects_bad_window_bounds():
    with pytest.raises(ConfigError):
        fit_scaler([1.0, 2.0, 3.0], 2, 2)
    with pytest.raises(ConfigError):
        fit_scaler([1.0, 2.0, 3.0], 0, 4)


def test_scaler_rejects_nonpositive_std():
    with pytest.raises(NumericError):
        StandardScaler(mean=0.0, std=0.0)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=50),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
)
def test_scaler_round_trip(values, mean, std):
    scaler = StandardScaler(mean=mean, std=std)
    x = np.asarray(values)
    back = scaler.inverse_transform(scaler.transform(x))
    assert np.allclose(back, x, rtol=1e-9, atol=1e-9 * std)


def test_series_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    original = TimeSeries(values=rng.normal(size=50), start_index=7)
    path = tmp_path / "series.csv"
    write_series_csv(path, original)
    loaded = load_series_csv(path)
    assert loaded.start_index == 7
    # repr-based formatting must round-trip every float exactly
    assert np.array_equal(loaded.values, original.values)


MALFORMED_SERIES_CSV = [
    ("", "empty file"),
    ("time,value\n0,1.0\n", "expected header"),
    ("index,value\n0,1.0\n2,2.0\n", "gap-free"),
    ("index,value\n0,abc\n", "line 2"),
    ("index,value\n0,1.0,9\n", "expected 2 fields"),
    ("index,value\n0,inf\n", "non-finite"),
    ("index,value\n", "no data rows"),
    ("index,value\n" + "9" * 25 + ",1.0\n", "64-bit range"),
]


@pytest.mark.parametrize("content,fragment", MALFORMED_SERIES_CSV)
def test_series_csv_rejects_malformed_input(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ConfigError, match=fragment):
        load_series_csv(path)


@pytest.mark.parametrize("content,fragment", MALFORMED_SERIES_CSV)
def test_trace_csv_rejects_the_same_malformed_input(tmp_path, content, fragment):
    # the series table as a trace: its header, and a y_hat of 0.0 on every row
    trace = re.sub(r"^(\d.*)$", r"\1,0.0", content, flags=re.M)
    path = tmp_path / "bad.csv"
    path.write_text(trace.replace("index,value", "index,y_true,y_hat"))
    with pytest.raises(ConfigError, match=fragment.replace("2 fields", "3 fields")):
        ExternalForecastTrace.from_csv(path)


def test_series_csv_reports_offending_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,value\n0,1.0\n1,2.0\n5,3.0\n")
    with pytest.raises(ConfigError, match="line 4"):
        load_series_csv(path)
