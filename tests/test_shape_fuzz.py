"""Fuzz the run path over series shapes: every forecaster and method either
runs to the end or names its failure in one line, with no numpy warning; a
numeric failure (exit 4) names a series index or the training window."""

import contextlib
import io
import json
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftband.cli import main
from driftband.series import StandardScaler, TimeSeries, fit_scaler, write_series_csv


def widest_swing(scaler: StandardScaler) -> float:
    """The largest finite v whose standardized swing z(v) - z(-v) is finite: a
    persistence score of the largest double, where the scaler's std allows one."""
    def swing(v):
        return scaler.transform(v) - scaler.transform(-v)

    top = np.finfo(float).max
    with np.errstate(over="ignore"):
        v = min(scaler.inverse_transform(top / 2), top)
        while np.isfinite(swing(np.nextafter(v, np.inf))):
            v = np.nextafter(v, np.inf)
        while not np.isfinite(swing(v)):
            v = np.nextafter(v, 0.0)
    return float(v)


def shaped(shape: str, n: int, seed: int, magnitude: float) -> np.ndarray:
    """A finite series of ``n`` points of the named shape, times ``magnitude``
    (spikes and the huge tail keep their own size)."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.standard_normal(n))
    if shape == "plateaus":  # 20-step constant stretches
        values = np.repeat(rng.standard_normal(n // 20 + 1), 20)[:n]
    elif shape == "steps":  # a walk with level shifts of 50 standard deviations
        values = walk + 50.0 * np.cumsum(rng.random(n) < 0.02)
    elif shape == "walk-then-constant":
        values = np.concatenate([walk[: n * 3 // 5], np.full(n - n * 3 // 5, 2.5)])
    elif shape == "spikes":  # noise with a few spikes, up to near the largest double
        values = rng.standard_normal(n) * magnitude
        spikes = rng.choice([1e3 * magnitude, 1e150, -1e300, 1e308], size=3)
        values[rng.integers(0, n, size=3)] = spikes
        return values
    elif shape == "huge-tail":  # after the training window, +-1.5e158 in random signs
        values = rng.standard_normal(n) * magnitude
        values[n * 3 // 5 :] = rng.choice([-1.5e158, 1.5e158], size=n - n * 3 // 5)
        return values
    elif shape == "top-scores":  # from the test window on, +-v in turn (see widest_swing)
        values = rng.standard_normal(n) * magnitude
        train, test = round(n * 0.5), round(n * 0.5) + round(n * 0.2)  # the default split's
        if train >= 2:
            v = widest_swing(fit_scaler(values[:train]))
            values[test:] = np.tile([-v, v], n)[: n - test]
        return values
    elif shape == "period-4":
        values = np.tile(rng.standard_normal(4), n // 4 + 1)[:n]
    elif shape == "rounded":
        values = np.round(walk)
    elif shape == "near-constant":  # one level plus noise at the last few bits
        values = 1.0 + 1e-13 * rng.standard_normal(n)
    else:
        values = walk
    return values * magnitude


SHAPES = st.sampled_from([
    "walk", "plateaus", "steps", "walk-then-constant", "spikes", "huge-tail", "top-scores",
    "period-4", "rounded", "near-constant",
])
# 4 points is the shortest series whose three windows are all non-empty
LENGTHS = st.integers(1, 12) | st.sampled_from([40, 120, 400])
MAGNITUDES = st.sampled_from([1.0, 1e-150, 1e-145, 1e145, 1e150])
FORECASTERS = st.one_of(
    st.just(("persistence", {})),
    st.tuples(st.just("ar"), st.fixed_dictionaries(
        {}, optional={"order": st.integers(1, 3), "refit_every": st.just(1)})),
    st.tuples(st.just("segmented_ar"), st.fixed_dictionaries(
        {}, optional={"order": st.integers(1, 3), "refit_every": st.just(1),
                      "warmup": st.just(30)})),
)
METHODS = st.sampled_from(["none", "split", "aci", "agaci"])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(shape=SHAPES, n=LENGTHS, seed=st.integers(0, 2**16), magnitude=MAGNITUDES,
       forecaster=FORECASTERS, method=METHODS)
@example(shape="walk-then-constant", n=400, seed=0, magnitude=1.0,
         forecaster=("segmented_ar", {"refit_every": 1, "warmup": 30}), method="aci")
@example(shape="spikes", n=400, seed=1, magnitude=1e-150,
         forecaster=("ar", {"order": 2, "refit_every": 1}), method="agaci")
@example(shape="near-constant", n=4, seed=0, magnitude=1e150,
         forecaster=("ar", {}), method="split")
@example(shape="huge-tail", n=120, seed=0, magnitude=1e-150,  # a refit window of +-1.5e308
         forecaster=("ar", {}), method="none")
@example(shape="huge-tail", n=40, seed=7, magnitude=1e-150,  # a prediction that overflows
         forecaster=("ar", {}), method="none")
@example(shape="spikes", n=10, seed=1455, magnitude=1.0,  # y_hat overflows in the data's units
         forecaster=("ar", {}), method="none")
@example(shape="spikes", n=400, seed=13993, magnitude=1e150,  # so do both ends of a band
         forecaster=("segmented_ar", {}), method="split")
@example(shape="huge-tail", n=400, seed=0, magnitude=1e-150,  # a score that overflows
         forecaster=("persistence", {}), method="aci")
@example(shape="top-scores", n=400, seed=2, magnitude=1.0,  # a weighted width that overflows
         forecaster=("persistence", {}), method="agaci")
def test_every_series_shape_runs_or_fails_in_one_line(
    tmp_path_factory, shape, n, seed, magnitude, forecaster, method
):
    work = tmp_path_factory.mktemp("shape")
    write_series_csv(work / "s.csv", TimeSeries(values=shaped(shape, n, seed, magnitude)))
    name, params = forecaster
    (work / "c.json").write_text(json.dumps({
        "dataset": str(work / "s.csv"), "forecaster": name, "forecaster_params": params,
        "method": method,
    }))
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["run", "--config", str(work / "c.json"), "--out", str(work / "o")])
    assert [str(w.message) for w in caught] == []
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code in (2, 4), (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # a numeric failure names where it happened
        assert code == 2 or "series index" in err or "training window" in err, err
