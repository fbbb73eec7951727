import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from driftband import forecasters
from driftband.datagen import LorenzSpec, default_toy_spec, generate_lorenz, generate_toy
from driftband.errors import AlignmentError, ConfigError, NumericError
from driftband.evaluate import RunConfig, _native_forecast, load_dataset, run_rolling
from driftband.forecasters import (
    ArForecaster,
    ArModel,
    CusumDetector,
    ExternalForecastTrace,
    ar_fit,
    make_forecaster,
)
from driftband.series import SplitSpec, TimeSeries, fit_scaler


def ar1_path(rng, n, intercept, coef, noise_std, y0=0.0):
    y = np.empty(n)
    y[0] = y0
    for t in range(1, n):
        y[t] = intercept + coef * y[t - 1] + noise_std * rng.standard_normal()
    return y


def test_persistence_predicts_last_value():
    """A persistence run's forecast column is the standardized series shifted
    by one step, a view of it, and its y_hat column is that shift mapped back."""
    config = RunConfig(dataset="toy", forecaster="persistence", method="none", seed=5)
    series = load_dataset(config)
    split = SplitSpec.from_fractions(len(series), config.split)
    scaler = fit_scaler(series.values[: split.train_end])
    z = scaler.transform(series.values)
    column = _native_forecast(config)(series, split, scaler, z)
    assert np.shares_memory(column, z)
    assert column.tolist() == z[split.train_end - 1 : split.test_end - 1].tolist()
    y_hat = run_rolling(config, series).columns["y_hat"]
    shifted = scaler.inverse_transform(z[split.cal_end - 1 : split.test_end - 1])
    assert y_hat.tobytes() == shifted.tobytes()


def test_ar_fit_matches_closed_form_ols():
    rng = np.random.default_rng(0)
    y = ar1_path(rng, 400, intercept=1.0, coef=0.7, noise_std=0.5)
    model = ar_fit(y, order=1)
    # closed-form simple regression of y_t on y_{t-1}
    x, t = y[:-1], y[1:]
    slope = np.cov(x, t, ddof=1)[0, 1] / np.var(x, ddof=1)
    intercept = t.mean() - slope * x.mean()
    assert model.coef[0] == pytest.approx(slope, rel=1e-9)
    assert model.intercept == pytest.approx(intercept, rel=1e-9)


def test_ar_fit_recovers_noiseless_recursion():
    # exact AR(2) data -> least squares recovers the generating coefficients
    coef = np.array([-0.3, 0.6])
    y = np.empty(120)
    y[0], y[1] = 1.0, 0.5
    for t in range(2, 120):
        y[t] = 0.4 + coef[0] * y[t - 2] + coef[1] * y[t - 1]
    model = ar_fit(y, order=2)
    assert np.allclose(model.coef, coef, atol=1e-8)
    assert model.intercept == pytest.approx(0.4, abs=1e-8)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(level=st.floats(-1e3, 1e3), length=st.integers(3, 400), order=st.integers(1, 24))
@example(level=3.0, length=10, order=2)
@example(level=0.1, length=4976, order=24)
@example(level=-1e308, length=50, order=3)  # the window's sum overflows
def test_ar_fit_constant_window_gives_mean_intercept(level, length, order):
    assume(length > order)
    model = ar_fit([level] * length, order=order)
    assert np.all(model.coef == 0.0)
    assert model.intercept == level
    assert model.predict([level] * order) == level


def lstsq_reference(window, order):
    """Minimum-norm ``lstsq`` fit of the centered lag design: the oracle for ``ar_fit``."""
    window = np.asarray(window, dtype=float)
    features = sliding_window_view(window, order)[:-1]
    targets = window[order:]
    x_mean, y_mean = features.mean(axis=0), targets.mean()
    coef, *_ = np.linalg.lstsq(features - x_mean, targets - y_mean, rcond=None)
    return ArModel(coef=coef, intercept=float(y_mean - x_mean @ coef))


def assert_same_predictions(model, reference, series):
    """One-step predictions over every history of ``series`` agree to 1e-9."""
    lags = sliding_window_view(np.asarray(series, dtype=float), model.coef.size)
    got = lags @ model.coef + model.intercept
    want = lags @ reference.coef + reference.intercept
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("order", range(1, 9))
def test_ar_fit_matches_the_lstsq_oracle_on_random_windows(order):
    rng = np.random.default_rng(order)
    for _ in range(10):
        length = int(rng.integers(order + 30, 600))
        y = ar1_path(rng, length + 50, rng.uniform(-1, 1), rng.uniform(-0.9, 0.9), 1.0)
        window = y[:length]
        assert_same_predictions(ar_fit(window, order), lstsq_reference(window, order), y)


def test_ar_fit_matches_the_lstsq_oracle_on_lorenz_windows():
    series = generate_lorenz(LorenzSpec(seed=3)).values
    z = fit_scaler(series[:5000]).transform(series)
    assert_same_predictions(ar_fit(z[:5000], 24), lstsq_reference(z[:5000], 24), z[:6000])
    # 51 points, the segment a segmented AR refits on 25 steps after an alarm:
    # design conditions near 1e4, where normal equations without the
    # refinement step drift from lstsq by up to 4e-8
    for start in range(0, 3000, 97):
        window = z[start : start + 51]
        assert_same_predictions(
            ar_fit(window, 24), lstsq_reference(window, 24), z[start : start + 76]
        )


@pytest.mark.parametrize("dataset, seed", [("lorenz", 3), ("toy", 6), ("toy", 7)])
def test_ar_fit_matches_the_lstsq_oracle_on_post_alarm_windows(dataset, seed):
    # order + 2 to order + 6 points, the segments a segmented AR refits on
    # right after an alarm: the centered design has rank n - order - 1, so
    # every other eigenvalue of the lag Gram is rounding noise to be dropped
    if dataset == "lorenz":
        series = generate_lorenz(LorenzSpec(seed=seed)).values
    else:
        series = generate_toy(default_toy_spec(seed=seed))[0].values
    z = fit_scaler(series[: series.size // 2]).transform(series)
    for length in range(26, 31):
        for start in range(0, z.size - length - 24, 5):
            window = z[start : start + length]
            assert_same_predictions(
                ar_fit(window, 24), lstsq_reference(window, 24), z[start : start + length + 25]
            )


@pytest.mark.parametrize("order", [4, 6])
def test_ar_fit_matches_the_lstsq_oracle_on_a_rank_deficient_window(order):
    # a noiseless AR(2) with roots on the unit circle is a sinusoid: its
    # centered lag design has rank 2, so order - 2 directions are null
    theta = 2 * math.pi / 7
    y = np.empty(400)
    y[0], y[1] = 1.0, 0.3
    for t in range(2, y.size):
        y[t] = 0.5 + 2 * math.cos(theta) * y[t - 1] - y[t - 2]
    window = y[:300]
    model, reference = ar_fit(window, order), lstsq_reference(window, order)
    assert_same_predictions(model, reference, y)
    # off the data's plane only the minimum-norm choice fixes the prediction
    noisy = y + np.random.default_rng(0).normal(size=y.size)
    assert_same_predictions(model, reference, noisy)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_ar_fit_is_scale_free(scale):
    y = ar1_path(np.random.default_rng(5), 200, 0.3, 0.6, 1.0)
    unit, scaled = ar_fit(y, 3), ar_fit(y * scale, 3)
    assert np.allclose(scaled.coef, unit.coef, rtol=1e-12, atol=1e-12)
    assert scaled.intercept / scale == pytest.approx(unit.intercept, rel=1e-12)


@pytest.mark.parametrize("values", [[0.0, math.inf], [1.5e308, -1.5e308, 1.5e308]])
def test_ar_fit_rejects_a_window_that_spans_more_than_the_float_range(values):
    window = np.tile(values, 10)
    with pytest.raises(NumericError, match=f"^window of length {window.size} spans more than"):
        ar_fit(window, 2)


def test_ar_fit_validation():
    with pytest.raises(NumericError):
        ar_fit([1.0, 2.0], order=2)


def test_ar_model_coefficient_orientation():
    # coef[j] pairs with the j-th oldest lag: last coefficient sees the newest value
    newest_only = ArModel(coef=np.array([0.0, 1.0]), intercept=0.0)
    assert newest_only.predict([5.0, 7.0]) == 7.0
    oldest_only = ArModel(coef=np.array([1.0, 0.0]), intercept=0.0)
    assert oldest_only.predict([5.0, 7.0]) == 5.0


def test_ar_forecaster_refits_on_rolling_window():
    rng = np.random.default_rng(1)
    f = ArForecaster(order=1, refit_every=25)
    z = np.concatenate([ar1_path(rng, 100, 0.0, 0.8, 0.3), np.full(150, 5.0)])
    f.fit(z[:100])
    # feed a long constant stream; once the window is saturated and a
    # refit has happened the model must predict the constant exactly
    for t in range(100, z.size):
        f.observe(z[: t + 1])
    assert f.predict_one(z) == pytest.approx(5.0, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(
    segmented=st.booleans(),
    train=st.lists(st.floats(-5, 5), min_size=6, max_size=20),
    stream=st.lists(st.floats(-5, 5) | st.sampled_from([80.0, -80.0]), max_size=150),
    order=st.integers(1, 3),
    refit_every=st.integers(1, 6),
)
@example(  # one CUSUM alarm at the first spike, then a regrown segment
    segmented=True, train=[0.0, 1.0, 0.5, -0.5] * 3,
    stream=[0.1 * (i % 3) for i in range(40)] + [80.0] * 5 + [0.5] * 30,
    order=2, refit_every=3,
)
def test_fit_window_is_a_view_of_the_last_observed_values(
    segmented, train, stream, order, refit_every
):
    """After any observe sequence, including CUSUM truncations, a refit
    reads the last min(window, segment) values of the history, as a view of it."""
    name, params = "ar", {}
    if segmented:
        name, params = "segmented_ar", dict(drift=0.0, threshold=2.0, warmup=30)
    f = make_forecaster(name, order=order, refit_every=refit_every, **params)
    z = np.asarray(train + stream)
    f.fit(z[: len(train)])
    alarms, windows = [], []
    if segmented:
        update = f.detector.update
        f.detector.update = lambda value: alarms.append(update(value)) or alarms[-1]
    segment_start = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forecasters, "ar_fit", lambda w, p: windows.append(w) or ar_fit(w, p))
        for t in range(len(train), z.size):
            f.predict_one(z[:t])
            model = f._model
            f.observe(z[: t + 1])
            if alarms and alarms[-1]:
                segment_start = t
            if f._model is not model and f._model is not None:
                window = windows.pop()
                take = min(len(train), t + 1 - segment_start)
                assert window.tolist() == z[t + 1 - take : t + 1].tolist()
                assert window.base is z
            assert not windows


def test_segmented_ar_with_infinite_threshold_matches_plain_ar():
    rng = np.random.default_rng(2)
    train = ar1_path(rng, 120, 0.2, 0.6, 0.4)
    z = np.concatenate([train, ar1_path(rng, 300, 0.2, 0.6, 0.4, y0=train[-1])])
    plain = make_forecaster("ar", order=3, refit_every=25)
    seg = make_forecaster("segmented_ar", order=3, refit_every=25, threshold=math.inf)
    plain.fit(train)
    seg.fit(train)
    for t in range(train.size, z.size):
        assert seg.predict_one(z[:t]) == plain.predict_one(z[:t])
        plain.observe(z[: t + 1])
        seg.observe(z[: t + 1])


def test_segmented_ar_falls_back_to_persistence_after_alarm():
    rng = np.random.default_rng(3)
    train = ar1_path(rng, 200, 0.0, 0.5, 0.2)
    seg = make_forecaster("segmented_ar", order=4, refit_every=25, warmup=50)
    plain = make_forecaster("ar", order=4, refit_every=25)
    seg.fit(train)
    plain.fit(train)
    # drive the residual detector past its threshold with a huge level shift
    stream = list(ar1_path(rng, 80, 0.0, 0.5, 0.2, y0=train[-1]))
    stream += [40.0 + 0.1 * rng.standard_normal() for _ in range(40)]
    z = np.concatenate([train, stream])
    fell_back = False
    for t in range(train.size, z.size):
        p_seg = seg.predict_one(z[:t])
        p_plain = plain.predict_one(z[:t])
        if p_seg == z[t - 1] and p_seg != p_plain:
            fell_back = True
        seg.observe(z[: t + 1])
        plain.observe(z[: t + 1])
    assert fell_back, "detector never truncated the fit window"
    # after re-warming the segmented model is an AR fit on post-break data
    assert seg.predict_one(z) == pytest.approx(40.0, abs=1.0)


class _ReferenceAr:
    """The rolling AR as it stood when the segmented AR kept its own copy
    of the state machine; the reference for the differential test below."""

    def __init__(self, order, refit_every=25):
        self.order, self.refit_every = order, refit_every
        self._ring, self._head, self._model, self._since_refit = None, 0, None, 0

    def fit(self, window):
        arr = np.asarray(window, dtype=float)
        self._model = ar_fit(arr, self.order)
        self._ring, self._head = np.concatenate([arr, arr]), 0
        self._since_refit = 0

    def predict_one(self, history):
        if self._model is None:
            raise NumericError("forecaster is not fitted")
        return self._model.predict(history)

    def observe(self, y):
        if self._ring is None:
            raise NumericError("forecaster is not fitted")
        self._push(float(y))
        self._since_refit += 1
        if self._since_refit >= self.refit_every:
            self._refit()

    def _push(self, y):
        size = self._ring.size // 2
        self._ring[self._head] = self._ring[self._head + size] = y
        self._head = (self._head + 1) % size

    def _fit_window(self):
        return self._ring[self._head : self._head + self._ring.size // 2]

    def _refit(self):
        window = self._fit_window()
        if window.size >= self.order + 1:
            self._model = ar_fit(window, self.order)
            self._since_refit = 0


class _ReferenceSegmentedAr(_ReferenceAr):
    def __init__(self, order, refit_every=25, drift=0.5, threshold=5.0, warmup=50):
        super().__init__(order, refit_every)
        self.detector = CusumDetector(drift=drift, threshold=threshold, warmup=warmup)
        self._segment_len, self._last_pred = 0, None

    def fit(self, window):
        super().fit(window)
        self.detector.reset()
        self._segment_len, self._last_pred = self._ring.size // 2, None

    def predict_one(self, history):
        if self._ring is None:
            raise NumericError("forecaster is not fitted")
        if self._model is None:
            if len(history) < 1:
                raise NumericError("persistence fallback needs a non-empty history")
            pred = float(history[-1])
        else:
            pred = self._model.predict(history)
        self._last_pred = pred
        return pred

    def observe(self, y):
        if self._ring is None:
            raise NumericError("forecaster is not fitted")
        y = float(y)
        alarm = False
        if self._last_pred is not None:
            alarm = self.detector.update(y - self._last_pred)
            self._last_pred = None
        self._push(y)
        if alarm:
            self._segment_len, self._model, self._since_refit = 1, None, 0
            return
        self._segment_len += 1
        self._since_refit += 1
        if self._model is None:
            if self._segment_len >= self.order + 2:
                self._refit()
        elif self._since_refit >= self.refit_every:
            self._refit()

    def _fit_window(self):
        window = super()._fit_window()
        return window[window.size - min(self._segment_len, window.size) :]


def _outcome(call, *args):
    try:
        value = call(*args)
    except (ConfigError, NumericError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", None if value is None else float.hex(value)


def _model_bits(model):
    return model and (model.coef.tobytes(), float.hex(model.intercept), model.coef.size)


_QUIET = [0.1 * (i % 7) - 0.3 for i in range(40)]


@settings(max_examples=150, deadline=None)
@given(
    segmented=st.booleans(),
    order=st.integers(1, 4),
    refit_every=st.integers(1, 30),
    threshold=st.sampled_from([1.0, 3.0, math.inf]),
    drift=st.sampled_from([0.0, 0.5]),
    train=st.lists(st.floats(-5, 5), min_size=5, max_size=40),
    # a predicted prefix past the detector's warm-up, then spikes and skipped predictions
    warm=st.lists(st.floats(-1, 1), min_size=30, max_size=60),
    steps=st.lists(
        st.tuples(st.booleans(), st.sampled_from([80.0, -80.0]) | st.floats(-5, 5)),
        max_size=150,
    ),
    refit_at=st.none() | st.integers(0, 200),
)
@example(  # alarms, regrown segments, and an unpredicted spike after a prediction
    segmented=True, order=2, refit_every=3, threshold=3.0, drift=0.0,
    train=[0.0, 1.0, 0.5, -0.5] * 3, warm=_QUIET,
    steps=[(True, 0.1), (False, 80.0)] + [(True, y) for y in _QUIET] + [(True, 80.0)] * 3
    + [(True, y) for y in _QUIET],
    refit_at=None,
)
@example(  # a second alarm at the 31st value after the first, before the segment has order + 2
    segmented=True, order=30, refit_every=5, threshold=3.0, drift=0.0,
    train=[float(i % 5) for i in range(40)], warm=_QUIET[:30],
    steps=[(True, 80.0)] + [(True, y) for y in _QUIET[:30]] + [(True, 80.0)]
    + [(True, y) for y in _QUIET],
    refit_at=None,
)
@example(  # a plain AR whose refits must read the whole window
    segmented=False, order=3, refit_every=4, threshold=math.inf, drift=0.5,
    train=[float(i % 5) for i in range(30)], warm=_QUIET, steps=[], refit_at=None,
)
def test_ar_forecasters_match_the_separate_reference_state_machines(
    segmented, order, refit_every, threshold, drift, train, warm, steps, refit_at
):
    """The AR, with or without a detector, is driven through fit, predict_one
    and observe on views of one history array (predictions sometimes skipped,
    a second fit sometimes made), and the reference copies of the two former
    classes, which keep a ring and observe one value, through the same calls:
    bit-equal predictions, bit-equal models and equal refit counts at every step."""
    if segmented:
        params = dict(drift=drift, threshold=threshold, warmup=30)
        f = make_forecaster("segmented_ar", order=order, refit_every=refit_every, **params)
        ref = _ReferenceSegmentedAr(order, refit_every, **params)
    else:
        f = make_forecaster("ar", order=order, refit_every=refit_every)
        ref = _ReferenceAr(order, refit_every)
    calls = [(True, y) for y in warm] + steps
    z = np.asarray(train + [y for _, y in calls])
    refits = [0, 0]
    f.fit(z[: len(train)])
    ref.fit(np.asarray(train))
    for t, (predict, y) in enumerate(calls, len(train)):
        if t - len(train) == refit_at:
            window = z[t - len(train) : t]
            assert _outcome(f.fit, window) == _outcome(ref.fit, window.copy())
        if predict:
            assert _outcome(f.predict_one, z[:t]) == _outcome(ref.predict_one, z[:t].copy())
        models = [f._model, ref._model]
        outcome = _outcome(f.observe, z[: t + 1])
        assert outcome == _outcome(ref.observe, y)
        if outcome[0] != "ok":
            return
        for k, g in enumerate((f, ref)):
            refits[k] += g._model is not models[k] and g._model is not None
        assert refits[0] == refits[1]
        assert _model_bits(f._model) == _model_bits(ref._model)


def test_cusum_validation():
    with pytest.raises(ConfigError):
        CusumDetector(drift=-0.1)
    with pytest.raises(ConfigError):
        CusumDetector(threshold=0.0)
    # NaN passes a plain comparison, and a NaN detector never alarms
    with pytest.raises(ConfigError, match="drift allowance must be non-negative, got nan"):
        CusumDetector(drift=math.nan)
    with pytest.raises(ConfigError, match="alarm threshold must be positive, got nan"):
        CusumDetector(threshold=math.nan)
    with pytest.raises(ConfigError, match="alarm threshold must be positive, got nan"):
        make_forecaster("segmented_ar", order=2, threshold=math.nan)
    with pytest.raises(ConfigError):
        CusumDetector(warmup=29)
    with pytest.raises(NumericError):
        CusumDetector().update(math.nan)


def test_cusum_degenerate_warmup():
    # a constant warm-up (an exact fit of a plateau) is collected again, as
    # often as it comes, and never alarms
    det = CusumDetector(warmup=30)
    assert not any(det.update(1.0) for _ in range(95))
    # the next varying warm-up becomes the reference, and a jump alarms
    rng = np.random.default_rng(3)
    assert not any(det.update(v) for v in rng.standard_normal(25))
    assert det.update(100.0)
    with pytest.raises(NumericError, match="^detector fed a non-finite value: inf$"):
        det.update(math.inf)


def test_cusum_discards_a_warmup_whose_statistics_overflow():
    # the mean of two 1e308 values overflows, and so does the std of +-1e308;
    # neither can standardize a residual, so each warm-up is collected again
    det = CusumDetector(warmup=30)
    with np.errstate(all="raise"):
        assert not any(det.update(v) for v in [1e308, 1e308] + [0.0] * 28)
        assert not any(det.update(v) for v in [1e308, -1e308] * 15)
    # the next finite warm-up becomes the reference, and a jump alarms
    rng = np.random.default_rng(3)
    assert not any(det.update(v) for v in rng.standard_normal(30))
    assert not det.update(0.5) and det.update(100.0)


def test_cusum_discards_a_warmup_whose_std_alone_overflows():
    # +-1.5e308 and zeros: every partial sum is finite, whatever the order
    # numpy adds in, so the mean is 0; the squares overflow, so the std is inf
    warmup = [1.5e308, -1.5e308] + [0.0] * 28
    with np.errstate(over="ignore"):
        assert np.mean(warmup) == 0.0 and np.std(warmup, ddof=1) == math.inf
    det = CusumDetector(warmup=30)
    assert not any(det.update(v) for v in warmup)
    # an inf reference std would make every z 0; the fresh warm-up is the reference
    rng = np.random.default_rng(3)
    assert not any(det.update(v) for v in rng.standard_normal(30))
    assert not det.update(0.5) and det.update(100.0)


def test_cusum_alarms_only_past_the_threshold():
    # integers with mean 0 and sample std exactly 2, so each z below is exact
    warmup = [2.0] * 18 + [-2.0] * 18 + [0.0]
    det = CusumDetector(drift=0.5, threshold=5.0, warmup=37)
    assert not any(det.update(v) for v in warmup)
    assert not det.update(11.0)  # z = 5.5: S+ = 5.5 - 0.5, exactly the threshold
    assert det.update(2.0)  # z = 1: S+ = 5.5
    assert not any(det.update(v) for v in warmup)
    assert not det.update(-11.0)  # the same on the downward side
    assert det.update(-2.0)


def test_cusum_rejects_a_warmup_constant_up_to_rounding():
    # 50 copies of one residual have a sample std of a few ulps, not 0; a
    # reference std that small would turn the next residual into an alarm
    value = 0.2786290624167984
    assert 0 < np.full(50, value).std(ddof=1) < 1e-15
    det = CusumDetector(warmup=50)
    fresh = np.random.default_rng(4).standard_normal(49).tolist()
    alarms = [det.update(v) for v in [value] * 50 + [0.0] + fresh]
    assert alarms == [False] * 100
    # the reference is the fresh warm-up of 0.0 and 49 normal draws
    assert not det.update(0.5) and det.update(100.0)


def test_cusum_stays_quiet_in_control():
    # a fixed in-control stream short relative to the detector's average
    # run length; occasional false alarms on other seeds are expected
    rng = np.random.default_rng(8)
    det = CusumDetector(drift=0.5, threshold=5.0, warmup=50)
    assert not any(det.update(v) for v in rng.standard_normal(250))


def test_cusum_alarms_fast_on_large_shift_then_rewarms():
    rng = np.random.default_rng(5)
    det = CusumDetector(drift=0.5, threshold=5.0, warmup=50)
    for v in rng.standard_normal(50):
        det.update(v)
    steps = 0
    alarmed = False
    for v in 5.0 + rng.standard_normal(10):
        steps += 1
        if det.update(v):
            alarmed = True
            break
    assert alarmed and steps <= 5
    # the alarm resets the reference and the sums: the detector re-learns
    # the shifted level and then stays quiet on it
    assert not any(det.update(v) for v in 5.0 + rng.standard_normal(50))
    assert not any(det.update(v) for v in 5.0 + rng.standard_normal(20))


def test_cusum_detects_downward_shifts_too():
    rng = np.random.default_rng(6)
    det = CusumDetector(drift=0.5, threshold=5.0, warmup=50)
    for v in rng.standard_normal(50):
        det.update(v)
    assert any(det.update(v) for v in -5.0 + rng.standard_normal(10))


def test_trace_round_trip_and_validation(tmp_path):
    rng = np.random.default_rng(7)
    y = rng.normal(size=40)
    trace = ExternalForecastTrace(start=10, y_true=y, y_hat=y + 0.1)
    path = tmp_path / "trace.csv"
    rows = [f"{i},{float(a)!r},{float(b)!r}" for i, a, b in zip(range(10, 50), y, y + 0.1)]
    path.write_text("\n".join(["index,y_true,y_hat", *rows]) + "\n")
    loaded = ExternalForecastTrace.from_csv(path)
    assert loaded.start == trace.start
    assert np.array_equal(loaded.y_true, trace.y_true)
    assert np.array_equal(loaded.y_hat, trace.y_hat)
    assert loaded.start == 10 and loaded.end == 50


def test_trace_lookup_and_alignment_errors():
    series = TimeSeries(values=np.arange(20.0), start_index=0)
    trace = ExternalForecastTrace(
        start=5, y_true=np.arange(5.0, 15.0), y_hat=np.arange(5.0, 15.0) + 1.0
    )
    trace.validate_against(series, 6, 15)
    with pytest.raises(AlignmentError, match=r"\[5, 15\).*\[5, 18\)"):
        trace.validate_against(series, 5, 18)


def test_trace_truth_mismatch_names_first_bad_index():
    series = TimeSeries(values=np.arange(20.0), start_index=0)
    y_true = np.arange(5.0, 15.0)
    y_true[3] += 1e-6  # index 8 disagrees beyond tolerance
    trace = ExternalForecastTrace(start=5, y_true=y_true, y_hat=np.zeros(10))
    with pytest.raises(AlignmentError, match="index 8"):
        trace.validate_against(series, 5, 15)


def test_trace_tolerates_tiny_truth_noise():
    series = TimeSeries(values=np.arange(20.0), start_index=0)
    y_true = np.arange(5.0, 15.0) + 1e-12
    trace = ExternalForecastTrace(start=5, y_true=y_true, y_hat=np.zeros(10))
    trace.validate_against(series, 5, 15)


def test_trace_accepts_a_truth_exactly_at_the_tolerance():
    series = TimeSeries(values=np.zeros(20), start_index=0)
    y_true = np.zeros(10)
    y_true[[2, 7]] = 1e-9, -1e-9
    ExternalForecastTrace(start=5, y_true=y_true, y_hat=np.zeros(10)).validate_against(
        series, 5, 15
    )
    y_true[4] = np.nextafter(1e-9, 1.0)
    with pytest.raises(AlignmentError, match="index 9"):
        ExternalForecastTrace(start=5, y_true=y_true, y_hat=np.zeros(10)).validate_against(
            series, 5, 15
        )


def test_make_forecaster_dispatch():
    plain = make_forecaster("ar", order=3)
    assert type(plain) is ArForecaster and plain.detector is None
    seg = make_forecaster("segmented_ar", order=3, threshold=4.0)
    assert type(seg) is ArForecaster and seg.detector.threshold == 4.0
    # the AR's own checks come before the detector's
    for params, message in (
        (dict(order=0, refit_every=0), "autoregression order must be >= 1, got 0"),
        (dict(order=1, refit_every=0), "refit interval must be >= 1, got 0"),
        (dict(order=1, refit_every=1), "drift allowance must be non-negative, got -1.0"),
    ):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            make_forecaster("segmented_ar", drift=-1.0, **params)
