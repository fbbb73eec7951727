import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftband.conformal import (
    AciState,
    AgAciState,
    PredictionInterval,
    ScoreBuffer,
    aci_step,
    aci_update,
    agaci_step,
    agaci_update,
    empirical_quantile,
    pinball_loss,
    residual_score,
)
from driftband.errors import ConfigError, NumericError


def sort_quantile(scores, level):
    """Brute-force oracle: k-th smallest with k = ceil((n+1)*level)."""
    n = len(scores)
    k = math.ceil((n + 1) * level - 1e-9)
    if k <= 0:
        return 0.0
    if k > n:
        return math.inf
    return sorted(scores)[k - 1]


def test_residual_score():
    assert residual_score(3.0, 5.0) == 2.0
    assert residual_score(5.0, 3.0) == 2.0
    assert residual_score(1.5, 1.5) == 0.0


def test_buffer_fifo_eviction():
    buf = ScoreBuffer(capacity=3, scores=[1.0, 2.0, 3.0])
    buf.append(4.0)
    buf.append(5.0)
    assert buf.values().tolist() == [3.0, 4.0, 5.0]
    assert len(buf) == 3
    assert buf.max() == 5.0


def test_buffer_rejects_bad_input():
    with pytest.raises(ConfigError):
        ScoreBuffer(capacity=0)
    buf = ScoreBuffer(capacity=2)
    with pytest.raises(NumericError):
        buf.append(-1.0)
    with pytest.raises(NumericError):
        buf.append(float("nan"))
    with pytest.raises(NumericError):
        buf.max()


def test_quantile_empty_buffer():
    with pytest.raises(NumericError):
        empirical_quantile(ScoreBuffer(capacity=5), 0.9)


def test_quantile_boundary_ranks():
    buf = ScoreBuffer(10, range(1, 11))
    assert empirical_quantile(buf, -0.2) == 0.0
    assert empirical_quantile(buf, 0.0) == 0.0
    assert empirical_quantile(buf, 0.999) == math.inf
    assert empirical_quantile(buf, 1.5) == math.inf


def test_quantile_hits_exact_order_statistics():
    # level k/(n+1) must select the k-th smallest, not the next one up
    buf = ScoreBuffer(10, range(1, 11))
    for k in range(1, 11):
        assert empirical_quantile(buf, k / 11) == float(k)


@settings(max_examples=200)
@given(
    st.lists(st.floats(0, 1e6), min_size=1, max_size=60),
    st.floats(-0.2, 1.2),
)
def test_quantile_matches_sort_oracle(scores, level):
    buf = ScoreBuffer(capacity=len(scores), scores=scores)
    assert empirical_quantile(buf, level) == sort_quantile(scores, level)


def test_split_cp_interval():
    # split conformal is a bank of one expert with gamma = 0
    buf = ScoreBuffer(10, range(1, 11))
    bank = AgAciState.from_gammas(0.1, [0.0])
    iv, _ = agaci_step(bank, buf, y_hat=5.0)
    # k = ceil(11 * 0.9) = 10 -> half-width 10
    assert (iv.lower, iv.upper) == (-5.0, 15.0)
    assert iv.level == 0.9
    assert bank.alpha_t == 0.1
    with pytest.raises(ConfigError):
        AgAciState.from_gammas(0.0, [0.0])
    with pytest.raises(ConfigError):
        AgAciState.from_gammas(1.0, [0.0])


def test_interval_covers_boundary_inclusive():
    iv = PredictionInterval(y_hat=0.0, half_width=1.0, level=0.9)
    assert iv.covers(1.0) and iv.covers(-1.0) and iv.covers(0.0)
    assert not iv.covers(1.0000001)
    assert iv.width == 2.0


def test_interval_rejects_negative_width():
    with pytest.raises(NumericError):
        PredictionInterval(y_hat=0.0, half_width=-0.1, level=0.9)


def test_aci_state_defaults_and_validation():
    state = AciState(alpha_nominal=0.1, gamma=0.01)
    assert state.alpha_t == 0.1
    with pytest.raises(ConfigError):
        AciState(alpha_nominal=0.0, gamma=0.01)
    with pytest.raises(ConfigError):
        AciState(alpha_nominal=0.1, gamma=-1.0)


def test_aci_update_directions():
    state = AciState(alpha_nominal=0.1, gamma=0.01)
    hit = PredictionInterval(y_hat=0.0, half_width=1.0, level=0.9)
    covered = aci_update(state, 0.5, hit)
    assert covered.alpha_t == pytest.approx(0.1 + 0.01 * 0.1)
    missed = aci_update(state, 2.0, hit)
    assert missed.alpha_t == pytest.approx(0.1 + 0.01 * (0.1 - 1.0))


def test_aci_alpha_not_clamped_maps_to_degenerate_bands():
    buf = ScoreBuffer(5, [1.0, 2.0, 3.0, 4.0, 5.0])
    below = AciState(alpha_nominal=0.1, gamma=0.1, alpha_t=-0.05)
    assert aci_step(below, buf, 0.0).half_width == math.inf
    above = AciState(alpha_nominal=0.1, gamma=0.1, alpha_t=1.2)
    assert aci_step(above, buf, 0.0).half_width == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-4, 1e-3, 1e-2]))
def test_aci_telescoping_identity(seed, gamma):
    rng = np.random.default_rng(seed)
    buf = ScoreBuffer(100, np.abs(rng.normal(size=100)))
    state = AciState(alpha_nominal=0.1, gamma=gamma)
    alpha0 = state.alpha_t
    terms = []
    for _ in range(300):
        y, y_hat = rng.normal(), rng.normal(scale=0.5)
        iv = aci_step(state, buf, y_hat)
        err = 0.0 if iv.covers(y) else 1.0
        terms.append(state.alpha_nominal - err)
        state = aci_update(state, y, iv)
        buf.append(residual_score(y, y_hat))
    assert abs((state.alpha_t - alpha0) / gamma - math.fsum(terms)) < 1e-9


def test_gamma_zero_keeps_alpha_fixed():
    state = AciState(alpha_nominal=0.1, gamma=0.0)
    iv = PredictionInterval(y_hat=0.0, half_width=1.0, level=0.9)
    for y in (0.5, 99.0, -2.0):
        state = aci_update(state, y, iv)
    assert state.alpha_t == 0.1


def test_pinball_loss_oracle():
    # tau * under-shoot when the value exceeds the estimate
    assert pinball_loss(0.9, 2.0, 1.0) == pytest.approx(0.9)
    assert pinball_loss(0.9, 1.0, 2.0) == pytest.approx(0.1)
    assert pinball_loss(0.5, 3.0, 3.0) == 0.0
    assert pinball_loss(0.9, 1.0, math.inf) == math.inf
    with pytest.raises(ConfigError):
        pinball_loss(0.0, 1.0, 1.0)


def test_agaci_from_gammas_requires_distinct():
    with pytest.raises(ConfigError, match="distinct"):
        AgAciState.from_gammas(0.1, [0.01, 0.01])


def test_agaci_validation():
    expert = AciState(alpha_nominal=0.1, gamma=0.01)
    with pytest.raises(ConfigError):
        AgAciState(alpha_nominal=0.1, experts=(), weights=())
    with pytest.raises(ConfigError):
        AgAciState(alpha_nominal=0.1, experts=(expert,), weights=(0.7,))
    with pytest.raises(ConfigError):
        AgAciState(alpha_nominal=0.2, experts=(expert,), weights=(1.0,))
    with pytest.raises(ConfigError):
        AgAciState(alpha_nominal=0.1, experts=(expert,), weights=(1.0,), mode="mean")


def test_agaci_single_expert_reproduces_aci():
    rng = np.random.default_rng(3)
    buf_a = ScoreBuffer(50, np.abs(rng.normal(size=50)))
    buf_b = ScoreBuffer(50, buf_a.values())
    bank = AgAciState.from_gammas(0.1, [0.01])
    solo = AciState(alpha_nominal=0.1, gamma=0.01)
    for _ in range(500):
        y, y_hat = rng.normal(), rng.normal(scale=0.5)
        agg, per_expert = agaci_step(bank, buf_a, y_hat)
        iv = aci_step(solo, buf_b, y_hat)
        assert agg.half_width == iv.half_width
        assert agg.level == iv.level
        bank = agaci_update(bank, y, y_hat, per_expert)
        solo = aci_update(solo, y, iv)
        assert bank.experts[0].alpha_t == solo.alpha_t
        assert bank.weights == (1.0,)
        s = residual_score(y, y_hat)
        buf_a.append(s)
        buf_b.append(s)


def test_agaci_alpha_t_is_the_weighted_expert_level():
    bank = AgAciState(
        alpha_nominal=0.1,
        experts=(
            AciState(alpha_nominal=0.1, gamma=0.01, alpha_t=0.1),
            AciState(alpha_nominal=0.1, gamma=0.02, alpha_t=0.3),
        ),
        weights=(0.25, 0.75),
    )
    assert bank.alpha_t == pytest.approx(0.25)
    # one expert: exactly its level, where 1 - (1 - 0.1) would not be
    assert AgAciState.from_gammas(0.1, [0.01]).alpha_t == 0.1


@given(st.floats(0, 1, exclude_max=True))
def test_lone_expert_weight_is_a_fixed_point_of_reweighing(floor):
    # agaci_update skips the reweighing of a one-expert bank because
    # (1 - floor) * 1 + floor / 1 rounds back to exactly 1
    assert (1.0 - floor) * 1.0 + floor / 1 == 1.0


def test_agaci_identical_experts_stay_uniform_and_match_member():
    rng = np.random.default_rng(4)
    buf = ScoreBuffer(50, np.abs(rng.normal(size=50)))
    expert = AciState(alpha_nominal=0.1, gamma=0.005)
    bank = AgAciState(
        alpha_nominal=0.1, experts=(expert,) * 3, weights=(1 / 3,) * 3
    )
    for _ in range(300):
        y, y_hat = rng.normal(), rng.normal(scale=0.5)
        agg, per_expert = agaci_step(bank, buf, y_hat)
        assert agg.half_width == pytest.approx(per_expert[0].half_width, abs=1e-12)
        bank = agaci_update(bank, y, y_hat, per_expert)
        assert all(abs(w - 1 / 3) < 1e-12 for w in bank.weights)
        assert len({e.alpha_t for e in bank.experts}) == 1
        buf.append(residual_score(y, y_hat))


def test_agaci_weights_track_the_better_expert():
    # expert 0 adapts, expert 1 is frozen at a miscalibrated level; the
    # aggregation should shift weight toward the adapting expert
    rng = np.random.default_rng(5)
    buf = ScoreBuffer(100, np.abs(rng.normal(size=100)))
    bank = AgAciState(
        alpha_nominal=0.1,
        experts=(
            AciState(alpha_nominal=0.1, gamma=0.01),
            AciState(alpha_nominal=0.1, gamma=0.0, alpha_t=0.9),
        ),
        weights=(0.5, 0.5),
        eta=5.0,
    )
    for _ in range(400):
        y, y_hat = rng.normal(), rng.normal(scale=0.5)
        _, per_expert = agaci_step(bank, buf, y_hat)
        bank = agaci_update(bank, y, y_hat, per_expert)
        buf.append(residual_score(y, y_hat))
    assert bank.weights[0] > 0.9


def test_agaci_fixed_mode_and_zero_eta_freeze_weights():
    rng = np.random.default_rng(6)
    buf = ScoreBuffer(30, np.abs(rng.normal(size=30)))
    for kwargs in ({"mode": "fixed"}, {"eta": 0.0}):
        bank = AgAciState.from_gammas(0.1, [1e-3, 1e-2], **kwargs)
        for _ in range(100):
            y, y_hat = rng.normal(), rng.normal(scale=0.5)
            _, per_expert = agaci_step(bank, buf, y_hat)
            bank = agaci_update(bank, y, y_hat, per_expert)
        assert bank.weights == (0.5, 0.5)


def test_agaci_weight_floor_is_respected():
    rng = np.random.default_rng(7)
    buf = ScoreBuffer(50, np.abs(rng.normal(size=50)))
    floor = 1e-3
    bank = AgAciState.from_gammas(0.1, [1e-4, 1e-2], eta=50.0, weight_floor=floor)
    for _ in range(500):
        y, y_hat = rng.normal(scale=2.0), rng.normal()
        _, per_expert = agaci_step(bank, buf, y_hat)
        bank = agaci_update(bank, y, y_hat, per_expert)
        assert all(w >= floor / 2 - 1e-15 for w in bank.weights)
        assert abs(math.fsum(bank.weights) - 1.0) <= 1e-12
        buf.append(residual_score(y, y_hat))


def test_aggregate_caps_infinite_expert_bands():
    buf = ScoreBuffer(4, [1.0, 2.0, 3.0, 4.0])
    bank = AgAciState(
        alpha_nominal=0.1,
        experts=(
            AciState(alpha_nominal=0.1, gamma=0.01, alpha_t=0.5),
            AciState(alpha_nominal=0.1, gamma=0.02, alpha_t=-0.1),
        ),
        weights=(0.5, 0.5),
        infinite_cap_factor=2.0,
    )
    agg, per_expert = agaci_step(bank, buf, 0.0)
    assert per_expert[1].half_width == math.inf
    # the infinite band enters the mean capped at max score * cap factor
    assert agg.half_width == pytest.approx(0.5 * per_expert[0].half_width + 0.5 * 8.0)


def test_aggregate_with_all_experts_infinite_stays_infinite():
    buf = ScoreBuffer(4, [1.0, 2.0, 3.0, 4.0])
    bank = AgAciState(
        alpha_nominal=0.1,
        experts=(
            AciState(alpha_nominal=0.1, gamma=0.01, alpha_t=-0.2),
            AciState(alpha_nominal=0.1, gamma=0.02, alpha_t=-0.1),
        ),
        weights=(0.5, 0.5),
    )
    agg, _ = agaci_step(bank, buf, 0.0)
    assert agg.half_width == math.inf


def test_infinite_expert_band_gets_zero_weight_factor():
    buf = ScoreBuffer(4, [1.0, 2.0, 3.0, 4.0])
    bank = AgAciState(
        alpha_nominal=0.1,
        experts=(
            AciState(alpha_nominal=0.1, gamma=0.01, alpha_t=0.5),
            AciState(alpha_nominal=0.1, gamma=0.02, alpha_t=-0.1),
        ),
        weights=(0.5, 0.5),
        weight_floor=0.0,
    )
    _, per_expert = agaci_step(bank, buf, 0.0)
    updated = agaci_update(bank, 0.5, 0.0, per_expert)
    assert updated.weights[1] == 0.0
    assert updated.weights[0] == 1.0
