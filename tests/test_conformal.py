import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftband import conformal
from driftband.conformal import (
    AciState,
    AgAciState,
    PredictionInterval,
    ScoreBuffer,
    aci_step,
    aci_update,
    agaci_step,
    agaci_update,
    calibrate,
    empirical_quantile,
    residual_score,
)
from driftband.errors import ConfigError, NumericError


def scores_of(buffer):
    """The buffered scores, oldest first."""
    return list(buffer._scores)


def sort_quantile(scores, level):
    """Brute-force oracle: k-th smallest with k = ceil((n+1)*level)."""
    n = len(scores)
    k = math.ceil((n + 1) * level - 1e-9)
    if k <= 0:
        return 0.0
    if k > n:
        return math.inf
    return sorted(scores)[k - 1]


# ---------------------------------------------------------------------------
# Oracle: the object-based AgACI / ACI step and update, one PredictionInterval
# and one AciState per expert per step, with the quantile taken by sorting.
# The flat kernel in driftband.conformal must reproduce it bit for bit.


def pinball_loss(tau, target, estimate):
    """Quantile (pinball) loss of an estimate against a realized value."""
    if not 0 < tau < 1:
        raise ConfigError(f"pinball tau must lie in (0, 1), got {tau}")
    if math.isinf(estimate):
        return math.inf
    diff = float(target) - float(estimate)
    return tau * diff if diff >= 0 else (tau - 1.0) * diff


@dataclass(frozen=True)
class OracleBank:
    alpha_nominal: float
    experts: tuple
    weights: tuple
    eta: float
    weight_floor: float
    infinite_cap_factor: float

    @property
    def alpha_t(self):
        return math.fsum(w * e.alpha_t for w, e in zip(self.weights, self.experts))


def oracle_aci_step(state, buffer, y_hat):
    q = sort_quantile(scores_of(buffer), 1.0 - state.alpha_t)
    return PredictionInterval(y_hat=float(y_hat), half_width=q, level=1.0 - state.alpha_t)


def oracle_aci_update(state, y, interval):
    err = 0.0 if interval.covers(float(y)) else 1.0
    return replace(state, alpha_t=state.alpha_t + state.gamma * (state.alpha_nominal - err))


def oracle_agaci_step(state, buffer, y_hat):
    per_expert = tuple(oracle_aci_step(e, buffer, y_hat) for e in state.experts)
    widths = [iv.half_width for iv in per_expert]
    half_width = math.inf
    if not all(math.isinf(w) for w in widths):
        if any(math.isinf(w) for w in widths):
            cap = max(scores_of(buffer)) * state.infinite_cap_factor
            widths = [min(w, cap) for w in widths]
        # a zero-weight expert is left out, as an infinite cap would make 0 * inf
        half_width = math.fsum(w * hw for w, hw in zip(state.weights, widths) if w)
    level = math.fsum(w * iv.level for w, iv in zip(state.weights, per_expert))
    return PredictionInterval(y_hat=float(y_hat), half_width=half_width, level=level), per_expert


def oracle_agaci_update(state, y, y_hat, per_expert):
    experts = tuple(oracle_aci_update(e, float(y), iv) for e, iv in zip(state.experts, per_expert))
    weights = state.weights
    if state.eta > 0 and len(weights) > 1:
        score = residual_score(y, y_hat)
        tau = 1.0 - state.alpha_nominal
        factors = []
        for iv in per_expert:
            loss = pinball_loss(tau, score, iv.half_width)
            factors.append(0.0 if math.isinf(loss) else math.exp(-state.eta * loss))
        raw = [w * f for w, f in zip(weights, factors)]
        total = math.fsum(raw)
        k = len(raw)
        base = [r / total for r in raw] if total > 0 else [1.0 / k] * k
        floor = state.weight_floor
        weights = tuple((1.0 - floor) * b + floor / k for b in base)
    return replace(state, experts=experts, weights=weights)


def bits(*values):
    return [float(v).hex() for v in values]


def assert_same_band(got, want):
    assert bits(got.y_hat, got.half_width, got.level, got.lower, got.upper) == bits(
        want.y_hat, want.half_width, want.level, want.lower, want.upper
    )


STEP_VALUES = st.sampled_from([-2.0, -0.5, 0.0, 0.0, 0.25, 1.0, 3.0]) | st.floats(-3, 3)


@settings(max_examples=300, deadline=None)
@given(
    experts=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1e-4, 1e-2, 0.05, 0.3]) | st.floats(0, 0.5),
            st.sampled_from([0.1, -0.3, 0.0, 0.95, 1.0, 1.4]) | st.floats(-0.5, 1.5),
        ),
        min_size=1, max_size=6,
    ),
    raw_weights=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
    eta=st.sampled_from([0.0, 0.5, 1.0, 5.0, 60.0]),
    floor=st.sampled_from([0.0, 1e-6, 0.2]),
    cap=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
    seed_scores=st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5]), min_size=1, max_size=12),
    capacity=st.integers(1, 12),
    rolling=st.booleans(),
    steps=st.lists(st.tuples(STEP_VALUES, STEP_VALUES), min_size=1, max_size=40),
)
@example(  # y = y_hat + hw is covered, though abs(y - y_hat) > hw after rounding
    experts=[(0.01, 0.6), (0.0, 0.1)], raw_weights=[0.5] * 6, eta=1.0, floor=1e-6,
    cap=2.0, seed_scores=[0.2], capacity=1, rolling=False,
    steps=[(0.1 + 0.2, 0.1)],
)
@example(  # all-zero scores: zero-width bands that hit only when y == y_hat
    experts=[(0.01, 0.1), (0.0, 0.5), (0.3, -0.2)], raw_weights=[1.0] * 6, eta=5.0,
    floor=0.0, cap=2.0, seed_scores=[0.0] * 5, capacity=5, rolling=True,
    steps=[(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (-2.0, 1.0)],
)
def test_flat_kernel_matches_the_object_oracle_bit_for_bit(
    experts, raw_weights, eta, floor, cap, seed_scores, capacity, rolling, steps
):
    """Small buffers put levels at k <= 0 and k > n; zero scores give
    zero-width bands that hit only on exact equality."""
    states = tuple(AciState(alpha_nominal=0.1, gamma=g, alpha_t=a) for g, a in experts)
    weights = tuple(w / math.fsum(raw_weights[: len(states)]) for w in raw_weights[: len(states)])
    options = dict(eta=eta, weight_floor=floor, infinite_cap_factor=cap)
    bank = AgAciState(alpha_nominal=0.1, experts=states, weights=weights, **options)
    oracle = OracleBank(alpha_nominal=0.1, experts=states, weights=weights, **options)
    solo, solo_oracle = states[0], states[0]
    buf = ScoreBuffer(capacity, seed_scores)
    for y, y_hat in steps:
        agg, per_expert = agaci_step(bank, buf, y_hat)
        want, want_per_expert = oracle_agaci_step(oracle, buf, y_hat)
        assert_same_band(agg, want)
        assert agg.covers(y) == want.covers(y)
        assert len(per_expert) == len(want_per_expert)
        for got_hw, want_iv in zip(per_expert, want_per_expert):
            assert bits(got_hw) == bits(want_iv.half_width)
            assert (float(y_hat) - got_hw <= y <= float(y_hat) + got_hw) == want_iv.covers(y)
        iv, want_iv = aci_step(solo, buf, y_hat), oracle_aci_step(solo_oracle, buf, y_hat)
        assert_same_band(iv, want_iv)

        bank = agaci_update(bank, y, y_hat, per_expert)
        oracle = oracle_agaci_update(oracle, y, y_hat, want_per_expert)
        assert bits(*(e.alpha_t for e in bank.experts)) == bits(
            *(e.alpha_t for e in oracle.experts)
        )
        assert bits(*bank.weights) == bits(*oracle.weights)
        assert bits(bank.alpha_t) == bits(oracle.alpha_t)
        solo, solo_oracle = aci_update(solo, y, iv), oracle_aci_update(solo_oracle, y, want_iv)
        assert bits(solo.alpha_t) == bits(solo_oracle.alpha_t)
        if rolling:
            buf.append(residual_score(y, y_hat))


@settings(max_examples=300, deadline=None)
@given(
    experts=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1e-4, 1e-2, 0.05, 0.3]) | st.floats(0, 0.5),
            st.sampled_from([0.1, -0.3, 0.0, 0.95, 1.0, 1.4]) | st.floats(-0.5, 1.5),
        ),
        min_size=1, max_size=6,
    ),
    raw_weights=st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=6, max_size=6),
    eta=st.sampled_from([0.0, 0.5, 1.0, 5.0, 60.0]),
    floor=st.sampled_from([0.0, 0.0, 1e-6, 0.2]),
    cap=st.sampled_from([0.5, 2.0, 1e306, math.inf]) | st.floats(0.5, 10),
    seed_scores=st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5]), min_size=1, max_size=12),
    capacity=st.integers(1, 12),
    rolling=st.booleans(),
    steps=st.lists(st.tuples(STEP_VALUES, STEP_VALUES), min_size=1, max_size=40),
)
@example(  # y = y_hat + hw is covered, though abs(y - y_hat) > hw after rounding
    experts=[(0.01, 0.6)], raw_weights=[1.0] * 6, eta=1.0, floor=1e-6, cap=2.0,
    seed_scores=[0.2], capacity=1, rolling=False, steps=[(0.1 + 0.2, 0.1)] * 3,
)
@example(  # the same for each expert of a bank
    experts=[(0.01, 0.6), (0.0, 0.1)], raw_weights=[1.0] * 6, eta=1.0, floor=1e-6, cap=2.0,
    seed_scores=[0.2], capacity=1, rolling=False, steps=[(0.1 + 0.2, 0.1)] * 3,
)
@example(  # a weightless expert's infinite band, capped at inf, stays out of the mean
    experts=[(0.01, 0.5), (0.3, -0.2), (0.0, 0.1)], raw_weights=[1.0, 0.0, 3.0, 1.0, 1.0, 1.0],
    eta=5.0, floor=0.0, cap=math.inf, seed_scores=[1.0, 2.5, 0.25], capacity=3,
    rolling=True, steps=[(0.0, 0.0), (2.0, 0.0), (-1.0, 0.5), (0.0, 3.0)] * 3,
)
@example(  # two experts with one step size and level, given unequal weights
    experts=[(0.05, 0.3), (0.05, 0.3)], raw_weights=[1.0, 3.0, 1.0, 1.0, 1.0, 1.0], eta=5.0,
    floor=1e-6, cap=2.0, seed_scores=[0.25, 1.0, 2.5], capacity=3, rolling=True,
    steps=[(0.0, 0.0), (2.0, 0.0), (-1.0, 0.5), (0.0, 3.0)] * 3,
)
@example(  # a lone expert's -0.0 level: the step loop's fsum gives +0.0
    experts=[(0.0, -0.0)], raw_weights=[1.0] * 6, eta=1.0, floor=1e-6, cap=2.0,
    seed_scores=[0.25], capacity=1, rolling=False, steps=[(0.0, 0.0)] * 2,
)
@example(  # a lone expert reading a -0.0 score: the step loop's fsum gives +0.0
    experts=[(0.0, 0.5)], raw_weights=[1.0] * 6, eta=1.0, floor=1e-6, cap=2.0,
    seed_scores=[-0.0], capacity=1, rolling=False, steps=[(0.0, 0.0)] * 2,
)
def test_calibrate_matches_the_step_loop_and_the_object_oracle_bit_for_bit(
    experts, raw_weights, eta, floor, cap, seed_scores, capacity, rolling, steps
):
    """``calibrate`` over a window is the loop of agaci_step, agaci_update
    and (rolling) ScoreBuffer.append, and both are the object oracle. Buffers
    shorter than the window evict; levels outside (0, 1) give infinite and
    zero-width bands; zero weights, given or reweighed to, meet infinite caps."""
    k = len(experts)
    total = math.fsum(raw_weights[:k])
    assume(total > 0)
    weights = tuple(w / total for w in raw_weights[:k])
    states = tuple(AciState(alpha_nominal=0.1, gamma=g, alpha_t=a) for g, a in experts)
    options = dict(eta=eta, weight_floor=floor, infinite_cap_factor=cap)
    bank = AgAciState(alpha_nominal=0.1, experts=states, weights=weights, **options)
    oracle = OracleBank(alpha_nominal=0.1, experts=states, weights=weights, **options)
    ys, y_hats = [float(y) for y, _ in steps], [float(f) for _, f in steps]
    buf = ScoreBuffer(capacity, seed_scores)
    [(got_widths, got_levels, got_bank)] = calibrate([bank], buf, ys, y_hats, rolling)

    step_buf, oracle_buf = ScoreBuffer(capacity, seed_scores), ScoreBuffer(capacity, seed_scores)
    widths, levels, oracle_widths, oracle_levels = [], [], [], []
    for y, y_hat in zip(ys, y_hats):
        levels.append(bank.alpha_t)
        interval, per_expert = agaci_step(bank, step_buf, y_hat)
        widths.append(interval.half_width)
        bank = agaci_update(bank, y, y_hat, per_expert)
        oracle_levels.append(oracle.alpha_t)
        interval, per_expert = oracle_agaci_step(oracle, oracle_buf, y_hat)
        oracle_widths.append(interval.half_width)
        oracle = oracle_agaci_update(oracle, y, y_hat, per_expert)
        if rolling:
            step_buf.append(residual_score(y, y_hat))
            oracle_buf.append(residual_score(y, y_hat))
    assert bits(*got_widths) == bits(*widths) == bits(*oracle_widths)
    assert bits(*got_levels) == bits(*levels) == bits(*oracle_levels)
    assert bits(*got_bank.alphas) == bits(*bank.alphas) == bits(
        *(e.alpha_t for e in oracle.experts)
    )
    assert bits(*got_bank.weights) == bits(*bank.weights) == bits(*oracle.weights)
    assert got_bank == bank
    assert bits(*scores_of(buf)) == bits(*scores_of(step_buf))


@st.composite
def expert_banks(draw):
    """A bank of one to three experts with its own nominal level, step sizes,
    working levels, weights and options."""
    alpha = draw(st.sampled_from([0.05, 0.1, 0.3]))
    k = draw(st.integers(1, 3))
    experts = [
        AciState(alpha, draw(st.sampled_from([0.0, 1e-2, 0.3])),
                 draw(st.sampled_from([0.1, -0.3, 0.0, 0.95, 1.4]) | st.floats(-0.5, 1.5)))
        for _ in range(k)
    ]
    raw = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=k, max_size=k))
    assume(sum(raw) > 0)
    return AgAciState(
        alpha, experts, [w / math.fsum(raw) for w in raw],
        eta=draw(st.sampled_from([0.0, 1.0, 5.0])),
        weight_floor=draw(st.sampled_from([0.0, 1e-6, 0.2])),
        infinite_cap_factor=draw(st.sampled_from([0.5, 2.0, math.inf])),
    )


@settings(max_examples=150, deadline=None)
@given(
    banks=st.lists(expert_banks(), min_size=1, max_size=4),
    seed_scores=st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5]), min_size=1, max_size=12),
    capacity=st.integers(1, 12),
    rolling=st.booleans(),
    steps=st.lists(st.tuples(STEP_VALUES, STEP_VALUES), min_size=1, max_size=40),
)
def test_banks_in_lockstep_on_one_buffer_match_each_bank_alone_bit_for_bit(
    banks, seed_scores, capacity, rolling, steps
):
    """Banks of mixed expert counts walking one shared buffer each give the
    widths, levels and final bank of that bank calibrated alone on its own
    copy of the buffer, and of the agaci_step/agaci_update loop; the shared
    buffer ends with the scores of each copy. Experts do not interact: each
    ends at the level it reaches as a one-expert bank calibrated alone."""
    ys, y_hats = [float(y) for y, _ in steps], [float(f) for _, f in steps]
    shared = ScoreBuffer(capacity, seed_scores)
    together = calibrate(banks, shared, ys, y_hats, rolling)
    assert len(together) == len(banks)
    for bank, (widths, levels, final) in zip(banks, together):
        own = ScoreBuffer(capacity, seed_scores)
        [(alone_widths, alone_levels, alone_final)] = calibrate([bank], own, ys, y_hats, rolling)
        step_buf, state = ScoreBuffer(capacity, seed_scores), bank
        step_widths, step_levels = [], []
        for y, y_hat in zip(ys, y_hats):
            step_levels.append(state.alpha_t)
            interval, per_expert = agaci_step(state, step_buf, y_hat)
            step_widths.append(interval.half_width)
            state = agaci_update(state, y, y_hat, per_expert)
            if rolling:
                step_buf.append(residual_score(y, y_hat))
        assert bits(*widths) == bits(*alone_widths) == bits(*step_widths)
        assert bits(*levels) == bits(*alone_levels) == bits(*step_levels)
        for got in (alone_final, state):
            assert bits(*final.alphas, *final.weights) == bits(*got.alphas, *got.weights)
        assert final == alone_final == state
        for expert, level in zip(bank.experts, final.alphas):
            solo = AgAciState(bank.alpha_nominal, [expert], [1.0])
            solo_buf = ScoreBuffer(capacity, seed_scores)
            [(*_, solo_final)] = calibrate([solo], solo_buf, ys, y_hats, rolling)
            assert bits(level) == bits(*solo_final.alphas)
        assert bits(*scores_of(shared)) == bits(*scores_of(own)) == bits(*scores_of(step_buf))


@pytest.mark.parametrize("rolling", [True, False])
@pytest.mark.parametrize("block", [1, 7, 512])
def test_calibrate_gives_the_same_bits_for_any_block_of_steps(monkeypatch, block, rolling):
    """The banks aggregate their experts' columns one block of steps at a
    time; over a window of several blocks, every block size gives the bits of
    the agaci_step/agaci_update loop."""
    rng = np.random.default_rng(8)
    ys, y_hats = rng.normal(size=1100).tolist(), rng.normal(scale=0.5, size=1100).tolist()
    seed_scores = np.abs(rng.normal(size=40)).tolist()
    banks = [AgAciState.from_gammas(0.1, [0.01]), AgAciState.from_gammas(0.1, [0.0, 0.05, 0.3]),
             AgAciState.from_gammas(0.2, [1e-3, 1e-2], eta=5.0)]
    monkeypatch.setattr(conformal, "_BLOCK", block)
    together = calibrate(banks, ScoreBuffer(40, seed_scores), ys, y_hats, rolling)
    for bank, (widths, levels, final) in zip(banks, together):
        buf, step_widths, step_levels = ScoreBuffer(40, seed_scores), [], []
        for y, y_hat in zip(ys, y_hats):
            step_levels.append(bank.alpha_t)
            interval, per_expert = agaci_step(bank, buf, y_hat)
            step_widths.append(interval.half_width)
            bank = agaci_update(bank, y, y_hat, per_expert)
            if rolling:
                buf.append(residual_score(y, y_hat))
        assert bits(*widths) == bits(*step_widths)
        assert bits(*levels) == bits(*step_levels)
        assert final == bank


@pytest.mark.parametrize("weight", [1.0, 1 - 1e-10])
@pytest.mark.parametrize("alpha_t", [1.2, 0.5, 0.1, -0.0, -0.3])
def test_one_expert_bank_matches_the_object_oracle_bit_for_bit(weight, alpha_t):
    """A one-expert bank multiplies by its weight where the oracle takes the
    fsum of one product; a valid weight other than 1.0 keeps the two apart
    if the product were skipped. Levels start below 0 (zero-width bands),
    inside (0, 1) and at or above 1 (infinite bands), and the -0.0 score
    and level give the fsum's +0.0."""
    state = AciState(alpha_nominal=0.1, gamma=0.3, alpha_t=alpha_t)
    options = dict(eta=1.0, weight_floor=1e-6, infinite_cap_factor=2.0)
    bank = AgAciState(0.1, (state,), (weight,), **options)
    oracle = OracleBank(0.1, (state,), (weight,), **options)
    buf = ScoreBuffer(5, [0.5, 1.0, 2.0, -0.0])
    widths = []
    for y, y_hat in [(0.0, 0.0), (0.3, 0.0), (-3.0, 1.0), (1.0, 1.0), (0.25, -0.25), (4.0, 0.0)]:
        assert bits(bank.alpha_t) == bits(oracle.alpha_t)
        agg, per_expert = agaci_step(bank, buf, y_hat)
        want, want_per_expert = oracle_agaci_step(oracle, buf, y_hat)
        assert_same_band(agg, want)
        assert bits(*per_expert) == bits(want_per_expert[0].half_width)
        widths.append(agg.half_width)
        # the interval filled in without its constructor is an ordinary one
        assert type(agg) is PredictionInterval
        assert agg == want and hash(agg) == hash(want) and vars(agg) == vars(want)
        assert agg.covers(y) == want.covers(y)
        bank = agaci_update(bank, y, y_hat, per_expert)
        oracle = oracle_agaci_update(oracle, y, y_hat, want_per_expert)
        assert bits(bank.alphas[0], bank.weights[0], bank.alpha_t) == bits(
            oracle.experts[0].alpha_t, oracle.weights[0], oracle.alpha_t
        )
        assert bank == AgAciState(0.1, oracle.experts, oracle.weights, **options)
        buf.append(residual_score(y, y_hat))
    if alpha_t > 1:
        assert widths[0] == 0.0
    elif alpha_t <= 0:
        assert widths[0] == math.inf


def test_per_expert_half_widths_come_in_expert_order():
    buf = ScoreBuffer(4, [1.0, 2.0, 3.0, 4.0])
    bank = AgAciState.from_gammas(0.1, [0.0, 0.01])
    _, per_expert = agaci_step(bank, buf, 0.5)
    assert per_expert == [math.inf, math.inf]
    assert bank.experts == (AciState(0.1, 0.0), AciState(0.1, 0.01))
    # levels 1 - 0.3 and 1 - 0.5 read the 4th and the 3rd of the 4 scores
    bank = AgAciState(0.1, (AciState(0.1, 0.0, 0.3), AciState(0.1, 0.01, 0.5)), (0.5, 0.5))
    _, per_expert = agaci_step(bank, buf, 0.5)
    assert per_expert == [4.0, 3.0]


def test_a_weighted_half_width_beyond_the_float_range_is_infinite():
    # each weight times the largest double rounds up, so the exact sum of the
    # terms is past the float range, where math.fsum raises
    weights = (0.061490027007658155, 0.7373329172412018, 0.2011770557511402)
    top = sys.float_info.max
    assert conformal._aggregate(weights, [top] * 3, top, 2.0) == math.inf
    bank = AgAciState(0.1, [AciState(0.1, g) for g in (0.1, 0.01, 0.001)], weights)
    interval, per_expert = agaci_step(bank, ScoreBuffer(20, [top] * 20), 0.0)
    assert (interval.half_width, per_expert) == (math.inf, [top] * 3)


def test_residual_score():
    assert residual_score(3.0, 5.0) == 2.0
    assert residual_score(5.0, 3.0) == 2.0
    assert residual_score(1.5, 1.5) == 0.0


def test_buffer_fifo_eviction():
    buf = ScoreBuffer(capacity=3, scores=[1.0, 2.0, 3.0])
    buf.append(4.0)
    buf.append(5.0)
    assert scores_of(buf) == [3.0, 4.0, 5.0]
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
    with pytest.raises(NumericError, match="scores must be finite"):
        buf.append(math.inf)
    with pytest.raises(NumericError):
        buf.max()


SCORE_POOL = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 1e-300, 3e300)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 50), st.lists(st.sampled_from(SCORE_POOL), max_size=300))
def test_sorted_buffer_matches_partition_of_the_fifo(capacity, scores):
    """Every order statistic of the sorted view equals a partition of the
    FIFO deque after each append, including appends that evict duplicates."""
    buf = ScoreBuffer(capacity)
    fifo = []
    for score in scores:
        buf.append(score)
        fifo = (fifo + [score])[-capacity:]
        n = len(fifo)
        assert scores_of(buf) == fifo
        assert buf.max() == max(scores_of(buf))
        for k in range(n + 2):
            # the rank rule maps this level to exactly k
            got = empirical_quantile(buf, k / (n + 1))
            if k == 0:
                assert got == 0.0
            elif k > n:
                assert got == math.inf
            else:
                assert got == float(np.partition(np.asarray(fifo), k - 1)[k - 1])


def test_quantile_empty_buffer():
    with pytest.raises(NumericError):
        empirical_quantile(ScoreBuffer(capacity=5), 0.9)


def test_quantile_boundary_ranks():
    buf = ScoreBuffer(10, range(1, 11))
    assert empirical_quantile(buf, -0.2) == 0.0
    assert empirical_quantile(buf, 0.0) == 0.0
    assert empirical_quantile(buf, 0.999) == math.inf
    assert empirical_quantile(buf, 1.5) == math.inf
    # a huge finite ACI step size moves the level to about +-gamma, where
    # (n + 1) * level may overflow
    for level in (-1e306, -1.7976931348623157e308, -math.inf):
        assert empirical_quantile(buf, level) == 0.0
    for level in (1e306, 1.7976931348623157e308, math.inf):
        assert empirical_quantile(buf, level) == math.inf


def test_a_nan_level_or_a_fractional_capacity_is_a_config_error():
    buf = ScoreBuffer(10, range(1, 11))
    with pytest.raises(ConfigError, match="quantile level must not be NaN"):
        empirical_quantile(buf, math.nan)
    with pytest.raises(ConfigError, match="alpha_t must not be NaN"):
        aci_step(AciState(0.1, 0.01, alpha_t=math.nan), buf, 0.0)
    for alpha_t in (math.inf, -math.inf):  # the excursions stay legal
        assert AciState(0.1, 0.01, alpha_t=alpha_t).alpha_t == alpha_t
    for capacity in (2.7, math.nan, math.inf):
        with pytest.raises(ConfigError, match="buffer capacity must be an integer"):
            ScoreBuffer(capacity)
    assert len(ScoreBuffer(2.0, [1.0, 2.0, 3.0])) == 2


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
    for gamma in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="gamma must be finite"):
            AciState(alpha_nominal=0.1, gamma=gamma)


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
    with pytest.raises(ConfigError, match="at least one expert"):
        AgAciState.from_gammas(0.1, [])
    for gammas in ([math.inf], [0.01, math.nan]):
        with pytest.raises(ConfigError, match="step sizes must be finite"):
            AgAciState.from_gammas(0.1, gammas)


@pytest.mark.parametrize("gammas", [[0.0], [0.01], [1e-4, 1e-3, 1e-2], [0.3, 0.0, 0.05, 1e-6]])
def test_from_gammas_is_the_constructor_with_uniform_weights(gammas):
    options = dict(eta=2.0, weight_floor=0.01, infinite_cap_factor=3.0)
    bank = AgAciState.from_gammas(0.2, gammas, **options)
    k = len(gammas)
    experts = tuple(AciState(0.2, g) for g in gammas)
    assert bank == AgAciState(0.2, experts, (1.0 / k,) * k, **options)
    assert bank.experts == experts and bank.alphas == (0.2,) * k


@pytest.mark.parametrize("alpha, gammas, options, message", [
    (0.1, [], {}, "expert bank must contain at least one expert"),
    (0.1, [0.01, -0.01], {}, "step sizes must be distinct and non-negative, got (0.01, -0.01)"),
    (0.1, [0.01, 0.01], {}, "step sizes must be distinct and non-negative, got (0.01, 0.01)"),
    (0.1, [0.01, math.inf], {}, "step sizes must be finite, got (0.01, inf)"),
    (0.1, [math.nan], {}, "step sizes must be finite, got (nan,)"),
    (0.0, [0.01], {}, "nominal alpha must lie in (0, 1), got 0.0"),
    (1.0, [0.01, 0.02], {}, "nominal alpha must lie in (0, 1), got 1.0"),
    (math.nan, [0.01], {}, "nominal alpha must lie in (0, 1), got nan"),
    (0.1, [0.01, 0.1], {"weight_floor": 1.0}, "weight floor must lie in [0, 1), got 1.0"),
    (0.1, [0.01], {"infinite_cap_factor": 0.0}, "infinite cap factor must be positive, got 0.0"),
], ids=["empty", "negative", "repeated", "inf", "nan", "alpha-0", "alpha-1", "alpha-nan",
        "floor-1", "cap-0"])
def test_from_gammas_messages(alpha, gammas, options, message):
    with pytest.raises(ConfigError) as raised:
        AgAciState.from_gammas(alpha, gammas, **options)
    assert str(raised.value) == message


@pytest.mark.parametrize("bad, message", [
    ({"eta": math.nan}, "eta must be non-negative, got nan"),
    ({"infinite_cap_factor": math.nan}, "infinite cap factor must be positive, got nan"),
    ({"weights": (math.nan,)}, "weights must be non-negative, got (nan,)"),
], ids=["eta", "cap", "weights"])
def test_bank_rejects_nan_options(bad, message):
    options = {"alpha_nominal": 0.1, "experts": (AciState(0.1, 0.01),), "weights": (1.0,), **bad}
    with pytest.raises(ConfigError) as raised:
        AgAciState(**options)
    assert str(raised.value) == message


def test_a_replaced_bank_is_checked_by_the_constructor():
    bank = AgAciState.from_gammas(0.1, [0.0, 0.01])
    with pytest.raises(ConfigError) as raised:
        replace(bank, weights=(0.5, 0.6))
    assert str(raised.value) == "weights must sum to 1, got 1.1"


def test_length_mismatches_name_both_counts():
    bank = AgAciState.from_gammas(0.1, [0.0, 0.01])
    with pytest.raises(ConfigError) as raised:
        agaci_update(bank, 0.0, 0.0, [1.0])
    assert str(raised.value) == "got 1 half-widths for 2 experts"
    with pytest.raises(ConfigError) as raised:
        AgAciState(0.1, bank.experts, (1.0,))
    assert str(raised.value) == "got 1 weights for 2 experts"


@pytest.mark.parametrize("gammas", [[0.01], [0.0, 0.01, 0.3]])
def test_returned_banks_equal_the_constructor_on_their_own_fields(gammas):
    def rebuilt(bank):
        return AgAciState(
            bank.alpha_nominal, bank.experts, bank.weights, eta=bank.eta,
            weight_floor=bank.weight_floor, infinite_cap_factor=bank.infinite_cap_factor,
        )

    steps = [(0.0, 0.0), (2.0, 0.0), (-1.0, 0.5), (0.3, 0.1)]
    bank = AgAciState.from_gammas(0.1, gammas, eta=2.0)
    buf = ScoreBuffer(4, [0.25, 1.0, 0.5])
    [(*_, calibrated)] = calibrate([bank], ScoreBuffer(4, [0.25, 1.0, 0.5]), *zip(*steps), True)
    for y, y_hat in steps:
        _, per_expert = agaci_step(bank, buf, y_hat)
        bank = agaci_update(bank, y, y_hat, per_expert)
        buf.append(residual_score(y, y_hat))
        assert bank == rebuilt(bank)
        assert type(bank.experts) is type(bank.weights) is tuple
        assert all(type(e) is AciState for e in bank.experts)
    assert calibrated == rebuilt(calibrated) == bank
    assert type(calibrated.experts) is type(calibrated.weights) is tuple


def test_agaci_single_expert_reproduces_aci():
    rng = np.random.default_rng(3)
    buf_a = ScoreBuffer(50, np.abs(rng.normal(size=50)))
    buf_b = ScoreBuffer(50, scores_of(buf_a))
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
        assert agg.half_width == pytest.approx(per_expert[0], abs=1e-12)
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


def test_agaci_zero_eta_freezes_weights():
    rng = np.random.default_rng(6)
    buf = ScoreBuffer(30, np.abs(rng.normal(size=30)))
    bank = AgAciState.from_gammas(0.1, [1e-3, 1e-2], eta=0.0)
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
    assert per_expert[1] == math.inf
    # the infinite band enters the mean capped at max score * cap factor
    assert agg.half_width == pytest.approx(0.5 * per_expert[0] + 0.5 * 8.0)


def test_a_zero_weight_infinite_expert_stays_out_of_the_aggregate():
    buf = ScoreBuffer(4, [1.0, 2.0, 3.0, 4.0])
    bank = AgAciState(
        alpha_nominal=0.1,
        experts=(
            AciState(alpha_nominal=0.1, gamma=0.01, alpha_t=0.5),
            AciState(alpha_nominal=0.1, gamma=1e300, alpha_t=-0.1),
        ),
        weights=(1.0, 0.0),
        weight_floor=0.0,
        infinite_cap_factor=math.inf,
    )
    agg, per_expert = agaci_step(bank, buf, 0.0)
    assert per_expert[1] == math.inf
    # the infinite cap would make the second term 0 * inf, which is NaN
    assert agg.half_width == per_expert[0]


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
