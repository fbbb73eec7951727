"""Online conformal calibration: split conformal, adaptive alpha, expert aggregation.

All machinery here is model-agnostic. A forecaster supplies point
predictions; this module turns a rolling buffer of past absolute
residuals into prediction intervals, and (for the adaptive variants)
steers the miscoverage level from observed hits and misses. Split
conformal is an adaptive track with gamma = 0, and an adaptive track is
a bank of one expert, so every banded method runs as an ``AgAciState``:
its experts' ACI walks plus an aggregation. ``agaci_step`` and
``agaci_update`` are the one-step API; ``calibrate`` walks a test window
with the same arithmetic for every bank that reads one score buffer.

States are immutable; every update returns a fresh state. That keeps
replay and parallel evaluation trivially safe.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import ConfigError, NumericError

# Absorbs float rounding in (n+1)*level so that levels laying exactly on
# an order statistic (level = k/(n+1)) select that statistic rather than
# the next one up.
_RANK_EPS = 1e-9


def residual_score(y: float, y_hat: float) -> float:
    """Absolute one-step residual, the nonconformity score used throughout."""
    return abs(float(y) - float(y_hat))


class ScoreBuffer:
    """Bounded FIFO of past nonconformity scores, also kept in sorted order.

    Appending beyond capacity drops the oldest score first. In rolling
    calibration the buffer keeps absorbing test-time scores; a frozen
    buffer simply stops receiving appends (the caller's choice, not a
    mode stored here).

    The deque decides eviction order; a sorted list of the same scores
    answers order-statistic queries. An append costs an O(log n) search
    plus an O(n) memmove (one list delete and one insert); reading any
    order statistic or the maximum is O(1).
    """

    def __init__(self, capacity: int, scores: Iterable[float] = ()) -> None:
        if not float(capacity).is_integer():  # also false for NaN and inf
            raise ConfigError(f"buffer capacity must be an integer, got {capacity}")
        capacity = int(capacity)
        if capacity < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {capacity}")
        self._scores: deque[float] = deque(maxlen=capacity)
        self._sorted: list[float] = []
        for s in scores:
            self.append(s)

    def __len__(self) -> int:
        return len(self._scores)

    def append(self, score: float) -> None:
        score = float(score)
        if not 0.0 <= score < math.inf:  # also false for NaN
            raise NumericError(f"scores must be finite and non-negative, got {score}")
        scores, ordered = self._scores, self._sorted
        if len(scores) == scores.maxlen:
            del ordered[bisect_left(ordered, scores[0])]
        scores.append(score)
        insort(ordered, score)

    def max(self) -> float:
        if not self._sorted:
            raise NumericError("empty score buffer has no maximum")
        return self._sorted[-1]


def empirical_quantile(buffer: ScoreBuffer, level: float) -> float:
    """Finite-sample-corrected empirical quantile of the buffered scores.

    Returns the k-th smallest score with k = ceil((n+1) * level). The
    +1 correction makes split conformal intervals valid at finite n.
    Levels at or below 0 land before the first order statistic and give
    a zero-width band; levels requiring k > n are unattainable with n
    scores and give an infinite band. The buffer keeps its scores
    sorted, so this is an O(1) index read.
    """
    ordered = buffer._sorted
    n = len(ordered)
    if n == 0:
        raise NumericError("cannot take a quantile of an empty score buffer")
    # ceil(rank) <= 0 exactly when rank <= 0, and > n exactly when rank > n;
    # comparing first keeps an infinite or NaN rank away from ceil
    rank = (n + 1) * level - _RANK_EPS
    if 0 < rank <= n:
        return ordered[math.ceil(rank) - 1]
    if rank <= 0:
        return 0.0
    if rank > n:
        return math.inf
    raise ConfigError("quantile level must not be NaN")


@dataclass(frozen=True)
class PredictionInterval:
    """A symmetric band [y_hat - half_width, y_hat + half_width]."""

    y_hat: float
    half_width: float
    level: float

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise NumericError(f"half-width must be non-negative, got {self.half_width}")

    @property
    def lower(self) -> float:
        return self.y_hat - self.half_width

    @property
    def upper(self) -> float:
        return self.y_hat + self.half_width

    def covers(self, y: float) -> bool:
        """Boundary values count as covered."""
        return self.lower <= y <= self.upper


@dataclass(frozen=True)
class AciState:
    """State of one adaptive calibration track.

    ``alpha_t`` is the working miscoverage level and is deliberately not
    clamped to (0, 1): excursions outside map to infinite or zero-width
    bands through the quantile rule, which is exactly the feedback that
    pulls the level back in.
    """

    alpha_nominal: float
    gamma: float
    alpha_t: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not 0 < self.alpha_nominal < 1:
            raise ConfigError(f"nominal alpha must lie in (0, 1), got {self.alpha_nominal}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")
        if not math.isfinite(self.gamma):
            raise ConfigError(f"gamma must be finite, got {self.gamma}")
        if self.alpha_t is None:
            object.__setattr__(self, "alpha_t", self.alpha_nominal)
        if math.isnan(self.alpha_t):  # +-inf are the documented excursions
            raise ConfigError("working level alpha_t must not be NaN")


def _next_level(alpha: float, a: float, g: float, hw: float, y: float, center: float) -> float:
    """The ACI rule: the next level of an expert at level ``a``, step size
    ``g``, whose band center +- hw met ``y`` (a hit exactly when it covers y)."""
    return a + g * (alpha - (0.0 if center - hw <= y <= center + hw else 1.0))


def aci_step(state: AciState, buffer: ScoreBuffer, y_hat: float) -> PredictionInterval:
    """Form the band at the current working level (no state change). A lone
    expert's band is never capped: infinite, it is the aggregate."""
    level = 1.0 - state.alpha_t
    return PredictionInterval(float(y_hat), empirical_quantile(buffer, level), level)


def aci_update(state: AciState, y: float, interval: PredictionInterval) -> AciState:
    """Move the working level toward nominal coverage.

    alpha_{t+1} = alpha_t + gamma * (alpha_nominal - err_t), where err_t
    is 1 on a miss and 0 on a hit. Summed over a run this telescopes:
    (alpha_T - alpha_0) / gamma equals the accumulated coverage surplus.
    """
    alpha_t = _next_level(state.alpha_nominal, state.alpha_t, state.gamma,
                          interval.half_width, float(y), float(interval.y_hat))
    return AciState(state.alpha_nominal, state.gamma, alpha_t)


@dataclass(frozen=True)
class AgAciState:
    """A bank of ACI experts with online weights.

    Each expert runs its own step size; the bank aggregates their
    half-widths with exponential weights driven by the pinball loss at
    the nominal coverage level. ``eta == 0`` freezes the weights, turning
    the bank into a static mixture.
    ``alphas`` reads the experts' levels.
    """

    alpha_nominal: float
    experts: tuple[AciState, ...]
    weights: tuple[float, ...]
    eta: float = 1.0
    weight_floor: float = 1e-6
    infinite_cap_factor: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "experts", tuple(self.experts))
        object.__setattr__(self, "weights", tuple(self.weights))
        if any(e.alpha_nominal != self.alpha_nominal for e in self.experts):
            raise ConfigError("all experts must share the bank's nominal alpha")
        if not self.experts:
            raise ConfigError("expert bank must contain at least one expert")
        if len(self.weights) != len(self.experts):
            raise ConfigError(f"got {len(self.weights)} weights for {len(self.experts)} experts")
        if any(not w >= 0 for w in self.weights):  # also true for NaN
            raise ConfigError(f"weights must be non-negative, got {self.weights}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"weights must sum to 1, got {total}")
        if not self.eta >= 0:
            raise ConfigError(f"eta must be non-negative, got {self.eta}")
        if not 0 <= self.weight_floor < 1:
            raise ConfigError(f"weight floor must lie in [0, 1), got {self.weight_floor}")
        if not self.infinite_cap_factor > 0:
            raise ConfigError(
                f"infinite cap factor must be positive, got {self.infinite_cap_factor}"
            )

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(e.alpha_t for e in self.experts)

    @property
    def alpha_t(self) -> float:
        """Effective working level: the weight-average of the expert levels.

        For a single expert this is exactly that expert's level.
        """
        return _effective_alpha(self.weights, self.alphas)

    @classmethod
    def from_gammas(cls, alpha_nominal: float, gammas: Sequence[float], **options) -> "AgAciState":
        """A bank of one expert per step size, all at the nominal level, with
        uniform weights; ``options`` (``eta``, ``weight_floor``,
        ``infinite_cap_factor``) go to the constructor."""
        gammas = tuple(float(g) for g in gammas)
        if any(g < 0 for g in gammas) or len(set(gammas)) != len(gammas):
            raise ConfigError(f"step sizes must be distinct and non-negative, got {gammas}")
        if not all(map(math.isfinite, gammas)):
            raise ConfigError(f"step sizes must be finite, got {gammas}")
        return cls(alpha_nominal, [AciState(alpha_nominal, g) for g in gammas],
                   [1.0 / len(gammas) for _ in gammas], **options)


def _effective_alpha(weights: Sequence[float], alphas: Sequence[float]) -> float:
    return math.fsum([w * a for w, a in zip(weights, alphas)])


def _aggregate(
    weights: Sequence[float], widths: Sequence[float], peak: float, cap_factor: float
) -> float:
    """The bank's half-width from its experts' ``widths``, an infinite one capped
    at ``peak`` (the buffer's largest score) * ``cap_factor``; inf past the float range."""
    if min(widths) == math.inf:
        return math.inf
    if math.inf in widths:
        cap = peak * cap_factor
        widths = [min(hw, cap) for hw in widths]
    try:  # a zero weight leaves its expert out, as 0 * inf would be NaN
        return math.fsum([w * hw for w, hw in zip(weights, widths) if w])
    except OverflowError:  # the terms are non-negative, so the exact sum is past the largest float
        return math.inf


def _reweigh(
    bank: AgAciState, weights: Sequence[float], widths: Sequence[float], score: float
) -> Sequence[float]:
    """The weights after ``weights`` by ``agaci_update``'s rule, for half-widths
    ``widths`` and ``score``, or the mixed uniform when every factor is 0; kept
    for ``eta`` 0 and for a lone expert, whose weight the mix leaves at 1."""
    k, floor, eta = len(weights), bank.weight_floor, bank.eta
    if k == 1 or not eta > 0:
        return weights
    tau, keep, share = 1.0 - bank.alpha_nominal, 1.0 - floor, floor / k
    raw = []
    for w, hw in zip(weights, widths):
        diff = score - hw
        loss = tau * diff if diff >= 0 else (tau - 1.0) * diff
        raw.append(0.0 if hw == math.inf else w * math.exp(-eta * loss))
    total = math.fsum(raw)
    if total > 0:
        return [keep * (r / total) + share for r in raw]
    return [keep * (1.0 / k) + share] * k


def _bank_with(
    state: AgAciState, alphas: Sequence[float], weights: Sequence[float]
) -> AgAciState:
    """The bank with new expert levels and weights, checked by its constructor."""
    experts = [AciState(e.alpha_nominal, e.gamma, a) for e, a in zip(state.experts, alphas)]
    return AgAciState(
        state.alpha_nominal, experts, weights, state.eta, state.weight_floor,
        state.infinite_cap_factor,
    )


def agaci_step(
    state: AgAciState, buffer: ScoreBuffer, y_hat: float
) -> tuple[PredictionInterval, list[float]]:
    """Aggregate band plus the experts' half-widths it was built from, in
    expert order.

    Each expert forms its own band at its working level, and the bank
    weight-averages their half-widths. An infinite expert band cannot
    enter a weighted mean directly, so it is capped at (largest
    buffered score) * cap factor, a value that still dominates every
    attainable finite band. If every expert is infinite the aggregate
    stays infinite; nothing finite is known. The reported level is the
    weight-average of the expert levels. Each expert's band is one index
    read of the sorted buffer.
    """
    weights, alphas = state.weights, state.alphas
    widths = [empirical_quantile(buffer, 1.0 - a) for a in alphas]
    half_width = _aggregate(weights, widths, buffer.max(), state.infinite_cap_factor)
    level = math.fsum([w * (1.0 - a) for w, a in zip(weights, alphas)])
    return PredictionInterval(float(y_hat), half_width, level), widths


def agaci_update(
    state: AgAciState, y: float, y_hat: float, half_widths: Sequence[float]
) -> AgAciState:
    """Advance every expert against its own band and reweigh the bank.

    Expert k's band is y_hat +- half_widths[k], as ``agaci_step``
    returned them for this ``y_hat``. Weights move by exponential factors
    exp(-eta * pinball loss) of each expert's half-width against the
    realized score, then mix with the uniform distribution at the floor
    rate so no expert's weight can vanish: w' = (1 - floor) * normalized
    + floor / K. An infinite band has infinite loss and a zero factor. A
    lone expert's weight comes out of that as exactly 1.0 ((1 - floor) +
    floor rounds to 1), so a one-expert bank skips the reweighing.
    """
    if len(half_widths) != len(state.experts):
        raise ConfigError(f"got {len(half_widths)} half-widths for {len(state.experts)} experts")
    y, center, alpha = float(y), float(y_hat), state.alpha_nominal
    alphas = [_next_level(alpha, e.alpha_t, e.gamma, hw, y, center)
              for e, hw in zip(state.experts, half_widths)]
    weights = _reweigh(state, state.weights, half_widths, abs(y - center))
    return _bank_with(state, alphas, weights)


_BLOCK = 512  # steps per aggregation, so that the experts' columns stay short on any window


def calibrate(
    banks: Sequence[AgAciState], buffer: ScoreBuffer, z_run: Sequence[float],
    y_hat_run: Sequence[float], rolling: bool,
) -> list[tuple[list[float], list[float], AgAciState]]:
    """Walk a test window, given as Python floats, with banks that share one
    score buffer. A bank is its experts' ACI walks plus an aggregation: per
    step every expert of every bank reads its band and takes its next level
    (``aci_step``, ``aci_update``), then a ``rolling`` buffer appends the
    step's score; each bank then aggregates its experts' columns (``agaci_step``,
    ``agaci_update``). Returns, per bank, each step's aggregate half-width and
    effective level ``alpha_t``, and the bank after the last step."""
    quantile, append, peak = empirical_quantile, buffer.append, buffer.max
    # per expert: level, step size, nominal level, and the block's level and width columns
    walks = [[[e.alpha_t, e.gamma, e.alpha_nominal] for e in b.experts] for b in banks]
    experts = [walk for bank in walks for walk in bank]
    out = [([], [], b.weights) for b in banks]  # per bank: half-widths, levels, weights
    for start in range(0, len(z_run), _BLOCK):
        ys, fs, peaks = z_run[start : start + _BLOCK], y_hat_run[start : start + _BLOCK], []
        for walk in experts:
            walk[3:] = [], []
        for y, f in zip(ys, fs):
            for walk in experts:
                a, g, alpha, levels, widths = walk
                hw = quantile(buffer, 1.0 - a)
                levels.append(a)
                widths.append(hw)
                walk[0] = _next_level(alpha, a, g, hw, y, f)
            peaks.append(peak())  # the buffer's largest score, for the caps
            if rolling:
                append(abs(y - f))
        for i, (b, bank) in enumerate(zip(banks, walks)):
            half_widths, levels, weights = out[i]
            if len(bank) == 1:
                [(*_, column, widths)], [w] = bank, weights
                # the fsum of one term is that term, with -0.0 read as 0.0: w * x + 0.0
                half_widths += [w * hw + 0.0 for hw in widths]
                levels += [w * a + 0.0 for a in column]
                continue
            cap_factor = b.infinite_cap_factor
            columns = zip(*[walk[3] for walk in bank]), zip(*[walk[4] for walk in bank])
            for y, f, top, step_alphas, step_widths in zip(ys, fs, peaks, *columns):
                levels.append(_effective_alpha(weights, step_alphas))
                half_widths.append(_aggregate(weights, step_widths, top, cap_factor))
                weights = _reweigh(b, weights, step_widths, abs(y - f))
            out[i] = half_widths, levels, weights
    return [(half_widths, levels, _bank_with(b, [walk[0] for walk in bank], weights))
            for b, bank, (half_widths, levels, weights) in zip(banks, walks, out)]
