"""Online conformal calibration: split conformal, adaptive alpha, expert aggregation.

All machinery here is model-agnostic. A forecaster supplies point
predictions; this module turns a rolling buffer of past absolute
residuals into prediction intervals, and (for the adaptive variants)
steers the miscoverage level from observed hits and misses. Split
conformal is an adaptive track with gamma = 0, and an adaptive track is
a bank of one expert, so every banded method runs as an ``AgAciState``.

States are immutable; every update returns a fresh state. That keeps
replay and parallel evaluation trivially safe.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError

# Absorbs float rounding in (n+1)*level so that levels laying exactly on
# an order statistic (level = k/(n+1)) select that statistic rather than
# the next one up.
_RANK_EPS = 1e-9


def residual_score(y: float, y_hat: float) -> float:
    """Absolute one-step residual, the nonconformity score used throughout."""
    return abs(float(y) - float(y_hat))


class ScoreBuffer:
    """Bounded FIFO of past nonconformity scores.

    Appending beyond capacity drops the oldest score first. In rolling
    calibration the buffer keeps absorbing test-time scores; a frozen
    buffer simply stops receiving appends (the caller's choice, not a
    mode stored here).
    """

    def __init__(self, capacity: int, scores: Iterable[float] = ()) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {capacity}")
        self._scores: deque[float] = deque(maxlen=capacity)
        self._cache: np.ndarray | None = None
        for s in scores:
            self.append(s)

    @property
    def capacity(self) -> int:
        return self._scores.maxlen  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._scores)

    def append(self, score: float) -> None:
        score = float(score)
        if not math.isfinite(score) or score < 0:
            raise NumericError(f"scores must be finite and non-negative, got {score}")
        self._scores.append(score)
        self._cache = None

    def values(self) -> np.ndarray:
        if self._cache is None:
            self._cache = np.asarray(self._scores, dtype=float)
            self._cache.setflags(write=False)
        return self._cache

    def max(self) -> float:
        if not self._scores:
            raise NumericError("empty score buffer has no maximum")
        return max(self._scores)


def empirical_quantile(buffer: ScoreBuffer, level: float) -> float:
    """Finite-sample-corrected empirical quantile of the buffered scores.

    Returns the k-th smallest score with k = ceil((n+1) * level). The
    +1 correction makes split conformal intervals valid at finite n.
    Levels at or below 0 land before the first order statistic and give
    a zero-width band; levels requiring k > n are unattainable with n
    scores and give an infinite band.
    """
    n = len(buffer)
    if n == 0:
        raise NumericError("cannot take a quantile of an empty score buffer")
    k = math.ceil((n + 1) * level - _RANK_EPS)
    if k <= 0:
        return 0.0
    if k > n:
        return math.inf
    arr = buffer.values()
    return float(np.partition(arr, k - 1)[k - 1])


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

    @property
    def width(self) -> float:
        return 2.0 * self.half_width

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
        if self.alpha_t is None:
            object.__setattr__(self, "alpha_t", self.alpha_nominal)


def _evolve(state, **changes):
    """A copy of a frozen state with some fields changed.

    Unlike ``dataclasses.replace`` this skips ``__post_init__``: the
    updates below preserve every invariant it checks, and re-validating
    a bank on each step would cost more than the step itself.
    """
    new = object.__new__(type(state))
    new.__dict__.update(vars(state), **changes)
    return new


def aci_step(state: AciState, buffer: ScoreBuffer, y_hat: float) -> PredictionInterval:
    """Form the band at the current working level (no state change)."""
    q = empirical_quantile(buffer, 1.0 - state.alpha_t)
    return PredictionInterval(y_hat=float(y_hat), half_width=q, level=1.0 - state.alpha_t)


def aci_update(state: AciState, y: float, interval: PredictionInterval) -> AciState:
    """Move the working level toward nominal coverage.

    alpha_{t+1} = alpha_t + gamma * (alpha_nominal - err_t), where err_t
    is 1 on a miss and 0 on a hit. Summed over a run this telescopes:
    (alpha_T - alpha_0) / gamma equals the accumulated coverage surplus.
    """
    err = 0.0 if interval.covers(float(y)) else 1.0
    return _evolve(state, alpha_t=state.alpha_t + state.gamma * (state.alpha_nominal - err))


def pinball_loss(tau: float, target: float, estimate: float) -> float:
    """Quantile (pinball) loss of an estimate against a realized value."""
    if not 0 < tau < 1:
        raise ConfigError(f"pinball tau must lie in (0, 1), got {tau}")
    if math.isinf(estimate):
        return math.inf
    diff = float(target) - float(estimate)
    return tau * diff if diff >= 0 else (tau - 1.0) * diff


@dataclass(frozen=True)
class AgAciState:
    """A bank of adaptive tracks with online weights.

    Each expert runs its own step size; the bank aggregates their
    half-widths with exponential weights driven by the pinball loss at
    the nominal coverage level. ``mode="fixed"`` (or ``eta == 0``)
    freezes the weights, turning the bank into a static mixture.
    """

    alpha_nominal: float
    experts: tuple[AciState, ...]
    weights: tuple[float, ...]
    eta: float = 1.0
    weight_floor: float = 1e-6
    mode: str = "ewa"
    infinite_cap_factor: float = 2.0

    def __post_init__(self) -> None:
        if not self.experts:
            raise ConfigError("expert bank must contain at least one expert")
        if len(self.weights) != len(self.experts):
            raise ConfigError(
                f"got {len(self.weights)} weights for {len(self.experts)} experts"
            )
        if any(w < 0 for w in self.weights):
            raise ConfigError(f"weights must be non-negative, got {self.weights}")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"weights must sum to 1, got {total}")
        if self.eta < 0:
            raise ConfigError(f"eta must be non-negative, got {self.eta}")
        if not 0 <= self.weight_floor < 1:
            raise ConfigError(f"weight floor must lie in [0, 1), got {self.weight_floor}")
        if self.mode not in ("ewa", "fixed"):
            raise ConfigError(f"aggregation mode must be 'ewa' or 'fixed', got {self.mode!r}")
        if self.infinite_cap_factor <= 0:
            raise ConfigError(
                f"infinite cap factor must be positive, got {self.infinite_cap_factor}"
            )
        if any(e.alpha_nominal != self.alpha_nominal for e in self.experts):
            raise ConfigError("all experts must share the bank's nominal alpha")

    @property
    def alpha_t(self) -> float:
        """Effective working level: the weight-average of the expert levels.

        For a single expert this is exactly that expert's level.
        """
        return math.fsum(w * e.alpha_t for w, e in zip(self.weights, self.experts))

    @classmethod
    def from_gammas(
        cls,
        alpha_nominal: float,
        gammas: Sequence[float],
        eta: float = 1.0,
        weight_floor: float = 1e-6,
        mode: str = "ewa",
        infinite_cap_factor: float = 2.0,
    ) -> "AgAciState":
        gammas = tuple(float(g) for g in gammas)
        if len(set(gammas)) != len(gammas):
            raise ConfigError(f"step sizes must be distinct, got {gammas}")
        experts = tuple(AciState(alpha_nominal=alpha_nominal, gamma=g) for g in gammas)
        k = len(experts)
        return cls(
            alpha_nominal=alpha_nominal,
            experts=experts,
            weights=(1.0 / k,) * k,
            eta=eta,
            weight_floor=weight_floor,
            mode=mode,
            infinite_cap_factor=infinite_cap_factor,
        )


def agaci_step(
    state: AgAciState, buffer: ScoreBuffer, y_hat: float
) -> tuple[PredictionInterval, tuple[PredictionInterval, ...]]:
    """Aggregate band plus the per-expert bands it was built from.

    Each expert forms its own band at its working level, and the bank
    weight-averages their half-widths. An infinite expert band cannot
    enter a weighted mean directly, so it is capped at (largest
    buffered score) * cap factor, a value that still dominates every
    attainable finite band. If every expert is infinite the aggregate
    stays infinite; nothing finite is known. The reported level is the
    weight-average of the expert levels.
    """
    per_expert = tuple(aci_step(e, buffer, y_hat) for e in state.experts)
    widths = [iv.half_width for iv in per_expert]
    half_width = math.inf
    if not all(math.isinf(w) for w in widths):
        if any(math.isinf(w) for w in widths):
            cap = buffer.max() * state.infinite_cap_factor
            widths = [min(w, cap) for w in widths]
        half_width = math.fsum(w * hw for w, hw in zip(state.weights, widths))
    level = math.fsum(w * iv.level for w, iv in zip(state.weights, per_expert))
    return PredictionInterval(y_hat=float(y_hat), half_width=half_width, level=level), per_expert


def agaci_update(
    state: AgAciState,
    y: float,
    y_hat: float,
    per_expert: Sequence[PredictionInterval],
) -> AgAciState:
    """Advance every expert against its own band and reweigh the bank.

    Weights move by exponential factors exp(-eta * pinball loss) of each
    expert's half-width against the realized score, then mix with the
    uniform distribution at the floor rate so no expert's weight can
    vanish: w' = (1 - floor) * normalized + floor / K. An infinite band
    has infinite loss and a zero factor. A lone expert's weight comes
    out of that as exactly 1.0 ((1 - floor) + floor rounds to 1), so a
    one-expert bank skips the reweighing.
    """
    if len(per_expert) != len(state.experts):
        raise ConfigError(
            f"got {len(per_expert)} intervals for {len(state.experts)} experts"
        )
    experts = tuple(
        aci_update(e, float(y), iv) for e, iv in zip(state.experts, per_expert)
    )
    weights = state.weights
    if state.mode == "ewa" and state.eta > 0 and len(weights) > 1:
        score = residual_score(y, y_hat)
        tau = 1.0 - state.alpha_nominal
        factors = []
        for iv in per_expert:
            loss = pinball_loss(tau, score, iv.half_width)
            factors.append(0.0 if math.isinf(loss) else math.exp(-state.eta * loss))
        raw = [w * f for w, f in zip(weights, factors)]
        total = math.fsum(raw)
        k = len(raw)
        if total > 0:
            base = [r / total for r in raw]
        else:
            base = [1.0 / k] * k
        floor = state.weight_floor
        weights = tuple((1.0 - floor) * b + floor / k for b in base)
    return _evolve(state, experts=experts, weights=weights)
