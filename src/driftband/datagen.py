"""Reproducible synthetic generators with regime structure.

Two families: a switching autoregression driven by a hidden Markov
regime chain, and the Lorenz-63 system observed through its x
coordinate. Both are pure functions of (spec, seed) and bit-identical
across reruns. The regime chain and the observation noise draw from
independent substreams of the seed, so changing a noise scale never
moves the regime path.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError
from .fileio import atomic_write_text, check_integer_fields, check_keys, format_csv
from .series import TimeSeries

_PROB_TOL = 1e-12

REGIME_CSV_HEADER = ("index", "regime")

# The JSON type each key of a generator spec must have.
_TOY_SPEC_TYPES = {
    "kind": "a string", "regimes": "a list of objects", "chain": "an object",
    "T": "an integer", "seed": "an integer", "y0": "a number",
}
_REGIME_TYPES = {"intercept": "a number", "coef": "a number", "noise_std": "a number"}
_CHAIN_TYPES = {
    "transition": "a list of equal-length lists of numbers", "initial": "a list of numbers",
}
_LORENZ_SPEC_TYPES = {
    "kind": "a string", "sigma": "a number", "rho": "a number", "beta": "a number",
    "dt": "a number", "x0": "a number", "y0": "a number", "z0": "a number",
    "T": "an integer", "subsample": "an integer", "obs_noise": "a number", "seed": "an integer",
}


@dataclass(frozen=True, eq=False)
class MarkovChainSpec:
    """A finite Markov chain over regimes 0..K-1.

    ``transition[i, j]`` is the probability of moving from regime i to
    regime j; ``initial`` is the distribution of the first regime.
    """

    transition: np.ndarray
    initial: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkovChainSpec):
            return NotImplemented
        return np.array_equal(self.transition, other.transition) and np.array_equal(
            self.initial, other.initial
        )

    def __post_init__(self) -> None:
        transition = np.asarray(self.transition, dtype=float)
        if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
            raise ConfigError(f"transition matrix must be square, got shape {transition.shape}")
        k = transition.shape[0]
        if k < 1:
            raise ConfigError("chain needs at least one regime")
        # each comparison is written so that NaN fails it
        if not np.all(transition >= 0):
            raise ConfigError("transition probabilities must be non-negative")
        rows = transition.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(rows - 1.0) <= _PROB_TOL))
        if bad.size:
            raise ConfigError(
                f"transition row {int(bad[0])} sums to {rows[bad[0]]!r}, expected 1"
            )
        initial = np.asarray(self.initial, dtype=float)
        if initial.shape != (k,):
            raise ConfigError(
                f"initial distribution must have length {k}, got shape {initial.shape}"
            )
        if not (np.all(initial >= 0) and abs(initial.sum() - 1.0) <= _PROB_TOL):
            raise ConfigError("initial distribution must be a probability vector")
        transition.setflags(write=False)
        initial.setflags(write=False)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "initial", initial)

    @property
    def n_regimes(self) -> int:
        return int(self.transition.shape[0])

    @classmethod
    def start_in(cls, transition, regime: int = 0) -> "MarkovChainSpec":
        """Chain that starts deterministically in one regime."""
        transition = np.asarray(transition, dtype=float)
        initial = (np.arange(len(transition)) == regime).astype(float)
        return cls(transition=transition, initial=initial)


def sample_regimes(spec: MarkovChainSpec, T: int, seed) -> np.ndarray:
    """Sample a regime path of length T. ``seed`` is anything default_rng accepts."""
    if T < 1:
        raise ConfigError(f"regime path length must be >= 1, got {T}")
    u = np.random.default_rng(seed).random(T).tolist()
    cum_rows = np.cumsum(spec.transition, axis=1).tolist()
    last = spec.n_regimes - 1
    regime = min(bisect_right(np.cumsum(spec.initial).tolist(), u[0]), last)
    path = [regime]
    for u_t in u[1:]:
        regime = min(bisect_right(cum_rows[regime], u_t), last)
        path.append(regime)
    return np.array(path, dtype=int)


def _check_length(T: int) -> None:
    """A series length of at least 1 whose float64 output can be addressed."""
    if T < 1:
        raise ConfigError(f"series length must be >= 1, got {T}")
    if T * 8 > sys.maxsize:
        raise ConfigError(f"series length T = {T} is too large to allocate")


@dataclass(frozen=True)
class ArRegime:
    """AR(1) parameters of one regime: y' = intercept + coef * y + noise_std * eps."""

    intercept: float
    coef: float
    noise_std: float

    def __post_init__(self) -> None:
        if not abs(self.coef) < 1:
            raise ConfigError(
                f"regime coefficient must satisfy |coef| < 1 for stationarity, got {self.coef}"
            )
        if not self.noise_std >= 0:  # also true for NaN
            raise ConfigError(f"regime noise std must be non-negative, got {self.noise_std}")
        for name in ("intercept", "noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"regime {name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class SwitchingArSpec:
    """Markov-switching AR(1): y_t = c_d + phi_d * y_{t-1} + sigma_d * eps_t.

    The first emitted value is ``y0`` itself; the recursion starts at the
    second. The regime at each step is drawn from ``chain``.
    """

    regimes: tuple[ArRegime, ...]
    chain: MarkovChainSpec
    T: int = 3000
    seed: int = 0
    y0: float = 0.0

    def __post_init__(self) -> None:
        if len(self.regimes) != self.chain.n_regimes:
            raise ConfigError(
                f"got {len(self.regimes)} regime parameter sets for a chain with "
                f"{self.chain.n_regimes} regimes"
            )
        _check_length(self.T)
        if not math.isfinite(self.y0):
            raise ConfigError(f"starting value must be finite, got {self.y0}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        check_integer_fields(self, ("T", "seed"))


def default_toy_spec(T: int = 3000, seed: int = 0) -> SwitchingArSpec:
    """The stock two-regime switching AR: a slow drifter and a fast mean-reverter.

    Regime 0 is (0, 0.9, 0.1), regime 1 is (2, -0.5, 0.4); the chain is
    sticky (0.99 / 0.98 self-transition) and starts in regime 0.
    """
    chain = MarkovChainSpec.start_in([[0.99, 0.01], [0.02, 0.98]], regime=0)
    return SwitchingArSpec(
        regimes=(
            ArRegime(intercept=0.0, coef=0.9, noise_std=0.1),
            ArRegime(intercept=2.0, coef=-0.5, noise_std=0.4),
        ),
        chain=chain,
        T=T,
        seed=seed,
    )


def generate_toy(spec: SwitchingArSpec) -> tuple[TimeSeries, np.ndarray]:
    """Simulate the switching AR. Returns (series, regime path).

    The regime path is ground truth for diagnostics only; forecasters
    never see it.
    """
    regime_seed, noise_seed = np.random.SeedSequence(spec.seed).spawn(2)
    path = sample_regimes(spec.chain, spec.T, regime_seed)
    eps = np.random.default_rng(noise_seed).standard_normal(spec.T).tolist()
    params = [(float(r.intercept), float(r.coef), float(r.noise_std)) for r in spec.regimes]
    y_t = float(spec.y0)
    y = [y_t]
    for d, eps_t in zip(path.tolist()[1:], eps[1:]):
        intercept, coef, noise_std = params[d]
        y_t = intercept + coef * y_t + noise_std * eps_t
        y.append(y_t)
    return TimeSeries(values=np.array(y)), path


@dataclass(frozen=True)
class LorenzSpec:
    """Lorenz-63 observed through x with optional Gaussian measurement noise.

    Defaults put the system in the classical chaotic regime; the slow
    alternation between the two attractor lobes plays the role of regime
    switching in the observed coordinate.
    """

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    dt: float = 0.01
    x0: float = 1.0
    y0: float = 1.0
    z0: float = 1.0
    T: int = 10000
    subsample: int = 5
    obs_noise: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.dt > 0:  # also true for NaN
            raise ConfigError(f"integrator step must be positive, got {self.dt}")
        if self.subsample < 1:
            raise ConfigError(f"subsample must be >= 1, got {self.subsample}")
        _check_length(self.T)
        if not self.obs_noise >= 0:
            raise ConfigError(f"observation noise must be non-negative, got {self.obs_noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("sigma", "rho", "beta", "x0", "y0", "z0", "obs_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        check_integer_fields(self, ("T", "subsample", "seed"))


def lorenz_derivative(state, sigma: float, rho: float, beta: float) -> np.ndarray:
    """Right-hand side of the Lorenz-63 system at a state (x, y, z)."""
    x, y, z = state
    return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])


def rk4_step(f, state, dt: float):
    """One classic fourth-order Runge-Kutta step of y' = f(y)."""
    k1 = f(state)
    k2 = f(state + 0.5 * dt * k1)
    k3 = f(state + 0.5 * dt * k2)
    k4 = f(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def generate_lorenz(spec: LorenzSpec) -> TimeSeries:
    """Integrate Lorenz-63 and emit the x coordinate every ``subsample`` steps.

    The loop is ``rk4_step`` of ``lorenz_derivative`` written out on
    Python floats in the same operation order, so its output is
    bit-identical to stepping the array form.
    """
    sigma, rho, beta, dt = spec.sigma, spec.rho, spec.beta, spec.dt
    half, sixth = 0.5 * dt, dt / 6.0
    x, y, z = float(spec.x0), float(spec.y0), float(spec.z0)
    out = []
    for i in range(spec.T):
        for _ in range(spec.subsample):
            k1x, k1y, k1z = sigma * (y - x), x * (rho - z) - y, x * y - beta * z
            x2, y2, z2 = x + half * k1x, y + half * k1y, z + half * k1z
            k2x, k2y, k2z = sigma * (y2 - x2), x2 * (rho - z2) - y2, x2 * y2 - beta * z2
            x3, y3, z3 = x + half * k2x, y + half * k2y, z + half * k2z
            k3x, k3y, k3z = sigma * (y3 - x3), x3 * (rho - z3) - y3, x3 * y3 - beta * z3
            x4, y4, z4 = x + dt * k3x, y + dt * k3y, z + dt * k3z
            k4x, k4y, k4z = sigma * (y4 - x4), x4 * (rho - z4) - y4, x4 * y4 - beta * z4
            x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        # float overflow gives inf or nan without raising
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise NumericError(
                f"integration blew up at step {(i + 1) * spec.subsample} "
                f"(dt = {spec.dt} is too coarse)"
            )
        out.append(x)
    out = np.array(out)
    if spec.obs_noise > 0:
        noise = np.random.default_rng(spec.seed).standard_normal(spec.T)
        with np.errstate(over="ignore"):  # TimeSeries names the first overflowed value
            out = out + spec.obs_noise * noise
    return TimeSeries(values=out)


def write_regimes_csv(path: str | Path, regimes: np.ndarray, start_index: int = 0) -> None:
    """Sidecar ground-truth regime file: ``index,regime``, 0-based regimes."""
    regimes = np.asarray(regimes, dtype=int)
    index = range(start_index, start_index + len(regimes))
    atomic_write_text(path, format_csv(REGIME_CSV_HEADER, [index, regimes]))


def toy_spec_from_json(payload: dict) -> SwitchingArSpec:
    """The default toy spec with the fields a spec document sets replaced."""
    check_keys(payload, _TOY_SPEC_TYPES, "toy generator spec")
    fields = {key: payload[key] for key in ("T", "seed", "y0") if key in payload}
    if "regimes" in payload:
        for i, regime in enumerate(payload["regimes"]):
            check_keys(regime, _REGIME_TYPES, f"regime {i}", required=tuple(_REGIME_TYPES))
        fields["regimes"] = tuple(ArRegime(**regime) for regime in payload["regimes"])
    if "chain" in payload:
        chain = payload["chain"]
        check_keys(chain, _CHAIN_TYPES, "chain spec", required=("transition",))
        transition = np.asarray(chain["transition"], dtype=float)
        if "initial" in chain:
            initial = np.asarray(chain["initial"], dtype=float)
            fields["chain"] = MarkovChainSpec(transition=transition, initial=initial)
        else:
            fields["chain"] = MarkovChainSpec.start_in(transition, regime=0)
    return replace(default_toy_spec(), **fields)


def generator_spec_from_json(payload: dict) -> SwitchingArSpec | LorenzSpec:
    """Parse a generator spec document; ``kind`` picks the family."""
    if not isinstance(payload, dict):
        raise ConfigError("generator spec must be a JSON object")
    kind = payload.get("kind")
    if kind == "toy":
        return toy_spec_from_json(payload)
    if kind == "lorenz":
        check_keys(payload, _LORENZ_SPEC_TYPES, "lorenz generator spec")
        return LorenzSpec(**{key: value for key, value in payload.items() if key != "kind"})
    raise ConfigError(f"generator spec 'kind' must be 'toy' or 'lorenz', got {kind!r}")
