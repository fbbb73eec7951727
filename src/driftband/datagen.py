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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError
from .fileio import atomic_write_text, check_fields, check_keys, format_csv
from .series import TimeSeries

_PROB_TOL = 1e-12

REGIME_CSV_HEADER = ("index", "regime")

# The kind each generator spec key must have; the spec classes check their fields by it.
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


def sample_regimes(transition, initial, T: int, seed) -> np.ndarray:
    """Sample a regime path of a checked length T from a checked chain:
    ``transition[i][j]`` is the chance of moving from regime i to j, ``initial``
    the distribution of the first regime. ``seed`` is anything default_rng accepts."""
    u = np.random.default_rng(seed).random(T).tolist()
    cum_rows = np.cumsum(transition, axis=1).tolist()
    last = len(cum_rows) - 1
    regime = min(bisect_right(np.cumsum(initial).tolist(), u[0]), last)
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
class SwitchingArSpec:
    """Markov-switching AR(1): y_t = c_d + phi_d * y_{t-1} + sigma_d * eps_t.

    ``regimes`` holds one (intercept c, coef phi, noise_std sigma) triple per
    regime. The regime d of each step follows a Markov chain:
    ``transition[i][j]`` is the chance of moving from regime i to regime j,
    and ``initial`` is the distribution of the first regime (None starts in
    regime 0). The first emitted value is ``y0`` itself; the recursion starts
    at the second. The defaults are the stock toy: a slow drifter and a fast
    mean-reverter on a sticky chain that starts in regime 0.
    """

    regimes: tuple[tuple[float, float, float], ...] = ((0.0, 0.9, 0.1), (2.0, -0.5, 0.4))
    transition: tuple[tuple[float, ...], ...] = ((0.99, 0.01), (0.02, 0.98))
    initial: tuple[float, ...] | None = None
    T: int = 3000
    seed: int = 0
    y0: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self, {key: _TOY_SPEC_TYPES[key] for key in ("T", "seed", "y0")})
        for intercept, coef, noise_std in self.regimes:
            if not abs(coef) < 1:
                raise ConfigError(
                    f"regime coefficient must satisfy |coef| < 1 for stationarity, got {coef}"
                )
            if not noise_std >= 0:  # also true for NaN
                raise ConfigError(f"regime noise std must be non-negative, got {noise_std}")
            for name, value in (("intercept", intercept), ("noise_std", noise_std)):
                if not math.isfinite(value):
                    raise ConfigError(f"regime {name} must be finite, got {value}")
        transition = np.asarray(self.transition, dtype=float)
        if transition.ndim != 2 or not 0 < transition.shape[0] == transition.shape[1]:
            raise ConfigError(
                f"transition matrix must be square and non-empty, got shape {transition.shape}"
            )
        k = transition.shape[0]
        # each comparison is written so that NaN fails it
        if not np.all(transition >= 0):
            raise ConfigError("transition probabilities must be non-negative")
        rows = transition.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(rows - 1.0) <= _PROB_TOL))
        if bad.size:
            raise ConfigError(
                f"transition row {int(bad[0])} sums to {rows[bad[0]]!r}, expected 1"
            )
        initial = np.asarray(
            (1.0,) + (0.0,) * (k - 1) if self.initial is None else self.initial, dtype=float
        )
        if initial.shape != (k,):
            raise ConfigError(
                f"initial distribution must have length {k}, got shape {initial.shape}"
            )
        if not (np.all(initial >= 0) and abs(initial.sum() - 1.0) <= _PROB_TOL):
            raise ConfigError("initial distribution must be a probability vector")
        if len(self.regimes) != k:
            raise ConfigError(
                f"got {len(self.regimes)} regime parameter sets for a chain with {k} regimes"
            )
        _check_length(self.T)
        if not math.isfinite(self.y0):
            raise ConfigError(f"starting value must be finite, got {self.y0}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "regimes", tuple(tuple(map(float, r)) for r in self.regimes))
        object.__setattr__(self, "transition", tuple(map(tuple, transition.tolist())))
        object.__setattr__(self, "initial", tuple(initial.tolist()))


def default_toy_spec(T: int = 3000, seed: int = 0) -> SwitchingArSpec:
    """The stock two-regime switching AR: regime 0 is (0, 0.9, 0.1), regime 1
    is (2, -0.5, 0.4); the chain is sticky (0.99 / 0.98 self-transition) and
    starts in regime 0."""
    return SwitchingArSpec(T=T, seed=seed)


def generate_toy(spec: SwitchingArSpec) -> tuple[TimeSeries, np.ndarray]:
    """Simulate the switching AR. Returns (series, regime path).

    The regime path is ground truth for diagnostics only; forecasters
    never see it.
    """
    regime_seed, noise_seed = np.random.SeedSequence(spec.seed).spawn(2)
    path = sample_regimes(spec.transition, spec.initial, spec.T, regime_seed)
    eps = np.random.default_rng(noise_seed).standard_normal(spec.T).tolist()
    regimes = spec.regimes
    y_t = float(spec.y0)
    y = [y_t]
    for d, eps_t in zip(path.tolist()[1:], eps[1:]):
        intercept, coef, noise_std = regimes[d]
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
        check_fields(self, _LORENZ_SPEC_TYPES)
        if not self.dt > 0:
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


def write_regimes_csv(path: str | Path, regimes: np.ndarray) -> None:
    """Sidecar ground-truth regime file: ``index,regime`` from index 0, as a
    generated series starts; 0-based regimes."""
    regimes = np.asarray(regimes, dtype=int)
    atomic_write_text(path, format_csv(REGIME_CSV_HEADER, [range(len(regimes)), regimes]))


def toy_spec_from_json(payload: dict) -> SwitchingArSpec:
    """The toy spec a document describes; a key it leaves out keeps its default."""
    check_keys(payload, _TOY_SPEC_TYPES, "toy generator spec")
    fields = {key: payload[key] for key in ("T", "seed", "y0") if key in payload}
    if "regimes" in payload:
        for i, regime in enumerate(payload["regimes"]):
            check_keys(regime, _REGIME_TYPES, f"regime {i}", required=tuple(_REGIME_TYPES))
        fields["regimes"] = [tuple(map(r.get, _REGIME_TYPES)) for r in payload["regimes"]]
    if "chain" in payload:
        check_keys(payload["chain"], _CHAIN_TYPES, "chain spec", required=("transition",))
        fields.update(payload["chain"])
    return SwitchingArSpec(**fields)


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


def generate(payload: dict) -> tuple[TimeSeries, np.ndarray | None]:
    """The series of a generator spec document and its regime path (None for lorenz)."""
    spec = generator_spec_from_json(payload)
    if isinstance(spec, SwitchingArSpec):
        return generate_toy(spec)
    return generate_lorenz(spec), None
