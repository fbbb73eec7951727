import dataclasses
import hashlib
import math

import numpy as np
import pytest

from driftband.datagen import (
    LorenzSpec,
    SwitchingArSpec,
    default_toy_spec,
    generate_lorenz,
    generate_toy,
    generator_spec_from_json,
    lorenz_derivative,
    rk4_step,
    sample_regimes,
    write_regimes_csv,
)
from driftband.errors import ConfigError, NumericError


def test_chain_validation():
    with pytest.raises(ConfigError, match="square"):
        SwitchingArSpec(transition=[[0.5, 0.5]], initial=[1.0])
    with pytest.raises(ConfigError, match="sums to"):
        SwitchingArSpec(transition=[[0.5, 0.4], [0.5, 0.5]], initial=[1.0, 0.0])
    with pytest.raises(ConfigError, match="non-negative"):
        SwitchingArSpec(transition=[[1.1, -0.1], [0.5, 0.5]], initial=[1.0, 0.0])
    with pytest.raises(ConfigError, match="probability vector"):
        SwitchingArSpec(transition=[[1.0, 0.0], [0.0, 1.0]], initial=[0.7, 0.7])
    # a chain of no regimes is named as such, whatever its initial distribution
    for initial in (None, ()):
        with pytest.raises(ConfigError, match=r"^transition matrix must be square and "
                                              r"non-empty, got shape \(0, 0\)$"):
            SwitchingArSpec(transition=np.zeros((0, 0)), initial=initial)
    # NaN fails every comparison, so each check is written to reject it
    for transition in ([[math.nan, 1.0], [0.5, 0.5]], [[1.0, 0.0], [math.nan, math.nan]]):
        with pytest.raises(ConfigError, match="^transition probabilities must be non-negative$"):
            SwitchingArSpec(transition=transition, initial=[1.0, 0.0])
    for initial in ([math.nan, 1.0], [math.nan, math.nan]):
        with pytest.raises(ConfigError, match="^initial distribution must be a probability"):
            SwitchingArSpec(transition=[[0.5, 0.5], [0.5, 0.5]], initial=initial)


def test_a_spec_holds_plain_float_tuples_and_compares_by_value():
    spec = SwitchingArSpec(regimes=[[0, 0.5, 1]], transition=np.ones((1, 1)), initial=np.ones(1))
    assert spec.regimes == ((0.0, 0.5, 1.0),) and spec.transition == ((1.0,),)
    assert all(type(x) is float for x in (*spec.regimes[0], *spec.transition[0], *spec.initial))
    # a missing initial distribution starts the chain in regime 0
    assert default_toy_spec().initial == (1.0, 0.0)
    assert default_toy_spec() == SwitchingArSpec(initial=(1.0, 0.0))
    assert hash(default_toy_spec(seed=4)) == hash(SwitchingArSpec(seed=4))


def test_identity_chain_is_absorbing():
    path = sample_regimes(np.eye(3), [0.0, 1.0, 0.0], 100, seed=0)
    assert np.all(path == 1)


def test_initial_distribution_is_honored():
    spec = SwitchingArSpec(transition=[[0.5, 0.5], [0.5, 0.5]], initial=[0.0, 1.0])
    for seed in range(20):
        assert sample_regimes(spec.transition, spec.initial, 5, seed=seed)[0] == 1


def test_transition_frequencies_match_matrix():
    p = np.array([[0.99, 0.01], [0.02, 0.98]])
    path = sample_regimes(p, [1.0, 0.0], 100_000, seed=42)
    for i in range(2):
        rows = path[:-1] == i
        assert rows.sum() > 0
        freq = np.mean(path[1:][rows] == 1)
        assert abs(freq - p[i, 1]) < 0.005


def test_sample_regimes_deterministic_under_seed():
    chain = default_toy_spec().transition, default_toy_spec().initial
    a = sample_regimes(*chain, 500, seed=3)
    b = sample_regimes(*chain, 500, seed=3)
    c = sample_regimes(*chain, 500, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def one_regime(intercept, coef, noise_std):
    return SwitchingArSpec(regimes=((intercept, coef, noise_std),), transition=((1.0,),))


def test_regime_params_validation():
    with pytest.raises(ConfigError, match="stationarity"):
        one_regime(intercept=0.0, coef=1.0, noise_std=0.1)
    with pytest.raises(ConfigError, match="non-negative"):
        one_regime(intercept=0.0, coef=0.5, noise_std=-0.1)
    with pytest.raises(ConfigError, match=r"^regime noise std must be non-negative, got nan$"):
        one_regime(intercept=0.0, coef=0.5, noise_std=math.nan)
    # a non-finite scale can only make a non-finite series
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match=f"^regime intercept must be finite, got {bad}$"):
            one_regime(intercept=bad, coef=0.5, noise_std=0.1)
    with pytest.raises(ConfigError, match="^regime noise_std must be finite, got inf$"):
        one_regime(intercept=0.0, coef=0.5, noise_std=math.inf)


def test_switching_spec_validation():
    with pytest.raises(ConfigError, match="regime parameter sets"):
        SwitchingArSpec(regimes=((0.0, 0.5, 0.1),))
    # lengths whose float64 output cannot be addressed, rejected before allocation
    for T in (10**20, 2**62):
        with pytest.raises(ConfigError, match=f"T = {T} is too large"):
            default_toy_spec(T=T)


@pytest.mark.parametrize("make", [default_toy_spec, LorenzSpec], ids=["toy", "lorenz"])
@pytest.mark.parametrize("key, value, message", [
    ("T", math.nan, "T must be an integer, got nan"),
    ("T", 2.5, "T must be an integer, got 2.5"),
    ("T", 100.0, "T must be an integer, got 100.0"),
    ("seed", math.nan, "seed must be an integer, got nan"),
    ("seed", 2.5, "seed must be an integer, got 2.5"),
    # values rejected before keep their messages
    ("T", 0.5, "series length must be >= 1, got 0.5"),
    ("seed", -1.5, "seed must be non-negative, got -1.5"),
    # values that are not numbers are named before a range check compares them
    ("T", "5", "T must be an integer, got '5'"),
    ("seed", None, "seed must be an integer, got None"),
], ids=["T-nan", "T-2.5", "T-100.0", "seed-nan", "seed-2.5", "T-0.5", "seed-minus-1.5",
        "T-str", "seed-none"])
def test_spec_rejects_a_non_integer_length_or_seed(make, key, value, message):
    with pytest.raises(ConfigError) as raised:
        make(**{key: value})
    assert str(raised.value) == message


def test_spec_takes_numpy_integers_as_ints():
    toy = default_toy_spec(T=np.int64(50), seed=np.uint8(3))
    lorenz = LorenzSpec(T=np.int64(50), subsample=np.int32(2), seed=np.uint8(3))
    for spec in (toy, lorenz):
        assert type(spec.T) is int and type(spec.seed) is int
    assert type(lorenz.subsample) is int
    series, _ = generate_toy(toy)
    assert np.array_equal(series.values, generate_toy(default_toy_spec(T=50, seed=3))[0].values)


def test_toy_deterministic_recursion():
    # noiseless single regime: a plain geometric decay from y0
    spec = SwitchingArSpec(
        regimes=((0.0, 0.5, 0.0),),
        transition=((1.0,),),
        T=6,
        y0=1.0,
    )
    series, path = generate_toy(spec)
    assert series.values.tolist() == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    assert np.all(path == 0)


def test_toy_default_shape_and_stationary_means():
    series, path = generate_toy(default_toy_spec())
    assert len(series) == 3000
    assert set(np.unique(path)) == {0, 1}
    spec = default_toy_spec()
    for regime in (0, 1):
        mean = series.values[path == regime].mean()
        intercept, coef, _ = spec.regimes[regime]
        assert abs(mean - intercept / (1.0 - coef)) < 0.15


def test_toy_regime_path_invariant_to_noise_scale():
    base = default_toy_spec(seed=11)
    louder = dataclasses.replace(
        base, regimes=tuple((c, phi, sigma * 7.0) for c, phi, sigma in base.regimes)
    )
    _, path_a = generate_toy(base)
    _, path_b = generate_toy(louder)
    assert np.array_equal(path_a, path_b)


def test_toy_identity_chain_equals_manual_ar1():
    # with a degenerate chain the generator must reduce to a plain AR(1)
    # recursion over the noise substream
    spec = SwitchingArSpec(
        regimes=((0.3, 0.8, 0.2),),
        transition=((1.0,),),
        T=200,
        seed=9,
        y0=1.5,
    )
    series, _ = generate_toy(spec)
    _, noise_seed = np.random.SeedSequence(9).spawn(2)
    eps = np.random.default_rng(noise_seed).standard_normal(200)
    manual = np.empty(200)
    manual[0] = 1.5
    for t in range(1, 200):
        manual[t] = 0.3 + 0.8 * manual[t - 1] + 0.2 * eps[t]
    assert np.array_equal(series.values, manual)


def test_toy_bit_identical_reruns():
    a, pa = generate_toy(default_toy_spec(seed=5))
    b, pb = generate_toy(default_toy_spec(seed=5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(pa, pb)


# SHA-256 of the default toy series, its regime path and the default Lorenz
# series, taken from the numpy-array generators these loops replaced.
PINNED_SHA256 = {
    0: ("46f0be7cc09d55a0a2ee9c6ee8a68029c87732c35e9dfd8294fb497827af6d13",
        "f7c686770df461546a1399e89149b27fe3bc5b19f546d537a698633110d1b5d0",
        "ce27fa8b039ee1fd4a13f0668f69abccfba64fbe737060aa9a08785c050f656a"),
    1: ("00407a36930de8aa4ff398669cc82c6fd3e1de74df602a1ccafb11e6375e54f6",
        "a9b4785e79f2bc0a2d5ce3c2d3330ef7d56ef0590a8e4dd80c0c088de6ddc323",
        "f74c6392ade04f84c7bed5bd4b8a55a4ec526df5ced8e69bcf47a7d8a8fcc41c"),
    7: ("fc9fa2f58967423407348eef16de0a8f043faaef5a101ef39f4959aed64492cc",
        "6ca3c6c8ca2bb3bc583a7dcd53c15fab49caddc41dfd8db2ef68e3bfe6a90f9a",
        "f59065d254eff1a9cde82f8b6ae6d3dd9eea741fd38707a26a33789f4cf948d0"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_SHA256))
def test_default_series_bytes_are_pinned(seed):
    series, path = generate_toy(default_toy_spec(seed=seed))
    lorenz = generate_lorenz(LorenzSpec(seed=seed))
    assert path.dtype == np.int64
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest() for a in (series.values, path, lorenz.values)
    )
    assert digests == PINNED_SHA256[seed]


def test_lorenz_loop_is_bit_equal_to_rk4_of_the_derivative():
    spec = LorenzSpec(T=300, obs_noise=0.0)
    deriv = lambda s: lorenz_derivative(s, spec.sigma, spec.rho, spec.beta)
    state = np.array([spec.x0, spec.y0, spec.z0])
    expected = []
    for _ in range(spec.T):
        for _ in range(spec.subsample):
            state = rk4_step(deriv, state, spec.dt)
        expected.append(state[0])
    assert generate_lorenz(spec).values.tobytes() == np.array(expected).tobytes()


def test_lorenz_derivative_fixed_points():
    assert np.allclose(lorenz_derivative((0.0, 0.0, 0.0), 10.0, 28.0, 8 / 3), 0.0)
    r = math.sqrt((8 / 3) * 27.0)
    eq = (r, r, 27.0)
    assert np.all(np.abs(lorenz_derivative(eq, 10.0, 28.0, 8 / 3)) < 1e-9)


def test_lorenz_derivative_linear_in_sigma():
    d1 = lorenz_derivative((1.0, 3.0, 2.0), 10.0, 28.0, 8 / 3)
    d2 = lorenz_derivative((1.0, 3.0, 2.0), 20.0, 28.0, 8 / 3)
    assert d2[0] == pytest.approx(2 * d1[0])
    assert d2[1] == d1[1] and d2[2] == d1[2]


def test_rk4_scalar_order_check():
    # textbook check on y' = y: one RK4 step matches e^dt to O(dt^5)
    y1 = rk4_step(lambda y: y, 1.0, 0.1)
    assert abs(y1 - math.exp(0.1)) < 1e-7


def test_lorenz_default_shape_and_determinism():
    spec = LorenzSpec(T=500)
    a = generate_lorenz(spec)
    b = generate_lorenz(spec)
    assert len(a) == 500
    assert np.array_equal(a.values, b.values)


def test_lorenz_noiseless_determinism_and_noise_effect():
    quiet = generate_lorenz(LorenzSpec(T=200, obs_noise=0.0))
    quiet2 = generate_lorenz(LorenzSpec(T=200, obs_noise=0.0, seed=99))
    noisy = generate_lorenz(LorenzSpec(T=200, obs_noise=0.05))
    # without observation noise the seed is irrelevant
    assert np.array_equal(quiet.values, quiet2.values)
    assert not np.array_equal(quiet.values, noisy.values)
    assert np.allclose(quiet.values, noisy.values, atol=0.5)


def test_lorenz_blowup_names_the_step():
    with pytest.raises(NumericError, match=r"step \d+"):
        generate_lorenz(LorenzSpec(dt=10.0, T=50))


def test_lorenz_spec_validation():
    with pytest.raises(ConfigError):
        LorenzSpec(dt=0.0)
    with pytest.raises(ConfigError):
        LorenzSpec(subsample=0)
    with pytest.raises(ConfigError):
        LorenzSpec(obs_noise=-0.1)
    # NaN fails every comparison; each check is written to reject it
    for key, message in [
        ("dt", "integrator step must be positive, got nan"),
        ("obs_noise", "observation noise must be non-negative, got nan"),
        ("subsample", "subsample must be an integer, got nan"),
    ]:
        with pytest.raises(ConfigError) as raised:
            LorenzSpec(**{key: math.nan})
        assert str(raised.value) == message
    with pytest.raises(ConfigError, match="^subsample must be an integer, got 2.5$"):
        LorenzSpec(subsample=2.5)
    with pytest.raises(ConfigError, match="^subsample must be an integer, got None$"):
        LorenzSpec(subsample=None)
    with pytest.raises(ConfigError, match="^obs_noise must be finite$"):
        LorenzSpec(obs_noise=math.inf)
    for T in (10**20, 2**62):
        with pytest.raises(ConfigError, match=f"T = {T} is too large"):
            LorenzSpec(T=T)


def test_spec_json_dispatch_and_defaults():
    toy = generator_spec_from_json({"kind": "toy"})
    assert isinstance(toy, SwitchingArSpec)
    assert toy == default_toy_spec()
    lorenz = generator_spec_from_json({"kind": "lorenz", "T": 100})
    assert isinstance(lorenz, LorenzSpec)
    assert lorenz.T == 100 and lorenz.rho == 28.0


def test_spec_json_full_toy_document():
    spec = generator_spec_from_json(
        {
            "kind": "toy",
            "regimes": [
                {"intercept": 0.0, "coef": 0.9, "noise_std": 0.1},
                {"intercept": 1.0, "coef": -0.4, "noise_std": 0.3},
            ],
            "chain": {
                "transition": [[0.95, 0.05], [0.05, 0.95]],
                "initial": [0.5, 0.5],
            },
            "T": 500,
            "seed": 3,
            "y0": 2.0,
        }
    )
    assert spec.T == 500 and spec.y0 == 2.0
    assert spec.transition[0][1] == 0.05 and spec.initial == (0.5, 0.5)
    assert spec.regimes[1] == (1.0, -0.4, 0.3)


def test_spec_json_rejects_unknown_keys_and_kinds():
    with pytest.raises(ConfigError, match="unknown keys"):
        generator_spec_from_json({"kind": "toy", "length": 100})
    with pytest.raises(ConfigError, match="unknown keys"):
        generator_spec_from_json({"kind": "lorenz", "sigma_obs": 0.1})
    with pytest.raises(ConfigError, match="kind"):
        generator_spec_from_json({"kind": "arma"})
    with pytest.raises(ConfigError, match="regime"):
        generator_spec_from_json({"kind": "toy", "regimes": [{"intercept": 0.0}]})


def test_write_regimes_csv(tmp_path):
    path = tmp_path / "regimes.csv"
    write_regimes_csv(path, np.array([0, 0, 1, 1, 0]))
    lines = path.read_text().splitlines()
    assert lines[0] == "index,regime"
    assert lines[1] == "0,0"
    assert lines[3] == "2,1"
