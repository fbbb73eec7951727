"""Fuzz every parser of outside input: whatever the document, only ConfigError escapes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftband.datagen import generator_spec_from_json
from driftband.errors import ConfigError
from driftband.evaluate import run_config_from_dict
from driftband.forecasters import ExternalForecastTrace
from driftband.series import load_series_csv

WORDS = st.sampled_from([
    "toy", "lorenz", "persistence", "ar", "segmented_ar", "replay", "none", "split", "aci",
    "agaci", "ewa", "fixed", "rolling", "frozen", "",
])
NUMBERS = st.integers() | st.floats() | st.sampled_from([0, 1, -1, 0.1, 0.5, 0.9, 24, 10**400])
ANY = st.recursive(
    st.none() | st.booleans() | NUMBERS | WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WORDS, inner, max_size=3),
    max_leaves=8,
)
# Mostly the right JSON type for a key, so documents often get past the type check.
VALUES = NUMBERS | st.lists(NUMBERS, max_size=4) | WORDS | ANY


def documents(required: dict, optional: dict):
    return st.fixed_dictionaries(required, optional=optional) | ANY


RUN_KEYS = [
    "forecaster", "method", "name", "alpha", "gamma", "gamma_grid", "eta", "weight_floor",
    "aggregation", "cap_factor", "lag", "split", "seed", "buffer_mode", "out", "frequency",
]
PARAM_KEYS = ["order", "refit_every", "drift", "threshold", "warmup", "window"]
RUN_CONFIGS = documents(
    {"dataset": WORDS},
    {**{key: VALUES for key in RUN_KEYS},
     "forecaster_params": st.dictionaries(st.sampled_from(PARAM_KEYS), VALUES, max_size=3)},
)

SPEC_KEYS = [
    "T", "seed", "y0", "sigma", "rho", "beta", "dt", "x0", "z0", "subsample", "obs_noise",
    "length",
]
REGIMES = st.lists(st.fixed_dictionaries(
    {}, optional={key: VALUES for key in ("intercept", "coef", "noise_std", "mean")}
), max_size=3)
CHAINS = st.fixed_dictionaries({}, optional={
    "transition": st.lists(st.lists(NUMBERS, max_size=3), max_size=3) | VALUES,
    "initial": VALUES,
})
GENERATOR_SPECS = documents(
    {"kind": st.sampled_from(["toy", "lorenz"]) | WORDS},
    {**{key: VALUES for key in SPEC_KEYS}, "regimes": REGIMES | VALUES, "chain": CHAINS | VALUES},
)

FIELDS = st.sampled_from([
    "0", "1", "2", "3", "-1", "1.5", "-0.25", "nan", "inf", "1e400", "9" * 25, "abc", "", " 2",
    '"1"', '"', "1_0",
])
LINES = st.lists(FIELDS, min_size=1, max_size=4).map(",".join)
CSV_BODIES = st.lists(LINES, max_size=6).map("\n".join)
CSV_FILES = st.one_of(
    st.tuples(st.sampled_from(["index,value", "index,y_true,y_hat", "index", ""]), CSV_BODIES)
    .map(lambda parts: "\n".join(parts).encode()),
    st.binary(max_size=40),
    st.builds(lambda text, junk: text.encode() + junk, CSV_BODIES, st.binary(max_size=3)),
)

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def only_config_errors(parse, *args) -> None:
    try:
        parse(*args)
    except ConfigError:
        pass


@FUZZ
@given(RUN_CONFIGS)
def test_run_config_parser_raises_only_config_errors(payload):
    only_config_errors(run_config_from_dict, payload)


@FUZZ
@given(GENERATOR_SPECS)
def test_generator_spec_parser_raises_only_config_errors(payload):
    only_config_errors(generator_spec_from_json, payload)


@FUZZ
@given(CSV_FILES)
def test_csv_readers_raise_only_config_errors(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content)
    only_config_errors(load_series_csv, path)
    only_config_errors(ExternalForecastTrace.from_csv, path)
