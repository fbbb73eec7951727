"""Fuzz every parser of outside input: whatever the document, only ConfigError escapes."""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from driftband.datagen import _LORENZ_SPEC_TYPES, LorenzSpec, generator_spec_from_json
from driftband.errors import ConfigError
from driftband.evaluate import _RUN_CONFIG_TYPES, RunConfig, run_config_from_dict
from driftband.fileio import _INDEX_MAX, _INDEX_MIN, _read_text, read_indexed_csv
from driftband.forecasters import ExternalForecastTrace
from driftband.series import TimeSeries, load_series_csv

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
    # spellings that numpy's reader and int/float may read apart
    " ", "\t", "\t2\t", "\xa03\xa0", "+1", "007", "\u0661", str(2**63), "1e-400", "-nan",
    "1\x00", "\x00",
])
LINES = st.lists(FIELDS, min_size=1, max_size=4).map(",".join)
LINE_ENDS = st.sampled_from(["\n", "\r\n"])
CSV_BODIES = st.builds(lambda lines, end: end.join(lines), st.lists(LINES, max_size=6), LINE_ENDS)
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


def accepts(make, *args, **kwargs) -> bool:
    """Whether ``make`` accepts its arguments; only a ConfigError rejects them."""
    try:
        make(*args, **kwargs)
    except ConfigError:
        return False
    return True


def fields_of(cls, payload) -> dict:
    assume(isinstance(payload, dict))
    names = {f.name for f in dataclasses.fields(cls)}
    return {key: value for key, value in payload.items() if key in names}


@pytest.mark.parametrize("cls, types", [(RunConfig, _RUN_CONFIG_TYPES),
                                        (LorenzSpec, _LORENZ_SPEC_TYPES)])
def test_every_field_has_a_kind_in_its_key_table(cls, types):
    assert {f.name for f in dataclasses.fields(cls)} == set(types) - {"kind"}


@FUZZ
@given(RUN_CONFIGS)
@example({"dataset": "toy", "name": 5})
@example({"dataset": "toy", "eta": True})
@example({"dataset": "toy", "gamma": 10**400})
def test_a_python_run_config_takes_exactly_what_the_json_parser_does(payload):
    fields = fields_of(RunConfig, payload)
    assume("dataset" in fields)
    assert accepts(RunConfig, **fields) == accepts(run_config_from_dict, fields)


@FUZZ
@given(GENERATOR_SPECS)
@example({"dt": "a"})
@example({"obs_noise": None})
@example({"seed": True})
def test_a_python_lorenz_spec_takes_exactly_what_the_json_parser_does(payload):
    fields = fields_of(LorenzSpec, payload)
    assert accepts(LorenzSpec, **fields) == accepts(
        generator_spec_from_json, {**fields, "kind": "lorenz"})


@FUZZ
@given(VALUES)
@example(2.7)
@example(2**63 - 2)
@example(2**63 - 1)
@example(-2**63)
def test_a_series_start_index_is_an_integer_whose_indices_fit_int64(start):
    fits = type(start) is int and _INDEX_MIN <= start <= _INDEX_MAX - 1
    assert accepts(TimeSeries, [1.0, 2.0], start_index=start) == fits


@FUZZ
@given(CSV_FILES)
def test_csv_readers_raise_only_config_errors(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content)
    only_config_errors(load_series_csv, path)
    only_config_errors(ExternalForecastTrace.from_csv, path)


def reference_read_indexed_csv(path, header):
    """The row-at-a-time reader that ``read_indexed_csv`` replaced, kept as
    the oracle of what it returns and of every message it raises. A row is
    named by its last physical line, as a quoted field may span lines."""
    path = Path(path)
    expected = ",".join(header)
    width = len(header)
    reader = csv.reader(_read_text(path).splitlines())
    index: list[int] = []
    values: list[float] = []
    line_of: list[int] = []
    try:
        first = next(reader, None)
        if first is None:
            raise ConfigError(f"{path}: empty file, expected header {expected!r}")
        if tuple(h.strip() for h in first) != tuple(header):
            raise ConfigError(f"{path}: line 1: expected header {expected!r}, got {first!r}")
        for row in reader:
            lineno = reader.line_num
            line_of.append(lineno)
            if len(row) != width:
                raise ConfigError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
                )
            try:
                index.append(int(row[0]))
                values.extend(map(float, row[1:]))
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
    except csv.Error as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
    if not index:
        raise ConfigError(f"{path}: no data rows")
    start = index[0]
    # the first row that breaks the gap-free order or is outside the 64-bit range
    row = next((i for i, k in enumerate(index)
                if k != start + i or not _INDEX_MIN <= k <= _INDEX_MAX), None)
    if row is not None and index[row] == start + row:
        raise ConfigError(
            f"{path}: line {line_of[row]}: index {index[row]} is outside the 64-bit range"
        )
    if row is not None:
        raise ConfigError(
            f"{path}: line {line_of[row]}: index {index[row]} breaks the gap-free order "
            f"(previous was {index[row - 1]})"
        )
    table = np.array(values).reshape(len(index), width - 1)
    if not np.isfinite(table).all():
        row, column = np.argwhere(~np.isfinite(table))[0]
        raise ConfigError(
            f"{path}: line {line_of[row]}: non-finite {header[column + 1]} "
            f"{float(table[row, column])!r}"
        )
    return start, table.T


HEADERS = (("index", "value"), ("index", "y_true", "y_hat"))
# One field past the csv module's default field size limit.
LONG_LINE = "9" * (csv.field_size_limit() + 1)


def arabic_digits(field):
    return field.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                      "\u0665\u0666\u0667\u0668\u0669"))


def apply_defect(rows, at, kind, pick, column):
    """Spoil or respell row ``at`` (a list of fields) with one change of
    ``kind``; a value change goes to the ``column``-th value field, counted
    modulo. Padding and index spellings keep the row valid for ``int`` and
    ``float``, which numpy's reader may not read alike."""
    row = rows[at]
    column = 1 + column % (len(row) - 1)
    if kind == "blank":  # a blank or whitespace-only line after the row
        rows.insert(at + 1, [("", " ", "\t", "\xa0", " \t ")[pick]])
    elif kind == "pad":
        pad = (" ", "\t", "\xa0", " \t", "\xa0 ")[pick]
        row[0], row[column] = pad + row[0], row[column] + pad
    elif kind == "spelling":
        index = int(row[0])
        row[0] = (f"+{index}", f"00{index}", arabic_digits(row[0]), str(_INDEX_MAX + 1),
                  str(_INDEX_MIN - 1 - index ** 2))[pick]
    elif kind == "value":
        row[column] = ("1e-400", "-nan", "1\x00", "\x00", "-1e-400")[pick]
    elif kind == "long":  # an unquoted field past the csv field size limit
        row[column] = LONG_LINE
    elif kind == "width":
        rows[at] = row[:-1] if pick else row + ["1"]
    elif kind == "int":
        row[0] = ("abc", "1.5", "", " ", "0x1f")[pick]
    elif kind == "float":
        row[column] = ("abc", "", "1_0", "1..5", "e")[pick]
    elif kind == "gap":
        row[0] = str(int(row[0]) + (2, -1, 0, 5, 1000)[pick])
    elif kind == "nonfinite":
        row[column] = ("nan", "inf", "-inf", "1e400", "-nan")[pick]
    else:  # an unclosed quote runs to the end of the file, past the field size limit
        row[column] = '"' + row[column]
        rows.append([LONG_LINE])


DEFECTS = st.tuples(
    st.sampled_from([
        "width", "int", "float", "gap", "nonfinite", "quote", "blank", "pad", "spelling",
        "value", "long",
    ]),
    st.integers(0, 4),
    st.integers(0, 1),
)


@st.composite
def damaged_tables(draw):
    """A valid table of 1 to 2,500 rows with ``\\n`` or ``\\r\\n`` line ends, then
    zero, one or two changes from ``apply_defect``, each at a row of its
    own after a valid prefix."""
    header = draw(st.sampled_from(HEADERS))
    size = draw(st.integers(1, 40) | st.sampled_from([1023, 1024, 1025, 2048, 2049, 2500]))
    start = draw(st.integers(-5, 5) | st.sampled_from([_INDEX_MIN, _INDEX_MAX - size + 1]))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).normal(scale=1e3, size=(size, len(header) - 1))
    values[values > 2e3] = -0.0
    rows = [[str(start + i), *map(repr, v)] for i, v in enumerate(values.tolist())]
    at = sorted(draw(st.sets(st.integers(0, size - 1), max_size=2)))
    for position in reversed(at):  # a quote's long line goes last
        apply_defect(rows, position, *draw(DEFECTS))
    lines = [",".join(header), *map(",".join, rows)]
    end = draw(LINE_ENDS)
    return header, (end.join(lines) + end).encode()


def assert_reads_as_the_reference(path, header):
    outcomes = []
    for read in (reference_read_indexed_csv, read_indexed_csv):
        try:
            start, table = read(path, header)
        except ConfigError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((start, table.shape, table.dtype, table.tobytes()))
    assert outcomes[1] == outcomes[0]


@FUZZ
@given(st.sampled_from(HEADERS), CSV_FILES)
def test_csv_reader_matches_the_row_reader_on_fuzzed_files(tmp_path_factory, header, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(content)
    assert_reads_as_the_reference(path, header)


@FUZZ
@given(damaged_tables())
@example((HEADERS[0], f"index,value\n0,1.5\n1,abc\n2,\"3\n{LONG_LINE}\n".encode()))
@example((HEADERS[1], b"index,y_true,y_hat\n7,1,2\n9,nan,1\n10,1_0,x\n"))
@example((HEADERS[1], b"index,y_true,y_hat\n7,1,2\n8,1,inf\n9,nan,1\n"))
@example((HEADERS[0], b"index,value\n-3,0.5\n"))
@example((HEADERS[0], b"index,value\r\n0,1\r\n1,2\r\n\r\n"))
@example((HEADERS[1], f"index,y_true,y_hat\n0,1,{LONG_LINE}\n".encode()))
@example((HEADERS[0], b'"index\n",value\n0,1\n1,2\n'))
@example((HEADERS[0], b'index,value\n0,1\n1,"2\n3"\n2,x\n'))
@example((HEADERS[0], b'index,value\n0,1\n1,"2\n"\n5,3\n'))
@example((HEADERS[0], b'index,value\n0,1\n1,"2\n"\n2,inf\n'))
def test_csv_reader_matches_the_row_reader_on_damaged_tables(tmp_path_factory, case):
    """The first bad line is named as the row reader names it, also with a
    CSV syntax error after an earlier bad value; a spelling numpy's reader
    does not take is read as ``int`` and ``float`` read it."""
    header, content = case
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(content)
    assert_reads_as_the_reference(path, header)


@pytest.mark.parametrize("body, message", [
    ('0,1\n1,"2\n3"\n2,x\n', "could not convert string to float: 'x'"),
    ('0,1\n1,"2\n"\n5,3\n', "index 5 breaks the gap-free order (previous was 1)"),
    ('0,1\n1,"2\n"\n2,inf\n', "non-finite value inf"),
])
def test_a_row_after_a_quoted_field_over_two_lines_is_named_by_its_own_line(
    tmp_path, body, message
):
    """The bad row is on line 5: the header, a row, a row whose quoted field
    spans lines 3 and 4, then the bad row."""
    path = tmp_path / "quoted.csv"
    path.write_text("index,value\n" + body)
    for read in (reference_read_indexed_csv, read_indexed_csv):
        with pytest.raises(ConfigError) as raised:
            read(path, HEADERS[0])
        assert str(raised.value) == f"{path}: line 5: {message}"
