import csv
import errno
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftband import fileio
from driftband.errors import ConfigError
from driftband.fileio import format_csv, shared_cells
from driftband.forecasters import ExternalForecastTrace
from driftband.series import TimeSeries, load_series_csv, write_series_csv


def oracle_format_csv(header, rows):
    """The row-wise formatter format_csv replaced: one type test per cell."""

    def field(x):
        if x is None:
            return ""
        if isinstance(x, bool):
            return "1" if x else "0"
        if isinstance(x, float):
            return repr(float(x))
        return str(x)

    lines = [",".join(header)]
    lines.extend(",".join(map(field, row)) for row in rows)
    return "\n".join(lines) + "\n"


def oracle_rows(columns):
    """Rows as the writers built them: tolist() of each array, None cells
    for a missing column."""
    n = max(len(c) for c in columns if c is not None)
    cells = [[None] * n if c is None else c.tolist() if isinstance(c, np.ndarray) else list(c)
             for c in columns]
    return list(zip(*cells))


def test_columns_format_as_the_row_wise_oracle():
    header = ("index", "x", "covered", "empty", "mixed", "n")
    columns = [
        np.arange(-2, 6, dtype=np.int64) + 2**40,
        np.array([0.1 + 0.2, -0.0, 5e-324, np.inf, 1e16, -np.inf, 1.0, 2.5e-8]),
        np.array([True, False, True, True, False, False, True, False]),
        None,
        ["a", 3, 2.5, None, True, -0.0, "", 10**20],
        np.array([0, 1, 2, 3, 4, 5, 6, 7], dtype=np.uint8),
    ]
    text = format_csv(header, columns)
    assert text == oracle_format_csv(header, oracle_rows(columns))
    assert text.splitlines()[1:3] == [
        f"{2**40 - 2},0.30000000000000004,1,,a,0",
        f"{2**40 - 1},-0.0,0,,3,1",
    ]


def test_float64_elements_and_ranges_format_as_python_numbers():
    # write_series_csv once passed numpy float64 elements, one per row
    values = np.array([1 / 3, -0.0, 1e300])
    assert format_csv(("index", "value"), [range(7, 10), values]) == oracle_format_csv(
        ("index", "value"), zip(range(7, 10), values)
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30))
def test_any_float_column_formats_as_the_oracle(values):
    columns = [np.arange(len(values)), np.array(values, dtype=float), None]
    header = ("index", "value", "band")
    rows = list(zip(range(len(values)), values, [None] * len(values)))
    assert format_csv(header, columns) == oracle_format_csv(header, rows)


def test_no_rows_is_the_header_line_and_unequal_columns_are_an_error():
    assert format_csv(("a", "b"), [np.array([]), None]) == "a,b\n"
    with pytest.raises(ValueError):
        format_csv(("a", "b"), [np.arange(3), np.arange(2.0)])


def formatting_spy(monkeypatch):
    """The columns ``format_csv`` formats, in order."""
    formatted = []
    real_column_cells = fileio._column_cells

    def column_cells(column, rows):
        formatted.append(column)
        return real_column_cells(column, rows)

    monkeypatch.setattr(fileio, "_column_cells", column_cells)
    return formatted


def test_a_shared_column_is_formatted_once_and_dropped_after_its_last_use(monkeypatch):
    y, index = np.array([0.1 + 0.2, -0.0, 1 / 3]), np.arange(3)
    tables = [[index, y, None], [index, y, np.arange(3.0)], [np.arange(3), y, None]]
    table = shared_cells(tables)
    # None columns and a content held once are not shared
    assert len(table) == 2
    formatted = formatting_spy(monkeypatch)
    header = ("index", "y", "band")
    texts = [format_csv(header, columns, table) for columns in tables]
    assert [id(c) for c in formatted if c is not None] == [id(index), id(y), id(tables[1][2])]
    assert table == {}
    assert texts == [oracle_format_csv(header, oracle_rows(columns)) for columns in tables]


def test_distinct_arrays_of_equal_content_are_formatted_once(monkeypatch):
    # equal values in other bytes (-0.0) or another dtype (int 0 and float 0.0
    # are both zero bytes) are other contents
    a, zeros = np.array([0.0, 1.5, np.inf]), np.zeros(3, dtype=np.int64)
    tables = [
        [a, zeros, np.array([True, False, True])],
        [a.copy(), np.zeros(3), np.array([True, False, True])],
        [np.array([-0.0, 1.5, np.inf]), zeros.copy(), a[::-1][::-1]],
    ]
    table = shared_cells(tables)
    assert len(table) == 3
    formatted = formatting_spy(monkeypatch)
    header = ("x", "n", "z")
    texts = [format_csv(header, columns, table) for columns in tables]
    # a, zeros and the flags once each, then the float zeros and the -0.0 column
    assert [id(c) for c in formatted] == [
        id(a), id(zeros), id(tables[0][2]), id(tables[1][1]), id(tables[2][0])
    ]
    assert table == {}
    assert texts == [oracle_format_csv(header, oracle_rows(columns)) for columns in tables]
    assert texts[2].splitlines()[1] == "-0.0,0,0.0"


def test_written_files_are_parsed_by_numpy_and_a_python_spelling_row_by_row(
    tmp_path, monkeypatch
):
    read_rows, calls = fileio._read_rows, []

    def spy(path, *args):
        calls.append(path)
        return read_rows(path, *args)

    monkeypatch.setattr(fileio, "_read_rows", spy)
    values = np.random.default_rng(0).normal(scale=1e3, size=3000)
    values[:6] = [-0.0, 5e-324, -1.7e308, 1e-300, 0.1 + 0.2, 1e22]
    series = tmp_path / "series.csv"
    write_series_csv(series, TimeSeries(values=values, start_index=-7))
    loaded = load_series_csv(series)
    assert loaded.start_index == -7
    assert loaded.values.tobytes() == values.tobytes()
    # a trace as perfbench writes one: repr floats, one row per line
    trace = tmp_path / "trace.csv"
    trace.write_text("index,y_true,y_hat\n" + "".join(
        f"{100 + i},{v!r},{-v / 3!r}\n" for i, v in enumerate(values.tolist())
    ))
    read = ExternalForecastTrace.from_csv(trace)
    assert read.y_hat.tobytes() == (-values / 3).tobytes()
    assert calls == []
    python_only = tmp_path / "python-only.csv"
    python_only.write_text("index,value\n0,1_0\n1,2\n")
    assert load_series_csv(python_only).values.tolist() == [10.0, 2.0]
    assert calls == [python_only]


def test_a_line_at_the_csv_field_size_limit_is_parsed_by_numpy(tmp_path, monkeypatch):
    read_rows, calls = fileio._read_rows, []

    def spy(path, *args):
        calls.append(path)
        return read_rows(path, *args)

    monkeypatch.setattr(fileio, "_read_rows", spy)
    limit = csv.field_size_limit()
    for length in (limit, limit + 1):  # the second line is one character longer
        path = tmp_path / f"{length}.csv"
        value = "1.5".rjust(length - 2, "0")
        path.write_text(f"index,value\n0,{value}\n1,-2\n")
        assert len(path.read_text().splitlines()[1]) == length
        assert load_series_csv(path).values.tolist() == [1.5, -2.0]
    assert calls == [tmp_path / f"{limit + 1}.csv"]


@pytest.mark.parametrize("first, rows, error", [
    (2**63 - 3, 3, None),
    (2**63 - 1, 1, None),
    (2**63 - 2, 3, "line 4: index 9223372036854775808 is outside the 64-bit range"),
], ids=["last-is-largest", "only-the-largest", "one-past"])
def test_an_index_may_end_at_the_largest_int64(tmp_path, first, rows, error):
    path = tmp_path / "top.csv"
    path.write_text("index,value\n" + "".join(f"{first + i},{i}\n" for i in range(rows)))
    if error is None:
        assert load_series_csv(path).start_index == first
        return
    with pytest.raises(ConfigError) as raised:
        load_series_csv(path)
    assert str(raised.value) == f"{path}: {error}"


@pytest.mark.parametrize("fault, raised", [
    (OSError(errno.ENOSPC, "No space left on device"), OSError),
    (KeyboardInterrupt(), KeyboardInterrupt),
], ids=["oserror", "interrupt"])
def test_an_interrupted_atomic_write_keeps_the_old_file_and_no_temporary_one(
    tmp_path, monkeypatch, fault, raised
):
    path = tmp_path / "out.txt"
    path.write_text("old")

    def fsync(fd):
        raise fault

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(raised) as caught:
        fileio.atomic_write_text(path, "new")
    if raised is OSError:  # names the target, not the temporary file
        assert str(caught.value) == f"[Errno {errno.ENOSPC}] No space left on device: '{path}'"
    else:
        assert caught.value is fault
    assert path.read_text() == "old"
    assert sorted(tmp_path.iterdir()) == [path]
