"""Every on-disk format: strict CSV and JSON readers, a typed key checker,
one CSV formatter and atomic writes.

A malformed input raises ``ConfigError`` naming the file and the line or
key. Every output file is written to a temporary sibling and renamed into
place, so an interrupted run never leaves a truncated file that looks complete.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError

_INDEX_MIN, _INDEX_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _read_text(path: Path) -> str:
    """A UTF-8 file's text; a byte that does not decode is an error naming its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: not UTF-8 (byte offset {exc.start})") from None


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file; bad bytes, bad syntax or a key that an object
    repeats (``json`` would keep its last value) name the file."""
    path = Path(path)

    def unique_keys(pairs: list) -> dict:
        payload = dict(pairs)
        if len(payload) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise ConfigError(f"{path}: duplicate key {repeated!r}")
        return payload

    try:
        return json.loads(_read_text(path), object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at byte offset {exc.pos}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from None


def read_indexed_csv(path: str | Path, header: Sequence[str]) -> tuple[int, np.ndarray]:
    """Read a strict CSV whose first column is a gap-free integer index.

    The file must be UTF-8, start with exactly ``header`` and hold at
    least one row of ``len(header)`` fields: an integer index, each one
    more than the last, then finite numbers. Returns the first index and
    the number columns as an array of shape ``(len(header) - 1, rows)``.
    Any violation is a ``ConfigError`` naming the file and the first bad
    line. Numbers are parsed by numpy's C reader. A file it cannot read,
    such as one with quoted fields or Python-only spellings like ``1_0``,
    is read row by row, with the same values and the same messages.
    """
    path = Path(path)
    expected = ",".join(header)
    width = len(header)
    lines = _read_text(path).splitlines()
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
    except csv.Error as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
    if first is None:
        raise ConfigError(f"{path}: empty file, expected header {expected!r}")
    if tuple(h.strip() for h in first) != tuple(header):
        raise ConfigError(f"{path}: line 1: expected header {expected!r}, got {first!r}")
    index, values, line_of = _parse_lines(lines, width) or _read_rows(path, reader, width)
    size = len(index)
    if not size:
        raise ConfigError(f"{path}: no data rows")
    start = int(index[0])
    if not _INDEX_MIN <= start <= _INDEX_MAX:
        raise ConfigError(f"{path}: line {line_of[0]}: index {start} is outside the 64-bit range")
    fit = min(size, _INDEX_MAX - start + 1)  # the rows whose gap-free index is in range
    gaps = np.flatnonzero(index[:fit] != np.arange(fit) + start)
    row = int(gaps[0]) if gaps.size else fit
    if row < size:  # a gap, or a gap-free index past the largest
        rule = ("is outside the 64-bit range" if int(index[row]) == start + row
                else f"breaks the gap-free order (previous was {index[row - 1]})")
        raise ConfigError(f"{path}: line {line_of[row]}: index {index[row]} {rule}")
    if not np.isfinite(values).all():
        row, column = np.argwhere(~np.isfinite(values))[0]
        raise ConfigError(
            f"{path}: line {line_of[row]}: non-finite {header[column + 1]} "
            f"{float(values[row, column])!r}"
        )
    return start, np.ascontiguousarray(values.T)


def _parse_lines(lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray, range] | None:
    """The index, ``(rows, width - 1)`` values and lines of the rows of ``lines``
    after the header, as numpy's C reader parses them; None where it may read them
    otherwise than csv, int and float: an error, a warning, a skipped blank line or a line
    past csv's field size limit. (A header quoted over several lines leaves a quote in them.)"""
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, [("index", "i8"), ("values", "f8", (width - 1,))],
                               delimiter=",", comments=None, quotechar=None, skiprows=1, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None
    if len(table) != len(lines) - 1:
        return None
    return table["index"], table["values"], range(2, len(lines) + 1)


def _read_rows(path: Path, reader, width: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The index (Python integers), ``(rows, width - 1)`` values and last physical
    line of the rows left in ``reader``, by ``int`` and ``float``. The first row
    that is a CSV syntax error, not ``width`` fields, or a field that does not
    convert raises the ``ConfigError`` naming its line."""
    index, values, line_of = [], [], []
    try:
        for row in reader:
            line_of.append(reader.line_num)
            if len(row) != width:
                raise ConfigError(
                    f"{path}: line {reader.line_num}: expected {width} fields, got {len(row)}"
                )
            try:
                index.append(int(row[0]))
                values.extend(map(float, row[1:]))
            except ValueError as exc:
                raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise ConfigError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(index, dtype=object), np.array(values).reshape(len(index), width - 1), line_of


def _csv_field(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(float(x))  # shortest decimal string that round-trips
    return str(x)


def _column_cells(column, rows: int) -> Iterable[str]:
    """One column's cells as ``_csv_field`` would write them, formatted by
    the column's type where it has one. Cells are made as rows are joined,
    so no more than one row of them is held at a time."""
    if column is None:
        return [""] * rows
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "f":
            return map(repr, column.tolist())
        if kind in "iu":
            return map(str, column.tolist())
        if kind == "b":
            return map("01".__getitem__, column.tolist())  # False, True index "0", "1"
    return map(_csv_field, column)


def _content(column) -> tuple | None:
    """A key that equal arrays share: dtype, shape and bytes. Equal bytes
    format to equal cells, except in an array of Python objects, which has
    no key, nor has anything that is not an array."""
    if isinstance(column, np.ndarray) and column.dtype.kind != "O":
        return column.dtype.str, column.shape, column.tobytes()
    return None


def shared_cells(tables: Iterable[Iterable]) -> dict[tuple, list]:
    """A table for ``format_csv`` of the column contents that ``tables``
    (each an iterable of columns) hold more than once: by content (see
    ``_content``), its number of uses left and, from its first use, its
    formatted cells."""
    held: dict[tuple, list] = {}
    for table in tables:
        for column in table:
            key = _content(column)
            if key is not None:
                held.setdefault(key, [0, None])[0] += 1
    return {key: entry for key, entry in held.items() if entry[0] > 1}


def _cells_once(column, rows: int, shared: dict[tuple, list]) -> Iterable[str]:
    """``_column_cells``, formatted once for a content of ``shared`` and
    dropped from it at its last use."""
    key = _content(column) if shared else None
    entry = shared.get(key)
    if entry is None:
        return _column_cells(column, rows)
    if entry[1] is None:
        entry[1] = list(_column_cells(column, rows))
    entry[0] -= 1
    if not entry[0]:
        del shared[key]
    return entry[1]


def format_csv(
    header: Sequence[str], columns: Sequence[Sequence | None],
    shared: dict[tuple, list] | None = None,
) -> str:
    """CSV text of a header and its columns, one per header name: a None
    column is empty cells, booleans are 1/0 and floats their shortest
    round-trip decimal. Columns of unequal length are a ValueError. A
    column in ``shared`` (a ``shared_cells`` table) reuses its cells."""
    rows = max((len(c) for c in columns if c is not None), default=0)
    cells = [_cells_once(c, rows, shared or {}) for c in columns]
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells, strict=True)))
    return "\n".join(lines) + "\n"


def _is_number(value) -> bool:
    """true/false are not numbers, nor are NaN and integers beyond a double's range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    integral = isinstance(value, numbers.Integral)
    return abs(value) <= sys.float_info.max if integral else not math.isnan(value)


def _is_numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


# The kinds a key table may name, each with its test on a parsed JSON value or a Python
# field (``check_fields``), where a tuple is also a list and numpy numbers are numbers.
_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    '"ok" or "failed"': lambda v: v in ("ok", "failed"),
    "a number": _is_number,
    "a number or null": lambda v: v is None or _is_number(v),
    "an integer": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "a list of numbers": _is_numbers,
    "a list of objects": lambda v: isinstance(v, (list, tuple))
    and all(isinstance(x, dict) for x in v),
    "a list of equal-length lists of numbers": lambda v: isinstance(v, (list, tuple))
    and all(map(_is_numbers, v)) and len({len(row) for row in v}) <= 1,
}


def check_keys(payload, types: dict[str, str], where: str, required: Sequence[str] = ()) -> None:
    """Check a parsed JSON object against a table of the kind each key must
    have (a key of ``_KINDS``). Unknown keys, missing ``required`` keys and
    values of the wrong kind are a ``ConfigError`` naming ``where`` and the key."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    for key in required:
        if key not in payload:
            raise ConfigError(f"{where} is missing {key!r}")
    for key, value in payload.items():
        if not _KINDS[types[key]](value):
            raise ConfigError(f"{where} key {key!r} must be {types[key]}, got {value!r}")


def check_fields(obj, types: dict[str, str]) -> None:
    """Check the fields of a frozen dataclass that a key table names, in the
    table's order, by the tests ``check_keys`` uses (a table key the class has
    no field for, such as ``kind``, is skipped). A value of the wrong kind is a
    ``ConfigError`` naming the field; an integer is made a plain ``int``."""
    for name, kind in types.items():
        if name not in obj.__dataclass_fields__:
            continue
        value = getattr(obj, name)
        if not _KINDS[kind](value):
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if kind == "an integer":
            object.__setattr__(obj, name, int(value))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path``'s content with ``text`` through a temporary sibling.
    An ``OSError`` from the temporary file or the rename names ``path``, not
    the temporary file, which is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = None
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise
