"""Reading outside text: every CSV reader takes its rows from csv_fields
(whole columns of byte offsets) or csv_rows (one row of strings at a time,
built on csv_fields), so the header, blank-line, field-count and
line-number rules have this one owner, and a bad row is reported as
ParseError with its line number. A line ends at LF, CRLF or a lone CR,
as in text mode. Every config dataclass is loaded by config_from_json, which
checks the JSON against the dataclass's type annotations and reports
ConfigInvalid naming the key; a config built in Python gets the same check
from check_fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from typing import (
    Iterator, List, NamedTuple, Optional, Tuple, Union, get_args, get_origin,
    get_type_hints,
)

import numpy as np


class ParseError(ValueError):
    """Malformed CSV input; message carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigInvalid(ValueError):
    """Config is malformed, wrongly typed or describes impossible settings."""


class CsvFields(NamedTuple):
    """The data rows of a CSV file as byte offsets. `data` holds the file's
    bytes with every line ending turned into LF. Row i sits on line
    `lines[i]` and spans data[starts[i]:ends[i]]; `commas[i]` are the
    offsets of its separators. Rows stop before the first row with the
    wrong number of fields, whose ParseError is `error`, so a reader can
    report the bad fields of earlier rows first and then raise it."""

    data: bytes
    lines: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    commas: np.ndarray
    error: Optional[ParseError]

    def field(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Start and end offsets of field j in every row."""
        starts = self.starts if j == 0 else self.commas[:, j - 1] + 1
        ends = self.ends if j == self.commas.shape[1] else self.commas[:, j]
        return starts, ends


def csv_fields(path, header: str) -> CsvFields:
    """Split a CSV file whose first line is exactly `header` into fields,
    skipping blank lines; every row must have as many comma-separated
    fields as the header."""
    with open(path, "rb") as f:
        data = f.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.append(np.flatnonzero(buf == ord("\n")), len(data))
    starts = np.concatenate([[0], ends[:-1] + 1])
    if data[:ends[0]] != header.encode():
        raise ParseError(1, f"expected header {header!r}")
    commas = np.flatnonzero(buf == ord(","))
    per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    n_sep = header.count(",")
    rows = np.flatnonzero(ends[1:] > starts[1:]) + 1
    wrong = np.flatnonzero(per_line[rows] != n_sep)
    error = None
    if wrong.size:
        bad = rows[wrong[0]]
        error = ParseError(int(bad) + 1,
                           f"expected {n_sep + 1} fields, got {per_line[bad] + 1}")
        rows = rows[:wrong[0]]
    # Blank lines hold no commas, so the separators of the rows before the
    # first wrong one follow the header's back to back.
    row_commas = commas[n_sep:n_sep * (rows.size + 1)].reshape(rows.size, n_sep)
    return CsvFields(data, rows + 1, starts[rows], ends[rows], row_commas, error)


def csv_rows(path, header: str) -> Iterator[Tuple[int, List[str]]]:
    """Yield (line number, fields) for each row of csv_fields, decoded as
    UTF-8, then raise its field-count error if it has one."""
    rows = csv_fields(path, header)
    for line, start, end in zip(rows.lines.tolist(), rows.starts.tolist(),
                                rows.ends.tolist()):
        try:
            text = rows.data[start:end].decode()
        except UnicodeDecodeError:
            raise ParseError(line, "not UTF-8 text") from None
        yield line, text.split(",")
    if rows.error is not None:
        raise rows.error


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string"}


def json_value(tp, value, key: str):
    """A parsed JSON value checked against the type annotation `tp`, as
    config_from_json checks each field; `key` names it in errors. Objects
    become dataclasses and arrays become tuples. An instance of `tp` passes
    as it is, and a tuple passes as an array, so check_fields can reuse it."""
    if is_dataclass(tp):
        if isinstance(value, tp):  # checked by its own __post_init__
            return value
        if not isinstance(value, dict):
            raise ConfigInvalid(f"{key or 'config'} must be a JSON object, got {value!r}")
        hints = get_type_hints(tp)
        prefix = key + "." if key else ""
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigInvalid(
                "unknown config keys: " + ", ".join(prefix + k for k in unknown))
        kwargs = {k: json_value(hints[k], v, prefix + k) for k, v in value.items()}
        try:
            return tp(**kwargs)
        except TypeError as exc:
            raise ConfigInvalid(f"{key or 'config'}: {exc}") from None
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return json_value(tp, value, key)
    if origin is tuple:  # Tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigInvalid(f"{key} must be a JSON array, got {value!r}")
        return tuple(json_value(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    kinds = (int, float) if tp is float else (tp,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigInvalid(f"{key} must be {_JSON_KINDS[tp]}, got {value!r}")
    # Python's json module reads NaN and Infinity, which JSON itself lacks.
    if tp is float and not math.isfinite(value):
        raise ConfigInvalid(f"{key} must be finite, got {value!r}")
    return value


def load_json(text: str):
    """Parsed JSON text; ConfigInvalid if it is not valid JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from None


def config_from_json(cls, text_or_obj):
    """The config dataclass `cls` from JSON text or a parsed object.
    Unknown keys at any level and values of the wrong JSON type raise
    ConfigInvalid naming the key, such as `train.epochs`: int fields take
    only integers, float fields finite integers or floats, Optional fields
    also null, tuple fields arrays and nested config fields objects."""
    obj = load_json(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    return json_value(cls, obj, "")


def check_fields(config) -> None:
    """ConfigInvalid naming the field unless every field of the config
    dataclass instance holds what config_from_json would build for it: a
    value json_value accepts and returns unchanged, so a list or a dict
    where config_from_json builds a tuple or a config is rejected."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        built = json_value(hints[f.name], value, f.name)
        if built != value:
            raise ConfigInvalid(
                f"{f.name} must be a {type(built).__name__}, got {value!r}")
