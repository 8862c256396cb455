"""Reading outside text: every CSV reader takes its rows from csv_rows and
reports a bad row as ParseError with its line number; every config
dataclass is loaded by config_from_json, which checks the JSON against the
dataclass's type annotations and reports ConfigInvalid naming the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass
from typing import Iterator, List, Tuple, Union, get_args, get_origin, get_type_hints


class ParseError(ValueError):
    """Malformed CSV input; message carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigInvalid(ValueError):
    """Config is malformed, wrongly typed or describes impossible settings."""


def csv_rows(path, header: str) -> Iterator[Tuple[int, List[str]]]:
    """Yield (line number, fields) for each non-blank row of a CSV file
    whose first line is exactly `header`; every row must have as many
    comma-separated fields as the header."""
    n_fields = header.count(",") + 1
    with open(path, "r", newline="") as f:
        if f.readline().rstrip("\r\n") != header:
            raise ParseError(1, f"expected header {header!r}")
        for line_no, raw in enumerate(f, start=2):
            raw = raw.rstrip("\r\n")
            if not raw:
                continue
            fields = raw.split(",")
            if len(fields) != n_fields:
                raise ParseError(line_no, f"expected {n_fields} fields, got {len(fields)}")
            yield line_no, fields


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string"}


def json_value(tp, value, key: str):
    """A parsed JSON value checked against the type annotation `tp`, as
    config_from_json checks each field; `key` names it in errors. Objects
    become dataclasses and arrays become tuples."""
    if is_dataclass(tp):
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
        if not isinstance(value, list):
            raise ConfigInvalid(f"{key} must be a JSON array, got {value!r}")
        return tuple(json_value(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    kinds = (int, float) if tp is float else (tp,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigInvalid(f"{key} must be {_JSON_KINDS[tp]}, got {value!r}")
    # Python's json module reads NaN and Infinity, which JSON itself lacks.
    if tp is float and not math.isfinite(value):
        raise ConfigInvalid(f"{key} must be finite, got {value!r}")
    return value


def config_from_json(cls, text_or_obj):
    """The config dataclass `cls` from JSON text or a parsed object.
    Unknown keys at any level and values of the wrong JSON type raise
    ConfigInvalid naming the key, such as `train.epochs`: int fields take
    only integers, float fields finite integers or floats, Optional fields
    also null, tuple fields arrays and nested config fields objects."""
    obj = text_or_obj
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from None
    return json_value(cls, obj, "")
