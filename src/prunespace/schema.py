"""Strict JSON documents for the frozen spec dataclasses.

`spec_from_json(cls, doc)` builds a spec from a JSON object by the fields and
types its dataclass declares. It never coerces: an `int` field takes an
integer, a `float` field an integer or a finite float (never JSON's `NaN` or
`Infinity`, which Python's `json` reads), no number field takes a bool, and
values are kept as written. Each violation raises `SchemaError` naming the
field's path, as in `PipelineConfig.full_schedule.epochs`; range checks are
left to each class's `__post_init__`, whose `ValidationError` comes out as a
`SchemaError` prefixed with the spec's path. A `dict` field takes any JSON
object, as is. `spec_to_json` writes a spec back.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import typing
from typing import Mapping

from .errors import SchemaError, ValidationError


def is_int(value) -> bool:
    """An exact integer: JSON `true` is a bool, although Python's True == 1."""
    return isinstance(value, int) and not isinstance(value, bool)


_SCALARS = {  # declared type -> (test, what a value of it must be)
    int: (is_int, "an integer"),
    float: (lambda v: (isinstance(v, float) and math.isfinite(v)) or is_int(v), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    dict: (lambda v: isinstance(v, dict), "a JSON object"),
}


@functools.cache
def _fields(cls) -> dict[str, tuple[object, bool]]:
    """{field name: (declared type, required)} of a spec class, resolved once."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


_type_args = functools.cache(typing.get_args)


def _mismatch(path: str, expected: str, value) -> SchemaError:
    return SchemaError(f"{path} must be {expected}, got {json.dumps(value, default=repr)[:60]}")


def _value(tp, value, path: str):
    """`value` checked against the declared type `tp`, with lists made tuples."""
    if tp in _SCALARS:
        accepts, expected = _SCALARS[tp]
        if not accepts(value):
            raise _mismatch(path, expected, value)
        return value
    args = _type_args(tp)
    if not args:  # a nested spec
        return _parse(tp, value, path)
    if type(None) in args:  # `X | None`, the only union a spec declares
        return None if value is None else _value(args[0], value, path)
    variadic = args[-1] is ...  # the rest are tuples, `tuple[X, ...]` or fixed
    if (
        variadic and args[0] is float and isinstance(value, list)
        and set(map(type, value)) == {float} and all(map(math.isfinite, value))
    ):
        return tuple(value)  # a recipe's ratios: no check in Python per item
    if not isinstance(value, list) or not (variadic or len(value) == len(args)):
        raise _mismatch(path, "a list" if variadic else f"a list of {len(args)} items", value)
    items = itertools.repeat(args[0]) if variadic else args
    return tuple(_value(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(items, value)))


def _parse(cls, doc, path: str):
    if not isinstance(doc, Mapping):
        raise _mismatch(path, "a JSON object", doc)
    fields = _fields(cls)
    unknown = doc.keys() - fields.keys()
    if unknown:
        raise SchemaError(f"{path} has unknown fields {sorted(unknown)}")
    kwargs = {}
    for name, (tp, required) in fields.items():
        if name in doc:
            kwargs[name] = _value(tp, doc[name], f"{path}.{name}")
        elif required:
            raise SchemaError(f"{path} misses the required field {name!r}")
    try:
        return cls(**kwargs)
    except ValidationError as e:
        raise SchemaError(f"{path}: {e}") from e


def spec_from_json(cls, doc: str | bytes | Mapping):
    """The `cls` spec a JSON object, as text or parsed, describes."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{cls.__name__} document is not valid JSON: {e}") from e
    return _parse(cls, doc, cls.__name__)


def _json_value(value):
    if dataclasses.is_dataclass(value):
        return value.to_json()
    if isinstance(value, tuple):  # a tuple holds specs or plain values, never both
        return [v.to_json() for v in value] if value and dataclasses.is_dataclass(value[0]) else list(value)
    return value


def spec_to_json(spec) -> dict:
    """A spec's JSON object: keys in field order, tuples as lists, specs by their `to_json`."""
    return {f.name: _json_value(getattr(spec, f.name)) for f in dataclasses.fields(spec)}
