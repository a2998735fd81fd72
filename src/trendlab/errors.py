"""Exception types shared across the package, the one field-type rule that
the config dataclasses enforce when they are built, and the rule that their
numbers are finite."""

from __future__ import annotations

import math
from dataclasses import fields
from datetime import date
from functools import cache
from pathlib import Path
from types import MappingProxyType, NoneType, UnionType
from typing import Mapping, Union, get_args, get_origin, get_type_hints


class TrendlabError(Exception):
    """Base class for all trendlab errors."""


class ConfigError(TrendlabError):
    """Invalid configuration value or run config file."""


class DataError(TrendlabError):
    """Malformed, inconsistent, or insufficient input data."""


class CheckpointError(DataError):
    """Unreadable, truncated, or version-incompatible checkpoint."""


class DivergenceError(TrendlabError):
    """Training produced a non-finite prediction, loss, or gradient."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


@cache
def field_types(cls) -> Mapping[str, object]:
    """The resolved type of each field of dataclass `cls`, in field order
    (read-only: every caller shares it)."""
    hints = get_type_hints(cls)
    return MappingProxyType({f.name: hints[f.name] for f in fields(cls)})


_KINDS = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    Path: "a path string", date: "a date", NoneType: "null",
}


def _describe(hint) -> str:
    args = get_args(hint)
    if hint in _KINDS:
        return _KINDS[hint]
    if get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            return f"a list with each item {_describe(args[0])}"
        return f"a list of {' and '.join(_describe(a) for a in args)}"
    if args:
        return " or ".join(_describe(a) for a in args)
    return f"a {hint.__name__}"


class _Mismatch(Exception):
    pass


def _convert(value, hint):
    """`value` read as `hint`; raises `_Mismatch` when it is not one."""
    args = get_args(hint)
    if get_origin(hint) in (Union, UnionType):
        for option in args:
            try:
                return _convert(value, option)
            except _Mismatch:
                pass
        raise _Mismatch
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise _Mismatch
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise _Mismatch
        return tuple(_convert(v, a) for v, a in zip(value, items))
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise _Mismatch from None
    if hint is Path and isinstance(value, str):
        return Path(value)
    if hint is date and isinstance(value, str):
        try:
            return date.fromisoformat(value)
        except ValueError:
            raise _Mismatch from None
    if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    raise _Mismatch


def enforce_field_types(obj) -> None:
    """Check each field of dataclass `obj` against its declared type and
    store the value as that type.

    `int` takes an int and not a bool; `float` takes an int or a float, not
    a bool, and stores a float; `bool` and `str` take only themselves;
    `X | None` also takes None; `tuple[X, ...]` takes a list or tuple of X
    and stores a tuple; `Path` takes a str or a Path and stores a Path;
    `date` takes an ISO-8601 str or a date and stores a date.
    """
    for name, hint in field_types(type(obj)).items():
        value = getattr(obj, name)
        try:
            converted = _convert(value, hint)
        except _Mismatch:
            raise ConfigError(f"{name} must be {_describe(hint)}, got {value!r}") from None
        object.__setattr__(obj, name, converted)


def require_finite(obj) -> None:
    """Refuse a NaN or an infinity in any float field of config dataclass
    `obj`; call it after `enforce_field_types`, which stores every number
    field as a float. Report rows do not call it: they store NaN for a
    metric that a failed cell did not produce."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
