"""One reader for every input file: a decoded JSON document becomes one of
the package's dataclasses, checked against the dataclass's own annotations.

A value's JSON form is its annotated type with an enum as its value, a set,
list or tuple as a list and a dict as an object.  Profiles, mock configs and
scan records all go through ``from_json_form``; a file that fails it, or is
not UTF-8 JSON, raises ``BadInput`` naming the file.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import MISSING, fields
from enum import Enum

T = typing.TypeVar("T")


class BadInput(ValueError):
    """An input file that is not what it should be; the message starts with
    ``FILE:`` or ``FILE:LINE:``."""


@functools.cache
def _fields(cls) -> tuple[dict[str, tuple[typing.Callable, typing.Callable | None]],
                         tuple[str, ...]]:
    """A dataclass's fields, each with the check and the conversion its
    resolved type gives, and its fields without a default.  Built once per
    class, so reading a value calls nothing in ``typing``."""
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    hints = typing.get_type_hints(cls)
    return {name: (_check(kind), _convert(kind)) for name, kind in hints.items()}, required


def _check(kind) -> typing.Callable[[typing.Any], bool]:
    """The test of whether a decoded JSON value is in the annotated type's
    JSON form."""
    if isinstance(kind, type) and issubclass(kind, Enum):
        values = [member.value for member in kind]
        return lambda value: value in values
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is None:
        return lambda value: isinstance(value, kind)
    if origin is dict:
        item = _check(args[1])
        return lambda value: isinstance(value, dict) and all(map(item, value.values()))
    if origin in (frozenset, list, tuple):  # tuple[X, ...]: args[1] is the ellipsis
        item = _check(args[0])
        return lambda value: isinstance(value, list) and all(map(item, value))
    # a union such as str | None: one isinstance for its plain classes
    plain = tuple(arg for arg in args
                  if typing.get_origin(arg) is None and not issubclass(arg, Enum))
    others = [_check(arg) for arg in args if arg not in plain]
    return lambda value: isinstance(value, plain) or any(check(value) for check in others)


def _convert(kind) -> typing.Callable[[typing.Any], typing.Any] | None:
    """What turns a value in its JSON form into the annotated type; None when
    the JSON value is already one."""
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind
    origin = typing.get_origin(kind)
    if origin is frozenset:
        item = _convert(typing.get_args(kind)[0])
        return frozenset if item is None else lambda value: frozenset(map(item, value))
    if origin in (dict, list, tuple):
        return origin
    return None


def from_json_form(cls: type[T], data, what: str) -> T:
    """The dataclass ``cls`` from its JSON form; absent fields take their
    defaults.  A document that is not an object, an unknown or missing key,
    or a value whose JSON type does not fit its field raises ``ValueError``
    naming the ``what`` and the key, so a misspelt key or a quoted
    ``"false"`` cannot stand for another value."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} is a JSON object, not {json.dumps(data)}")
    checked, required = _fields(cls)
    unknown = sorted(set(data) - set(checked))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(missing)}")
    values = {}
    for name, value in data.items():
        check, convert = checked[name]
        if not check(value):
            raise ValueError(f"{what} key {name}: {json.dumps(value)} does not fit "
                             f"{cls.__annotations__[name]}")
        values[name] = value if convert is None else convert(value)
    return cls(**values)


def load(path: str, build: typing.Callable[[typing.Any], T]) -> T:
    """``build`` applied to the JSON document in the file at ``path``.  A file
    that is not UTF-8 JSON, or a ``ValueError`` from ``build``, raises
    ``BadInput``; a file that cannot be opened raises ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except ValueError as exc:
            raise BadInput(f"{path}: {exc}") from exc
