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
def _kinds(cls) -> tuple[dict[str, typing.Any], tuple[str, ...]]:
    """A dataclass's resolved field types, and its fields without a default."""
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    return typing.get_type_hints(cls), required


def _is_json_form(kind, value) -> bool:
    """Is a decoded JSON value in the annotated type's JSON form?"""
    if isinstance(kind, type) and issubclass(kind, Enum):
        return any(value == member.value for member in kind)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is None:
        return isinstance(value, kind)
    if origin is dict:
        return isinstance(value, dict) and all(_is_json_form(args[1], v) for v in value.values())
    if origin in (frozenset, list, tuple):  # tuple[X, ...]: args[1] is the ellipsis
        return isinstance(value, list) and all(_is_json_form(args[0], v) for v in value)
    return any(_is_json_form(arg, value) for arg in args)  # a union such as str | None


def _from_json(kind, value):
    if isinstance(kind, type) and issubclass(kind, Enum):
        return kind(value)
    origin = typing.get_origin(kind)
    if origin is frozenset:
        (item_kind,) = typing.get_args(kind)
        return frozenset(_from_json(item_kind, item) for item in value)
    if origin in (dict, list, tuple):
        return origin(value)
    return value


def from_json_form(cls: type[T], data, what: str) -> T:
    """The dataclass ``cls`` from its JSON form; absent fields take their
    defaults.  A document that is not an object, an unknown or missing key,
    or a value whose JSON type does not fit its field raises ``ValueError``
    naming the ``what`` and the key, so a misspelt key or a quoted
    ``"false"`` cannot stand for another value."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} is a JSON object, not {json.dumps(data)}")
    kinds, required = _kinds(cls)
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(missing)}")
    for name, value in data.items():
        if not _is_json_form(kinds[name], value):
            raise ValueError(f"{what} key {name}: {json.dumps(value)} does not fit "
                             f"{cls.__annotations__[name]}")
    return cls(**{name: _from_json(kinds[name], value) for name, value in data.items()})


def load(path: str, build: typing.Callable[[typing.Any], T]) -> T:
    """``build`` applied to the JSON document in the file at ``path``.  A file
    that is not UTF-8 JSON, or a ``ValueError`` from ``build``, raises
    ``BadInput``; a file that cannot be opened raises ``OSError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except ValueError as exc:
            raise BadInput(f"{path}: {exc}") from exc
