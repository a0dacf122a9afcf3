"""One dict codec for every frozen configuration dataclass.

The experiment engine keys cached results by the canonical JSON of a
spec, so every configuration a spec can hold must round-trip exactly
through a plain dict.  :class:`Serialisable` gives each such dataclass
the same ``to_dict``/``from_dict``: fields in declaration order, nested
configurations as dicts, tuples as lists, nested types resolved from the
annotations once per class, and a
:class:`~repro.errors.ConfigurationError` naming the class for an
unknown or a missing required field.  A built value is accepted in place
of its dict.  Three field markers carry the exceptions:

* :func:`omit_at_default` — written only while it differs from its
  default, so adding a field to a class keeps older cache keys;
* :func:`instrument` — a live observer: never written or read, and
  ignored by ``==``;
* :func:`inf_as_null` — a float whose infinity is written as ``null``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import types
import typing
from typing import Any, Callable, Mapping, TypeVar

from repro.errors import ConfigurationError

_MARKER = "codec"
_OMIT_AT_DEFAULT = "omit_at_default"
_INSTRUMENT = "instrument"
_INF_AS_NULL = "inf_as_null"

_Config = TypeVar("_Config", bound="Serialisable")


def omit_at_default(default: Any) -> Any:
    """A field that ``to_dict`` leaves out while it equals ``default``."""
    return dataclasses.field(default=default, metadata={_MARKER: _OMIT_AT_DEFAULT})


def instrument() -> Any:
    """A live-observer field: ``None`` by default, never serialised,
    ignored by ``==`` and ``repr``."""
    return dataclasses.field(
        default=None, compare=False, repr=False, metadata={_MARKER: _INSTRUMENT}
    )


def inf_as_null() -> Any:
    """A float field, infinite by default, whose infinity is written as
    ``None`` (JSON has no infinity)."""
    return dataclasses.field(default=math.inf, metadata={_MARKER: _INF_AS_NULL})


def instrument_names(cls: type) -> tuple[str, ...]:
    """The fields of ``cls`` marked :func:`instrument`, in order."""
    return tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.metadata.get(_MARKER) == _INSTRUMENT
    )


def _same(value: Any) -> Any:
    return value


def _null_as_inf(value: Any) -> Any:
    return math.inf if value is None else value


def _sequence(value: Any, where: str) -> tuple | list:
    if not isinstance(value, (tuple, list)):
        raise ConfigurationError(
            f"{where} must be a list, got {type(value).__name__}"
        )
    return value


def _decoder(hint: Any, where: str) -> Callable[[Any], Any]:
    """The function rebuilding a value annotated ``hint`` from its dict form."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        # Only ``X | None`` nests; other unions hold plain values.
        inner = [arg for arg in args if arg is not type(None)]
        decode = _decoder(inner[0], where) if len(inner) == 1 else _same
        if decode is _same:
            return _same
        return lambda value: None if value is None else decode(value)
    if isinstance(hint, type) and issubclass(hint, Serialisable):
        return lambda value: (
            value if isinstance(value, hint) else hint.from_dict(value)
        )
    if hint is not tuple and origin is not tuple:
        return _same
    if not args or args[-1] is Ellipsis:
        item = _decoder(args[0], where) if args else _same
        return lambda value: tuple(map(item, _sequence(value, where)))
    items = [_decoder(arg, where) for arg in args]

    def fixed(value: Any) -> tuple:
        value = _sequence(value, where)
        if len(value) != len(items):
            raise ConfigurationError(f"{where} entries need {len(items)} items")
        return tuple(decode(entry) for decode, entry in zip(items, value))

    return fixed


@functools.cache
def _plan(cls: type) -> tuple[dict, list[str]]:
    """``cls``'s serialised fields as ``{name: (marker, default,
    decoder)}`` in declaration order, and its required field names."""
    # Annotations are strings (postponed evaluation): resolve each in its
    # module, skipping instruments, whose types may exist for checkers only.
    namespace = vars(sys.modules[cls.__module__])
    fields: dict[str, tuple] = {}
    required = []
    for f in dataclasses.fields(cls):
        marker = f.metadata.get(_MARKER)
        if marker == _INSTRUMENT:
            continue
        hint = eval(f.type, namespace) if isinstance(f.type, str) else f.type
        decode = (_null_as_inf if marker == _INF_AS_NULL
                  else _decoder(hint, f"{cls.__name__}.{f.name}"))
        fields[f.name] = (marker, f.default, decode)
        if f.default is f.default_factory is dataclasses.MISSING:
            required.append(f.name)
    return fields, required


def _encode(value: Any) -> Any:
    if isinstance(value, Serialisable):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


class Serialisable:
    """``to_dict``/``from_dict`` for a frozen configuration dataclass."""

    def to_dict(self) -> dict:
        """This value as a JSON-safe dict, fields in declaration order."""
        payload = {}
        for name, (marker, default, _decode) in _plan(type(self))[0].items():
            value = getattr(self, name)
            if marker == _OMIT_AT_DEFAULT and value == default:
                continue
            if marker == _INF_AS_NULL and value == math.inf:
                value = None
            payload[name] = _encode(value)
        return payload

    @classmethod
    def from_dict(cls: type[_Config], payload: Mapping) -> _Config:
        """Rebuild a value from :meth:`to_dict` output (exact round trip)."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"{cls.__name__} needs a dict, got {type(payload).__name__}"
            )
        fields, required = _plan(cls)
        unknown = payload.keys() - fields.keys()
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} fields {sorted(map(str, unknown))}"
            )
        missing = [name for name in required if name not in payload]
        if missing:
            raise ConfigurationError(f"{cls.__name__} dict needs {missing}")
        return cls(
            **{name: fields[name][2](value) for name, value in payload.items()}
        )
