"""Strict JSON wire format for fixed-point configurations.

The schema is exact: every required key must be present, no unknown keys
are tolerated, integers must be genuine integers (booleans are rejected),
and weight arrays have the arity of their component kind.  A record's keys
are its dataclass fields, a four's one weight travelling as "weights": [w].
Schema errors carry the path of the first offending key, like
"components[0].weights[2]": unknown keys, then missing keys, then values,
in field order.  A key repeated within one object is an error too, found
while the text is parsed, before any of these.

Rendering is canonical: parse(dump(cfg)) reproduces dump(cfg) byte for
byte.  dump_config writes a fixed layout, each record's keys sorted with
their line heads computed once, and its text is exactly
json.dumps(config_to_obj(cfg), sort_keys=True, indent=2) plus a newline:
strings through json's own ASCII encoder, ints (int subclasses too) by
int.__repr__, bools as true/false, lists and tuples as indented arrays,
any other value by json itself.  The search sorts its hits by this text.
Exact rational values elsewhere in the tool's JSON output are rendered as
"p/q" strings via fraction_str.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from dataclasses import fields
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Union, get_args, get_type_hints

from .localization import (
    AmbientData,
    Component,
    Configuration,
    Flags,
    FourComponent,
    PointComponent,
    SurfaceComponent,
    TEMPLATES,
)


class SchemaError(ValueError):
    """A document does not match the configuration schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _require_dict(value, path: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object")
    for key in sorted(value):
        if key not in keys:
            raise SchemaError(f"{path}.{key}" if path else key, "unknown key")
    for key in keys:
        if key not in value:
            raise SchemaError(f"{path}.{key}" if path else key, "missing key")
    return value

def _int_at(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(path, "expected an integer")
    return value


def _bool_at(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, "expected a boolean")
    return value


def _weights_at(value, path: str, arity: int) -> list[int]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array")
    if len(value) != arity:
        raise SchemaError(path, f"expected exactly {arity} weights")
    return [_int_at(w, f"{path}[{i}]") for i, w in enumerate(value)]


class _Record(NamedTuple):
    """The JSON object of one record class, read off its dataclass fields."""

    cls: type
    keys: tuple[str, ...]  # every key of the object, in field order
    readers: tuple[tuple[str, Callable], ...]  # (key, reader) per field


def _record(cls, *leading_keys: str) -> _Record:
    hints = get_type_hints(cls)
    readers = []
    for f in fields(cls):
        hint = hints[f.name]
        if f.name == "weight":  # a four's one normal weight: "weights": [w]
            readers.append(("weights", lambda v, p: _weights_at(v, p, 1)[0]))
        elif hint in (int, bool):
            readers.append((f.name, _int_at if hint is int else _bool_at))
        else:  # a tuple of normal weights
            readers.append((f.name, partial(_weights_at, arity=len(get_args(hint)))))
    keys = leading_keys + tuple(key for key, _ in readers)
    return _Record(cls, keys, tuple(readers))


_AMBIENT = _record(AmbientData)
_FLAGS = _record(Flags)
_COMPONENTS = {cls.kind: _record(cls, "kind")
               for cls in (PointComponent, SurfaceComponent, FourComponent)}


def _record_from_obj(obj, path: str, record: _Record):
    d = _require_dict(obj, path, record.keys)
    return record.cls(*[read(d[key], f"{path}.{key}")
                        for key, read in record.readers])


def _component_from_obj(obj, path: str) -> Component:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "kind" not in obj:
        raise SchemaError(f"{path}.kind", "missing key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _COMPONENTS:
        raise SchemaError(f"{path}.kind", "expected 'point', 'surface' or 'four'")
    return _record_from_obj(obj, path, _COMPONENTS[kind])


def config_from_obj(obj) -> Configuration:
    """Build a Configuration from a parsed JSON object, validating strictly."""
    top = _require_dict(obj, "", ("ambient", "template", "flags", "components"))
    ambient = _record_from_obj(top["ambient"], "ambient", _AMBIENT)
    template = top["template"]
    if not isinstance(template, str):
        raise SchemaError("template", "expected a string")
    if template not in TEMPLATES:
        raise SchemaError("template", f"unknown template {template!r}")
    flags = _record_from_obj(top["flags"], "flags", _FLAGS)
    comps = top["components"]
    if not isinstance(comps, list):
        raise SchemaError("components", "expected an array")
    components = tuple(
        _component_from_obj(c, f"components[{i}]") for i, c in enumerate(comps)
    )
    return Configuration(ambient, template, components, flags)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object_pairs_hook of parse_config: a key repeated in one object
    is a SchemaError, where plain json.loads keeps its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("", f"repeated key {key!r}")
            seen.add(key)
    return obj


def parse_config(text: str) -> Configuration:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as exc:
        # Malformed text, an integer literal longer than the interpreter's
        # digit limit, or nesting deeper than its recursion limit.
        raise SchemaError("", f"invalid JSON: {exc}") from None
    return config_from_obj(obj)


def load_config(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("", f"not UTF-8 text: {exc}") from None
    return parse_config(text)


def _record_to_obj(record, keys: tuple[str, ...]) -> dict:
    obj = {key: getattr(record, key) for key in keys}
    if "weights" in obj:  # a tuple on the record, an array in JSON
        obj["weights"] = list(obj["weights"])
    return obj


def config_to_obj(cfg: Configuration) -> dict:
    return {
        "ambient": _record_to_obj(cfg.ambient, _AMBIENT.keys),
        "template": cfg.template,
        "flags": _record_to_obj(cfg.flags, _FLAGS.keys),
        "components": [_record_to_obj(c, _COMPONENTS[c.kind].keys)
                       for c in cfg.components],
    }


def _json(value, depth: int) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) renders it at
    `depth` levels of nesting."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)) and value:
        pad = "\n" + "  " * (depth + 1)
        return ("[" + ",".join([pad + _json(v, depth + 1) for v in value])
                + "\n" + "  " * depth + "]")
    # Any other value is rendered by json itself: each line after the first
    # of a nested value is indented by its depth.
    return json.dumps(value, sort_keys=True, indent=2).replace(
        "\n", "\n" + "  " * depth)


class _Layout(NamedTuple):
    """A record's JSON object at a fixed depth: its keys in sorted order,
    each with the text that opens its line, and the text that closes it."""

    depth: int
    heads: tuple[tuple[str, str], ...]
    close: str


def _layout(record: _Record, depth: int) -> _Layout:
    pad = "\n" + "  " * (depth + 1)
    return _Layout(depth, tuple((key, f"{pad}{encode_basestring_ascii(key)}: ")
                                for key in sorted(record.keys)),
                   "\n" + "  " * depth + "}")


_AMBIENT_LAYOUT = _layout(_AMBIENT, 1)
_FLAGS_LAYOUT = _layout(_FLAGS, 1)
_COMPONENT_LAYOUTS = {kind: _layout(record, 2)
                      for kind, record in _COMPONENTS.items()}


def _record_json(record, layout: _Layout) -> str:
    depth = layout.depth + 1
    return ("{" + ",".join([head + _json(getattr(record, key), depth)
                            for key, head in layout.heads]) + layout.close)


def dump_config(cfg: Configuration) -> str:
    """Canonical JSON rendering; parsing it back reproduces it byte for byte.

    The text is json.dumps(config_to_obj(cfg), sort_keys=True, indent=2)
    plus a newline, written from the fixed layout of the records."""
    comps = cfg.components
    components = ("[" + ",".join(["\n    " + _record_json(
        c, _COMPONENT_LAYOUTS[c.kind]) for c in comps]) + "\n  ]"
                  if comps else "[]")
    return ('{\n  "ambient": ' + _record_json(cfg.ambient, _AMBIENT_LAYOUT)
            + ',\n  "components": ' + components
            + ',\n  "flags": ' + _record_json(cfg.flags, _FLAGS_LAYOUT)
            + ',\n  "template": ' + _json(cfg.template, 1) + "\n}\n")


def fraction_str(value: Union[int, Fraction]) -> str:
    """Exact decimal-free rendering: "p/q" for non-integers, "p" otherwise."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
