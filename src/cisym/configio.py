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
byte.  dump_config writes a fixed layout, and its text is exactly
json.dumps(config_to_obj(cfg), sort_keys=True, indent=2) plus a newline,
because each layout is json_text's own rendering.  When the module is
imported, json_text renders a sample object of each record, and of the
document, with a slot in place of each value (the weight arrays at the
arity of their kind: 3 for a point, 2 for a surface, 1 for a four), and
that text is the record's one %-format.  A record is rendered by one %
over its flat values: "%d" writes ints, int subclasses too, as
int.__repr__ does, and the flags' bools go in as "true" and "false".  The
search sorts its hits by this text.

The renderer json_text writes every `--json` answer of the command
line, byte for byte the text of
json.dumps(value, sort_keys=True, indent=2): strings through json's own
ASCII encoder, ints (int subclasses too) by int.__repr__, bools as
true/false, tuples and lists as indented arrays, objects with their string
keys sorted, and None as null.  It renders no other value, floats
included.  Exact rational values are rendered as "p/q" strings via
fraction_str.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from dataclasses import fields
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import Callable, NamedTuple, Union, get_args, get_type_hints

from .localization import (
    AmbientData,
    Component,
    Configuration,
    Flags,
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
    """The JSON object of one record class, read off its dataclass fields,
    and its text at its depth in a document."""

    cls: type
    keys: tuple[str, ...]  # every key of the object, in field order
    readers: tuple[tuple[str, Callable], ...]  # (key, reader) per field
    render: Callable[[object], str]  # a record's text, by one %-format


_JSON_BOOLS = ("false", "true")


def _layout(sample: dict, depth: int) -> str:
    """json_text's rendering of sample at depth as a %-format: each "%d" and
    "%s" string in it becomes a bare slot."""
    return (json_text(sample, depth).replace('"%d"', "%d")
            .replace('"%s"', "%s"))


def _record(cls, depth: int, *leading_keys: str) -> _Record:
    """The reader of each field and one %-format for the whole object: the
    _layout of a sample object at depth, with the constant "kind" of a
    component and a slot per value, "%d" for an int and for each weight of
    the fixed arity, "%s" for a bool rendered as true or false."""
    hints = get_type_hints(cls)
    readers = []
    attrs = {}  # key: attribute
    sample = {key: cls.kind for key in leading_keys}
    for f in fields(cls):
        hint = hints[f.name]
        if f.name == "weight":  # a four's one normal weight: "weights": [w]
            key, arity = "weights", 1
            readers.append((key, lambda v, p: _weights_at(v, p, 1)[0]))
        elif hint in (int, bool):
            key, arity = f.name, 0
            readers.append((key, _int_at if hint is int else _bool_at))
        else:  # a tuple of normal weights
            key, arity = f.name, len(get_args(hint))
            readers.append((key, partial(_weights_at, arity=arity)))
        attrs[key] = f.name
        sample[key] = (["%d"] * arity if arity
                       else "%s" if hint is bool else "%d")
    keys = leading_keys + tuple(key for key, _ in readers)
    # Field names and kinds are identifiers: no "%" in them to escape.
    layout = _layout(sample, depth)
    get = attrgetter(*[attrs[key] for key in sorted(attrs)])
    if bool in hints.values():  # Flags, whose fields are all bools
        def render(obj):
            return layout % tuple([_JSON_BOOLS[v] for v in get(obj)])
    elif "weights" in hints:  # a tuple, and the last key in sorted order
        def render(obj):
            values = get(obj)
            return layout % (values[:-1] + values[-1])
    else:
        def render(obj):
            return layout % get(obj)
    return _Record(cls, keys, tuple(readers), render)


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


def json_text(value, depth: int = 0) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) renders it at
    `depth` levels of nesting.

    Strings, bools, ints, arrays (tuples and lists), objects with string
    keys and None are JSON; any other value or key is a TypeError.  The
    branches a configuration takes come first, since `verify --json`
    echoes one."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (tuple, list)):
        if not value:
            return "[]"
        depth += 1
        pad = "\n" + "  " * depth
        return ("[" + pad + ("," + pad).join([json_text(v, depth)
                                              for v in value])
                + pad[:-2] + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        depth += 1
        pad = "\n" + "  " * depth
        # Sorted as json.dumps sorts them, by (key, value) pairs.
        return ("{" + pad + ("," + pad).join(
            [encode_basestring_ascii(key) + ": " + json_text(v, depth)
             for key, v in sorted(value.items())]) + pad[:-2] + "}")
    if value is None:
        return "null"
    raise TypeError(f"JSON output holds no {type(value).__name__} value")


_AMBIENT = _record(AmbientData, 1)
_FLAGS = _record(Flags, 1)
_COMPONENTS = {cls.kind: _record(cls, 2, "kind")
               for cls in get_args(Component)}
_DOCUMENT = _layout({"ambient": "%s", "components": ["%s"], "flags": "%s",
                     "template": "%s"}, 0) + "\n"


def dump_config(cfg: Configuration) -> str:
    """Canonical JSON rendering; parsing it back reproduces it byte for byte.

    The text is json.dumps(config_to_obj(cfg), sort_keys=True, indent=2)
    plus a newline, each record written by its compiled layout."""
    return _DOCUMENT % (
        _AMBIENT.render(cfg.ambient),
        ",\n    ".join([_COMPONENTS[c.kind].render(c)
                       for c in cfg.components]),
        _FLAGS.render(cfg.flags), encode_basestring_ascii(cfg.template))


def fraction_str(value: Union[int, Fraction]) -> str:
    """Exact decimal-free rendering: "p/q" for non-integers, "p" otherwise."""
    return str(Fraction(value))
