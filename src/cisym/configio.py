"""Strict JSON wire format for fixed-point configurations.

The schema is exact: every required key must be present, no unknown keys
are tolerated, integers must be genuine integers (booleans are rejected),
and weight arrays have the arity of their component kind.  Schema errors
carry the path of the first offending key, like "components[0].weights[2]".

Rendering is canonical: parse(dump(cfg)) reproduces dump(cfg) byte for
byte.  Exact rational values elsewhere in the tool's JSON output are
rendered as "p/q" strings via fraction_str.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .localization import (
    AmbientData,
    Component,
    Configuration,
    ConfigurationError,
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


_POINT_KEYS = ("kind", "weights", "a", "eps")
_SURFACE_KEYS = ("kind", "weights", "a", "ev_x", "ev_y1", "ev_y2", "chi")
_FOUR_KEYS = ("kind", "weights", "a", "ev_x2", "ev_xy", "ev_y2", "ev_p1",
              "b2", "sign", "chi")


def _component_from_obj(obj, path: str) -> Component:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if "kind" not in obj:
        raise SchemaError(f"{path}.kind", "missing key")
    kind = obj["kind"]
    if kind == "point":
        d = _require_dict(obj, path, _POINT_KEYS)
        return PointComponent(
            eps=_int_at(d["eps"], f"{path}.eps"),
            weights=_weights_at(d["weights"], f"{path}.weights", 3),
            a=_int_at(d["a"], f"{path}.a"),
        )
    if kind == "surface":
        d = _require_dict(obj, path, _SURFACE_KEYS)
        return SurfaceComponent(
            weights=_weights_at(d["weights"], f"{path}.weights", 2),
            a=_int_at(d["a"], f"{path}.a"),
            ev_x=_int_at(d["ev_x"], f"{path}.ev_x"),
            ev_y1=_int_at(d["ev_y1"], f"{path}.ev_y1"),
            ev_y2=_int_at(d["ev_y2"], f"{path}.ev_y2"),
            chi=_int_at(d["chi"], f"{path}.chi"),
        )
    if kind == "four":
        d = _require_dict(obj, path, _FOUR_KEYS)
        return FourComponent(
            weight=_weights_at(d["weights"], f"{path}.weights", 1)[0],
            a=_int_at(d["a"], f"{path}.a"),
            ev_x2=_int_at(d["ev_x2"], f"{path}.ev_x2"),
            ev_xy=_int_at(d["ev_xy"], f"{path}.ev_xy"),
            ev_y2=_int_at(d["ev_y2"], f"{path}.ev_y2"),
            ev_p1=_int_at(d["ev_p1"], f"{path}.ev_p1"),
            b2=_int_at(d["b2"], f"{path}.b2"),
            sign=_int_at(d["sign"], f"{path}.sign"),
            chi=_int_at(d["chi"], f"{path}.chi"),
        )
    raise SchemaError(f"{path}.kind", "expected 'point', 'surface' or 'four'")


def config_from_obj(obj) -> Configuration:
    """Build a Configuration from a parsed JSON object, validating strictly."""
    top = _require_dict(obj, "", ("ambient", "template", "flags", "components"))
    amb = _require_dict(top["ambient"], "ambient", ("t", "rho", "euler", "sign"))
    ambient = AmbientData(
        t=_int_at(amb["t"], "ambient.t"),
        rho=_int_at(amb["rho"], "ambient.rho"),
        euler=_int_at(amb["euler"], "ambient.euler"),
        sign=_int_at(amb["sign"], "ambient.sign"),
    )
    template = top["template"]
    if not isinstance(template, str):
        raise SchemaError("template", "expected a string")
    if template not in TEMPLATES:
        raise SchemaError("template", f"unknown template {template!r}")
    fl = _require_dict(top["flags"], "flags",
                       ("effectiveness", "convention35", "lemma64"))
    flags = Flags(
        effectiveness=_bool_at(fl["effectiveness"], "flags.effectiveness"),
        convention35=_bool_at(fl["convention35"], "flags.convention35"),
        lemma64=_bool_at(fl["lemma64"], "flags.lemma64"),
    )
    comps = top["components"]
    if not isinstance(comps, list):
        raise SchemaError("components", "expected an array")
    components = tuple(
        _component_from_obj(c, f"components[{i}]") for i, c in enumerate(comps)
    )
    return Configuration(ambient, template, components, flags)


def parse_config(text: str) -> Configuration:
    try:
        obj = json.loads(text)
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


def component_to_obj(c: Component) -> dict:
    if c.kind == "point":
        return {"kind": "point", "weights": list(c.weights), "a": c.a,
                "eps": c.eps}
    if c.kind == "surface":
        return {"kind": "surface", "weights": list(c.weights), "a": c.a,
                "ev_x": c.ev_x, "ev_y1": c.ev_y1, "ev_y2": c.ev_y2,
                "chi": c.chi}
    return {"kind": "four", "weights": [c.weight], "a": c.a,
            "ev_x2": c.ev_x2, "ev_xy": c.ev_xy, "ev_y2": c.ev_y2,
            "ev_p1": c.ev_p1, "b2": c.b2, "sign": c.sign, "chi": c.chi}


def config_to_obj(cfg: Configuration) -> dict:
    return {
        "ambient": {
            "t": cfg.ambient.t,
            "rho": cfg.ambient.rho,
            "euler": cfg.ambient.euler,
            "sign": cfg.ambient.sign,
        },
        "template": cfg.template,
        "flags": {
            "effectiveness": cfg.flags.effectiveness,
            "convention35": cfg.flags.convention35,
            "lemma64": cfg.flags.lemma64,
        },
        "components": [component_to_obj(c) for c in cfg.components],
    }


def dump_config(cfg: Configuration) -> str:
    """Canonical JSON rendering; parsing it back reproduces it byte for byte."""
    return json.dumps(config_to_obj(cfg), sort_keys=True, indent=2) + "\n"


def fraction_str(value: Union[int, Fraction]) -> str:
    """Exact decimal-free rendering: "p/q" for non-integers, "p" otherwise."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
