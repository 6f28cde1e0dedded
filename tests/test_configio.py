"""Tests for the strict JSON configuration format."""

import json
from enum import IntEnum
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisym.configio import (
    _COMPONENTS,
    SchemaError,
    config_from_obj,
    config_to_obj,
    dump_config,
    fraction_str,
    json_text,
    load_config,
    parse_config,
)
from cisym.localization import (
    _TEMPLATE_B2,
    TEMPLATES,
    AmbientData,
    Configuration,
    ConfigurationError,
    Flags,
    FourComponent,
    PointComponent,
    SurfaceComponent,
)
from cisym.search import SearchBounds, search_case
from test_search import FLAG_SETS, PINNED, PINNED_WIDE, SMALL

from fractions import Fraction


def quadric_obj():
    return {
        "ambient": {"t": 2, "rho": 1, "euler": 4, "sign": 0},
        "template": "surface_plus_two_points",
        "flags": {"effectiveness": True, "convention35": True,
                  "lemma64": True},
        "components": [
            {"kind": "surface", "weights": [1, 1], "a": 0, "ev_x": -2,
             "ev_y1": 0, "ev_y2": 0, "chi": 2},
            {"kind": "point", "weights": [1, 1, 1], "a": 1, "eps": 1},
            {"kind": "point", "weights": [1, 1, 1], "a": -1, "eps": -1},
        ],
    }


def path_of_error(obj) -> str:
    with pytest.raises(SchemaError) as excinfo:
        config_from_obj(obj)
    return excinfo.value.path


def test_parse_well_formed_document():
    cfg = config_from_obj(quadric_obj())
    assert cfg.template == "surface_plus_two_points"
    assert cfg.ambient.t == 2
    assert len(cfg.components) == 3
    assert cfg.components[1].eps == 1


def test_round_trip_is_byte_identical():
    cfg = config_from_obj(quadric_obj())
    text = dump_config(cfg)
    again = parse_config(text)
    assert dump_config(again) == text


def test_missing_top_level_key():
    obj = quadric_obj()
    del obj["template"]
    assert path_of_error(obj) == "template"


def test_unknown_top_level_key():
    obj = quadric_obj()
    obj["comment"] = "hello"
    assert path_of_error(obj) == "comment"


def test_unknown_nested_key_path():
    obj = quadric_obj()
    obj["ambient"]["extra"] = 7
    assert path_of_error(obj) == "ambient.extra"


def test_missing_flag_key():
    obj = quadric_obj()
    del obj["flags"]["lemma64"]
    assert path_of_error(obj) == "flags.lemma64"


def test_boolean_is_not_an_integer():
    obj = quadric_obj()
    obj["ambient"]["t"] = True
    assert path_of_error(obj) == "ambient.t"


def test_integer_is_not_a_boolean():
    obj = quadric_obj()
    obj["flags"]["lemma64"] = 1
    assert path_of_error(obj) == "flags.lemma64"


def test_float_rejected():
    obj = quadric_obj()
    obj["ambient"]["rho"] = 1.0
    assert path_of_error(obj) == "ambient.rho"


def test_weight_arity_enforced():
    obj = quadric_obj()
    obj["components"][1]["weights"] = [1, 1]
    assert path_of_error(obj) == "components[1].weights"


def test_weight_entry_path():
    obj = quadric_obj()
    obj["components"][0]["weights"] = [1, "two"]
    assert path_of_error(obj) == "components[0].weights[1]"


def test_component_unknown_key_path():
    obj = quadric_obj()
    obj["components"][2]["sign"] = 0
    assert path_of_error(obj) == "components[2].sign"


def test_missing_keys_are_reported_in_field_order():
    # A point's fields are eps, weights, a; the JSON keys follow them.
    obj = quadric_obj()
    del obj["components"][1]["weights"]
    del obj["components"][1]["eps"]
    assert path_of_error(obj) == "components[1].eps"


def test_component_kind_required():
    obj = quadric_obj()
    del obj["components"][0]["kind"]
    assert path_of_error(obj) == "components[0].kind"


def test_unknown_kind():
    obj = quadric_obj()
    obj["components"][0] = {"kind": "solid", "weights": [1]}
    assert path_of_error(obj) == "components[0].kind"


def test_unknown_template_rejected():
    obj = quadric_obj()
    obj["template"] = "three_surfaces"
    assert path_of_error(obj) == "template"


def test_invalid_json_text():
    with pytest.raises(SchemaError):
        parse_config("{not json")


@pytest.mark.parametrize("text", [
    '{"ambient": {"t": ' + "1" * 5000 + "}}",
    "[" * 100_000 + "]" * 100_000,
], ids=["beyond-int-digit-limit", "beyond-recursion-limit"])
def test_unparseable_json_is_a_schema_error(text):
    with pytest.raises(SchemaError):
        parse_config(text)


@pytest.mark.parametrize("where, key, value", [
    ("top level", "template", '"two_surfaces"'),
    ("ambient", "t", "99"),
    ("component", "a", "7"),
])
def test_repeated_key_is_a_schema_error(where, key, value):
    text = json.dumps(quadric_obj())
    first = {"template": '"template": "surface_plus_two_points"',
             "t": '"t": 2', "a": '"a": 1,'}[key]
    assert text.count(first) == 1
    parse_config(text)
    # The repeat comes first, so the kept last value is the valid one.
    repeated = text.replace(first, f'"{key}": {value}, {first}')
    with pytest.raises(SchemaError) as excinfo:
        parse_config(repeated)
    assert str(excinfo.value) == f"repeated key {key!r}"
    assert excinfo.value.path == ""


def test_structural_violations_surface_as_configuration_error():
    obj = quadric_obj()
    obj["ambient"]["t"] = 0
    with pytest.raises(ConfigurationError):
        config_from_obj(obj)


def cp2like_obj():
    return {
        "ambient": {"t": 1, "rho": 4, "euler": 4, "sign": 0},
        "template": "cp2like_plus_point",
        "flags": {"effectiveness": True, "convention35": True,
                  "lemma64": True},
        "components": [
            {"kind": "four", "weights": [1], "a": 0, "ev_x2": -1,
             "ev_xy": 1, "ev_y2": -1, "ev_p1": -3, "b2": 1, "sign": -1,
             "chi": 3},
            {"kind": "point", "weights": [1, 1, 1], "a": 1, "eps": 1},
        ],
    }


def test_four_component_round_trip():
    obj = cp2like_obj()
    cfg = config_from_obj(obj)
    assert json.loads(dump_config(cfg)) == obj
    assert dump_config(parse_config(dump_config(cfg))) == dump_config(cfg)


def test_fraction_str_rendering():
    assert fraction_str(Fraction(5, 8)) == "5/8"
    assert fraction_str(Fraction(-64)) == "-64"
    assert fraction_str(7) == "7"
    assert fraction_str(Fraction(-3, 4)) == "-3/4"


# ---------------------------------------------------------------------------
# Single-defect documents: a valid document with one defect in one record.
# The outcome of each (path and message of the SchemaError, or the message
# of the ConfigurationError when the path is None) is pinned.

# The record each case edits: the document it starts from, and where it sits.
DEFECT_RECORDS = {
    "ambient": (quadric_obj, ("ambient",)),
    "flags": (quadric_obj, ("flags",)),
    "surface": (quadric_obj, ("components", 0)),
    "point": (quadric_obj, ("components", 1)),
    "four": (cp2like_obj, ("components", 0)),
}

# Values of the right type that the record's own checks reject.
BAD_VALUES = {
    "ambient": (("t", 0), ("sign", 1)),
    "point": (("eps", 0), ("eps", 2)),
    "surface": (("chi", 3), ("chi", 4)),
    "four": (("b2", 3), ("sign", 3), ("sign", 0), ("ev_p1", 0), ("chi", 9),
             ("chi", 2)),
}


def record_at(obj, where):
    for step in where:
        obj = obj[step]
    return obj


def single_defects():
    """(case id, document) for each record and each kind of defect."""
    for record, (base, where) in DEFECT_RECORDS.items():
        def doc(change):
            obj = base()
            change(record_at(obj, where))
            return obj

        keys = list(record_at(base(), where))
        for key in keys:
            yield f"{record}/missing/{key}", doc(lambda n, k=key: n.pop(k))
        yield f"{record}/unknown", doc(lambda n: n.update(extra=0))
        yield f"{record}/unknown-and-missing", doc(
            lambda n, k=keys[-1]: (n.pop(k), n.update(zzz=0)))
        for key in keys:
            if key in ("kind", "weights"):
                continue
            # "swap" puts a bool in an int slot and an int in a bool slot.
            for label, bad in (("string", "1"), ("float", 1.0), ("null", None),
                               ("list", [1]), ("swap", "swap")):
                def put(n, k=key, v=bad):
                    if v == "swap":
                        v = 1 if isinstance(n[k], bool) else True
                    n[k] = v
                yield f"{record}/{key}={label}", doc(put)
        for key, value in BAD_VALUES.get(record, ()):
            yield f"{record}/{key}={value}", doc(
                lambda n, k=key, v=value: n.__setitem__(k, v))
        if "weights" in keys:
            for label, bad in (("string", "1"), ("null", None), ("int", 1),
                               ("object", {})):
                yield f"{record}/weights={label}", doc(
                    lambda n, v=bad: n.__setitem__("weights", v))
            yield f"{record}/weights-short", doc(
                lambda n: n.__setitem__("weights", n["weights"][:-1]))
            yield f"{record}/weights-long", doc(
                lambda n: n.__setitem__("weights", n["weights"] + [1]))
            for label, bad in (("bool", True), ("float", 1.5), ("zero", 0),
                               ("huge", 1001)):
                yield f"{record}/weights-entry-{label}", doc(
                    lambda n, v=bad: n["weights"].__setitem__(0, v))
        if "kind" in keys:
            other = "surface" if record == "point" else "point"
            for label, bad in (("int", 7), ("null", None), ("list", ["point"]),
                               ("unknown", "solid"), ("other", other)):
                yield f"{record}/kind={label}", doc(
                    lambda n, v=bad: n.__setitem__("kind", v))
    for label, bad in (("null", None), ("list", []), ("string", "point")):
        obj = quadric_obj()
        obj["components"][1] = bad
        yield f"component={label}", obj


SINGLE_DEFECTS = dict(single_defects())

# Taken from the parser before its record tables were derived from the
# dataclass fields.
SINGLE_DEFECT_OUTCOMES = {
    "ambient/missing/t": ("ambient.t", "missing key"),
    "ambient/missing/rho": ("ambient.rho", "missing key"),
    "ambient/missing/euler": ("ambient.euler", "missing key"),
    "ambient/missing/sign": ("ambient.sign", "missing key"),
    "ambient/unknown": ("ambient.extra", "unknown key"),
    "ambient/unknown-and-missing": ("ambient.zzz", "unknown key"),
    "ambient/t=string": ("ambient.t", "expected an integer"),
    "ambient/t=float": ("ambient.t", "expected an integer"),
    "ambient/t=null": ("ambient.t", "expected an integer"),
    "ambient/t=list": ("ambient.t", "expected an integer"),
    "ambient/t=swap": ("ambient.t", "expected an integer"),
    "ambient/rho=string": ("ambient.rho", "expected an integer"),
    "ambient/rho=float": ("ambient.rho", "expected an integer"),
    "ambient/rho=null": ("ambient.rho", "expected an integer"),
    "ambient/rho=list": ("ambient.rho", "expected an integer"),
    "ambient/rho=swap": ("ambient.rho", "expected an integer"),
    "ambient/euler=string": ("ambient.euler", "expected an integer"),
    "ambient/euler=float": ("ambient.euler", "expected an integer"),
    "ambient/euler=null": ("ambient.euler", "expected an integer"),
    "ambient/euler=list": ("ambient.euler", "expected an integer"),
    "ambient/euler=swap": ("ambient.euler", "expected an integer"),
    "ambient/sign=string": ("ambient.sign", "expected an integer"),
    "ambient/sign=float": ("ambient.sign", "expected an integer"),
    "ambient/sign=null": ("ambient.sign", "expected an integer"),
    "ambient/sign=list": ("ambient.sign", "expected an integer"),
    "ambient/sign=swap": ("ambient.sign", "expected an integer"),
    "ambient/t=0": (None, "t = x^3 must be a positive integer"),
    "ambient/sign=1":
        (None, "6-manifolds have vanishing signature; ambient sign must be 0"),
    "flags/missing/effectiveness": ("flags.effectiveness", "missing key"),
    "flags/missing/convention35": ("flags.convention35", "missing key"),
    "flags/missing/lemma64": ("flags.lemma64", "missing key"),
    "flags/unknown": ("flags.extra", "unknown key"),
    "flags/unknown-and-missing": ("flags.zzz", "unknown key"),
    "flags/effectiveness=string": ("flags.effectiveness", "expected a boolean"),
    "flags/effectiveness=float": ("flags.effectiveness", "expected a boolean"),
    "flags/effectiveness=null": ("flags.effectiveness", "expected a boolean"),
    "flags/effectiveness=list": ("flags.effectiveness", "expected a boolean"),
    "flags/effectiveness=swap": ("flags.effectiveness", "expected a boolean"),
    "flags/convention35=string": ("flags.convention35", "expected a boolean"),
    "flags/convention35=float": ("flags.convention35", "expected a boolean"),
    "flags/convention35=null": ("flags.convention35", "expected a boolean"),
    "flags/convention35=list": ("flags.convention35", "expected a boolean"),
    "flags/convention35=swap": ("flags.convention35", "expected a boolean"),
    "flags/lemma64=string": ("flags.lemma64", "expected a boolean"),
    "flags/lemma64=float": ("flags.lemma64", "expected a boolean"),
    "flags/lemma64=null": ("flags.lemma64", "expected a boolean"),
    "flags/lemma64=list": ("flags.lemma64", "expected a boolean"),
    "flags/lemma64=swap": ("flags.lemma64", "expected a boolean"),
    "surface/missing/kind": ("components[0].kind", "missing key"),
    "surface/missing/weights": ("components[0].weights", "missing key"),
    "surface/missing/a": ("components[0].a", "missing key"),
    "surface/missing/ev_x": ("components[0].ev_x", "missing key"),
    "surface/missing/ev_y1": ("components[0].ev_y1", "missing key"),
    "surface/missing/ev_y2": ("components[0].ev_y2", "missing key"),
    "surface/missing/chi": ("components[0].chi", "missing key"),
    "surface/unknown": ("components[0].extra", "unknown key"),
    "surface/unknown-and-missing": ("components[0].zzz", "unknown key"),
    "surface/a=string": ("components[0].a", "expected an integer"),
    "surface/a=float": ("components[0].a", "expected an integer"),
    "surface/a=null": ("components[0].a", "expected an integer"),
    "surface/a=list": ("components[0].a", "expected an integer"),
    "surface/a=swap": ("components[0].a", "expected an integer"),
    "surface/ev_x=string": ("components[0].ev_x", "expected an integer"),
    "surface/ev_x=float": ("components[0].ev_x", "expected an integer"),
    "surface/ev_x=null": ("components[0].ev_x", "expected an integer"),
    "surface/ev_x=list": ("components[0].ev_x", "expected an integer"),
    "surface/ev_x=swap": ("components[0].ev_x", "expected an integer"),
    "surface/ev_y1=string": ("components[0].ev_y1", "expected an integer"),
    "surface/ev_y1=float": ("components[0].ev_y1", "expected an integer"),
    "surface/ev_y1=null": ("components[0].ev_y1", "expected an integer"),
    "surface/ev_y1=list": ("components[0].ev_y1", "expected an integer"),
    "surface/ev_y1=swap": ("components[0].ev_y1", "expected an integer"),
    "surface/ev_y2=string": ("components[0].ev_y2", "expected an integer"),
    "surface/ev_y2=float": ("components[0].ev_y2", "expected an integer"),
    "surface/ev_y2=null": ("components[0].ev_y2", "expected an integer"),
    "surface/ev_y2=list": ("components[0].ev_y2", "expected an integer"),
    "surface/ev_y2=swap": ("components[0].ev_y2", "expected an integer"),
    "surface/chi=string": ("components[0].chi", "expected an integer"),
    "surface/chi=float": ("components[0].chi", "expected an integer"),
    "surface/chi=null": ("components[0].chi", "expected an integer"),
    "surface/chi=list": ("components[0].chi", "expected an integer"),
    "surface/chi=swap": ("components[0].chi", "expected an integer"),
    "surface/chi=3": (None, "surface chi must be even and <= 2"),
    "surface/chi=4": (None, "surface chi must be even and <= 2"),
    "surface/weights=string": ("components[0].weights", "expected an array"),
    "surface/weights=null": ("components[0].weights", "expected an array"),
    "surface/weights=int": ("components[0].weights", "expected an array"),
    "surface/weights=object": ("components[0].weights", "expected an array"),
    "surface/weights-short": ("components[0].weights", "expected exactly 2 weights"),
    "surface/weights-long": ("components[0].weights", "expected exactly 2 weights"),
    "surface/weights-entry-bool": ("components[0].weights[0]", "expected an integer"),
    "surface/weights-entry-float": ("components[0].weights[0]", "expected an integer"),
    "surface/weights-entry-zero": (None, "surface weight must be >= 1, got 0"),
    "surface/weights-entry-huge": (None, "surface weight must be <= 1000"),
    "surface/kind=int": ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "surface/kind=null":
        ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "surface/kind=list":
        ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "surface/kind=unknown":
        ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "surface/kind=other": ("components[0].chi", "unknown key"),
    "point/missing/kind": ("components[1].kind", "missing key"),
    "point/missing/weights": ("components[1].weights", "missing key"),
    "point/missing/a": ("components[1].a", "missing key"),
    "point/missing/eps": ("components[1].eps", "missing key"),
    "point/unknown": ("components[1].extra", "unknown key"),
    "point/unknown-and-missing": ("components[1].zzz", "unknown key"),
    "point/a=string": ("components[1].a", "expected an integer"),
    "point/a=float": ("components[1].a", "expected an integer"),
    "point/a=null": ("components[1].a", "expected an integer"),
    "point/a=list": ("components[1].a", "expected an integer"),
    "point/a=swap": ("components[1].a", "expected an integer"),
    "point/eps=string": ("components[1].eps", "expected an integer"),
    "point/eps=float": ("components[1].eps", "expected an integer"),
    "point/eps=null": ("components[1].eps", "expected an integer"),
    "point/eps=list": ("components[1].eps", "expected an integer"),
    "point/eps=swap": ("components[1].eps", "expected an integer"),
    "point/eps=0": (None, "point eps must be +1 or -1, got 0"),
    "point/eps=2": (None, "point eps must be +1 or -1, got 2"),
    "point/weights=string": ("components[1].weights", "expected an array"),
    "point/weights=null": ("components[1].weights", "expected an array"),
    "point/weights=int": ("components[1].weights", "expected an array"),
    "point/weights=object": ("components[1].weights", "expected an array"),
    "point/weights-short": ("components[1].weights", "expected exactly 3 weights"),
    "point/weights-long": ("components[1].weights", "expected exactly 3 weights"),
    "point/weights-entry-bool": ("components[1].weights[0]", "expected an integer"),
    "point/weights-entry-float": ("components[1].weights[0]", "expected an integer"),
    "point/weights-entry-zero": (None, "point weight must be >= 1, got 0"),
    "point/weights-entry-huge": (None, "point weight must be <= 1000"),
    "point/kind=int": ("components[1].kind", "expected 'point', 'surface' or 'four'"),
    "point/kind=null": ("components[1].kind", "expected 'point', 'surface' or 'four'"),
    "point/kind=list": ("components[1].kind", "expected 'point', 'surface' or 'four'"),
    "point/kind=unknown":
        ("components[1].kind", "expected 'point', 'surface' or 'four'"),
    "point/kind=other": ("components[1].eps", "unknown key"),
    "four/missing/kind": ("components[0].kind", "missing key"),
    "four/missing/weights": ("components[0].weights", "missing key"),
    "four/missing/a": ("components[0].a", "missing key"),
    "four/missing/ev_x2": ("components[0].ev_x2", "missing key"),
    "four/missing/ev_xy": ("components[0].ev_xy", "missing key"),
    "four/missing/ev_y2": ("components[0].ev_y2", "missing key"),
    "four/missing/ev_p1": ("components[0].ev_p1", "missing key"),
    "four/missing/b2": ("components[0].b2", "missing key"),
    "four/missing/sign": ("components[0].sign", "missing key"),
    "four/missing/chi": ("components[0].chi", "missing key"),
    "four/unknown": ("components[0].extra", "unknown key"),
    "four/unknown-and-missing": ("components[0].zzz", "unknown key"),
    "four/a=string": ("components[0].a", "expected an integer"),
    "four/a=float": ("components[0].a", "expected an integer"),
    "four/a=null": ("components[0].a", "expected an integer"),
    "four/a=list": ("components[0].a", "expected an integer"),
    "four/a=swap": ("components[0].a", "expected an integer"),
    "four/ev_x2=string": ("components[0].ev_x2", "expected an integer"),
    "four/ev_x2=float": ("components[0].ev_x2", "expected an integer"),
    "four/ev_x2=null": ("components[0].ev_x2", "expected an integer"),
    "four/ev_x2=list": ("components[0].ev_x2", "expected an integer"),
    "four/ev_x2=swap": ("components[0].ev_x2", "expected an integer"),
    "four/ev_xy=string": ("components[0].ev_xy", "expected an integer"),
    "four/ev_xy=float": ("components[0].ev_xy", "expected an integer"),
    "four/ev_xy=null": ("components[0].ev_xy", "expected an integer"),
    "four/ev_xy=list": ("components[0].ev_xy", "expected an integer"),
    "four/ev_xy=swap": ("components[0].ev_xy", "expected an integer"),
    "four/ev_y2=string": ("components[0].ev_y2", "expected an integer"),
    "four/ev_y2=float": ("components[0].ev_y2", "expected an integer"),
    "four/ev_y2=null": ("components[0].ev_y2", "expected an integer"),
    "four/ev_y2=list": ("components[0].ev_y2", "expected an integer"),
    "four/ev_y2=swap": ("components[0].ev_y2", "expected an integer"),
    "four/ev_p1=string": ("components[0].ev_p1", "expected an integer"),
    "four/ev_p1=float": ("components[0].ev_p1", "expected an integer"),
    "four/ev_p1=null": ("components[0].ev_p1", "expected an integer"),
    "four/ev_p1=list": ("components[0].ev_p1", "expected an integer"),
    "four/ev_p1=swap": ("components[0].ev_p1", "expected an integer"),
    "four/b2=string": ("components[0].b2", "expected an integer"),
    "four/b2=float": ("components[0].b2", "expected an integer"),
    "four/b2=null": ("components[0].b2", "expected an integer"),
    "four/b2=list": ("components[0].b2", "expected an integer"),
    "four/b2=swap": ("components[0].b2", "expected an integer"),
    "four/sign=string": ("components[0].sign", "expected an integer"),
    "four/sign=float": ("components[0].sign", "expected an integer"),
    "four/sign=null": ("components[0].sign", "expected an integer"),
    "four/sign=list": ("components[0].sign", "expected an integer"),
    "four/sign=swap": ("components[0].sign", "expected an integer"),
    "four/chi=string": ("components[0].chi", "expected an integer"),
    "four/chi=float": ("components[0].chi", "expected an integer"),
    "four/chi=null": ("components[0].chi", "expected an integer"),
    "four/chi=list": ("components[0].chi", "expected an integer"),
    "four/chi=swap": ("components[0].chi", "expected an integer"),
    "four/b2=3": (None, "b2 of a 4-dimensional component is 0, 1 or 2"),
    "four/sign=3": (None, "signature must satisfy |sign| <= b2 and sign == b2 (mod 2)"),
    "four/sign=0": (None, "signature must satisfy |sign| <= b2 and sign == b2 (mod 2)"),
    "four/ev_p1=0":
        (None,
         "ev_p1 must equal 3*sign (signature theorem for closed"
         " oriented 4-manifolds)"),
    "four/chi=9": (None, "chi must be <= 2 + b2 and of the same parity as b2"),
    "four/chi=2": (None, "chi must be <= 2 + b2 and of the same parity as b2"),
    "four/weights=string": ("components[0].weights", "expected an array"),
    "four/weights=null": ("components[0].weights", "expected an array"),
    "four/weights=int": ("components[0].weights", "expected an array"),
    "four/weights=object": ("components[0].weights", "expected an array"),
    "four/weights-short": ("components[0].weights", "expected exactly 1 weights"),
    "four/weights-long": ("components[0].weights", "expected exactly 1 weights"),
    "four/weights-entry-bool": ("components[0].weights[0]", "expected an integer"),
    "four/weights-entry-float": ("components[0].weights[0]", "expected an integer"),
    "four/weights-entry-zero":
        (None, "4-dimensional component weight must be >= 1, got 0"),
    "four/weights-entry-huge": (None, "4-dimensional component weight must be <= 1000"),
    "four/kind=int": ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "four/kind=null": ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "four/kind=list": ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "four/kind=unknown":
        ("components[0].kind", "expected 'point', 'surface' or 'four'"),
    "four/kind=other": ("components[0].b2", "unknown key"),
    "component=null": ("components[1]", "expected an object"),
    "component=list": ("components[1]", "expected an object"),
    "component=string": ("components[1]", "expected an object"),
}


def test_single_defect_cases_are_the_pinned_ones():
    assert list(SINGLE_DEFECTS) == list(SINGLE_DEFECT_OUTCOMES)


@pytest.mark.parametrize("case", list(SINGLE_DEFECT_OUTCOMES))
def test_single_defect_outcome_is_pinned(case):
    path, message = SINGLE_DEFECT_OUTCOMES[case]
    expected = SchemaError if path is not None else ConfigurationError
    with pytest.raises((SchemaError, ConfigurationError)) as excinfo:
        config_from_obj(SINGLE_DEFECTS[case])
    assert type(excinfo.value) is expected
    if path is None:
        assert str(excinfo.value) == message
    else:
        assert excinfo.value.path == path
        assert str(excinfo.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# Fuzzing: whatever the document, only SchemaError or ConfigurationError
# escapes the parser.

SCHEMA_KEYS = sorted({"ambient", "template", "flags", "components", "t",
                      "rho", "euler", "sign", "effectiveness", "convention35",
                      "lemma64",
                      *(key for c in _COMPONENTS.values() for key in c.keys)})
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(),
    st.sampled_from([10**18, -(10**18), 10**300, -(10**300)]),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(sorted(TEMPLATES) + ["point", "surface", "four"]),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(SCHEMA_KEYS),
                                  st.text(max_size=4)),
                        children, max_size=6),
    ),
    max_leaves=30,
)


def parse_or_reject(text: str) -> None:
    try:
        parse_config(text)
    except (SchemaError, ConfigurationError):
        pass


@given(json_trees)
def test_fuzz_arbitrary_json_trees(tree):
    parse_or_reject(json.dumps(tree))


@given(st.text(max_size=40))
def test_fuzz_arbitrary_text(text):
    parse_or_reject(text)


def mutate(data, node):
    """node with one subtree replaced, one key dropped, or one key added."""
    if isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)))
        action = data.draw(st.sampled_from(("descend", "drop", "add")))
        if action == "descend":
            node[key] = mutate(data, node[key])
        elif action == "drop":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.sampled_from(SCHEMA_KEYS))] = data.draw(json_trees)
        else:
            node.append(data.draw(json_trees))
        return node
    return data.draw(json_trees)


@given(st.data())
def test_fuzz_mutated_documents(data):
    parse_or_reject(json.dumps(mutate(data, quadric_obj())))


small = st.integers(-12, 12)
exact_ints = st.one_of(small, st.integers(-(10**40), 10**40))
weights = st.one_of(st.just(1), st.integers(1, 12))


@st.composite
def configurations(draw):
    template = draw(st.sampled_from(sorted(TEMPLATES)))
    b2 = _TEMPLATE_B2.get(template)

    def component(kind):
        a = draw(exact_ints)
        if kind == "point":
            return PointComponent(draw(st.sampled_from((-1, 1))),
                                  draw(st.tuples(weights, weights, weights)), a)
        if kind == "surface":
            return SurfaceComponent(draw(st.tuples(weights, weights)), a,
                                    draw(exact_ints), draw(exact_ints),
                                    draw(exact_ints), 2 - 2 * draw(st.integers(0, 5)))
        sign = draw(st.sampled_from(range(-b2, b2 + 1, 2)))
        evs = (draw(exact_ints), draw(exact_ints), draw(exact_ints)) if b2 else (0, 0, 0)
        return FourComponent(draw(weights), a, *evs, 3 * sign, b2, sign,
                             2 + b2 - 2 * draw(st.integers(0, 3)))

    comps = tuple(component(kind) for kind in TEMPLATES[template])
    ambient = AmbientData(draw(st.integers(1, 10**12)), draw(exact_ints),
                          draw(exact_ints), 0)
    flags = Flags(draw(st.booleans()), draw(st.booleans()), draw(st.booleans()))
    try:
        return Configuration(ambient, template, comps, flags)
    except ConfigurationError:  # coprimality or the orientation convention
        return Configuration(ambient, template, comps,
                             Flags(False, False, flags.lemma64))


@given(configurations())
def test_dump_parse_dump_is_byte_identical(cfg):
    text = dump_config(cfg)
    parsed = parse_config(text)
    assert parsed == cfg
    assert dump_config(parsed) == text


# ---------------------------------------------------------------------------
# dump_config writes the fixed layout of the records itself; it must be the
# text json.dumps gives for config_to_obj, byte for byte.


def json_reference(cfg: Configuration) -> str:
    return json.dumps(config_to_obj(cfg), sort_keys=True, indent=2) + "\n"


DEMO_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))


def test_demo_configs_are_dumped_as_json_dumps_renders_them():
    assert len(DEMO_CONFIGS) == 10
    for path in DEMO_CONFIGS:
        cfg = load_config(str(path))
        assert dump_config(cfg) == json_reference(cfg)


# The searches of the pinned hit lists of test_search that have hits.
PINNED_SEARCHES = (
    [pytest.param(template, (1, 6), (-6, 6), SearchBounds(*bounds), flag_set,
                  id="-".join((template, flag_set, *map(str, bounds))))
     for flag_set, bounds, template in sorted(PINNED)]
    + [pytest.param(template, (1, 10), (-10, 10), SMALL, flag_set,
                    id=f"{template}-{flag_set}-wide")
       for flag_set, template in sorted(PINNED_WIDE)
       if PINNED_WIDE[flag_set, template][0]])


@pytest.mark.parametrize("template, t_range, rho_range, bounds, flag_set",
                         PINNED_SEARCHES)
def test_pinned_hits_are_dumped_as_json_dumps_renders_them(
        template, t_range, rho_range, bounds, flag_set):
    hits = search_case(template, t_range, rho_range, bounds,
                       FLAG_SETS[flag_set])
    assert hits
    for cfg in hits:
        assert dump_config(cfg) == json_reference(cfg)


class Level(IntEnum):
    """int subclass values: json renders them with int.__repr__."""

    LOW = -(2**70)
    MINUS = -1
    ZERO = 0
    ONE = 1
    TWO = 2
    HIGH = 2**70


levels = st.sampled_from(list(Level))
edge_ints = st.one_of(exact_ints, st.integers(2**64, 2**80),
                      st.integers(-(2**80), -(2**64)), levels)
edge_weights = st.one_of(weights, st.sampled_from((Level.ONE, Level.TWO)))


@st.composite
def edge_configurations(draw, template, flags):
    """A configuration of the template under the flags whose integers are
    negative, zero, beyond 2^64 or IntEnum members."""
    b2 = _TEMPLATE_B2.get(template)
    eps_values = (Level.ONE, 1) if flags.convention35 else (-1, 1, Level.MINUS)

    def component(kind, first_point):
        a = draw(edge_ints)
        if kind == "point":
            eps = draw(st.sampled_from(eps_values if first_point else (-1, 1)))
            ws = draw(st.tuples(*[edge_weights] * 3))
            return PointComponent(eps, ws[:2] + (1,) if flags.effectiveness
                                  else ws, a)
        if kind == "surface":
            ws = (draw(edge_weights), 1) if flags.effectiveness else \
                draw(st.tuples(edge_weights, edge_weights))
            return SurfaceComponent(ws, a, draw(edge_ints), draw(edge_ints),
                                    draw(edge_ints), 2)
        sign = draw(st.sampled_from(range(-b2, b2 + 1, 2)))
        evs = [draw(edge_ints) for _ in range(3)] if b2 else (0, 0, 0)
        return FourComponent(1 if flags.effectiveness else draw(edge_weights),
                             a, *evs, 3 * sign, b2, sign, 2 + b2)

    kinds = TEMPLATES[template]
    comps = tuple(component(kind, kind == "point" and "point" not in kinds[:i])
                  for i, kind in enumerate(kinds))
    ambient = AmbientData(draw(st.one_of(st.integers(1, 2**80),
                                         st.sampled_from((Level.ONE,
                                                          Level.HIGH)))),
                          draw(edge_ints), draw(edge_ints), draw(
                              st.sampled_from((0, Level.ZERO))))
    return Configuration(ambient, template, comps, flags)


ALL_FLAGS = [Flags(*bits) for bits in product((False, True), repeat=3)]


@pytest.mark.parametrize("flags", ALL_FLAGS, ids=lambda f: "-".join(
    name for name in ("effectiveness", "convention35", "lemma64")
    if getattr(f, name)) or "none")
@pytest.mark.parametrize("template", sorted(TEMPLATES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dump_config_is_what_json_dumps_renders(template, flags, data):
    cfg = data.draw(edge_configurations(template, flags))
    assert dump_config(cfg) == json_reference(cfg)


@pytest.mark.parametrize("values", [
    (1, 0, 1), (None, 2.5, "yes"), ([1, {"b": 2, "a": [3]}], 0, 0),
    ({}, [], ()), (object(), False, False),
])
def test_flag_values_outside_the_schema_are_rejected_when_built(values):
    # dump_config renders only the values the records admit: a flag that
    # json would render as something other than a boolean, or not at all,
    # never reaches it.
    with pytest.raises(ConfigurationError, match="must be a bool"):
        Flags(*values)


def test_dump_config_renders_only_what_the_records_admit():
    with pytest.raises(TypeError, match="holds no float value"):
        json_text(2.5, 1)


# json_text renders every --json answer of the command line as well: any
# JSON value without floats, byte for byte as json.dumps renders it.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=300)
@given(json_values)
def test_json_text_is_what_json_dumps_renders(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"": {}}, {"b": [1, {}], "a": None},
    {"\u00e9\x00": "\U0001f600\ud800"}, (1, [True, False]), 2**200,
    Level.HIGH, [Level.TWO, {"k": Level.LOW}],
])
def test_json_text_renders_edge_values_as_json_dumps(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value, message", [
    ({"a": [1.5]}, "holds no float value"),
    ({1: "a"}, "must be a string"),
    ({"a": 1, 2: "b"}, "not supported"),
    ({"a": {2}}, "holds no set value"),
])
def test_json_text_rejects_what_is_not_json(value, message):
    with pytest.raises(TypeError, match=message):
        json_text(value)
