"""Tests for the strict JSON configuration format."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cisym.configio import (
    _FOUR_KEYS,
    _POINT_KEYS,
    _SURFACE_KEYS,
    SchemaError,
    config_from_obj,
    dump_config,
    fraction_str,
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


def test_structural_violations_surface_as_configuration_error():
    obj = quadric_obj()
    obj["ambient"]["t"] = 0
    with pytest.raises(ConfigurationError):
        config_from_obj(obj)


def test_four_component_round_trip():
    obj = {
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
    cfg = config_from_obj(obj)
    assert json.loads(dump_config(cfg)) == obj
    assert dump_config(parse_config(dump_config(cfg))) == dump_config(cfg)


def test_fraction_str_rendering():
    assert fraction_str(Fraction(5, 8)) == "5/8"
    assert fraction_str(Fraction(-64)) == "-64"
    assert fraction_str(7) == "7"
    assert fraction_str(Fraction(-3, 4)) == "-3/4"


# ---------------------------------------------------------------------------
# Fuzzing: whatever the document, only SchemaError or ConfigurationError
# escapes the parser.

SCHEMA_KEYS = sorted({"ambient", "template", "flags", "components", "t",
                      "rho", "euler", "sign", "effectiveness", "convention35",
                      "lemma64", *_POINT_KEYS, *_SURFACE_KEYS, *_FOUR_KEYS})
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
