"""Tests for the command line interface."""

import argparse
import hashlib
import inspect
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cisym import classify, cli
from cisym.cli import build_parser, main
from cisym.configio import dump_config, load_config
from cisym.invariants import invariants
from cisym.localization import (
    AmbientData,
    Configuration,
    PointComponent,
    SurfaceComponent,
    shift_lift,
)
from cisym.search import SearchBounds, SearchFlags, search_case
from test_acceptance import _random_configuration


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def quadric_config(rho=1):
    surface = SurfaceComponent((1, 1), 0, -2, 0, 0, 2)
    plus = PointComponent(1, (1, 1, 1), 1)
    minus = PointComponent(-1, (1, 1, 1), -1)
    return Configuration(AmbientData(2, rho, 4), "surface_plus_two_points",
                         (surface, plus, minus))


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "3", "5")
    assert code == 0
    assert "X_3(5)" in out
    assert "euler characteristic: -200" in out
    assert "b3: 204" in out


def test_invariants_json_exact_values(capsys):
    code, out, _ = run(capsys, "invariants", "2", "6", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["signature"] == -64
    assert obj["a_hat"] == "8"
    assert obj["euler"] == 108
    assert obj["spin"] is True
    assert obj["b3"] is None


def test_invariants_json_fractional_a_hat(capsys):
    code, out, _ = run(capsys, "invariants", "2", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["a_hat"] == "5/8"
    assert obj["signature"] == -5


def test_json_output_is_canonically_sorted(capsys):
    _, out, _ = run(capsys, "invariants", "2", "4", "--json")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# One call per shape of answer: every subcommand, classify's verdicts with
# and without hypotheses, empty and nonempty hit lists, passing and failing
# checks.
JSON_ANSWERS = (
    [("invariants", "2", "4"), ("invariants", "3", "5"),
     ("invariants", "6", "2", "3", "1000")]
    + [("classify", str(n), *degrees) for n in range(1, 5)
       for degrees in (("1",), ("2",), ("4",), ("2", "3"))]
    + [("table",)]
    + [("verify", str(path)) for path in sorted(DEMO_CONFIGS.glob("*.json"))]
    + [("search", "two_surfaces", "--semifree", "--rho-min", "-4",
        "--rho-max", "4", "--t-max", "2", "--max-abs-a", "2",
        "--max-abs-eval", "2"),
       ("search", "two_fours")]
)


@pytest.mark.parametrize(
    "argv", JSON_ANSWERS,
    ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_every_json_answer_is_what_json_dumps_renders(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code in (0, 2)
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_invariants_usage_errors(capsys):
    code, _, err = run_usage_error(capsys, "invariants", "7", "2")
    assert code == 64
    assert "between 1 and 6" in err
    code, _, err = run_usage_error(capsys, "invariants", "3", "0")
    assert code == 64
    assert "degrees must be positive integers" in err
    code, _, err = run_usage_error(capsys, "classify", "2", "0", "3")
    assert code == 64
    assert "degrees must be positive integers" in err
    code, _, _ = run_usage_error(capsys, "invariants", "3")
    assert code == 64


def test_invariants_degree_above_cap_exit_64(capsys):
    code, _, err = run_usage_error(capsys, "invariants", "3", "2000000")
    assert code == 64
    assert "degrees above 1000000" in err


def test_classify_too_many_degrees_exit_64(capsys):
    code, _, err = run_usage_error(capsys, "classify", "2", *["2"] * 65)
    assert code == 64
    assert "at most 64 degrees" in err


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    builds = []

    def counting_build():
        builds.append(build_parser())
        return builds[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)

    def call(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    sequence = [
        ("invariants", "2", "3", "--json"),
        ("invariants", "7", "2"),
        ("invariants", "2", "3", "--json"),
        ("verify", "/nonexistent/nowhere.json"),
        ("--help",),
    ]
    first = [call(*argv) for argv in sequence]
    assert [code for code, _, _ in first] == [0, 64, 0, 64, 0]
    assert first[2] == first[0]
    assert "usage: cisym" in first[4][1]
    assert [call(*argv) for argv in sequence] == first
    assert len(builds) == 1
    assert build_parser() is not build_parser()


def test_every_argument_has_help():
    parser = build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["classify", "invariants", "search",
                                   "table", "verify"]
    for command in sub._choices_actions:
        assert command.help, command.dest
    for name, command in sub.choices.items():
        for action in command._actions:
            assert action.help, (name, action.dest)


def test_search_defaults_are_the_library_defaults():
    # `cisym search T` with no options searches what search_case(T) does.
    args = build_parser().parse_args(["search", "two_fours"])
    defaults = {name: p.default for name, p
                in inspect.signature(search_case).parameters.items()}
    assert SearchBounds(args.max_weight, args.max_abs_a,
                        args.max_abs_eval) == SearchBounds() \
        == defaults["bounds"]
    assert SearchFlags(effectiveness=not args.no_effectiveness,
                       convention35=not args.no_convention35,
                       lemma64=not args.no_lemma64,
                       semifree=args.semifree) == SearchFlags() \
        == defaults["flags"]
    assert (args.t_min, args.t_max) == defaults["t_range"]
    assert (args.rho_min, args.rho_max) == defaults["rho_range"]
    assert args.budget == defaults["budget"]


def test_classify_json_variants(capsys):
    code, out, _ = run(capsys, "classify", "3", "4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["admits"] is False
    assert [h["name"] for h in obj["hypotheses"]] == [
        "homology_shape", "rho_nonpositive", "top_power_nonzero",
        "euler_below_four",
    ]
    code, out, _ = run(capsys, "classify", "2", "2", "--json")
    assert json.loads(out)["admits"] is True
    code, out, _ = run(capsys, "classify", "5", "2", "--json")
    assert json.loads(out)["admits"] is None


def test_classify_text_mentions_citation(capsys):
    code, out, _ = run(capsys, "classify", "2", "3")
    assert code == 0
    assert "admits a smooth circle action" in out
    assert "citation:" in out


def test_table_stable_and_complete(capsys):
    _, first, _ = run(capsys, "table")
    _, second, _ = run(capsys, "table")
    assert first == second
    for label in ("X_1(2, 2)", "X_2(3)", "X_3(2)"):
        assert label in first
    code, out, _ = run(capsys, "table", "--json")
    obj = json.loads(out)
    assert len(obj["entries"]) == 10
    quintic_like = [e for e in obj["entries"] if e["n"] == 3]
    assert [e["degrees"] for e in quintic_like] == [[1], [2]]


# The full text output of six commands, pinned so that rendering text from
# the --json objects cannot drift.
GOLDEN_TEXT = {
    ("invariants", "2", "3"): (
        "X_2(3)\n"
        "  t (cube of the hyperplane class): 3\n"
        "  c1 coefficient: 1\n"
        "  rho (p1 coefficient): -5\n"
        "  euler characteristic: 9\n"
        "  spin: no\n"
        "  signature: -5\n"
        "  a_hat genus: 5/8\n"
    ),
    ("invariants", "3", "5"): (
        "X_3(5)\n"
        "  t (cube of the hyperplane class): 5\n"
        "  c1 coefficient: 0\n"
        "  rho (p1 coefficient): -20\n"
        "  euler characteristic: -200\n"
        "  spin: yes\n"
        "  b3: 204\n"
    ),
    ("classify", "2", "3"): (
        "X_2(3): admits a smooth circle action\n"
        "  reason: admits_action\n"
        "  citation: surfaces: a compact complex surface of this"
        " type admits a smooth non-trivial circle action exactly"
        " when its first Chern class is positive, i.e. for the"
        " multidegrees (1), (2), (3), (2,2)\n"
        "  t (cube of the hyperplane class): 3\n"
        "  c1 coefficient: 1\n"
        "  rho (p1 coefficient): -5\n"
        "  euler characteristic: 9\n"
        "  spin: no\n"
        "  signature: -5\n"
        "  a_hat genus: 5/8\n"
    ),
    ("classify", "3", "4"): (
        "X_3(4): admits no smooth circle action\n"
        "  reason: obstructed\n"
        "  citation: threefolds: among 6-dimensional complete"
        " intersections only the projective space (1) and the"
        " quadric (2) admit a smooth non-trivial circle action\n"
        "  t (cube of the hyperplane class): 4\n"
        "  c1 coefficient: 1\n"
        "  rho (p1 coefficient): -11\n"
        "  euler characteristic: -56\n"
        "  spin: no\n"
        "  b3: 60\n"
        "  obstruction hypotheses: all hold\n"
        "    [x] homology_shape\n"
        "    [x] rho_nonpositive\n"
        "    [x] top_power_nonzero\n"
        "    [x] euler_below_four\n"
    ),
    ("classify", "4", "2"): (
        "X_4(2): out of scope\n"
        "  reason: out_of_scope\n"
        "  citation: no classification is implemented for complex"
        " dimension >= 4\n"
        "  t (cube of the hyperplane class): 2\n"
        "  c1 coefficient: 4\n"
        "  rho (p1 coefficient): 2\n"
        "  euler characteristic: 6\n"
        "  spin: yes\n"
        "  signature: 2\n"
        "  a_hat genus: 0\n"
    ),
    ("table",): (
        "Complete intersections of complex dimension <= 3 admitting"
        " a smooth circle action\n"
        "n = 1:\n"
        "  X_1(1)       t=1  c1=2  rho=2  euler=2\n"
        "  X_1(2)       t=2  c1=1  rho=-1  euler=2\n"
        "  X_1(3)       t=3  c1=0  rho=-6  euler=0\n"
        "  X_1(2, 2)    t=4  c1=0  rho=-4  euler=0\n"
        "n = 2:\n"
        "  X_2(1)       t=1  c1=3  rho=3  euler=3  sign=1  a_hat=-1/8\n"
        "  X_2(2)       t=2  c1=2  rho=0  euler=4  sign=0  a_hat=0\n"
        "  X_2(3)       t=3  c1=1  rho=-5  euler=9  sign=-5  a_hat=5/8\n"
        "  X_2(2, 2)    t=4  c1=1  rho=-3  euler=8  sign=-4  a_hat=1/2\n"
        "n = 3:\n"
        "  X_3(1)       t=1  c1=4  rho=4  euler=4  b3=0\n"
        "  X_3(2)       t=2  c1=3  rho=1  euler=4  b3=0\n"
        "Every other multidegree is obstructed.\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_TEXT))
def test_text_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, GOLDEN_TEXT[argv], "")


def count_invariants_calls(monkeypatch) -> list:
    calls = []

    def counted(ci):
        calls.append(ci)
        return invariants(ci)

    for module in (classify, cli):
        monkeypatch.setattr(module, "invariants", counted)
    return calls


@pytest.mark.parametrize("as_json", [False, True])
def test_one_invariants_call_per_answer(monkeypatch, capsys, as_json):
    calls = count_invariants_calls(monkeypatch)
    flag = ["--json"] if as_json else []
    for d in ("1", "2", "4", "5"):
        del calls[:]
        assert run(capsys, "classify", "3", d, *flag)[0] == 0
        assert len(calls) == 1
    del calls[:]
    assert run(capsys, "table", *flag)[0] == 0
    assert len(calls) == 10


def test_verify_consistent_configuration(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(dump_config(quadric_config()))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "consistent" in out.splitlines()[-1]


def test_verify_inconsistent_configuration(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(dump_config(quadric_config(rho=-1)))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "FAIL p1x-localization" in out
    assert "point-pontrjagin-positivity" in out


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(dump_config(quadric_config(rho=-1)))
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == 2
    obj = json.loads(out)
    assert obj["consistent"] is False
    failing = {c["name"]: c for c in obj["checks"] if not c["passed"]}
    assert failing["point-pontrjagin-positivity"]["residual"] == "-4"
    assert obj["config"]["ambient"]["rho"] == -1


def test_verify_schema_error_exit_65(tmp_path, capsys):
    path = tmp_path / "broken.json"
    text = dump_config(quadric_config()).replace('"rho": 1',
                                                 '"rho": 1, "mystery": 2')
    path.write_text(text)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65
    assert "ambient.mystery" in err


def test_verify_repeated_key_exit_65(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    text = Path(DEMO_CONFIGS, "quadric.json").read_text(encoding="utf-8")
    path.write_text(text.replace('"t": 2', '"t": 99,\n    "t": 2'))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 65
    assert out == ""
    assert err == "configuration schema error: repeated key 't'\n"


def test_verify_weight_above_cap_exit_65(tmp_path, capsys):
    path = tmp_path / "huge.json"
    obj = json.loads(dump_config(quadric_config()))
    obj["components"][1]["weights"][2] = 10**9
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65
    assert "point weight must be <=" in err


def test_verify_non_utf8_file_exit_65(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65
    assert "not UTF-8" in err


@pytest.mark.parametrize("content, message", [
    (b"{", "invalid JSON: "),
    (b"\xff\xfe", "not UTF-8 text: "),
    (b"[]", "expected an object"),
])
def test_verify_document_level_schema_error_has_no_empty_path(
        tmp_path, capsys, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 65
    assert err.startswith("configuration schema error: " + message)


def test_verify_missing_file_exit_64(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/nowhere.json")
    assert code == 64
    assert "cannot read" in err


def test_search_cli_semifree(capsys):
    code, out, _ = run(capsys, "search", "two_surfaces", "--semifree",
                       "--rho-min", "-10", "--rho-max", "10", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 14
    assert len(obj["hits"]) == 14
    assert {hit["ambient"]["rho"] for hit in obj["hits"]} == {1, 4}


def test_search_cli_empty_sweep(capsys):
    code, out, _ = run(capsys, "search", "cp2like_plus_point", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_search_cli_budget_exit_66(capsys):
    code, _, err = run(capsys, "search", "two_surfaces", "--budget", "10")
    assert code == 66
    assert "budget" in err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_search_cli_budget_stops_before_the_choices_are_built():
    # At --max-weight 1000 a point alone takes about 1.7e8 weight tuples:
    # the budget stops the search at its second node, the first choice.  It
    # runs as its own process, capped in time and memory, so that a search
    # that builds the choices first fails here instead of exhausting either.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cisym.cli", "search",
         "surface_plus_two_points", "--max-weight", "1000", "--budget", "1"],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_limit_memory)
    assert proc.returncode == 66
    assert "at node 2; building surface weights (1, 1);" in proc.stderr


def test_search_cli_budget_bounds_the_memory_of_the_lifts():
    # At --max-abs-a 10^9 the first surface takes 2e9 + 1 lifts: the budget
    # stops their enumeration at node 1001, before they are made.  Its own
    # process, capped as above.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cisym.cli", "search", "two_surfaces",
         "--max-abs-a", "1000000000", "--budget", "1000"],
        env=env, capture_output=True, text=True, timeout=10,
        preexec_fn=_limit_memory)
    assert proc.returncode == 66
    assert "at node 1001;" in proc.stderr


def test_search_cli_bad_template_exit_64(capsys):
    code, _, _ = run_usage_error(capsys, "search", "dodecahedron")
    assert code == 64


EMPTY_RANGE = "empty range: lower bound exceeds upper bound"


@pytest.mark.parametrize("argv, message", [
    (("--t-min", "5", "--t-max", "1"), EMPTY_RANGE),
    (("--rho-min", "3", "--rho-max", "2"), EMPTY_RANGE),
    (("--max-weight", "0"), "max_weight must be a positive integer"),
    (("--max-weight", "1001"), "max_weight must be <= 1000"),
    (("--max-abs-a", "0"), "max_abs_a must be a positive integer"),
    (("--max-abs-eval", "0"), "max_abs_eval must be a positive integer"),
    (("--budget", "0"), "budget must be a positive integer"),
])
def test_search_cli_rejected_values_exit_64(capsys, argv, message):
    code, out, err = run_usage_error(capsys, "search", "two_surfaces", *argv)
    assert code == 64
    assert out == ""
    assert err.endswith(f"cisym: error: {message}\n")



DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

# sha256 of the check lists (name, passed, residual, citation) that
# `verify --json` prints for each demo configuration with every lift shifted
# by -2..2, and for 40 random configurations.  The residual strings include
# CharacterFunction reprs, which depend on the order of the operations that
# formed them.
VERIFY_CHECK_DIGESTS = {
    "random":
        "488c5b0fa9df40342c6ca64e46c64f800af6f910bc55fb4a46207068b95533fd",
    "cp2like_zero_evaluations.json":
        "49f5fdb6c68408889750dfa33456d413744e20e32da28359dc6cbbe1e906c012",
    "four_plus_surface.json":
        "f0316c22482de9b4f23933459c972cf71e0a38a7a6b3f1dae64b514b3bbeaa0b",
    "four_plus_two_points.json":
        "f0316c22482de9b4f23933459c972cf71e0a38a7a6b3f1dae64b514b3bbeaa0b",
    "projective_space.json":
        "b4c18ef66e4e910a240bd1602d256ea7cda9a4a2e07863981757dc952c8df16c",
    "quadric.json":
        "7e6f357a8e8a8cb33b6300dbfcefe3c9204268b30d52baf768d4f26025f6d3b5",
    "semifree_negative_rho.json":
        "b6c9f8127e815f6ad939a1bff31112e14a392cc53ae4897b99097acd014a04f8",
    "semifree_two_surfaces.json":
        "7d47c5b27eede5d7b9ebb11a6191f5f0373dcbd04d5a6abdc452103d4f21143e",
    "surface_two_points_negative_rho.json":
        "4cdd8d73556396921f8ab7baf175d5e24b77d65626dfd6bcec5cc4e1bd48e590",
    "two_fours.json":
        "ad7f75c81a0f0a20276379d35da608a43bfc030a0c638c786bedd324ec81b844",
    "two_surfaces_negative_rho.json":
        "5d37ba7ab330acd888e959e48210d2c028c82fdbf2da197242aff92bce8f4797",
}


def verify_check_lists(tmp_path, capsys, cfgs) -> list:
    path = tmp_path / "config.json"
    lists = []
    for cfg in cfgs:
        path.write_text(dump_config(cfg), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path), "--json")
        assert code in (0, 2) and err == ""
        lists.append([[c["name"], c["passed"], c["residual"], c["citation"]]
                      for c in json.loads(out)["checks"]])
    return lists


@pytest.mark.parametrize("name", sorted(VERIFY_CHECK_DIGESTS))
def test_verify_json_check_lists_are_pinned(tmp_path, capsys, name):
    if name == "random":
        rng = random.Random(20111108)
        cfgs = [_random_configuration(rng) for _ in range(40)]
    else:
        cfg = load_config(DEMO_CONFIGS / name)
        cfgs = [shift_lift(cfg, delta) for delta in range(-2, 3)]
    text = json.dumps(verify_check_lists(tmp_path, capsys, cfgs),
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        VERIFY_CHECK_DIGESTS[name]
