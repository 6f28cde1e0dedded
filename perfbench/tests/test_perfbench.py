"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_spec():
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == table
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_reduced_run_completes(name, trace):
    result, stamp = bench.run(name, 3, 0, trace, ROOT, reduced=True)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    table = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    json.loads(json.dumps(result))
    assert stamp["workload"] == name and stamp["seed"] == 3


def test_traced_self_times_add_up_to_the_covered_wall():
    workload = bench.make_workload("search_hits", 1, True, wl.load_expected(), None)
    tr = bench.tracing.Tracer()
    latencies, _, wall, _, _, errors, hits = bench.one_pass(workload, False, tr)
    assert errors == [None] * len(workload.ops)
    assert wall == pytest.approx(sum(latencies), rel=1e-12)
    m = bench.layer_metrics(tr, wall, workload, hits)
    layers = ("search.self_s", "localization.self_s", "algebra.self_s",
              "configio.self_s", "classify.self_s", "invariants.invariants.self_s",
              "cli.main.self_s")
    covered = m["trace.coverage"] * m["trace.wall_s"]
    assert sum(m[k] for k in layers) == pytest.approx(covered, rel=1e-6)
    assert 0 < m["trace.coverage"] <= 1


def test_corrupted_hit_digest_is_a_failed_operation():
    bad = copy.deepcopy(wl.load_expected())
    entry = bad["search"]["reduced"]["certify_empty"]["default/two_surfaces"]
    entry["sha256"] = "0" * 16
    result, stamp = bench.run("certify_empty", 1, 0, False, ROOT, reduced=True,
                              expected=bad)
    # The corrupted call fails on its first run of each pass and is not run
    # again in that pass; every other call passes.
    passes = len(stamp["pass_walls_s"])
    assert passes >= 2 and not result["correct"]
    assert result["failed"] == passes
    assert result["attempted"] >= passes * len(wl.TEMPLATE_NAMES)


def _corrupt_citations(expected):
    expected["classify"]["citations"] = {n: "wrong" for n in ("1", "2", "3")}


def _corrupt_verify_codes(expected):
    for frozen in expected["verify"].values():
        frozen["code"] = 9


def _corrupt_verify_checks(expected):
    for frozen in expected["verify"].values():
        frozen["checks"] = ["0" * 16] * len(frozen["checks"])


@pytest.mark.parametrize("corrupt", [_corrupt_citations, _corrupt_verify_codes,
                                     _corrupt_verify_checks])
def test_corrupted_query_expectation_is_a_failed_operation(corrupt):
    bad = copy.deepcopy(wl.load_expected())
    corrupt(bad)
    good, _ = bench.run("queries", 2, 0, False, ROOT, reduced=True)
    result, _ = bench.run("queries", 2, 0, False, ROOT, reduced=True,
                          expected=bad)
    assert result["attempted"] == good["attempted"]
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]


def test_wrong_verify_residuals_are_failed_operations(monkeypatch):
    """Residuals are checked, not only the pass/fail bit of each check."""
    import cisym.cli as cli

    render = cli._residual_json
    monkeypatch.setattr(cli, "_residual_json",
                        lambda value: None if value is None else f"{render(value)}+1")
    result, _ = bench.run("queries", 2, 0, False, ROOT, reduced=True)
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]


def _query_bytes(seed, expected):
    stream, docs = wl.query_inputs(seed, 200, expected)
    return json.dumps([stream, sorted((list(k), d) for k, d in docs.items())],
                      sort_keys=True).encode()


def test_queries_inputs_follow_the_seed():
    expected = wl.load_expected()
    first = _query_bytes(5, expected)
    assert first == _query_bytes(5, expected)
    assert first != _query_bytes(6, expected)


def test_search_seed_only_permutes_the_calls():
    expected = wl.load_expected()
    a = wl.SearchWorkload("search_hits", 1, False, expected).ops
    b = wl.SearchWorkload("search_hits", 2, False, expected).ops
    assert a != b and sorted(a, key=repr) == sorted(b, key=repr)
