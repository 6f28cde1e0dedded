"""The benchmark's tracer (perfbench/tracer.py) wraps cisym functions and
methods by name.  These tests load it without changing it and check that
every name it wraps resolves the way Tracer.installed() resolves it, and
that the benchmark's search workloads reach every boundary its runner
expects of them, so a moved, renamed or lost boundary fails here instead of
in a traced benchmark run.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

import cisym  # noqa: F401  (imports every module the tracer looks in)
from cisym import cli, localization, search
from cisym.search import SearchBounds, SearchFlags

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str) -> types.ModuleType:
    # Executed from its source, so that nothing is written next to it.
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


tracer = load_perfbench("tracer")


def resolve(modname: str, path: str):
    """The object installed() wraps: a module attribute for a function, an
    entry of the class's own __dict__ (not an inherited one) for a method."""
    owner = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, path)


@pytest.mark.parametrize("name", sorted(tracer.BOUNDARIES))
def test_boundary_resolves_as_the_tracer_resolves_it(name):
    modname, path, _ = tracer.BOUNDARIES[name]
    assert callable(resolve(modname, path))


def test_installed_tracer_enters_and_exits_cleanly(capsys):
    before = {name: resolve(mod, path)
              for name, (mod, path, _) in tracer.BOUNDARIES.items()}
    tr = tracer.Tracer()
    with tr.installed():
        assert cli.main(["invariants", "2", "3", "--json"]) == 0
    assert {"cli.main", "invariants.invariants"} <= tr.fired()
    assert capsys.readouterr().out.startswith("{")
    after = {name: resolve(mod, path)
             for name, (mod, path, _) in tracer.BOUNDARIES.items()}
    assert all(after[name] is before[name] for name in before)


def test_every_boundary_fires_on_four_cli_calls(capsys):
    # One call per kind of work the benchmark runs: the classification,
    # genus series (even n only; the Euler characteristic builds none), a
    # configuration check (lift polynomials, signature characters, parse and
    # dump), and a search with hits.
    demo = Path(__file__).resolve().parents[1] / "demos" / "configs"
    tr = tracer.Tracer()
    with tr.installed():
        assert cli.main(["classify", "3", "2", "--json"]) == 0
        assert cli.main(["invariants", "2", "3", "--json"]) == 0
        assert cli.main(["verify", str(demo / "quadric.json"), "--json"]) == 0
        assert cli.main(["search", "two_surfaces", "--semifree",
                         "--rho-min", "-4", "--rho-max", "4", "--t-max", "2",
                         "--max-abs-a", "2", "--max-abs-eval", "2"]) == 0
    capsys.readouterr()
    assert tr.fired() == set(tracer.BOUNDARIES)


def load_runner(monkeypatch) -> tuple[types.ModuleType, types.ModuleType]:
    """perfbench/run.py and its workloads module.  run.py imports its
    sibling modules by name; they resolve to copies loaded from source as
    well."""
    workloads = load_perfbench("workloads")
    for module_name, module in (("tracer", tracer), ("workloads", workloads),
                                ("speed", load_perfbench("speed"))):
        monkeypatch.setitem(sys.modules, module_name, module)
    return load_perfbench("run"), workloads


@pytest.mark.parametrize("name", ["certify_empty", "search_hits"])
def test_search_workloads_reach_the_boundaries_the_benchmark_expects(
        name, monkeypatch):
    run, workloads = load_runner(monkeypatch)
    tr = tracer.Tracer()
    with tr.installed():
        for op in workloads.search_ops(name, reduced=False):
            workloads.run_search(search, op)
    assert run.EXPECTED_BOUNDARIES[name] - tr.fired() == set()


def test_the_queries_stream_reaches_the_boundaries_the_benchmark_expects(
        monkeypatch, tmp_path):
    # One traced pass of the full stream, as a traced benchmark pass runs
    # it; the sums run from zero, so the kernels' additions fire for every
    # datum summed.
    run, workloads = load_runner(monkeypatch)
    workload = run.make_workload("queries", 7, False,
                                 workloads.load_expected(), tmp_path)
    tr = tracer.Tracer()
    with tr.installed():
        for op in workload.ops:
            workload.run_op(op)
    assert run.EXPECTED_BOUNDARIES["queries"] - tr.fired() == set()
    assert tr.calls("algebra.LiftPolynomial.add")
    assert tr.calls("algebra.CharacterFunction.add")


# The local data of a search are memoized for one search_case call only, so
# the kernels behind them run again in every call (the benchmark's traced
# passes need them to fire on every pass).
SEARCH = ("surface_plus_two_points", (1, 2), (-4, 4), SearchBounds(1, 1, 2),
          SearchFlags(semifree=True))


def test_a_second_search_call_computes_its_local_data_again():
    assert search.search_case(*SEARCH)
    tr = tracer.Tracer()
    with tr.installed():
        assert search.search_case(*SEARCH)
    assert {"localization.x3_sum", "localization.p1x_sum",
            "localization.verify_case", "algebra.LiftPolynomial.mul",
            "algebra.LiftPolynomial.pow",
            "algebra.CharacterFunction.mul"} <= tr.fired()
    assert localization._LOCAL_DATA.get() is None


def test_the_memo_is_unset_after_a_budget_error():
    with pytest.raises(search.BudgetExceededError):
        search.search_case(*SEARCH, budget=5)
    assert localization._LOCAL_DATA.get() is None


def test_verify_case_outside_a_search_builds_its_data_fresh():
    (hit, *_) = search.search_case(*SEARCH)
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr.installed():
            assert localization.verify_case(hit).consistent
        counts.append({name: tr.calls(name) for name in (
            "algebra.LiftPolynomial.pow", "algebra.CharacterFunction.mul")})
    assert counts[0] == counts[1]
    assert all(counts[0].values())
    surface = hit.surfaces()[0]
    assert (localization.x3_local_datum(surface)
            is not localization.x3_local_datum(surface))
