"""Tests for the bounded configuration search."""

import functools
import hashlib
import time
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from itertools import product
from math import comb, lcm
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from bruteforce import brute_force
from lift_reads import at_shifted_lift, coefficients
from cisym import localization, search
from cisym.algebra import LiftPolynomial
from cisym.configio import dump_config, load_config, parse_config
from cisym.localization import (
    MAX_WEIGHT,
    TEMPLATES,
    AmbientData,
    Configuration,
    ConfigurationError,
    Flags,
    FourComponent,
    PointComponent,
    SurfaceComponent,
    p1x_local_datum,
    p1x_sum,
    shift_lift,
    signature_local_datum,
    verify_case,
    x3_local_datum,
    x3_sum,
)
from cisym.search import (
    BudgetExceededError,
    SearchBounds,
    SearchFlags,
    _combinations,
    _choices,
    _copy,
    _Counter,
    _Choice,
    _Ctx,
    _solve,
    search_case,
)

SMALL = SearchBounds(max_weight=3, max_abs_a=3, max_abs_eval=6)


def test_no_template_admits_nonpositive_rho():
    for template in sorted(TEMPLATES):
        hits = search_case(template, t_range=(1, 6), rho_range=(-6, 0),
                           bounds=SMALL)
        assert hits == [], template


def test_semifree_two_surfaces_hits():
    hits = search_case("two_surfaces", t_range=(1, 10), rho_range=(-10, 10),
                       flags=SearchFlags(semifree=True))
    assert len(hits) == 14
    seen = set()
    for cfg in hits:
        sx, sy = cfg.surfaces()
        assert sy.a == 0
        assert cfg.ambient.rho in (1, 4)
        # the closure identity rho * (a_X - a_Y)^2 = 4
        assert cfg.ambient.rho * (sx.a - sy.a) ** 2 == 4
        assert verify_case(cfg).consistent
        seen.add((cfg.ambient.rho, cfg.ambient.t, sx.a))
    assert seen == (
        {(4, t, ax) for t in range(1, 6) for ax in (1, -1)}
        | {(1, t, ax) for t in (4, 8) for ax in (2, -2)}
    )


def test_projective_space_is_the_only_positive_cp2like_hit():
    hits = search_case("cp2like_plus_point", t_range=(1, 10),
                       rho_range=(0, 10))
    assert len(hits) == 1
    cfg = hits[0]
    assert cfg.ambient.t == 1 and cfg.ambient.rho == 4
    four = cfg.fours()[0]
    assert (four.ev_x2, four.ev_xy, four.ev_y2) == (-1, 1, -1)
    assert four.sign == -1
    point = cfg.points()[0]
    assert point.eps == 1 and point.a == 1


def test_quadric_family_found_at_positive_rho():
    hits = search_case("surface_plus_two_points", t_range=(2, 2),
                       rho_range=(1, 1), bounds=SMALL)
    assert hits, "the quadric fixed-point data must appear"
    target = [cfg for cfg in hits
              if cfg.surfaces()[0].ev_x == -2
              and cfg.surfaces()[0].ev_y1 == 0]
    assert len(target) == 1
    pts = target[0].points()
    assert {p.eps for p in pts} == {1, -1}
    assert sorted(p.a for p in pts) == [-1, 1]


def test_results_sorted_and_deterministic():
    first = search_case("two_surfaces", rho_range=(-10, 10),
                        flags=SearchFlags(semifree=True))
    second = search_case("two_surfaces", rho_range=(-10, 10),
                         flags=SearchFlags(semifree=True))
    keys = [dump_config(cfg) for cfg in first]
    assert keys == sorted(keys)
    assert [dump_config(cfg) for cfg in second] == keys


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        search_case("two_surfaces", rho_range=(-10, 10), budget=50)


def test_budget_is_exact_node_count():
    # This call visits exactly 185 nodes (see the search module docstring).
    args = ("two_surfaces", (1, 6), (-6, 6), SMALL)
    assert len(search_case(*args, budget=185)) == 34
    with pytest.raises(BudgetExceededError,
                       match="budget of 184 exhausted in template"
                             " two_surfaces at node 185;") as info:
        search_case(*args, budget=184)
    # The message also names the discrete data being solved at that node.
    assert "; solving surface weights (3, 2), surface weights (3, 2);" \
        in str(info.value)


def test_budget_can_run_out_in_a_head_solve(monkeypatch):
    # The values that a head solve tries are nodes: here the budget runs
    # out among them, and the message names the head's components alone.
    raised = []
    solve_ = search._solve

    def solve(rows, lo, hi, counter):
        try:
            yield from solve_(rows, lo, hi, counter)
        except BudgetExceededError:
            raised.append(len(rows))
            raise

    monkeypatch.setattr(search, "_solve", solve)
    with pytest.raises(BudgetExceededError,
                       match="at node 34; solving surface weights"
                             " \\(1, 1\\);"):
        search_case("two_surfaces", (1, 6), (-6, 6), SMALL, budget=33)
    assert raised == [2]  # a head solve: rows l^0 and l^1 of the head alone


def test_budget_bounds_the_lift_join():
    # Each point takes 200,001 lifts here: the budget has to stop the join
    # after ten of its entries, before it tabulates the rest.  The 166
    # nodes before them are the weight tuples and choices of the three
    # components (165) and the first head tuple.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match="at node 177; solving surface weights"
                                 r" \(1, 1\), point weights \(1, 1, 1\),"
                                 r" point weights \(1, 1, 1\);"):
            search_case("surface_plus_two_points",
                        bounds=SearchBounds(5, 10**5, 10), budget=176)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_budget_bounds_the_head_lifts():
    # The first surface takes 2,000,001 lifts here: the budget has to stop
    # their enumeration after the first few, before the rest are made.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="at node 1001;"):
            search_case("two_surfaces",
                        bounds=SearchBounds(5, 10**6, 10), budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_budget_bounds_the_choices():
    # At max_weight 30 the three components take 20,691 weight tuples and
    # choices: the budget has to stop at the second node, the first choice,
    # before the rest are built.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match="at node 2; building surface weights"
                                 r" \(1, 1\);"):
            search_case("surface_plus_two_points",
                        bounds=SearchBounds(30, 1, 1), budget=1)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 2**20


def test_certify_box_leaves_and_solves_are_pinned(monkeypatch):
    # Leaves (candidates handed to _leaf) and _solve calls per template on
    # the certify box, 5/5/10, t 1..10, rho -10..0.  Joining row l^0 as a t
    # range leaves the leaves as they were and settles the four templates
    # that can have no hit (every solution there has t = 0) in the join.
    # The l^1 row of the p1*x identity drops 22 + 58 solver points.  The
    # two_surfaces solves are 95 head solves, one per (surface, lift >= 1)
    # prefix, which drop 59 of them, and 142 full ones (825 before the head
    # rows, 493 before the swap orbits).
    calls = {"leaf": 0, "solve": 0}

    def counted(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(search, "_leaf", counted("leaf", search._leaf))
    monkeypatch.setattr(search, "_solve", counted("solve", search._solve))
    leaves, solves = {}, {}
    for template in sorted(TEMPLATES):
        calls.update(leaf=0, solve=0)
        assert search_case(template) == []
        leaves[template], solves[template] = calls["leaf"], calls["solve"]
    assert {t: n for t, n in leaves.items() if n} == {
        "two_surfaces": 68, "surface_plus_two_points": 15,
        "cp2like_plus_point": 2}
    assert solves["two_surfaces"] == 95 + 142
    for template in ("two_fours", "four_plus_surface", "four_plus_two_points",
                     "single_four_b2_2"):
        assert solves[template] == 0, template


def test_the_solver_t_is_the_x3_sum_of_every_leaf(monkeypatch):
    # The solver's last unknown is t, and its rows are the x^3 identity, so
    # every candidate handed to _leaf has x3_sum == t and _leaf's own x^3
    # checks never reject one.  Checked on every leaf at t 1..10, rho
    # -10..0, at 2/2/2 under every flag set and on the certify box.
    solution = []
    leaves = []
    solve_, leaf_ = search._solve, search._leaf

    def solve(*args):
        for x in solve_(*args):
            solution[:] = x
            yield x

    def leaf(template, cand, ctx, counter):
        leaves.append(x3_sum(cand) == LiftPolynomial.constant(solution[-1]))
        return leaf_(template, cand, ctx, counter)

    monkeypatch.setattr(search, "_solve", solve)
    monkeypatch.setattr(search, "_leaf", leaf)
    for flags, template in product(FLAG_SETS.values(), sorted(TEMPLATES)):
        search_case(template, bounds=SearchBounds(2, 2, 2), flags=flags)
    assert len(leaves) == 95 and all(leaves)
    leaves.clear()
    for template in sorted(TEMPLATES):
        search_case(template)
    assert len(leaves) == 85 and all(leaves)


def test_the_l1_row_drops_exactly_the_points_whose_p1x_sum_keeps_l(
        monkeypatch):
    # _p1x_l1 is the l^1 row of the p1*x identity at a solver point.  A point
    # it drops would be a candidate whose p1*x sum is not constant in l, and
    # every candidate it hands to _leaf has a constant one.  Checked at t
    # 1..10, rho -10..0, at 2/2/2 under every flag set and on the certify box.
    current, leaves = [], []
    kept, dropped = [], []
    combinations_, p1x_l1_, leaf_ = (search._combinations, search._p1x_l1,
                                     search._leaf)

    def combinations(*args):
        for pair in combinations_(*args):
            current[:] = pair
            yield pair

    def p1x_l1(combo, x, den):
        residual = p1x_l1_(combo, x, den)
        assert combo is current[0]
        values = iter(x)
        cand = tuple(_copy(c.comp, a, zip(c.unknowns, values))
                     for c, a in zip(combo, current[1]))
        constant = len(p1x_sum(cand).num) <= 1
        (dropped if residual else kept).append(constant)
        return residual

    def leaf(template, cand, ctx, counter):
        leaves.append(len(p1x_sum(cand).num) <= 1)
        return leaf_(template, cand, ctx, counter)

    monkeypatch.setattr(search, "_combinations", combinations)
    monkeypatch.setattr(search, "_p1x_l1", p1x_l1)
    monkeypatch.setattr(search, "_leaf", leaf)
    for flags, template in product(FLAG_SETS.values(), sorted(TEMPLATES)):
        search_case(template, bounds=SearchBounds(2, 2, 2), flags=flags)
    assert (len(leaves), len(kept), len(dropped)) == (95, 95, 58)
    assert all(leaves) and all(kept) and not any(dropped)
    for lists in (leaves, kept, dropped):
        lists.clear()
    for template in sorted(TEMPLATES):
        search_case(template)
    assert (len(leaves), len(kept), len(dropped)) == (85, 85, 80)
    assert all(leaves) and all(kept) and not any(dropped)


_WEIGHTS = st.integers(1, 30)


@st.composite
def choices(draw):
    """A choice of any kind with its unknowns: a point, a surface (with
    ev_y2 fixed at 0, as under lemma64, or not) or a 4-dimensional
    component of any b2 and signature."""
    kind = draw(st.sampled_from(("point", "surface", "four")))
    if kind == "point":
        weights = tuple(sorted(draw(st.lists(_WEIGHTS, min_size=3,
                                             max_size=3))))
        return PointComponent(draw(st.sampled_from((1, -1))), weights, 0), ()
    if kind == "surface":
        weights = (draw(_WEIGHTS), draw(_WEIGHTS))
        unknowns = draw(st.sampled_from((("ev_x", "ev_y1", "ev_y2"),
                                         ("ev_x", "ev_y1"))))
        return SurfaceComponent(weights, 0, 0, 0, 0, 2), unknowns
    b2 = draw(st.integers(0, 2))
    sign = draw(st.sampled_from(range(-b2, b2 + 1, 2)))
    unknowns = ("ev_x2", "ev_xy", "ev_y2") if b2 else ()
    return (FourComponent(draw(_WEIGHTS), 0, 0, 0, 0, 3 * sign, b2, sign,
                          2 + b2), unknowns)


@given(choices(), st.data(), st.integers(-10**6, 10**6))
def test_the_l1_entries_are_the_p1x_datum_at_every_lift(choice, data, a):
    # The l^1 coefficient of the p1*x datum, times the common denominator
    # of the choice's x^3 columns (every call's den is a multiple of it), is
    # the constant entry plus the unknown entries times the evaluations, at
    # every lift: the premise of the l^1 row that _search checks.
    comp, unknowns = choice
    c = _Choice(comp, unknowns)
    den = lcm(*(p.den for p in c.polys))
    unknown, const = c.p1x_l1(den)
    assert all(type(x) is int for x in unknown + (const,))
    values = data.draw(st.lists(st.integers(-10**6, 10**6),
                                min_size=len(unknowns),
                                max_size=len(unknowns)))
    datum = p1x_local_datum(_copy(comp, a, zip(unknowns, values)))
    assert coefficients(datum)[1] * den == const + sum(
        e * v for e, v in zip(unknown, values))


def test_every_template_is_empty_on_the_wider_box():
    # The certified box at bounds 8/8/16, where the joins and the bounded
    # free unknowns of the search pay off.
    bounds = SearchBounds(8, 8, 16)
    for template in sorted(TEMPLATES):
        assert search_case(template, (1, 10), (-10, 0), bounds) == [], template


def test_every_template_is_empty_on_the_12_12_24_box():
    # Wider again, where two_surfaces' head rows pay off.
    bounds = SearchBounds(12, 12, 24)
    for template in sorted(TEMPLATES):
        assert search_case(template, (1, 10), (-10, 0), bounds) == [], template


# The search_hits boxes of the benchmark: t 1..10, rho -10..10 under these
# flag sets and bounds.
HIT_BOXES = (({"lemma64": False}, (3, 3, 6)), ({}, (3, 3, 6)),
             ({"semifree": True}, (5, 5, 10)))


def test_the_head_rows_hand_the_same_candidates_to_the_leaf(monkeypatch):
    # The head solve only drops prefixes whose combinations have no solver
    # point, so without it _leaf sees the same candidates in the same order.
    # The swap orbits cut two_surfaces to first-surface lifts a >= 1: with
    # every lift of the box and no head rows, _leaf sees the same candidates
    # with those at a < 0 in their places, and those are the swap images of
    # the ones at a > 0; a = 0 gives none.  Checked on the certify box and
    # the search_hits boxes.
    leaves = []
    leaf_ = search._leaf

    def leaf(template, cand, ctx, counter):
        leaves.append((template, cand))
        return leaf_(template, cand, ctx, counter)

    def candidates():
        leaves.clear()
        for template in sorted(TEMPLATES):
            search_case(template)
        certify = list(leaves)
        leaves.clear()
        for flags, bounds in HIT_BOXES:
            for template in sorted(TEMPLATES):
                search_case(template, (1, 10), (-10, 10),
                            SearchBounds(*bounds), SearchFlags(**flags))
        return certify, list(leaves)

    monkeypatch.setattr(search, "_leaf", leaf)
    with_head = candidates()
    choices_ = search._choices

    def every_lift_and_no_head_rows(template, ctx, counter):
        slots, den, joined, t_only, _ = choices_(template, ctx, counter)
        for lifts, slot in zip(_every_lift(template, ctx.bounds), slots):
            for c in slot:
                c.lifts = lifts
        return slots, den, joined, t_only, ()

    monkeypatch.setattr(search, "_choices", every_lift_and_no_head_rows)
    every = candidates()
    for kept, full in zip(with_head, every):
        assert [(template, cand) for template, cand in full
                if _orbit_kept(template, [c.a for c in cand])] == kept
        images = Counter((template, _swap(*cand)) for template, cand in kept
                         if template == "two_surfaces")
        assert Counter(full) == Counter(kept) + images
    assert [len(cands) for cands in with_head] == [85, 173]
    assert [len(cands) for cands in every] == [153, 295]


def _every_lift(template, bounds):
    """The lifts of each component of the template before the swap orbits
    are cut: 0 on the last surface (else on the first component), every
    lift in [-max_abs_a, max_abs_a] on the others."""
    kinds = TEMPLATES[template]
    fixed = (len(kinds) - 1 - kinds[::-1].index("surface")
             if "surface" in kinds else 0)
    every = range(-bounds.max_abs_a, bounds.max_abs_a + 1)
    return [(0,) if i == fixed else every for i in range(len(kinds))]


def _orbit_kept(template, lifts):
    """The orbit rule: two_surfaces keeps the first surface's lifts a >= 1;
    a combination at a < 0 is the swap image of one at -a, and one at
    a = 0 has no point (see _holds_a_point)."""
    return template != "two_surfaces" or lifts[0] > 0


def _holds_a_point(template, lifts):
    """False for two_surfaces with both surfaces at lift 0, where row l^0
    of the x^3 identity reads -den * t = 0
    (test_two_surfaces_at_lift_zero_hold_no_point)."""
    return template != "two_surfaces" or lifts[0] != 0


def _swap(x, y):
    """Two surfaces swapped and their lifts shifted by -x.a, so that the
    last one sits at 0 again; built with the validating constructor."""
    return replace(y, a=y.a - x.a), replace(x, a=0)


def test_unknown_template_rejected():
    with pytest.raises(ConfigurationError):
        search_case("everything")


@pytest.mark.parametrize("template", [["x"], None])
def test_a_template_that_is_no_string_is_unknown(template):
    # An unhashable one too: the type is checked before the lookup.
    with pytest.raises(ConfigurationError, match="unknown template"):
        search_case(template)


def test_bad_ranges_rejected():
    with pytest.raises(ValueError):
        search_case("two_surfaces", t_range=(5, 1))
    with pytest.raises(ValueError):
        search_case("two_surfaces", budget=0)
    # Range bounds are integers: no truncation of floats, no strings, no bools.
    for bad in ((1.9, 10.7), (1, 10.0), ("1", "10"), (True, 10)):
        with pytest.raises(ValueError):
            search_case("two_surfaces", t_range=bad)
        with pytest.raises(ValueError):
            search_case("two_surfaces", rho_range=bad)
    # A plain Flags lacks semifree, and bounds must be a SearchBounds.
    with pytest.raises(TypeError):
        search_case("two_surfaces", flags=Flags())
    with pytest.raises(TypeError):
        search_case("two_surfaces", bounds=(5, 5, 10))


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_weight=0)
    with pytest.raises(ValueError):
        SearchBounds(max_weight=MAX_WEIGHT + 1)
    assert SearchBounds(max_weight=MAX_WEIGHT).max_weight == MAX_WEIGHT
    with pytest.raises(ValueError):
        SearchBounds(max_abs_a=-1)


def test_search_flags_are_booleans():
    for kwargs in ({"semifree": 1}, {"lemma64": None}):
        with pytest.raises(ConfigurationError, match="must be a bool"):
            SearchFlags(**kwargs)


def test_flags_restrict_the_space():
    # Without the effectiveness restriction, weight data with a common
    # divisor enter the enumeration; the verdict stays empty at rho <= 0.
    hits = search_case(
        "two_surfaces", t_range=(1, 4), rho_range=(-4, 0),
        bounds=SearchBounds(2, 2, 4),
        flags=SearchFlags(effectiveness=False),
    )
    assert hits == []


def test_every_hit_passes_the_verifier():
    hits = search_case("surface_plus_two_points", t_range=(1, 6),
                       rho_range=(0, 6), bounds=SMALL)
    assert hits
    for cfg in hits:
        report = verify_case(cfg)
        assert report.consistent
        assert cfg.ambient.euler == sum(c.chi for c in cfg.components)


FLAG_SETS = {
    "default": SearchFlags(),
    "no_lemma64": SearchFlags(lemma64=False),
    "semifree": SearchFlags(semifree=True),
    "no_eff_conv": SearchFlags(effectiveness=False, convention35=False),
    "all_off": SearchFlags(effectiveness=False, convention35=False,
                           lemma64=False),
}

# Hit lists at t in [1, 6], rho in [-6, 6]: (count, sha256 of the
# concatenated dump_config of the sorted hits).  A combination not listed
# has no hits.
PINNED = {
    ("default", (2, 1, 2), "cp2like_plus_point"):
        (1, "7fe5725144aa45466615d03d9be694f5ceec432e1fcaa4f5bfa936739b50d813"),
    ("default", (2, 1, 2), "surface_plus_two_points"):
        (10, "5c85418003c806169d006317a0e9ac1647497a3f9d1a51a25e9b45d39162d8fd"),
    ("default", (2, 1, 2), "two_surfaces"):
        (2, "84f281df2ed1a0b247a4d29cfa77cc410340d17d18d51872cd066fafff9860b4"),
    ("default", (2, 2, 2), "cp2like_plus_point"):
        (1, "7fe5725144aa45466615d03d9be694f5ceec432e1fcaa4f5bfa936739b50d813"),
    ("default", (2, 2, 2), "surface_plus_two_points"):
        (11, "ea878f8fdbfb0c9537fe0128d98289ad79f531f4a639a5657bca8e42329b7b3b"),
    ("default", (2, 2, 2), "two_surfaces"):
        (10, "c01201b4692360a74d0a8f599fa50f2ea7eb72adeb44e50cd44d8a46381ee13e"),
    ("no_lemma64", (2, 1, 2), "cp2like_plus_point"):
        (1, "6fda437852e37c4017b253ed46c66f009f3ba71eb1e6be829cb32b7414f82d40"),
    ("no_lemma64", (2, 1, 2), "surface_plus_two_points"):
        (11, "9e19143b789e35a0fb6ff53b496c13a52802b7a5f381f04f5798dcee89da12ee"),
    ("no_lemma64", (2, 1, 2), "two_surfaces"):
        (20, "79d12d87ad72bdee2b7bbbe6973f9b0b8d7d7ef14657253f86aa2cce3194073b"),
    ("no_lemma64", (2, 2, 2), "cp2like_plus_point"):
        (1, "6fda437852e37c4017b253ed46c66f009f3ba71eb1e6be829cb32b7414f82d40"),
    ("no_lemma64", (2, 2, 2), "surface_plus_two_points"):
        (14, "521ba5c15a5d1d134c5693fca1a2e063096989798f3b351a751512d52a36cb8b"),
    ("no_lemma64", (2, 2, 2), "two_surfaces"):
        (60, "fa384272164e30b8baf451a948b3d5e13a698cdc0ce85d3f4b59a42fb08d77cc"),
    ("semifree", (2, 1, 2), "cp2like_plus_point"):
        (1, "7fe5725144aa45466615d03d9be694f5ceec432e1fcaa4f5bfa936739b50d813"),
    ("semifree", (2, 1, 2), "surface_plus_two_points"):
        (5, "f27bb9fb978e8f1b098d88af4e5e80d557fcde506c35a26a3a1d0b8ddf064179"),
    ("semifree", (2, 1, 2), "two_surfaces"):
        (2, "84f281df2ed1a0b247a4d29cfa77cc410340d17d18d51872cd066fafff9860b4"),
    ("semifree", (2, 2, 2), "cp2like_plus_point"):
        (1, "7fe5725144aa45466615d03d9be694f5ceec432e1fcaa4f5bfa936739b50d813"),
    ("semifree", (2, 2, 2), "surface_plus_two_points"):
        (5, "f27bb9fb978e8f1b098d88af4e5e80d557fcde506c35a26a3a1d0b8ddf064179"),
    ("semifree", (2, 2, 2), "two_surfaces"):
        (4, "d50747505a16a872db6cf7b5469a95024a8bd565ecd414865d8041c019f2f050"),
    ("no_eff_conv", (2, 1, 2), "cp2like_plus_point"):
        (2, "fc8864c3786fba6ff1f665b118b46c10c643b45d654333e9e8955b95d9d9526e"),
    ("no_eff_conv", (2, 1, 2), "surface_plus_two_points"):
        (10, "cd50e4d25263069f5a28ebc721726da2fd22177bc4c1944beee17f510151a431"),
    ("no_eff_conv", (2, 1, 2), "two_surfaces"):
        (2, "f078556ee43c24a3ff5a70753577c47625ac58270c9459368b96603f7a3587cd"),
    ("no_eff_conv", (2, 2, 2), "cp2like_plus_point"):
        (4, "5d0f6eb7fbdd1ee9ca336c574c1951e5d8f6977d62e5fa3fbfcdd0750bba5513"),
    ("no_eff_conv", (2, 2, 2), "surface_plus_two_points"):
        (11, "80a1a26172aa91ea2cbe32387534d741c3c109b4122113e188b205eb84c9b8cb"),
    ("no_eff_conv", (2, 2, 2), "two_surfaces"):
        (12, "7b5cd4246ad8760dd24c4d6070b00a57e1fda22e7c4823c8ac82ebe5c017b6d3"),
    ("all_off", (2, 1, 2), "cp2like_plus_point"):
        (2, "07d6da0f3a6d0d8a078cce865438ff72ac0962a1b6c6b753610056f8072d8cf2"),
    ("all_off", (2, 1, 2), "surface_plus_two_points"):
        (11, "739eaf7417dfe1188f57855c15bf024de0c8cd8b80d716e2296df49f455eaed2"),
    ("all_off", (2, 1, 2), "two_surfaces"):
        (20, "0080c5515b66d712b57160b27344335e6cdfd4daf1a9df63e379e45f395d2e00"),
    ("all_off", (2, 2, 2), "cp2like_plus_point"):
        (4, "3d2db5466ecc515c7ec60f4f4333519ac9d2ccd03d2128d7fb33871b29473c6c"),
    ("all_off", (2, 2, 2), "surface_plus_two_points"):
        (21, "3d41863395fa5dce8a1bd7d2ccea6025e5c90da1405ae38712d4c6612120eb06"),
    ("all_off", (2, 2, 2), "two_surfaces"):
        (80, "2e1d4c15a0e89ac2d238683e37c949a92f2008690d7bcaba2002fd77f8121b55"),
}


@pytest.mark.parametrize("bounds", [(2, 1, 2), (2, 2, 2)])
@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_pinned_hit_lists(template, flag_set, bounds):
    hits = search_case(template, t_range=(1, 6), rho_range=(-6, 6),
                       bounds=SearchBounds(*bounds), flags=FLAG_SETS[flag_set])
    text = "".join(dump_config(cfg) for cfg in hits)
    got = (len(hits), hashlib.sha256(text.encode("utf-8")).hexdigest())
    want = PINNED.get((flag_set, bounds, template),
                      (0, hashlib.sha256(b"").hexdigest()))
    assert got == want
    # The search builds its candidates without re-running the components'
    # validation: each hit must equal the validated construction of its
    # fields and survive a round trip through the canonical JSON.
    for cfg in hits:
        for c in cfg.components:
            assert c == type(c)(**{f.name: getattr(c, f.name)
                                   for f in fields(c)})
        assert parse_config(dump_config(cfg)) == cfg


# Hit lists at bounds 3/3/6, t in [1, 10], rho in [-10, 10], where the
# lift-only rows join several lifts and the pivot bounds cut the free
# unknowns short; pinned as above.
PINNED_WIDE = {
    ("all_off", "cp2like_plus_point"):
        (6, "3c88d1959cf76d835f05c13a5006afd5a3658198f34e2fe7bb92fe6623467388"),
    ("all_off", "surface_plus_two_points"):
        (117, "594dea6af4b9722258a2949af4c9554bb292b2f5b1f1cff6f6efdac7d3027d74"),
    ("all_off", "two_surfaces"):
        (2360, "8378c7d4b5e69f2f09de1febbe079d0f09a3ef3cd83c5d6e47899908da05b589"),
    ("default", "cp2like_plus_point"):
        (1, "7fe5725144aa45466615d03d9be694f5ceec432e1fcaa4f5bfa936739b50d813"),
    ("default", "surface_plus_two_points"):
        (41, "711bae6f68a9d60640d66fd84b356cee3ddaece3d87b1a3b480652f7d93d2df9"),
    ("default", "two_surfaces"):
        (44, "82dbe5e6b28c855c06f674a330a90e818fd8716a6037ac60a15d23cd1992ddb7"),
    ("no_eff_conv", "cp2like_plus_point"):
        (6, "5203e05ef325b32ecd70459cacafb649b7dc8e36d13d3c554ee6e870661244d1"),
    ("no_eff_conv", "surface_plus_two_points"):
        (41, "ea24d0c9a5859ebe470dbddfcb5e0a243d89dede2e60120b719f183c35381df5"),
    ("no_eff_conv", "two_surfaces"):
        (56, "6e86598d87b2396d238cf98d97f3a907bf243b2f0b697cc0e461e36cac04a88e"),
    ("no_lemma64", "cp2like_plus_point"):
        (1, "6fda437852e37c4017b253ed46c66f009f3ba71eb1e6be829cb32b7414f82d40"),
    ("no_lemma64", "surface_plus_two_points"):
        (64, "b72959dc0bdbb6d149c9ff1c2499f777d174301542e56769454d391ecdc5b8ee"),
    ("no_lemma64", "two_surfaces"):
        (1216, "ad98e6b2a3b85145dcd87d205c1b632e6e6e1448fb3419bec122ce5c9b6dd2d2"),
    ("semifree", "cp2like_plus_point"):
        (1, "7fe5725144aa45466615d03d9be694f5ceec432e1fcaa4f5bfa936739b50d813"),
    ("semifree", "surface_plus_two_points"):
        (13, "bc8e2e9c0f9230e67df4eb2f4434cc2682486124f357588f2dd43b4f537f0a65"),
    ("semifree", "two_surfaces"):
        (10, "c9a416ad03ed88acfa6c1636a0602a6dfd109baaa7e791edee4833fdb48dd728"),
}


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_pinned_hit_lists_wide(template, flag_set):
    hits = search_case(template, t_range=(1, 10), rho_range=(-10, 10),
                       bounds=SMALL, flags=FLAG_SETS[flag_set])
    text = "".join(dump_config(cfg) for cfg in hits)
    got = (len(hits), hashlib.sha256(text.encode("utf-8")).hexdigest())
    assert got == PINNED_WIDE.get((flag_set, template),
                                  (0, hashlib.sha256(b"").hexdigest()))


# The wide two_surfaces hits whose surfaces' signature characters share one
# denominator, and those whose do not, without lemma64.  Under lemma64 every
# hit's do.
SHARED_DENOMINATORS = {"no_lemma64": (852, 364), "all_off": (1660, 700)}


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
def test_two_surfaces_signature_sums_cancel(flag_set):
    # verify_case sums the two surfaces' signature characters: on every
    # pinned two_surfaces hit list the sum is the zero character, and
    # mostly the two share a denominator, so the sum adds numerators.
    flags = FLAG_SETS[flag_set]
    for args in [((1, 6), (-6, 6), SearchBounds(*bounds))
                 for bounds in ((2, 1, 2), (2, 2, 2))] + [
                     ((1, 10), (-10, 10), SMALL)]:
        hits = search_case("two_surfaces", *args, flags)
        shared = 0
        for cfg in hits:
            x, y = map(signature_local_datum, cfg.components)
            shared += x.den == y.den
            total = next(c.residual for c in verify_case(cfg).checks
                         if c.name == "signature-rigidity")
            assert (total.num, total.den) == ((), (1,))
        if flags.lemma64:
            assert shared == len(hits)
    if not flags.lemma64:  # the wide box, the last above
        assert (shared, len(hits) - shared) == SHARED_DENOMINATORS[flag_set]


# Semifree fixes every weight to 1, so its box is wider in lifts and
# evaluations: at 2/1/1 it would hold a single hit.
BRUTE_BOUNDS = {"semifree": SearchBounds(1, 2, 3)}


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_search_matches_pruning_free_enumeration(template, flag_set):
    # Hits per flag set: default 4, no_lemma64 6, no_eff_conv 5, all_off 7
    # (at 2/1/1), semifree 12.
    args = (template, (1, 6), (-6, 6),
            BRUTE_BOUNDS.get(flag_set, SearchBounds(2, 1, 1)),
            FLAG_SETS[flag_set])
    want = brute_force(*args)
    assert [dump_config(c) for c in search_case(*args)] == \
        [dump_config(c) for c in want]
    if flag_set not in ("default", "all_off"):
        return
    # The ends of the t range bound the join on row l^0.  The reference
    # only filters its candidates by t, so its hits in a narrower range are
    # the ones above with t in it.  At 2/1/1 every hit has t = 1.
    for t_lo, t_hi in ((1, 1), (2, 2), (5, 6)):
        assert [dump_config(c)
                for c in search_case(template, (t_lo, t_hi), *args[2:])] == \
            [dump_config(c) for c in want if t_lo <= c.ambient.t <= t_hi]


def test_a_pruning_free_box_where_the_head_rows_drop_prefixes(monkeypatch):
    # A lemma64 box wider in lifts and evaluations than those above: the
    # head solve drops 2 of the 6 (surface, lift >= 1) prefixes, and the
    # search still matches the reference.
    heads = []
    solve_ = search._solve

    def solve(rows, lo, hi, counter):
        if len(rows) == 2:  # rows l^0 and l^1 of the head alone
            heads.append(any(solve_(rows, lo, hi, _Counter(10**9, "test"))))
        return solve_(rows, lo, hi, counter)

    monkeypatch.setattr(search, "_solve", solve)
    args = ("two_surfaces", (1, 6), (-6, 6), SearchBounds(2, 2, 2),
            FLAG_SETS["default"])
    want = brute_force(*args)
    assert [dump_config(c) for c in search_case(*args)] == \
        [dump_config(c) for c in want]
    assert (len(heads), heads.count(False), len(want)) == (6, 2, 10)


def test_a_pruning_free_box_where_the_l1_row_drops_points(monkeypatch):
    # The boxes above hold no point that the l^1 row of the p1*x identity
    # drops; this one holds two, and the search still matches the
    # reference.
    dropped = []
    p1x_l1_ = search._p1x_l1

    def p1x_l1(*args):
        residual = p1x_l1_(*args)
        dropped.append(residual != 0)
        return residual

    monkeypatch.setattr(search, "_p1x_l1", p1x_l1)
    args = ("surface_plus_two_points", (1, 6), (-6, 6), SearchBounds(2, 1, 2),
            FLAG_SETS["no_lemma64"])
    want = brute_force(*args)
    assert [dump_config(c) for c in search_case(*args)] == \
        [dump_config(c) for c in want]
    assert sum(dropped) == 2 and len(want) == 11


@st.composite
def linear_systems(draw):
    """Up to three integer rows in up to four bounded unknowns.  The
    constants put a drawn point, inside the box or near it, on every row,
    give or take one, so that systems with solutions are common."""
    n = draw(st.integers(1, 4))
    lo = draw(st.lists(st.integers(-4, 2), min_size=n, max_size=n))
    hi = [v + draw(st.integers(0, 5)) for v in lo]
    point = [draw(st.integers(v - 2, w + 2)) for v, w in zip(lo, hi)]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        const = -sum(c * v for c, v in zip(coeffs, point))
        rows.append(tuple(coeffs) + (const + draw(st.integers(-1, 1)),))
    return rows, lo, hi


# Pivot coefficients of both signs: 2x - 3y + 1 = 0 and -2x + 3y - 1 = 0.
@example(([(2, -3, 1)], [-4, -4], [4, 4]))
@example(([(-2, 3, -1)], [-4, -4], [4, 4]))
@example(([(1, 2, -3, 0), (0, -4, 5, 1)], [-3, -3, -3], [3, 3, 3]))
@given(linear_systems())
def test_solver_yields_exactly_the_integer_points_of_the_box(system):
    rows, lo, hi = system
    n = len(lo)
    want = [list(x) for x in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if all(sum(r[j] * x[j] for j in range(n)) + r[n] == 0
                   for r in rows)]
    got = sorted(_solve(rows, lo, hi, _Counter(10**9, "test")))
    assert got == want


@functools.cache
def _template_choices(template, flag_set):
    ctx = _Ctx(1, 6, -6, 6, SearchBounds(4, 2, 2), FLAG_SETS[flag_set])
    slots, den, *_ = _choices(template, ctx, _Counter(10**9, template))
    return [c for slot in slots for c in slot], den


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
def test_two_surfaces_at_lift_zero_hold_no_point(flag_set):
    # At lift 0 a surface's x^3 datum has only l^2 and l^3 terms, at every
    # evaluation, so with both surfaces at 0 row l^0 reads -den * t = 0 and
    # no t >= 1 solves it: the first surface's lifts start at 1.
    choices, _ = _template_choices("two_surfaces", flag_set)
    for c in choices:
        unknown, const = c.at(0)
        assert not any(unknown[0] + unknown[1]) and const[:2] == (0, 0)
    assert all(c.lifts == range(1, 3) for c in choices[:len(choices) // 2])


@given(st.sampled_from(sorted(TEMPLATES)), st.sampled_from(sorted(FLAG_SETS)),
       st.data(), st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30)))
def test_shifted_columns_are_the_x3_datum_at_the_lift(template, flag_set,
                                                      data, a):
    # _Choice.at shifts the integer columns to lift a in closed form; they
    # must be den times the l^k coefficients of the x^3 datum at that lift,
    # the unknown columns as differences of the datum at a unit evaluation.
    # The data of surfaces and 4-dimensional components go through the
    # same shift, so the columns at lift 0 are also moved to a here through
    # the powers of l + a.
    choices, den = _template_choices(template, flag_set)
    c = data.draw(st.sampled_from(choices))
    unknown, const = c.at(a)
    for lift in (a, 0):
        base = x3_local_datum(_copy(c.comp, lift, ()))
        columns = [x3_local_datum(_copy(c.comp, lift, ((name, 1),))) - base
                   for name in c.unknowns] + [base]
        if lift == 0:
            columns = [at_shifted_lift(poly, a) for poly in columns]
        want = [[coefficients(poly)[k] * den for poly in columns]
                for k in range(4)]
        assert [list(unknown[k]) + [const[k]] for k in range(4)] == want
    assert type(unknown) is tuple and type(const) is tuple
    assert all(type(row) is tuple for row in unknown)
    assert all(type(x) is int for row in unknown for x in row + const)


def _passes_discrete_checks(template, lemma64, comps):
    """The predicates of verify_case that depend on the discrete data alone,
    applied to one combination of components.  The lemma64 rules are stated
    here, apart from the helpers that the join shares with localization."""
    if sum(c.signature_contribution for c in comps):
        return False
    if lemma64 and template == "two_surfaces":
        x, y = comps
        return x.weights[1] == y.weights[1]
    if lemma64 and template == "surface_plus_two_points":
        surface, p, q = comps
        return (sorted(p.weights) == sorted(q.weights)
                and all(sum(m % w == 0 for m in point.weights) == 2
                        for w in surface.weights if w > 1
                        for point in (p, q)))
    return True


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_combination_join_matches_the_filtered_product(template, flag_set):
    # With no lift-only rows the join keeps every lift that the orbit rule
    # keeps, so it yields the combinations that the checks on discrete data
    # alone keep, in the order of product, each at those lifts, in the
    # order of product; with the swap images of the two_surfaces ones they
    # give back every lift that can hold a point.
    ctx = _Ctx(1, 6, -6, 6, SearchBounds(4, 1, 2), FLAG_SETS[flag_set])
    slots, den, *_ = _choices(template, ctx, _Counter(10**9, template))
    want = [combo for combo in product(*slots)
            if _passes_discrete_checks(template, ctx.flags.lemma64,
                                       [c.comp for c in combo])]
    assert want
    every = list(product(*_every_lift(template, ctx.bounds)))
    got: dict[tuple, list] = {}
    for combo, lift in _combinations(template, slots, den, (), False, (), ctx,
                                     _Counter(10**9, template)):
        got.setdefault(combo, []).append(lift)
    assert list(got) == want
    for combo, lifts in got.items():
        assert lifts == [lift for lift in every if _orbit_kept(template, lift)]
    if template == "two_surfaces":
        assert [c.comp for c in slots[0]] == [c.comp for c in slots[1]]
    kept = Counter(_label(slots, combo, lift)
                   for combo, lifts in got.items() for lift in lifts)
    images = Counter(_image_label(label) for label in kept
                     if template == "two_surfaces")
    assert kept + images == Counter(_label(slots, combo, lift)
                                    for combo in want for lift in every
                                    if _holds_a_point(template, lift))


def _label(slots, combo, lift):
    """A combination as the index of each choice in its slot, with its
    lift."""
    return tuple((slot.index(c), a) for slot, c, a in zip(slots, combo, lift))


def _image_label(label):
    """The label of a two_surfaces combination's swap image.  Both slots
    enumerate the same surfaces in the same order, so an index names the
    same surface in either slot."""
    (i, a), (j, _) = label
    return (j, -a), (i, 0)


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_join_matches_the_filtered_product_of_choices_and_lifts(
        template, flag_set):
    bounds, flags = SearchBounds(3, 2, 2), FLAG_SETS[flag_set]
    slots, den, joined, t_only, head_rows = _choices(
        template, _Ctx(1, 6, -6, 6, bounds, flags), _Counter(10**9, template))
    every = _every_lift(template, bounds)
    # The rows that take no unknown at any lift of the box: those with
    # k >= 1 are lift-only, and row l^0 holds t alone if it is one of them.
    rows = tuple(k for k in range(4)
                 if not any(any(c.at(a)[0][k]) for slot, lifts in zip(
                     slots, every) for c in slot for a in lifts))
    lift_only = tuple(k for k in rows if k)
    assert joined == lift_only
    assert t_only == (0 in rows)
    # The head rows: an unknown of some head (choice, lift) enters them, and
    # no column of any tail (choice, lift) does.
    *heads, tail = slots
    want_head_rows = tuple(
        k for k in range(4)
        if any(any(c.at(a)[0][k]) for slot, lifts in zip(heads, every)
               for c in slot for a in lifts)
        and not any(any(c.at(a)[0][k]) or c.at(a)[1][k]
                    for c in tail for a in every[-1]))
    assert head_rows == want_head_rows
    assert head_rows == ((0, 1) if template == "two_surfaces" else ())

    @functools.cache
    def head_feasible(pairs, t_lo, t_hi):
        # Some evaluations of the head in the box and some t in range put
        # the head on its rows, found by trying every one of them.
        # An equal-weight surface without lemma64 takes sigma = ev_y1 +
        # ev_y2 as its unknown ev_y1, which lies in [-4, 4].
        values = product(*[
            range(-4, 5) if name == "ev_y1" and not flags.lemma64
            and c.comp.weights[0] == c.comp.weights[1] else range(-2, 3)
            for c, _ in pairs for name in c.unknowns],
            range(t_lo, t_hi + 1))
        return any(all(sum(e * v for e, v in zip(
                           [e for c, a in pairs for e in c.at(a)[0][k]], x))
                       - den * x[-1] * (k == 0)
                       + sum(c.at(a)[1][k] for c, a in pairs) == 0
                       for k in head_rows)
                   for x in values)

    # The pairs that the checks on discrete data alone and the lift-only
    # rows keep, found by filtering every (choice, lift) of every component
    # through the predicates of verify_case and the rows' constants.  The
    # orbit rule keeps some of them, and with the swap images of the
    # two_surfaces ones those give back all that can hold a point.
    def passes(pairs):
        return (_passes_discrete_checks(template, flags.lemma64,
                                        [c.comp for c, _ in pairs])
                and not any(sum(c.at(a)[1][k] for c, a in pairs)
                            for k in lift_only))

    def label(pairs):
        return _label(slots, *zip(*pairs))

    entries = [[(c, a) for c in slot for a in lifts]
               for slot, lifts in zip(slots, every)]
    base = [pairs for pairs in product(*entries) if passes(pairs)]
    kept = [pairs for pairs in base
            if _orbit_kept(template, [a for _, a in pairs])]
    assert kept
    images = Counter(_image_label(label(pairs)) for pairs in kept
                     if template == "two_surfaces")
    assert Counter(map(label, kept)) + images == Counter(
        label(pairs) for pairs in base
        if _holds_a_point(template, [a for _, a in pairs]))
    for t_range in ((1, 6), (2, 2), (-3, 0)):
        # With t alone in row l^0, den * t is the sum of its constants.  t
        # is clamped at 1, so (-3, 0) keeps nothing where that row is joined.
        t_lo, t_hi = max(1, t_range[0]), t_range[1]
        want = sorted(label(pairs) for pairs in kept
                      if (not t_only or _t_from_row0(pairs, den) in range(
                          t_lo, t_hi + 1))
                      and (not head_rows
                           or head_feasible(pairs[:-1], t_lo, t_hi)))
        got = _combinations(template, slots, den, joined, t_only, head_rows,
                            _Ctx(*t_range, -6, 6, bounds, flags),
                            _Counter(10**9, template))
        assert sorted(_label(slots, *pair) for pair in got) == want


# The row roles of each template: the lift-only rows, whether t is the only
# unknown of row l^0, and the head rows.  No flag set or lift box moves them.
ROW_ROLES = {
    "cp2like_plus_point": ((), True, ()),
    "four_plus_surface": ((1,), True, ()),
    "four_plus_two_points": ((1, 2, 3), True, ()),
    "single_four_b2_2": ((), True, ()),
    "surface_plus_two_points": ((1,), True, ()),
    "two_fours": ((1, 2, 3), True, ()),
    "two_surfaces": ((), False, (0, 1)),
}


@pytest.mark.parametrize("max_abs_a", [1, 2, 5])
@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_row_roles_at_the_edges_of_the_lift_box(template, flag_set,
                                                max_abs_a):
    # At max_abs_a = 1 the first surface of two_surfaces has the single lift
    # 1, and each lifted column still reaches every row up to its degree.
    ctx = _Ctx(1, 6, -6, 6, SearchBounds(3, max_abs_a, 2), FLAG_SETS[flag_set])
    _, _, *roles = _choices(template, ctx, _Counter(10**9, template))
    assert tuple(roles) == ROW_ROLES[template]


def _t_from_row0(pairs, den):
    """t from row l^0 of the x^3 identity when t is its only unknown: the
    constants at the lifts sum to den * t (None if den does not divide)."""
    total = sum(c.at(a)[1][0] for c, a in pairs)
    return None if total % den else total // den


# ---------------------------------------------------------------------------
# The swap orbits of two_surfaces


def _image(cfg):
    """A two_surfaces configuration's swap image, built with shift_lift:
    the surfaces swapped and every lift shifted by -a, so that the last
    surface sits at 0 again."""
    x, y = cfg.components
    return shift_lift(replace(cfg, components=(y, x)), -x.a)


_A = sympy.Symbol("a")
_QA = sympy.QQ.frac_field(_A)


def _surface_columns(local, weights, lift):
    """The l^0..l^3 coefficients of the ev_x and the ev_y1 column of local's
    datum of a surface with these weights and ev_y2 = 0 at the lift (an
    integer or a sympy symbol).  The datum is read at lift 0, where it is
    affine in the evaluations and 0 at zero ones, and moved to the lift by
    l -> l + lift."""
    def at(ev_x, ev_y1):
        datum = local(SurfaceComponent(weights, 0, ev_x, ev_y1, 0, 2))
        return [sympy.Rational(q.numerator, q.denominator)
                for q in coefficients(datum)]
    assert not any(at(0, 0))
    return [[sum(c[j] * comb(j, k) * lift**(j - k) for j in range(k, 4))
             for k in range(4)] for c in (at(1, 0), at(0, 1))]


@pytest.mark.parametrize("m", range(1, 6))
def test_the_two_surface_relations_follow_from_the_sums_in_either_order(m):
    # Structured data: X with weights (n_X, m) at lift a, Y with weights
    # (n_Y, m) at lift 0, both ev_y2 = 0, unknowns (ev_x X, ev_y1 X, ev_x Y,
    # ev_y1 Y, t, s = rho t).  The four x^3 rows and the p1*x rows l^1 and
    # l^0 imply surface-restriction-product and pontrjagin-slope with either
    # surface first: each relation is a combination of the rows whose
    # coefficients have powers of a alone as denominators, so it holds at
    # every a != 0.  At a = 0 the restriction product reads t = 0 in both
    # orders, which t >= 1 fails.
    for n_x, n_y in product(range(1, 6), repeat=2):
        rows = []
        for local, count, column in ((x3_local_datum, 4, 4),
                                     (p1x_local_datum, 2, 5)):
            (ex, yx), (ey, yy) = (_surface_columns(local, (n_x, m), _A),
                                  _surface_columns(local, (n_y, m), 0))
            for k in range(count):
                row = [ex[k], yx[k], ey[k], yy[k], 0, 0]
                row[column] = -1 if k == 0 else 0
                rows.append(row)
        # t - a^2 ev_x / (n m) and s - 4 n ev_x / m, X first then Y first.
        relations = [[-_A**2 / (n_x * m), 0, 0, 0, 1, 0],
                     [0, 0, -_A**2 / (n_y * m), 0, 1, 0],
                     [sympy.Rational(-4 * n_x, m), 0, 0, 0, 0, 1],
                     [0, 0, sympy.Rational(-4 * n_y, m), 0, 0, 1]]
        rows_m = DomainMatrix.from_list_sympy(6, 6, rows).convert_to(_QA)
        rels_m = DomainMatrix.from_list_sympy(4, 6, relations).convert_to(_QA)
        reduced, pivots = rows_m.transpose().hstack(rels_m.transpose()).rref()
        assert all(p < 6 for p in pivots), (n_x, n_y, m)  # solvable
        reduced = reduced.to_list()
        coeffs = [[_QA.zero] * 6 for _ in relations]
        for i, p in enumerate(pivots):
            for j, row in enumerate(coeffs):
                row[p] = reduced[i][6 + j]
        assert (DomainMatrix(coeffs, (4, 6), _QA) * rows_m
                - rels_m).is_zero_matrix
        assert all(sympy.Poly(_QA.denom(c).as_expr(), _A).is_monomial
                   for row in coeffs for c in row), (n_x, n_y, m)
        for rel in relations[:2]:
            assert [sympy.sympify(c).subs(_A, 0) for c in rel] == \
                [0, 0, 0, 0, 1, 0]
        # The relations are the residuals that verify_case reports, here
        # at one point off the sums, at a = 2 and a = 0, in both orders.
        flags = Flags(effectiveness=False)
        values = (1, 3, -1, 2, 5, -15)
        for a in (2, 0):
            x = SurfaceComponent((n_x, m), a, 1, 3, 0, 2)
            y = SurfaceComponent((n_y, m), 0, -1, 2, 0, 2)
            cfg = Configuration(AmbientData(5, -3, 4), "two_surfaces", (x, y),
                                flags)
            for ordered, (product_rel, slope_rel) in (
                    (cfg, relations[::2]), (_image(cfg), relations[1::2])):
                got = {c.name: c.residual
                       for c in verify_case(ordered).checks}
                for name, rel in (("surface-restriction-product",
                                   product_rel),
                                  ("pontrjagin-slope", slope_rel)):
                    want = sum(sympy.sympify(c).subs(_A, a) * v
                               for c, v in zip(rel, values))
                    assert sympy.Rational(got[name].numerator,
                                          got[name].denominator) == want


@pytest.mark.parametrize("bounds", [(3, 3, 6), (5, 5, 10)])
@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
def test_every_two_surfaces_hit_has_its_swap_image_in_the_list(flag_set,
                                                               bounds):
    hits = search_case("two_surfaces", (1, 10), (-10, 10),
                       SearchBounds(*bounds), FLAG_SETS[flag_set])
    assert hits
    keys = {dump_config(cfg) for cfg in hits}
    assert len(keys) == len(hits)
    for cfg in hits:
        # No hit has its surfaces at one lift: there the x^3 sum has no
        # term in l^0, so t would be 0.
        assert cfg.components[0].a and cfg.components[1].a == 0
        assert dump_config(_image(cfg)) in keys


SEMIFREE_DEMO = load_config(str(Path(__file__).resolve().parents[1]
                                / "demos" / "configs"
                                / "semifree_two_surfaces.json"))


def test_the_semifree_demo_is_found_in_both_component_orders():
    hits = search_case("two_surfaces", (1, 10), (-10, 10),
                       flags=SearchFlags(semifree=True))
    image = _image(SEMIFREE_DEMO)
    assert image != SEMIFREE_DEMO
    assert SEMIFREE_DEMO in hits and image in hits


_SMALL_WEIGHTS = st.integers(1, 5)
_EVALUATIONS = st.integers(-6, 6)


@st.composite
def two_surface_configurations(draw):
    """A two_surfaces configuration with any lifts and evaluations; in half
    of them the surfaces share their second weight and have ev_y2 = 0, so
    that surface-structure holds and the named relations are checked."""
    structured = draw(st.booleans())
    m = draw(_SMALL_WEIGHTS)
    surfaces = []
    for _ in range(2):
        weights = (draw(_SMALL_WEIGHTS), m if structured
                   else draw(_SMALL_WEIGHTS))
        surfaces.append(SurfaceComponent(
            weights, draw(st.integers(-5, 5)), draw(_EVALUATIONS),
            draw(_EVALUATIONS), 0 if structured else draw(_EVALUATIONS),
            draw(st.sampled_from((2, 0, -2)))))
    ambient = AmbientData(draw(st.integers(1, 6)), draw(st.integers(-5, 5)),
                          draw(st.integers(-4, 8)))
    flags = Flags(effectiveness=False, lemma64=draw(st.booleans()))
    return Configuration(ambient, "two_surfaces", tuple(surfaces), flags)


# The semifree demo: consistent, with every named relation passing.
@example(SEMIFREE_DEMO)
@given(two_surface_configurations())
def test_a_swap_image_keeps_the_check_list(cfg):
    image = _image(cfg)
    before = {c.name: c for c in verify_case(cfg).checks}
    after = {c.name: c for c in verify_case(image).checks}
    assert list(after) == list(before)
    assert verify_case(image).consistent == verify_case(cfg).consistent
    for name in ("euler-characteristic", "signature-rigidity",
                 "signature-vanishing", "signature-limit",
                 "surface-structure", "semifree-closure"):
        if name in before:
            assert (after[name].passed, after[name].residual) == \
                (before[name].passed, before[name].residual)
    # The sums' residuals move with the lifts: the image's is the
    # original's with l replaced by l - a.
    a = cfg.components[0].a
    for name in ("x3-localization", "p1x-localization"):
        assert after[name].passed == before[name].passed
        assert after[name].residual == at_shifted_lift(before[name].residual,
                                                       -a)


# ---------------------------------------------------------------------------
# The memo of one search_case call


DATA = ("_x3_local_datum", "_p1x_local_datum", "_signature_local_datum")


def _signature_multiset(components):
    """The component multiset that the signature checks read."""
    return tuple(sorted((c.kind, *localization._SIGNATURE_READS[c.kind](c))
                        for c in components))


def test_each_local_datum_is_computed_once_per_key_in_a_search(monkeypatch):
    # The memo holds the local data and, beside them, one list of signature
    # checks per component multiset.
    computed = {name: [] for name in DATA}
    check_lists = []
    memos = []

    def counted(name, compute):
        def datum(c):
            memos.append(localization._LOCAL_DATA.get())
            reads = (localization._SIGNATURE_READS[c.kind](c)
                     if name == "_signature_local_datum" else vars(c).values())
            computed[name].append((c.kind, *reads))
            return compute(c)
        return datum

    def checks(components, compute=localization._character_checks):
        memos.append(localization._LOCAL_DATA.get())
        check_lists.append(_signature_multiset(components))
        return compute(components)

    for name in DATA:
        monkeypatch.setattr(localization, name,
                            counted(name, getattr(localization, name)))
    monkeypatch.setattr(localization, "_character_checks", checks)
    hits = search_case("two_surfaces", rho_range=(-10, 10), bounds=SMALL,
                       flags=SearchFlags(semifree=True))
    assert hits
    (memo,) = {id(m): m for m in memos}.values()
    assert memo is not None
    for name, keys in {**computed, "_character_checks": check_lists}.items():
        assert keys, name
        assert len(set(keys)) == len(keys), name
    assert len(memo) == sum(map(len, computed.values())) + len(check_lists)


# Searches at rho in [-10, 10] whose signature check lists are recorded.
MULTISET_SEARCHES = {
    "two_surfaces": (SearchBounds(3, 3, 6), FLAG_SETS["no_lemma64"]),
    "surface_plus_two_points": (SMALL, FLAG_SETS["all_off"]),
}


def _recorded_search(monkeypatch, template):
    """The search's hits, every (components, list) that signature_checks
    returned in it, and the components of every character total formed."""
    bounds, flags = MULTISET_SEARCHES[template]
    returned, formed = [], []

    def checks(components, signature_checks=localization.signature_checks):
        components = tuple(components)
        result = signature_checks(components)
        returned.append((components, result))
        return result

    def character_checks(components, compute=localization._character_checks):
        formed.append(components)
        return compute(components)

    monkeypatch.setattr(localization, "signature_checks", checks)
    monkeypatch.setattr(localization, "_character_checks", character_checks)
    hits = search_case(template, (1, 10), (-10, 10), bounds, flags)
    monkeypatch.undo()
    return hits, returned, formed


def test_the_signature_total_is_formed_once_per_multiset_in_a_search(
        monkeypatch):
    # The 3/3/6 box without lemma64: 1216 hits, whose signature data form
    # 42 distinct component multisets, an equal-weight surface read through
    # sigma = ev_y1 + ev_y2 (485 with ev_y1 and ev_y2 read apart).
    hits, returned, formed = _recorded_search(monkeypatch, "two_surfaces")
    assert len(hits) == 1216
    multisets = [_signature_multiset(c) for c in formed]
    assert len(multisets) == len(set(multisets)) == 42
    assert {_signature_multiset(c) for c, _ in returned} == set(multisets)
    # A hit and its swap image share their total, in lists of their own.
    lists = dict(returned)
    for cfg in hits:
        mine, theirs = lists[cfg.components], lists[_image(cfg).components]
        assert mine is not theirs
        assert mine[0].name == "signature-rigidity"
        assert mine[0].residual is theirs[0].residual


def test_signature_checks_outside_a_search_form_their_total_each_time():
    first, second = (localization.signature_checks(SEMIFREE_DEMO.components)
                     for _ in range(2))
    assert first == second
    assert first[0].residual is not second[0].residual


@pytest.mark.parametrize("template", sorted(MULTISET_SEARCHES))
def test_every_memoized_check_list_is_the_fresh_one(monkeypatch, template):
    hits, returned, formed = _recorded_search(monkeypatch, template)
    assert hits and len(formed) < len(returned)
    assert localization._LOCAL_DATA.get() is None
    for components, checks in returned:
        fresh = localization.signature_checks(components)
        assert [(c.name, c.passed, c.citation, c.residual) for c in checks] \
            == [(c.name, c.passed, c.citation, c.residual) for c in fresh]


def test_a_copied_component_has_the_key_of_an_equal_constructed_one():
    pairs = [
        (PointComponent(-1, (1, 2, 3), 4),
         _copy(PointComponent(-1, (1, 2, 3), 0), 4, ())),
        (SurfaceComponent((1, 2), 3, 4, 5, 6, 2),
         _copy(SurfaceComponent((1, 2), 0, 0, 0, 0, 2), 3,
               (("ev_x", 4), ("ev_y1", 5), ("ev_y2", 6)))),
        (FourComponent(1, -2, 1, 0, 0, 3, 1, 1, 3),
         _copy(FourComponent(1, 0, 0, 0, 0, 3, 1, 1, 3), -2, (("ev_x2", 1),))),
    ]
    for built, copied in pairs:
        # The x^3 and p1*x keys read vars(c) in field order, which both the
        # dataclass __init__ and _copy keep.
        assert copied == built
        names = [f.name for f in fields(built)]
        assert list(vars(built)) == list(vars(copied)) == names
        data = [localization.x3_local_datum, localization.p1x_local_datum]
        if built.kind != "four":
            data.append(localization.signature_local_datum)
        memo = {}
        token = localization._LOCAL_DATA.set(memo)
        try:
            for datum in data:
                assert datum(copied) is datum(built)
        finally:
            localization._LOCAL_DATA.reset(token)
        assert len(memo) == len(data)
        assert {key[1] for key in memo} == {built.kind}
        assert {key[0] for key in memo} == {getattr(localization, name)
                                           for name in DATA[:len(data)]}
