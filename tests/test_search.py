"""Tests for the bounded configuration search."""

import functools
import hashlib
import time
import tracemalloc
from dataclasses import fields
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bruteforce import brute_force
from cisym import localization, search
from cisym.algebra import LiftPolynomial
from cisym.configio import dump_config, parse_config
from cisym.localization import (
    MAX_WEIGHT,
    TEMPLATES,
    ConfigurationError,
    Flags,
    FourComponent,
    PointComponent,
    SurfaceComponent,
    _divides_exactly_two,
    _shares_second_weight,
    _weights_match,
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
    # This call visits exactly 376 nodes (see the search module docstring).
    args = ("two_surfaces", (1, 6), (-6, 6), SMALL)
    assert len(search_case(*args, budget=376)) == 34
    with pytest.raises(BudgetExceededError,
                       match="budget of 375 exhausted in template"
                             " two_surfaces at node 376;") as info:
        search_case(*args, budget=375)
    # The message also names the discrete data being solved at that node.
    assert "; solving surface weights (3, 2), surface weights (3, 2);" \
        in str(info.value)


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
        "two_surfaces": 180, "surface_plus_two_points": 193,
        "cp2like_plus_point": 2}
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
    assert len(leaves) == 515 and all(leaves)
    leaves.clear()
    for template in sorted(TEMPLATES):
        search_case(template)
    assert len(leaves) == 375 and all(leaves)


def test_every_template_is_empty_on_the_wider_box():
    # The certified box at bounds 8/8/16, where the joins and the bounded
    # free unknowns of the search pay off.
    bounds = SearchBounds(8, 8, 16)
    for template in sorted(TEMPLATES):
        assert search_case(template, (1, 10), (-10, 0), bounds) == [], template


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
    slots, den, _, _ = _choices(template, ctx, _Counter(10**9, template))
    return [c for slot in slots for c in slot], den


@given(st.sampled_from(sorted(TEMPLATES)), st.sampled_from(sorted(FLAG_SETS)),
       st.data(), st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30)))
def test_shifted_columns_are_the_x3_datum_at_the_lift(template, flag_set,
                                                      data, a):
    # _Choice.at shifts the integer columns to lift a in closed form; they
    # must be den times the l^k coefficients of the x^3 datum at that lift,
    # the unknown columns as differences of the datum at a unit evaluation.
    choices, den = _template_choices(template, flag_set)
    c = data.draw(st.sampled_from(choices))
    unknown, const = c.at(a)
    base = x3_local_datum(_copy(c.comp, a, ()))
    columns = [x3_local_datum(_copy(c.comp, a, ((name, 1),))) - base
               for name in c.unknowns] + [base]
    want = [[poly.coefficient(k) * den for poly in columns] for k in range(4)]
    assert [list(unknown[k]) + [const[k]] for k in range(4)] == want
    assert all(type(x) is int for row in unknown for x in row + const)


def _passes_discrete_checks(template, lemma64, comps):
    """The predicates of verify_case that depend on the discrete data alone,
    applied to one combination of components."""
    if sum(c.signature_contribution for c in comps):
        return False
    if lemma64 and template == "two_surfaces":
        return _shares_second_weight(comps[0].weights, comps[1].weights)
    if lemma64 and template == "surface_plus_two_points":
        surface, p, q = comps
        return (_weights_match(p.weights, q.weights)
                and _divides_exactly_two(surface.weights, p.weights)
                and _divides_exactly_two(surface.weights, q.weights))
    return True


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_combination_join_matches_the_filtered_product(template, flag_set):
    # With no lift-only rows the join keeps every lift, so it yields the
    # combinations that the checks on discrete data alone keep, in the order
    # of product, each at every lift of its choices, in the order of product.
    ctx = _Ctx(1, 6, -6, 6, SearchBounds(4, 1, 2), FLAG_SETS[flag_set])
    slots, den, _, _ = _choices(template, ctx, _Counter(10**9, template))
    want = [combo for combo in product(*slots)
            if _passes_discrete_checks(template, ctx.flags.lemma64,
                                       [c.comp for c in combo])]
    assert want
    got: dict[tuple, list] = {}
    for combo, lift in _combinations(template, slots, den, (), False, ctx,
                                     _Counter(10**9, template)):
        got.setdefault(combo, []).append(lift)
    assert list(got) == want
    for combo, lifts in got.items():
        assert lifts == list(product(*(c.lifts for c in combo)))


@pytest.mark.parametrize("flag_set", sorted(FLAG_SETS))
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_join_matches_the_filtered_product_of_choices_and_lifts(
        template, flag_set):
    bounds, flags = SearchBounds(3, 2, 2), FLAG_SETS[flag_set]
    slots, den, joined, t_only = _choices(
        template, _Ctx(1, 6, -6, 6, bounds, flags), _Counter(10**9, template))
    # The rows that take no unknown at any lift of the box: those with
    # k >= 1 are lift-only, and row l^0 holds t alone if it is one of them.
    rows = tuple(k for k in range(4)
                 if not any(any(c.at(a)[0][k])
                            for slot in slots for c in slot for a in c.lifts))
    lift_only = tuple(k for k in rows if k)
    assert joined == lift_only
    assert t_only == (0 in rows)

    # The pairs that the checks on discrete data alone and the lift-only
    # rows keep, found by filtering every (choice, lift) of every component
    # through the predicates of verify_case and the rows' constants.
    def kept(pairs):
        return (_passes_discrete_checks(template, flags.lemma64,
                                        [c.comp for c, _ in pairs])
                and not any(sum(c.at(a)[1][k] for c, a in pairs)
                            for k in lift_only))

    def label(combo, lift):
        return tuple((slot.index(c), a)
                     for slot, c, a in zip(slots, combo, lift))

    entries = [[(c, a) for c in slot for a in c.lifts] for slot in slots]
    base = [pairs for pairs in product(*entries) if kept(pairs)]
    assert base
    for t_range in ((1, 6), (2, 2), (-3, 0)):
        # With t alone in row l^0, den * t is the sum of its constants.  t
        # is clamped at 1, so (-3, 0) keeps nothing where that row is joined.
        t_lo, t_hi = max(1, t_range[0]), t_range[1]
        want = sorted(label(*zip(*pairs)) for pairs in base
                      if not t_only or _t_from_row0(pairs, den) in range(
                          t_lo, t_hi + 1))
        got = _combinations(template, slots, den, joined, t_only,
                            _Ctx(*t_range, -6, 6, bounds, flags),
                            _Counter(10**9, template))
        assert sorted(label(*pair) for pair in got) == want


def _t_from_row0(pairs, den):
    """t from row l^0 of the x^3 identity when t is its only unknown: the
    constants at the lifts sum to den * t (None if den does not divide)."""
    total = sum(c.at(a)[1][0] for c, a in pairs)
    return None if total % den else total // den


# ---------------------------------------------------------------------------
# The memo of one search_case call


DATA = ("_x3_local_datum", "_p1x_local_datum", "_signature_local_datum")


def test_each_local_datum_is_computed_once_per_key_in_a_search(monkeypatch):
    computed = {name: [] for name in DATA}
    memos = []

    def counted(name, compute):
        def datum(c):
            memos.append(localization._LOCAL_DATA.get())
            reads = (localization._SIGNATURE_READS[c.kind](c)
                     if name == "_signature_local_datum" else vars(c).values())
            computed[name].append((c.kind, *reads))
            return compute(c)
        return datum

    for name in DATA:
        monkeypatch.setattr(localization, name,
                            counted(name, getattr(localization, name)))
    hits = search_case("two_surfaces", rho_range=(-10, 10), bounds=SMALL,
                       flags=SearchFlags(semifree=True))
    assert hits
    (memo,) = {id(m): m for m in memos}.values()
    assert memo is not None
    for name, keys in computed.items():
        assert keys, name
        assert len(set(keys)) == len(keys), name
    assert len(memo) == sum(map(len, computed.values()))


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
