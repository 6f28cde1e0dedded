"""Tests for the bounded configuration search."""

import hashlib

import pytest

from bruteforce import brute_force
from cisym.configio import dump_config
from cisym.localization import (
    MAX_WEIGHT,
    TEMPLATES,
    ConfigurationError,
    verify_case,
)
from cisym.search import (
    BudgetExceededError,
    SearchBounds,
    SearchFlags,
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


def test_unknown_template_rejected():
    with pytest.raises(ConfigurationError):
        search_case("everything")


def test_bad_ranges_rejected():
    with pytest.raises(ValueError):
        search_case("two_surfaces", t_range=(5, 1))
    with pytest.raises(ValueError):
        search_case("two_surfaces", budget=0)


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_weight=0)
    with pytest.raises(ValueError):
        SearchBounds(max_weight=MAX_WEIGHT + 1)
    assert SearchBounds(max_weight=MAX_WEIGHT).max_weight == MAX_WEIGHT
    with pytest.raises(ValueError):
        SearchBounds(max_abs_a=-1)


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


@pytest.mark.parametrize("flag_set", ["default", "no_lemma64"])
@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_search_matches_pruning_free_enumeration(template, flag_set):
    # At these bounds cp2like_plus_point has 1 hit, surface_plus_two_points
    # 3, and two_surfaces 2 with lemma64 off.
    args = (template, (1, 6), (-6, 6), SearchBounds(2, 1, 1),
            FLAG_SETS[flag_set])
    assert [dump_config(c) for c in search_case(*args)] == \
        [dump_config(c) for c in brute_force(*args)]
