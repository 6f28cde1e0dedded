"""Equal normal weights: the search's sigma unknown and member expansion,
checked against the independent class helper in splitting.py."""

import functools
from collections import Counter
from dataclasses import replace

import pytest

from splitting import classes, varies
from cisym import search
from cisym.localization import TEMPLATES, verify_case
from cisym.search import (
    BudgetExceededError,
    SearchBounds,
    SearchFlags,
    search_case,
)

# The 21 search_hits calls of the benchmark: every template at t 1..10,
# rho -10..10 under these flag sets and bounds.
HIT_BOXES = {
    "no_lemma64": (SearchFlags(lemma64=False), SearchBounds(3, 3, 6)),
    "default": (SearchFlags(), SearchBounds(3, 3, 6)),
    "semifree": (SearchFlags(semifree=True), SearchBounds(5, 5, 10)),
}


@functools.cache
def _hit_lists():
    """(flag set, template) -> the hits of each search_hits call."""
    return {(name, template): search_case(template, (1, 10), (-10, 10),
                                          bounds, flags)
            for name, (flags, bounds) in HIT_BOXES.items()
            for template in sorted(TEMPLATES)}


# The classes of the calls that have more than one hit per class.
CLASSES = {
    ("no_lemma64", "two_surfaces"): (1216, 90),
    ("no_lemma64", "surface_plus_two_points"): (64, 28),
    ("default", "surface_plus_two_points"): (41, 5),
    ("semifree", "surface_plus_two_points"): (21, 1),
}


def test_every_splitting_class_of_the_search_hits_is_complete():
    # Each class is found from the hits alone, and every member of it that
    # fits in the box is a hit: the search misses no splitting.
    total_hits = total_classes = 0
    for (flags, template), hits in _hit_lists().items():
        found = classes(hits, HIT_BOXES[flags][1].max_abs_eval)
        members = [m for ms in found.values() for m in ms]
        assert len(members) == len(set(members)) == len(hits)
        assert set(members) == set(hits), (flags, template)
        total_hits += len(hits)
        total_classes += len(found)
        if (flags, template) in CLASSES:
            assert (len(hits), len(found)) == CLASSES[flags, template]
        else:
            assert len(found) == len(hits), (flags, template)
    assert (total_hits, total_classes) == (1403, 185)


def test_sigma_fills_twice_the_evaluation_box():
    # sigma = ev_y1 + ev_y2 runs over [-2E, 2E]: 140 surfaces of the
    # no_lemma64 two_surfaces hits have |sigma| > E, 4 of them |sigma| = 2E.
    hits = _hit_lists()["no_lemma64", "two_surfaces"]
    sigmas = Counter(abs(c.ev_y1 + c.ev_y2) for cfg in hits
                     for i, c in enumerate(cfg.components) if varies(cfg, i))
    assert sum(n for s, n in sigmas.items() if s > 6) == 140
    assert sigmas[12] == 4 and max(sigmas) == 12


def test_a_resplit_changes_only_surface_structure():
    # Each equal-weight surface of each hit re-split by +-1: (ev_y1, ev_y2)
    # -> (ev_y1 + k, ev_y2 - k).  Only surface-structure changes verdict,
    # and only under lemma64; surface-restriction-product and
    # pontrjagin-slope, which it gates, appear or vanish, and pass
    # whenever they are present.  No other check moves.
    changed = Counter()
    resplits = 0
    for hits in _hit_lists().values():
        for cfg in hits:
            before = {c.name: c.passed for c in verify_case(cfg).checks}
            for i, c in enumerate(cfg.components):
                if c.kind != "surface" or c.weights[0] != c.weights[1]:
                    continue
                for k in (1, -1):
                    comps = list(cfg.components)
                    comps[i] = replace(c, ev_y1=c.ev_y1 + k, ev_y2=c.ev_y2 - k)
                    moved = replace(cfg, components=tuple(comps))
                    after = {x.name: x.passed
                             for x in verify_case(moved).checks}
                    resplits += 1
                    for name in before.keys() | after.keys():
                        if before.get(name) != after.get(name):
                            changed[cfg.flags.lemma64, name, before.get(name),
                                    after.get(name)] += 1
    assert resplits == 4790
    assert changed == {
        (True, "surface-structure", True, False): 96,
        (True, "surface-restriction-product", True, None): 96,
        (True, "pontrjagin-slope", True, None): 96,
        (False, "surface-restriction-product", None, True): 36,
        (False, "surface-restriction-product", True, None): 40,
        (False, "pontrjagin-slope", None, True): 36,
        (False, "pontrjagin-slope", True, None): 40,
    }


def test_sigma_cuts_the_leaves_of_the_largest_call(monkeypatch):
    # 90 classes, 697 leaves with (ev_y1, ev_y2) apart.
    leaves = []
    leaf_ = search._leaf

    def leaf(*args):
        leaves.append(args)
        return leaf_(*args)

    monkeypatch.setattr(search, "_leaf", leaf)
    flags, bounds = HIT_BOXES["no_lemma64"]
    hits = search_case("two_surfaces", (1, 10), (-10, 10), bounds, flags)
    assert len(hits) == 1216
    assert len(leaves) <= 150


def test_the_budget_can_run_out_among_the_members(monkeypatch):
    # The first representative that splits here has sigma = 0 and 13
    # members, nodes 115 to 127.  With a budget of 115 the second member
    # is counted, and the call raises before it is built.
    copies = []
    copy_ = search._copy

    def copy(comp, a, evaluations):
        evaluations = tuple(evaluations)
        if [name for name, _ in evaluations] == ["ev_y1", "ev_y2"]:
            copies.append(evaluations)  # a member
        return copy_(comp, a, evaluations)

    monkeypatch.setattr(search, "_copy", copy)
    flags, bounds = HIT_BOXES["no_lemma64"]
    args = ("surface_plus_two_points", (1, 10), (-10, 10), bounds, flags)
    with pytest.raises(BudgetExceededError,
                       match="budget of 115 exhausted in template"
                             " surface_plus_two_points at node 116;"
                             r" solving surface weights \(1, 1\), point"
                             r" weights \(1, 1, 1\), point weights"
                             r" \(1, 1, 1\);"):
        search_case(*args, budget=115)
    assert copies == [(("ev_y1", -6), ("ev_y2", 6))]
    copies.clear()
    assert len(search_case(*args)) == 64
    assert copies[:2] == [(("ev_y1", -6), ("ev_y2", 6)),
                          (("ev_y1", -5), ("ev_y2", 5))]
