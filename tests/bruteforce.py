"""Pruning-free reference enumerator for the configuration search.

Deliberately shares no code with cisym.search: it walks every weight, sign,
lift and evaluation of the search box, derives t and rho from x3_sum and
p1x_sum, and keeps a candidate exactly when Configuration accepts it and
verify_case passes.  No localization identity is solved or used to skip a
candidate, so agreement with search_case tests that the search prunes only
by exact consequences of the checks.

The box follows the search conventions: sorted weights (coprime under
effectiveness, 1 under semifree; a 4-dimensional component's single weight
then is 1), b2 of a 4-dimensional component fixed by the template with
chi = 2 + b2, fixed surfaces with chi = 2, the first point with eps = +1
under convention35, a = 0 on the last surface (else on the first
component), and under lemma64 two surfaces with unsorted weights and both
second evaluations 0.
"""

from dataclasses import replace
from itertools import combinations_with_replacement, product
from math import gcd

from cisym.configio import dump_config
from cisym.localization import (
    _TEMPLATE_B2,
    AmbientData,
    Configuration,
    ConfigurationError,
    FourComponent,
    PointComponent,
    SurfaceComponent,
    TEMPLATES,
    p1x_sum,
    verify_case,
    x3_sum,
)


def _integer(poly):
    """The value of a lift polynomial that is an integer constant, read off
    its parts; None otherwise."""
    if len(poly.num) > 1 or poly.den != 1:
        return None
    return poly.num[0] if poly.num else 0


def _coprime(ws, flags):
    return not flags.effectiveness or gcd(*ws) == 1


def _components(template, kind, index, bounds, flags):
    """Every component the box allows in one slot, with lift 0."""
    weights = [1] if flags.semifree else range(1, bounds.max_weight + 1)
    evals = range(-bounds.max_abs_eval, bounds.max_abs_eval + 1)
    if kind == "point":
        first = "point" not in TEMPLATES[template][:index]
        signs = (1,) if flags.convention35 and first else (1, -1)
        return [PointComponent(eps, ws, 0)
                for ws in combinations_with_replacement(weights, 3)
                if _coprime(ws, flags) for eps in signs]
    if kind == "surface":
        if template == "two_surfaces" and flags.lemma64:
            return [SurfaceComponent(ws, 0, x, y1, 0, 2)
                    for ws in product(weights, repeat=2)
                    if _coprime(ws, flags)
                    for x, y1 in product(evals, repeat=2)]
        return [SurfaceComponent(ws, 0, x, y1, y2, 2)
                for ws in combinations_with_replacement(weights, 2)
                if _coprime(ws, flags)
                for x, y1, y2 in product(evals, repeat=3)]
    b2 = _TEMPLATE_B2[template]
    four_evals = list(product(evals, repeat=3)) if b2 else [(0, 0, 0)]
    return [FourComponent(w, 0, x2, xy, y2, 3 * s, b2, s, 2 + b2)
            for w in weights if _coprime((w,), flags)
            for s in range(-b2, b2 + 1)
            if (s - b2) % 2 == 0
            for x2, xy, y2 in four_evals]


def brute_force(template, t_range, rho_range, bounds, flags):
    """All consistent configurations in the box, sorted as search_case sorts."""
    kinds = TEMPLATES[template]
    fixed = max(i for i, k in enumerate(kinds) if k == "surface") \
        if "surface" in kinds else 0
    slots = [_components(template, k, i, bounds, flags)
             for i, k in enumerate(kinds)]
    lifts = [[0] if i == fixed
             else range(-bounds.max_abs_a, bounds.max_abs_a + 1)
             for i in range(len(kinds))]
    t_lo, t_hi = max(1, t_range[0]), t_range[1]
    hits = []
    for comps in product(*slots):
        for lift in product(*lifts):
            cand = tuple(replace(c, a=a) for c, a in zip(comps, lift))
            t = _integer(x3_sum(cand))
            if t is None or not t_lo <= t <= t_hi:
                continue
            rt = _integer(p1x_sum(cand))
            if rt is None or rt % t:
                continue
            rho = rt // t
            if not rho_range[0] <= rho <= rho_range[1]:
                continue
            try:
                cfg = Configuration(
                    AmbientData(t, rho, sum(c.chi for c in cand), 0),
                    template, cand, flags.as_config_flags())
            except ConfigurationError:
                continue
            if verify_case(cfg).consistent:
                hits.append(cfg)
    return sorted(hits, key=dump_config)

