"""The splitting classes of a hit list.

A fixed surface with normal weights (n, n) has one weight-n normal summand,
a rank-2 complex bundle, and its local data read the evaluations ev_y1 and
ev_y2 only through sigma = ev_y1 + ev_y2.  So (ev_y1, ev_y2) is a choice of
splitting of that bundle, and the configurations that differ only in it
form a class.  Under lemma64 two_surfaces fixes ev_y2 = 0
(surface-structure), so there the splitting does not vary.

Deliberately shares no code with cisym.search: a class is found from the
hits alone, its representative has each varying surface at (sigma, 0), and
its members are every splitting of each sigma with both evaluations in
[-max_abs_eval, max_abs_eval].
"""

from dataclasses import replace
from itertools import product

from cisym.localization import Configuration


def varies(cfg: Configuration, i: int) -> bool:
    """Whether the template and flags of cfg let the splitting of its i-th
    component vary: an equal-weight surface, outside two_surfaces under
    lemma64."""
    c = cfg.components[i]
    return (c.kind == "surface" and c.weights[0] == c.weights[1]
            and not (cfg.template == "two_surfaces" and cfg.flags.lemma64))


def representative(cfg: Configuration) -> Configuration:
    """cfg with each varying surface at (ev_y1, ev_y2) = (sigma, 0)."""
    return replace(cfg, components=tuple(
        replace(c, ev_y1=c.ev_y1 + c.ev_y2, ev_y2=0) if varies(cfg, i) else c
        for i, c in enumerate(cfg.components)))


def members(rep: Configuration, max_abs_eval: int) -> list[Configuration]:
    """Every splitting of the representative's varying surfaces with both
    evaluations in [-max_abs_eval, max_abs_eval]."""
    e = max_abs_eval
    options = []
    for i, c in enumerate(rep.components):
        if varies(rep, i):
            sigma = c.ev_y1 + c.ev_y2
            options.append([replace(c, ev_y1=y, ev_y2=sigma - y)
                            for y in range(-e, e + 1) if -e <= sigma - y <= e])
        else:
            options.append([c])
    return [replace(rep, components=comps) for comps in product(*options)]


def classes(hits: list[Configuration], max_abs_eval: int
            ) -> dict[Configuration, list[Configuration]]:
    """Each class of the hits, by its representative, with its in-box
    members, in the order of their first hit."""
    reps = dict.fromkeys(map(representative, hits))
    return {rep: members(rep, max_abs_eval) for rep in reps}
