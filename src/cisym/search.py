"""Bounded exhaustive search for consistent fixed-point configurations.

One routine searches every template, and one argument shows that within
the bounds its hit list is exhaustive.

1. Discrete data.  For each component of the template, in TEMPLATES order,
   the routine enumerates the data of its kind: normal weights, the sign
   eps of a point, the signature of a 4-dimensional component.  A
   combination is dropped only by a check that verify_case also applies:
   the signature-limit identity (the eps and the signatures sum to 0) and,
   under lemma64, weight-matching, weight-divisibility and the shared
   second weight of surface-structure.
2. The x^3 identity.  The localized x^3 sum is affine in the unknown
   evaluations.  Its columns are read from x3_local_datum at zero and at
   unit evaluations, and a lift a enters by the substitution l -> l + a.
   For fixed discrete data and lifts, "the sum is the constant t" is a
   linear system in the evaluations and t, one row per coefficient of
   l^0..l^3.  The routine reduces it in exact integer arithmetic,
   enumerates the free unknowns over the box, and keeps a pivot only if it
   is an integer inside its bound; each pivot is checked as soon as the
   unknowns it depends on are set.  The l^3 row does not depend on the
   lifts and is checked before they are enumerated.  So the solver yields
   exactly the integer points of the box at which check_x3 passes.
3. The leaf.  Each such point goes to _leaf, which recomputes the x^3 and
   p1*x sums, derives rho, and keeps the candidate only if Configuration
   accepts it and verify_case passes.  Every hit is thus checked
   independently of the solver.

The box: evaluations lie in [-max_abs_eval, max_abs_eval] and t in
[max(1, t_lo), t_hi].  Weights run from 1 to max_weight (only 1 under
semifree, and for a 4-dimensional component also under effectiveness),
are coprime per component under effectiveness, and are sorted per
component, except that under lemma64 the two surfaces have weights
(n_X, m) and (n_Y, m) and both second evaluations 0.  Search-specific
conventions: fixed surfaces are spheres (chi = 2), 4-dimensional
components have b1 = 0 (chi = 2 + b2, with b2 fixed by the template), the
ambient Euler characteristic is the sum of the component ones, the first
point has eps = +1 under convention35, and the lift is normalized so that
the last surface (or else the first component) has a = 0, the other lifts
lying in [-max_abs_a, max_abs_a].  Every combination of discrete data,
every lift choice and every free value ticks one node counter per call;
exceeding the budget raises BudgetExceededError rather than silently
truncating the search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, product
from math import gcd, lcm
from typing import Iterator, Optional

from .configio import dump_config
from .localization import (
    _TEMPLATE_B2,
    _divides_exactly_two,
    _shares_second_weight,
    _weights_match,
    AmbientData,
    Component,
    Configuration,
    ConfigurationError,
    Flags,
    FourComponent,
    MAX_WEIGHT,
    PointComponent,
    SurfaceComponent,
    TEMPLATES,
    p1x_sum,
    verify_case,
    x3_local_datum,
    x3_sum,
)


class BudgetExceededError(RuntimeError):
    """The enumeration hit the node budget before finishing."""


@dataclass(frozen=True)
class SearchBounds:
    max_weight: int = 5
    max_abs_a: int = 5
    max_abs_eval: int = 10

    def __post_init__(self):
        for name in ("max_weight", "max_abs_a", "max_abs_eval"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.max_weight > MAX_WEIGHT:
            raise ValueError(f"max_weight must be <= {MAX_WEIGHT}")


@dataclass(frozen=True)
class SearchFlags(Flags):
    """Restriction flags for the search: the configuration flags, and
    semifree, which restricts every normal weight to 1 (no finite isotropy).
    """

    semifree: bool = False

    def as_config_flags(self) -> Flags:
        return Flags(self.effectiveness, self.convention35, self.lemma64)


class _Counter:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int):
        self.nodes = 0
        self.budget = budget

    def tick(self, k: int = 1):
        self.nodes += k
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"node budget of {self.budget} exhausted; tighten the bounds"
                " or raise --budget"
            )


@dataclass(frozen=True)
class _Ctx:
    t_lo: int
    t_hi: int
    rho_lo: int
    rho_hi: int
    bounds: SearchBounds
    flags: SearchFlags


def _sym(limit: int) -> range:
    return range(-limit, limit + 1)


def _weight_values(ctx: _Ctx) -> list[int]:
    if ctx.flags.semifree:
        return [1]
    return list(range(1, ctx.bounds.max_weight + 1))


def _weight_tuples(ctx: _Ctx, size: int) -> list[tuple[int, ...]]:
    """The sorted normal weights of a component with size of them, coprime
    under effectiveness (so a single weight is then 1)."""
    return [w for w in combinations_with_replacement(_weight_values(ctx), size)
            if not ctx.flags.effectiveness or gcd(*w) == 1]


def _leaf(template: str, components: tuple[Component, ...], ctx: _Ctx,
          counter: _Counter) -> Optional[Configuration]:
    """Derive (t, rho) from the candidate's data and verify it in full."""
    counter.tick()
    s3 = x3_sum(components).constant_value()
    if s3 is None or s3.denominator != 1:
        return None
    t = int(s3)
    if t < max(1, ctx.t_lo) or t > ctx.t_hi:
        return None
    sp = p1x_sum(components).constant_value()
    if sp is None or sp.denominator != 1 or int(sp) % t:
        return None
    rho = int(sp) // t
    if rho < ctx.rho_lo or rho > ctx.rho_hi:
        return None
    euler = sum(c.chi for c in components)
    try:
        cfg = Configuration(
            AmbientData(t, rho, euler, 0), template, components,
            ctx.flags.as_config_flags(),
        )
    except ConfigurationError:
        return None
    return cfg if verify_case(cfg).consistent else None


# ---------------------------------------------------------------------------
# The template solver

# The x^3 data are cubic in l: one row per coefficient of l^0..l^3.
_ROWS = 4


class _Choice:
    """The discrete data of one component: the component at lift 0 with
    zero evaluations, the names of its unknown evaluations, and its x^3
    datum as columns (one per unknown, then the constant one).  The columns
    are scaled to integers over the common denominator of the call and
    shifted to each lift on first use."""

    __slots__ = ("comp", "unknowns", "polys", "columns", "shifted")

    def __init__(self, comp: Component, unknowns: tuple[str, ...]):
        self.comp = comp
        self.unknowns = unknowns
        base = x3_local_datum(comp)
        self.polys = [x3_local_datum(replace(comp, **{name: 1})) - base
                      for name in unknowns]
        self.polys.append(base)
        self.columns: list[list[int]] = []
        self.shifted: dict[int, tuple] = {}

    def at(self, a: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The columns after the substitution l -> l + a: for each k, the
        l^k coefficients of the unknown columns, and of the constant one."""
        entry = self.shifted.get(a)
        if entry is None:
            cols = []
            for col in self.columns:
                c = list(col)
                for i in range(_ROWS - 1):  # Taylor shift, Horner's scheme
                    for j in range(_ROWS - 2, i - 1, -1):
                        c[j] += a * c[j + 1]
                cols.append(c)
            entry = (tuple(tuple(c[k] for c in cols[:-1]) for k in range(_ROWS)),
                     tuple(cols[-1]))
            self.shifted[a] = entry
        return entry


def _choices(template: str, ctx: _Ctx) -> tuple[list[list[_Choice]], int]:
    """The choices for every component of the template, in TEMPLATES order,
    and the common denominator of their columns."""
    flags = ctx.flags
    kinds = TEMPLATES[template]
    slots = []
    for i, kind in enumerate(kinds):
        if kind == "point":
            first = "point" not in kinds[:i]
            eps_values = (1,) if flags.convention35 and first else (1, -1)
            slots.append([_Choice(PointComponent(eps, w, 0), ())
                          for w in _weight_tuples(ctx, 3) for eps in eps_values])
        elif kind == "surface":
            if template == "two_surfaces" and flags.lemma64:
                ws = _weight_values(ctx)
                pairs = [(n, m) for n in ws for m in ws
                         if not flags.effectiveness or gcd(n, m) == 1]
                unknowns = ("ev_x", "ev_y1")
            else:
                pairs = _weight_tuples(ctx, 2)
                unknowns = ("ev_x", "ev_y1", "ev_y2")
            slots.append([_Choice(SurfaceComponent(p, 0, 0, 0, 0, 2), unknowns)
                          for p in pairs])
        else:
            b2 = _TEMPLATE_B2[template]
            unknowns = ("ev_x2", "ev_xy", "ev_y2") if b2 else ()
            slots.append([
                _Choice(FourComponent(w, 0, 0, 0, 0, 3 * s, b2, s, 2 + b2),
                        unknowns)
                for (w,) in _weight_tuples(ctx, 1)
                for s in range(-b2, b2 + 1, 2)
            ])
    den = lcm(*(p.den for slot in slots for c in slot for p in c.polys))
    for slot in slots:
        for c in slot:
            c.columns = [[x * (den // p.den) for x in p.num]
                         + [0] * (_ROWS - len(p.num)) for p in c.polys]
    return slots, den


def _admissible(template: str, comps: tuple[Component, ...], ctx: _Ctx) -> bool:
    """The checks of verify_case that depend on the discrete data alone,
    through the predicates verify_case itself uses."""
    if sum(c.signature_contribution for c in comps):
        return False  # signature-limit
    if ctx.flags.lemma64 and template == "two_surfaces":
        return _shares_second_weight(comps[0].weights, comps[1].weights)
    if ctx.flags.lemma64 and template == "surface_plus_two_points":
        surface, p, q = comps
        return (_weights_match(p.weights, q.weights)
                and _divides_exactly_two(surface.weights, p.weights))
    return True


def _eliminate(row: list[int], pivot: list[int], col: int) -> list[int]:
    """row with its entry at col cancelled by the pivot row, made primitive."""
    p, q = pivot[col], row[col]
    out = [p * x - q * y for x, y in zip(row, pivot)]
    g = gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _solve(rows, lo: list[int], hi: list[int],
           counter: _Counter) -> Iterator[list[int]]:
    """Every integer x with lo <= x <= hi and sum_j row[j] * x[j] + row[-1]
    == 0 for each row.

    The rows are reduced in exact integer arithmetic, sparsest first, each
    taking its rightmost remaining unknown as pivot (the last column, t, is
    then always a pivot).  The free unknowns are enumerated in column order,
    and each pivot is checked for integrality and bounds as soon as the last
    free unknown it depends on is set.
    """
    n = len(lo)
    pivots: list[tuple[int, list[int]]] = []
    for row in sorted(rows, key=lambda r: n - r[:n].count(0)):
        for col, prow in pivots:
            if row[col]:
                row = _eliminate(row, prow, col)
        col = next((j for j in range(n - 1, -1, -1) if row[j]), None)
        if col is None:
            if row[n]:
                return
            continue
        pivots = [(c, _eliminate(p, row, col) if p[col] else p)
                  for c, p in pivots]
        pivots.append((col, row))
    pivot_cols = {c for c, _ in pivots}
    free = [j for j in range(n) if j not in pivot_cols]
    checks: list[list] = [[] for _ in range(len(free) + 1)]
    for col, row in pivots:
        deps = [(f, row[f]) for f in free if row[f]]
        depth = max((free.index(f) + 1 for f, _ in deps), default=0)
        checks[depth].append((col, -row[col], deps, row[n]))
    x = [0] * n

    def fill(depth: int) -> Iterator[list[int]]:
        for col, den, deps, const in checks[depth]:
            num = const + sum(c * x[f] for f, c in deps)
            if num % den:
                return
            v = num // den
            if v < lo[col] or v > hi[col]:
                return
            x[col] = v
        if depth == len(free):
            yield list(x)
            return
        f = free[depth]
        for v in range(lo[f], hi[f] + 1):
            counter.tick()
            x[f] = v
            yield from fill(depth + 1)

    yield from fill(0)


def _search(template: str, ctx: _Ctx, counter: _Counter) -> list[Configuration]:
    """Every consistent configuration of the template inside the box."""
    kinds = TEMPLATES[template]
    fixed = (len(kinds) - 1 - kinds[::-1].index("surface")
             if "surface" in kinds else 0)
    lifts = [(0,) if i == fixed else _sym(ctx.bounds.max_abs_a)
             for i in range(len(kinds))]
    e_max = ctx.bounds.max_abs_eval
    slots, den = _choices(template, ctx)
    t_column = (-den,) + (0,) * (_ROWS - 1)  # t enters the l^0 row only
    hits = []
    for combo in product(*slots):
        comps = tuple(c.comp for c in combo)
        if not _admissible(template, comps, ctx):
            continue
        counter.tick()
        # The l^3 row is the same at every lift: without unknowns, its
        # constant must vanish.
        top = [c.at(0) for c in combo]
        if not any(any(u[-1]) for u, _ in top) and sum(k[-1] for _, k in top):
            continue
        n = sum(len(c.unknowns) for c in combo) + 1
        lo = [-e_max] * (n - 1) + [max(1, ctx.t_lo)]
        hi = [e_max] * (n - 1) + [ctx.t_hi]
        for lift in product(*lifts):
            counter.tick()
            parts = [c.at(a) for c, a in zip(combo, lift)]
            rows = []
            for k in range(_ROWS):
                unknown, const = (), 0
                for u, c in parts:
                    unknown += u[k]
                    const += c[k]
                rows.append(unknown + (t_column[k], const))
            for x in _solve(rows, lo, hi, counter):
                values = iter(x)
                cand = tuple(
                    replace(c.comp, a=a,
                            **{name: next(values) for name in c.unknowns})
                    for c, a in zip(combo, lift))
                cfg = _leaf(template, cand, ctx, counter)
                if cfg is not None:
                    hits.append(cfg)
    return hits


def search_case(
    template: str,
    t_range: tuple[int, int] = (1, 10),
    rho_range: tuple[int, int] = (-10, 0),
    bounds: SearchBounds = SearchBounds(),
    flags: SearchFlags = SearchFlags(),
    budget: int = 10**8,
) -> list[Configuration]:
    """Enumerate all consistent configurations of one template within the
    bounds, sorted by their canonical JSON rendering.  The run raises
    BudgetExceededError as soon as it visits more than budget nodes."""
    if template not in TEMPLATES:
        raise ConfigurationError(f"unknown template {template!r}")
    t_lo, t_hi = (int(t_range[0]), int(t_range[1]))
    rho_lo, rho_hi = (int(rho_range[0]), int(rho_range[1]))
    if t_lo > t_hi or rho_lo > rho_hi:
        raise ValueError("empty range: lower bound exceeds upper bound")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ValueError("budget must be a positive integer")
    ctx = _Ctx(t_lo, t_hi, rho_lo, rho_hi, bounds, flags)
    hits = _search(template, ctx, _Counter(budget))
    return sorted(hits, key=dump_config)
