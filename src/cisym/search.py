"""Bounded exhaustive search for consistent fixed-point configurations.

One routine searches every template, and one argument shows that within
the bounds its hit list is exhaustive.

1. The x^3 identity.  The localized x^3 sum is affine in the unknown
   evaluations.  Its columns are read from x3_local_datum at zero and at
   unit evaluations, and a lift a enters by the substitution l -> l + a.
   For fixed discrete data and lifts, "the sum is the constant t" is a
   linear system in the evaluations and t, one row per coefficient of
   l^0..l^3.  A row k >= 1 is lift-only when no unknown of any choice of
   the template enters it at any of its lifts: the unknown columns of a
   lifted component have degree below k, and those of the fixed one are 0
   in row k.  Such a row says that the components' constants at their
   lifts sum to 0.  Row l^0 is the only one that holds t, with
   coefficient -den (the common denominator of the columns).  When no
   unknown enters it either, t is its only unknown, and the row says that
   the constants sum to den * t: a range condition on that sum, which den
   must also divide.
2. One join.  For each component of the template, in TEMPLATES order, the
   routine enumerates the data of its kind (normal weights, the sign eps
   of a point, the signature of a 4-dimensional component) and its lifts.
   A combination of data and lifts is built only when it is joined on the
   checks that verify_case also applies to the discrete data, on the
   lift-only rows, and on row l^0 when t is its only unknown.  The checks
   are the signature-limit identity (the eps and the signatures sum to 0)
   and, under lemma64, weight-matching and weight-divisibility, or the
   shared second weight of surface-structure.  The last component's
   (data, lift) entries are indexed by signature contribution, by the key
   that the lemma64 predicate compares (a point's weight multiset, a
   surface's second weight) and by their constants on the lift-only rows,
   and each bucket is sorted by the entries' l^0 constants.  The other
   components, at each choice of their lifts, look up the entries that
   complete them, after weight-divisibility has dropped the (surface,
   point) pairs that fail it.  When row l^0 is joined, the t range puts
   the last l^0 constant in a window set by the sum P of the others,
   [den * max(1, t_lo) - P, den * t_hi - P], found by bisection, and only
   the entries that make the sum a multiple of den are kept; otherwise the
   lookup keeps the whole bucket.  For each combination the routine
   reduces the rows that are not lift-only (row l^0 among them, which
   gives t again) in exact integer arithmetic and enumerates the free
   unknowns over the box.  Each pivot is affine in the last free unknown
   it depends on, so that unknown runs only over the range, found by
   exact floor and ceiling division, in which the pivot lies inside its
   bound; a pivot is then kept only if it is an integer.  So the solver
   yields exactly the integer points of the box at which check_x3 passes.
3. The leaf.  Each such point is built into a candidate from the validated
   components of its choices: the copy takes the lifts and the solver's
   evaluations, Python ints, without running the components' validation
   again.  The candidate goes to _leaf, which recomputes the x^3 and p1*x
   sums, derives rho, and keeps the candidate only if Configuration accepts
   it and verify_case passes.  Every hit is thus checked independently of
   the solver.  Within one search_case call each local datum is computed
   once per distinct input (see localization), so verify_case reuses the
   data of the leaf that calls it.

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
lying in [-max_abs_a, max_abs_a].

The budget counts nodes.  A node is one step of the enumeration, counted
when it is entered: one weight tuple of a component and one choice of its
data as they are built, one choice of the data of the components before
the last (a head tuple, also one that weight-divisibility or
signature-limit then drops), one (data, lift) entry of the last component
as the join tabulates it, one choice of the other components' lifts as it
looks its entries up, one combination of data and lifts that the join
builds, one value of a free unknown in the solver inside the range that
the bounds of the pivots it completes allow, and one candidate handed to
_leaf.  A combination that the join drops is never built and is no node.
A call that visits N nodes succeeds with a budget of N; with a budget of
N - 1 it raises BudgetExceededError, naming the template and the nodes
reached, rather than silently truncating the search; the message also
gives the kind and weights of the component being built, or the kinds and
weights of the combination being joined or solved.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .configio import dump_config
from .localization import (
    _TEMPLATE_B2,
    _divides_exactly_two,
    _int,
    _LOCAL_DATA,
    _LocalData,
    _second_weight,
    _weight_multiset,
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
    """The node count of one call, and what the nodes since the last entry
    belong to: the kind and weights of the component being built, or else
    the choices of the combination of discrete data being joined or
    solved."""

    __slots__ = ("nodes", "budget", "template", "building", "combo")

    def __init__(self, budget: int, template: str):
        self.nodes = 0
        self.budget = budget
        self.template = template
        self.building: Optional[tuple[str, tuple[int, ...]]] = None
        self.combo: tuple[_Choice, ...] = ()

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            if self.building:
                doing = "building {} weights {}".format(*self.building)
            else:
                doing = "solving " + ", ".join(
                    f"{c.comp.kind} weights {c.comp.weights}"
                    for c in self.combo)
            raise BudgetExceededError(
                f"node budget of {self.budget} exhausted in template"
                f" {self.template} at node {self.nodes}; {doing};"
                " tighten the bounds or raise --budget"
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


def _weight_tuples(ctx: _Ctx, size: int) -> Iterator[tuple[int, ...]]:
    """The sorted normal weights of a component with size of them, coprime
    under effectiveness (so a single weight is then 1), enumerated lazily."""
    return (w for w in combinations_with_replacement(_weight_values(ctx), size)
            if not ctx.flags.effectiveness or gcd(*w) == 1)


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

_first = itemgetter(0)


def _copy(comp: Component, a: int,
          evaluations: Iterable[tuple[str, int]]) -> Component:
    """comp at lift a with the given (name, value) evaluations, made without
    running the components' validation again: comp passed it, and a and the
    values are Python ints, all that the validation asks of those fields."""
    new = object.__new__(type(comp))
    fields = new.__dict__
    fields.update(comp.__dict__)
    fields["a"] = a
    fields.update(evaluations)
    return new


class _Choice:
    """The discrete data of one component: the component at lift 0 with
    zero evaluations, the names of its unknown evaluations, its lifts, and
    its x^3 datum as columns (one per unknown, then the constant one).  The
    columns are scaled to integers over the common denominator of the call
    and shifted to each lift on first use."""

    __slots__ = ("comp", "unknowns", "polys", "columns", "shifted", "lifts")

    def __init__(self, comp: Component, unknowns: tuple[str, ...]):
        self.comp = comp
        self.unknowns = unknowns
        base = x3_local_datum(comp)
        self.polys = [x3_local_datum(_copy(comp, 0, ((name, 1),))) - base
                      for name in unknowns]
        self.polys.append(base)
        self.columns: list[list[int]] = []
        self.shifted: dict[int, tuple] = {}
        self.lifts: Iterable[int] = (0,)

    def at(self, a: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The columns after the substitution l -> l + a: for each k, the
        l^k coefficients of the unknown columns, and of the constant one."""
        entry = self.shifted.get(a)
        if entry is None:
            # The Taylor shift of c0 + c1 l + c2 l^2 + c3 l^3, in closed form.
            *unknown, const = [(c0 + a * (c1 + a * (c2 + a * c3)),
                                c1 + a * (2 * c2 + 3 * a * c3),
                                c2 + 3 * a * c3,
                                c3) for c0, c1, c2, c3 in self.columns]
            entry = self.shifted[a] = (
                tuple(zip(*unknown)) if unknown else ((),) * _ROWS, const)
        return entry


def _choices(template: str, ctx: _Ctx, counter: _Counter
             ) -> tuple[list[list[_Choice]], int, tuple[int, ...], bool]:
    """The choices for every component of the template, in TEMPLATES order,
    the common denominator of their columns, the lift-only rows (the rows
    k >= 1 that no unknown of any choice enters at any of its lifts), and
    whether t is the only unknown of row l^0, which holds when no unknown
    enters that row either.  The lift is fixed at 0 on the last surface, or
    else on the first component.  Each weight tuple and each choice is a
    node."""
    flags = ctx.flags
    kinds = TEMPLATES[template]
    slots = []
    for i, kind in enumerate(kinds):
        # data: each weight tuple with the components that it gives.
        if kind == "point":
            first = "point" not in kinds[:i]
            eps_values = (1,) if flags.convention35 and first else (1, -1)
            data = ((w, [PointComponent(eps, w, 0) for eps in eps_values])
                    for w in _weight_tuples(ctx, 3))
            unknowns = ()
        elif kind == "surface":
            if template == "two_surfaces" and flags.lemma64:
                ws = _weight_values(ctx)
                pairs = ((n, m) for n in ws for m in ws
                         if not flags.effectiveness or gcd(n, m) == 1)
                unknowns = ("ev_x", "ev_y1")
            else:
                pairs = _weight_tuples(ctx, 2)
                unknowns = ("ev_x", "ev_y1", "ev_y2")
            data = ((p, [SurfaceComponent(p, 0, 0, 0, 0, 2)]) for p in pairs)
        else:
            b2 = _TEMPLATE_B2[template]
            unknowns = ("ev_x2", "ev_xy", "ev_y2") if b2 else ()
            data = ((w, [FourComponent(w[0], 0, 0, 0, 0, 3 * s, b2, s, 2 + b2)
                         for s in range(-b2, b2 + 1, 2)])
                    for w in _weight_tuples(ctx, 1))
        slot = []
        for w, comps in data:
            counter.building = (kind, w)
            counter.tick()
            for comp in comps:
                counter.tick()
                slot.append(_Choice(comp, unknowns))
        slots.append(slot)
    counter.building = None
    fixed = (len(kinds) - 1 - kinds[::-1].index("surface")
             if "surface" in kinds else 0)
    den = lcm(*(p.den for slot in slots for c in slot for p in c.polys))
    reached = set()
    for i, slot in enumerate(slots):
        lifts = (0,) if i == fixed else _sym(ctx.bounds.max_abs_a)
        for c in slot:
            c.columns = [[x * (den // p.den) for x in p.num]
                         + [0] * (_ROWS - len(p.num)) for p in c.polys]
            c.lifts = lifts
            # A shift by a spreads each coefficient over its row and the
            # rows below, so at three or more lifts an unknown reaches
            # every row up to its degree; at the fixed lift only its own
            # rows.
            for col in c.columns[:-1]:
                for j in range(_ROWS):
                    if col[j]:
                        reached.update((j,) if i == fixed else range(j + 1))
    joined = tuple(k for k in range(1, _ROWS) if k not in reached)
    return slots, den, joined, 0 not in reached


def _combinations(template: str, slots: list[list[_Choice]], den: int,
                  joined: tuple[int, ...], t_only: bool, ctx: _Ctx,
                  counter: _Counter
                  ) -> Iterator[tuple[tuple[_Choice, ...], tuple[int, ...]]]:
    """The combinations of choices, each with its lifts, that pass the
    checks of verify_case that depend on the discrete data alone, whose
    constants on the lift-only rows sum to 0 and, when t is the only
    unknown of row l^0, whose l^0 constants sum to den * t for some t in
    range, built by one join.  The last component's (choice, lift) entries
    are indexed by signature contribution, by the key that the lemma64
    predicate relating it to the component before compares, and by their
    constants on the lift-only rows, and each bucket is sorted by the
    entries' l^0 constants; each choice of the other components, at each of
    its lifts, looks up the entries that complete it, a slice of the bucket
    found by bisection.  The entries of one signature and key are tabulated
    when a lookup first needs them.  Each head tuple, tabulated entry and
    lookup is a node."""
    key = None
    if ctx.flags.lemma64 and template == "two_surfaces":
        key = _second_weight  # surface-structure
    elif ctx.flags.lemma64 and template == "surface_plus_two_points":
        key = _weight_multiset  # weight-matching
    # With t alone in row l^0, den * t is the sum of the row's constants, so
    # the last constant lies in a window set by the others' sum, and den
    # divides the total.  Otherwise every entry's l^0 key is 0 and the
    # window [0, 0] keeps the whole bucket in the order it was tabulated.
    low, high, step = ((den * max(1, ctx.t_lo), den * ctx.t_hi, den)
                       if t_only else (0, 0, 1))
    *heads, tail = slots
    groups: dict[tuple, list[_Choice]] = {}
    for c in tail:
        groups.setdefault((c.comp.signature_contribution,
                           key and key(c.comp.weights)), []).append(c)
    tables: dict[tuple, dict[tuple[int, ...], list]] = {}
    for head in product(*heads):
        counter.combo = head
        counter.tick()
        if key is _weight_multiset and not _divides_exactly_two(
                head[0].comp.weights, head[1].comp.weights):
            continue  # weight-divisibility, on the (surface, point) pair
        # signature-limit: the contributions sum to 0.
        group = (-sum(c.comp.signature_contribution for c in head),
                 key and key(head[-1].comp.weights))
        if group not in groups:
            continue
        table = tables.get(group)
        if table is None:
            table = tables[group] = {}
            for c in groups[group]:
                counter.combo = head + (c,)
                for a in c.lifts:
                    counter.tick()
                    const = c.at(a)[1]
                    table.setdefault(tuple(const[k] for k in joined), []
                                     ).append((const[0] if t_only else 0, c, a))
            for bucket in table.values():
                bucket.sort(key=_first)
        counter.combo = head
        for prefix in product(*(c.lifts for c in head)):
            counter.tick()
            consts = [c.at(a)[1] for c, a in zip(head, prefix)]
            bucket = table.get(
                tuple(-sum(x[k] for x in consts) for k in joined))
            if bucket is None:
                continue
            p = sum(x[0] for x in consts) if t_only else 0
            for e0, c, a in bucket[bisect_left(bucket, low - p, key=_first):
                                   bisect_right(bucket, high - p, key=_first)]:
                if (p + e0) % step == 0:
                    yield head + (c,), prefix + (a,)


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
    then always a pivot).  A pivot that depends on no free unknown is
    checked at once.  The free unknowns are enumerated in column order.
    Every other pivot is affine in the last free unknown it depends on, so
    that unknown runs only over the range, found by exact floor and ceiling
    division, that keeps each such pivot inside its bounds; a value keeps
    the pivots only if they are integers.
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
    x = [0] * n
    # checks[d]: the pivots whose last free unknown is free[d], as (column,
    # denominator, the earlier free unknowns' coefficients, free[d]'s
    # coefficient, constant).
    checks: list[list] = [[] for _ in free]
    for col, row in pivots:
        deps = [(f, row[f]) for f in free if row[f]]
        den = -row[col]
        if deps:
            f, c = deps.pop()
            checks[free.index(f)].append((col, den, deps, c, row[n]))
            continue
        if row[n] % den:
            return
        v = row[n] // den
        if v < lo[col] or v > hi[col]:
            return
        x[col] = v

    def fill(depth: int) -> Iterator[list[int]]:
        if depth == len(free):
            yield list(x)
            return
        f = free[depth]
        v_lo, v_hi = lo[f], hi[f]
        pending = []
        for col, den, deps, c, const in checks[depth]:
            base = const + sum(k * x[g] for g, k in deps)
            pending.append((col, den, c, base))
            # lo <= (base + c * v) / den <= hi puts v between two quotients
            low, high = lo[col] * den - base, hi[col] * den - base
            if (den < 0) != (c < 0):
                low, high = high, low
            low = -(-low // c)  # ceiling
            high //= c  # floor
            if low > v_lo:
                v_lo = low
            if high < v_hi:
                v_hi = high
        for v in range(v_lo, v_hi + 1):
            counter.tick()
            x[f] = v
            for col, den, c, base in pending:
                num = base + c * v
                if num % den:
                    break
                x[col] = num // den
            else:
                yield from fill(depth + 1)

    yield from fill(0)


def _search(template: str, ctx: _Ctx, counter: _Counter) -> list[Configuration]:
    """Every consistent configuration of the template inside the box."""
    e_max = ctx.bounds.max_abs_eval
    slots, den, joined, t_only = _choices(template, ctx, counter)
    solved = [k for k in range(_ROWS) if k not in joined]
    t_column = (-den,) + (0,) * (_ROWS - 1)  # t enters the l^0 row only
    n = sum(len(slot[0].unknowns) for slot in slots) + 1
    lo = [-e_max] * (n - 1) + [max(1, ctx.t_lo)]
    hi = [e_max] * (n - 1) + [ctx.t_hi]
    hits = []
    for combo, lift in _combinations(template, slots, den, joined, t_only,
                                     ctx, counter):
        counter.combo = combo
        counter.tick()
        parts = [c.at(a) for c, a in zip(combo, lift)]
        rows = []
        for k in solved:
            unknown, const = (), 0
            for u, c in parts:
                unknown += u[k]
                const += c[k]
            rows.append(unknown + (t_column[k], const))
        for x in _solve(rows, lo, hi, counter):
            # Each zip stops at the choice's last unknown, so the next
            # choice takes the values that follow.
            values = iter(x)
            cand = tuple(_copy(c.comp, a, zip(c.unknowns, values))
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
    if not isinstance(bounds, SearchBounds) or not isinstance(flags, SearchFlags):
        raise TypeError("bounds must be a SearchBounds and flags a SearchFlags")
    t_lo, t_hi = (_int(v, "t_range bound") for v in t_range)
    rho_lo, rho_hi = (_int(v, "rho_range bound") for v in rho_range)
    if t_lo > t_hi or rho_lo > rho_hi:
        raise ValueError("empty range: lower bound exceeds upper bound")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ValueError("budget must be a positive integer")
    ctx = _Ctx(t_lo, t_hi, rho_lo, rho_hi, bounds, flags)
    token = _LOCAL_DATA.set(_LocalData())
    try:
        hits = _search(template, ctx, _Counter(budget, template))
    finally:
        _LOCAL_DATA.reset(token)
    return sorted(hits, key=dump_config)
