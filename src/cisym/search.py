"""Bounded exhaustive search for consistent fixed-point configurations.

One routine searches every template, and one argument shows that within
the bounds its hit list is exhaustive.

1. The x^3 identity.  The localized x^3 sum is affine in the unknown
   evaluations.  Its columns are read from x3_local_datum at zero and at
   unit evaluations, and a lift a enters by the substitution l -> l + a,
   made by the algebra kernel's one integer Taylor shift, which also forms
   the local data of surfaces and 4-dimensional components.
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
   shared second weight of surface-structure, read from the table that
   verify_case reads too (localization._LEMMA64_WEIGHTS).  The last
   component's (data, lift) entries are indexed by signature contribution,
   by the key that the lemma64 rule compares (a point's weight multiset, a
   surface's second weight) and by their constants on the lift-only rows,
   and each bucket is sorted by the entries' l^0 constants.  The other
   components, at each choice of their lifts, look up the entries that
   complete them, after weight-divisibility has dropped the (surface,
   point) pairs that fail it.  The head rows are the rows that an unknown
   of some choice of the other components (the head) enters and that no
   column of any choice of the last component (the tail), unknown or
   constant, enters at any of its lifts; only two_surfaces has them, l^0
   and l^1, where the last surface's columns at its fixed lift vanish.
   Before a choice of the head's lifts looks its entries up, its head rows
   (t among the unknowns of row l^0) go to the solver below, and the lifts
   are dropped when they have no point in the box.  The drop is exact: the
   tail adds nothing to those rows, so a point of a full combination's
   rows restricts to a point of its head's.  When row l^0 is joined, the
   t range puts the last l^0 constant in a window set by the sum P of the
   others, [den * max(1, t_lo) - P, den * t_hi - P], found by bisection,
   and only the entries that make the sum a multiple of den are kept;
   otherwise the lookup keeps the whole bucket.  For each combination the
   routine reduces the rows that are not lift-only (row l^0 among them,
   which gives t again) in exact integer arithmetic and enumerates the
   free unknowns over the box.  Each pivot is affine in the last free
   unknown it depends on, so that unknown runs only over the range, found
   by exact floor and ceiling division, in which the pivot lies inside its
   bound; a pivot is then kept only if it is an integer.  So the solver
   yields exactly the integer points of the box at which check_x3 passes.
   Swap orbits: in two_surfaces, swapping the surfaces and shifting every
   lift by -a maps X at lift a and Y at 0 to Y at -a and X at 0, the swap
   image.  The first surface takes only the lifts a >= 1, so the join
   yields one member of each orbit with a != 0.  At a = 0 no configuration
   passes check_x3: there both surfaces are at lift 0, where a surface's
   x^3 datum has only l^2 and l^3 terms, so row l^0 reads -den * t = 0,
   which forces t = 0 < 1.  The cut is exact because verify_case
   gives a configuration and its image, which lies in the box when the
   configuration does, the same verdict.  The shift replaces l by l - a in
   both sums, so each stays constant or not; euler-characteristic, the
   signature checks, surface-structure and semifree-closure read the two
   surfaces symmetrically or through (a_X - a_Y)^2.  Only
   surface-restriction-product and pontrjagin-slope read the first
   surface's ev_x, and under surface-structure, at a != 0, both follow from
   the x^3 rows and the p1*x rows l^1 and l^0 with either surface first.
   For weights (n, m) of the first surface, row l^1 of x^3 gives its
   ev_y1 = 2 n ev_x / a, and row l^0 then t = a^2 ev_x / (n m).  Rows l^3
   and l^2 with the p1*x row l^1 make both first weights equal or every
   unknown 0, and the p1*x row l^0 then gives rho t = 4 n ev_x / m.  A
   test checks these combinations with sympy for every weight up to 5,
   and that at a = 0 the restriction product fails in both orders, with
   residual t.
3. The leaf.  The p1*x identity says that the localized p1*x sum is the
   constant rho * t.  The l^1 coefficient of each p1*x datum does not
   depend on the lift and is affine in the unknown evaluations, so each
   choice has integer l^1 entries (den times the coefficients, one per
   unknown, then the constant one), read from the p1*x datum at zero and
   unit evaluations the first time a point of the solver involves the
   choice.  A point is dropped when the constant entries of its
   combination plus the unknown entries times its evaluations do not sum
   to 0: there the p1*x sum keeps an l^1 term.  Every other point is built
   into a candidate from the validated components of its choices: the
   copy takes the lifts and the solver's evaluations, Python ints, without
   running the components' validation again.  The candidate goes to _leaf,
   which recomputes the x^3 and p1*x sums, derives rho and builds the
   Configuration, the representative of its members.  The enumeration makes
   every structural rule of Configuration hold (the first point has
   eps = +1 under convention35, weights are coprime under effectiveness, b2
   comes from the template, the box keeps t >= 1), so a candidate that
   Configuration rejects is a fault and raises.
4. Members and images.  The data of a surface with weights (n, n) read
   ev_y1 and ev_y2 only through sigma = ev_y1 + ev_y2 (see localization),
   so its choice takes sigma as one unknown, kept in ev_y1 with ev_y2 = 0,
   unless surface-structure fixes ev_y2 = 0 (two_surfaces under lemma64).
   _leaf reads sigma alone.  The members of its representative put each
   sigma surface at every ev_y1 in [max(-E, sigma - E), min(E, sigma + E)]
   with ev_y2 = sigma - ev_y1; without one it is its own member.  In
   two_surfaces each hit has a swap image: the surfaces swapped, every lift
   shifted by -a.  _image builds both by _copy, and each is a hit only if
   verify_case passes on it: every hit is checked independently of the
   solver, and the l^1 drop only skips candidates that _leaf would reject.
   In one search_case call the local data and signature checks are computed
   once per key, which reads sigma (see localization), so the members and
   swap images of a class share them, and the data of their leaf.

The box: evaluations lie in [-E, E], E = max_abs_eval, sigma in [-2E, 2E]
and t in [max(1, t_lo), t_hi].  Weights run from 1 to max_weight (only 1
under semifree, and for a 4-dimensional component also under
effectiveness), are coprime per component under effectiveness, and are
sorted per component, except that under lemma64 the two surfaces have
weights (n_X, m) and (n_Y, m) and both second evaluations 0.
Search-specific conventions: fixed surfaces are spheres (chi = 2),
4-dimensional components have b1 = 0 (chi = 2 + b2, with b2 fixed by the
template), the ambient Euler characteristic is the sum of the component
ones, the first point has eps = +1 under convention35, and the lift is
normalized so that the last surface (or else the first component) has
a = 0, the other lifts lying in [-max_abs_a, max_abs_a].  In two_surfaces
the first surface takes the lifts 1..max_abs_a: those below 0 come from
the swap images, and a = 0 holds no point.

The budget counts nodes.  A node is one step of the enumeration, counted
when it is entered: one weight tuple of a component and one choice of its
data as they are built, one choice of the data of the components before
the last (a head tuple, also one that weight-divisibility or
signature-limit then drops), one (data, lift) entry of the last component
as the join tabulates it, one choice of the other components' lifts as it
looks its entries up, one combination of data and lifts that the join
builds, one value of a free unknown in the solver inside the range that
the bounds of the pivots it completes allow (in a head solve too, which
stops at its first point), one candidate handed to _leaf, one member of
a representative with a sigma surface, and one swap image built from each
two_surfaces hit.  A combination that the join drops is never built and
is no node.  A point that the l^1 row drops is a value the solver tried,
not a candidate handed to _leaf, so it adds no node of its own.  Nothing
is enumerated before its nodes are counted, so the budget bounds the
memory of a call too: a range of lifts or splittings is walked.
A call that visits N nodes succeeds with a budget of N; with a budget of
N - 1 it raises BudgetExceededError, naming the template and the nodes
reached, rather than silently truncating the search; the message also
gives the kind and weights of the component being built, or the kinds and
weights of the combination being joined or solved.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import gcd, lcm
from operator import itemgetter, mul, neg
from typing import Callable, Iterable, Iterator, Optional

from .algebra import LiftPolynomial, _taylor_shift
from .configio import dump_config
from .localization import (
    _TEMPLATE_B2,
    _int,
    _LEMMA64_WEIGHTS,
    _LOCAL_DATA,
    _p1x_local_datum,
    _x3_local_datum,
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
    config_flags: Flags = field(init=False)  # the flags of every hit
    weights: range = field(init=False)  # the normal weights of the box

    def __post_init__(self):
        object.__setattr__(self, "t_lo", max(1, self.t_lo))  # the box's t >= 1
        object.__setattr__(self, "config_flags", self.flags.as_config_flags())
        # semifree is max_weight = 1.
        top = 1 if self.flags.semifree else self.bounds.max_weight
        object.__setattr__(self, "weights", range(1, top + 1))


def _weight_tuples(ctx: _Ctx, size: int) -> Iterator[tuple[int, ...]]:
    """The sorted normal weights of a component with size of them, coprime
    under effectiveness (so a single weight is then 1), enumerated lazily."""
    return (w for w in combinations_with_replacement(ctx.weights, size)
            if not ctx.flags.effectiveness or gcd(*w) == 1)


def _leaf(template: str, components: tuple[Component, ...], ctx: _Ctx,
          counter: _Counter) -> Optional[Configuration]:
    """The candidate's Configuration, unverified, with (t, rho) derived."""
    counter.tick()
    # Each sum must be a constant integer: no l term, over den 1.  An x^3
    # sum of 0 has no numerator, and t = 0 is out of range anyway.
    s3 = x3_sum(components)
    if len(s3.num) != 1 or s3.den != 1:
        return None
    (t,) = s3.num
    if t < ctx.t_lo or t > ctx.t_hi:
        return None
    sp = p1x_sum(components)
    if len(sp.num) > 1 or sp.den != 1:
        return None
    rho_t = sp.num[0] if sp.num else 0
    if rho_t % t:
        return None
    rho = rho_t // t
    if rho < ctx.rho_lo or rho > ctx.rho_hi:
        return None
    return Configuration(AmbientData(t, rho, sum(c.chi for c in components)),
                         template, components, ctx.config_flags)


def _members(rep: Configuration, combo: tuple[_Choice, ...], e: int,
             counter: _Counter) -> Iterator[Configuration]:
    """The members of the representative that verify_case passes, walked
    lazily, each an image of it; without a sigma surface, itself."""
    if not any(c.split for c in combo):
        yield from (rep,) if verify_case(rep).consistent else ()
        return
    comps = rep.components
    splits = [range(max(-e, x.ev_y1 - e), min(e, x.ev_y1 + e) + 1)
              if c.split else (None,) for c, x in zip(combo, comps)]
    for ys in _product(splits):
        member = _image(rep, [(x, x.a, () if y is None else (
                                   ("ev_y1", y), ("ev_y2", x.ev_y1 - y)))
                              for x, y in zip(comps, ys)], counter)
        if member is not None:
            yield member


def _image(cfg: Configuration, parts: Iterable[tuple[Component, int, tuple]],
           counter: _Counter) -> Optional[Configuration]:
    """cfg with the components _copy builds from parts, (component, lift,
    evaluations) each, if verify_case passes on it: a member or a swap
    image.  One node, counted before it is built."""
    counter.tick()
    image = Configuration(cfg.ambient, cfg.template,
                          tuple(_copy(*part) for part in parts), cfg.flags)
    return image if verify_case(image).consistent else None


# ---------------------------------------------------------------------------
# The template solver

# The x^3 data are cubic in l: one row per coefficient of l^0..l^3.
_ROWS = 4

_first = itemgetter(0)


def _copy(comp: Component, a: int,
          evaluations: Iterable[tuple[str, int]]) -> Component:
    """comp at lift a with the given (name, value) evaluations, made without
    running the components' validation again: comp passed it, and a and the
    values are Python ints, all that the validation asks of those fields.
    The copy's fields stay in field order, as the memo keys of the local
    data require."""
    new = object.__new__(type(comp))
    fields = new.__dict__
    fields.update(comp.__dict__)
    fields["a"] = a
    fields.update(evaluations)
    return new


class _Choice:
    """The discrete data of one component: the component at lift 0 with
    zero evaluations, its unknowns' names and bounds (lo = -hi), whether its
    ev_y1 holds sigma, its lifts, and its x^3 datum as columns (one per
    unknown, then the constant one).  The columns are scaled to integers
    over the common denominator of the call and shifted to each lift on
    first use; the l^1 entries of its p1*x datum are built on first use."""

    __slots__ = ("comp", "unknowns", "lo", "hi", "split", "polys",
                 "columns", "shifted", "lifts", "l1")

    def __init__(self, comp: Component, unknowns: tuple[str, ...],
                 hi: tuple[int, ...] = (), split: bool = False):
        self.comp = comp
        self.unknowns = unknowns
        self.lo, self.hi, self.split = tuple(map(neg, hi)), hi, split
        *unit, base = self._read(_x3_local_datum)
        self.polys = [p - base for p in unit]
        self.polys.append(base)
        self.columns: list[list[int]] = []
        self.shifted: dict[int, tuple] = {}
        self.lifts: Iterable[int] = (0,)
        self.l1: Optional[tuple[tuple[int, ...], int]] = None

    def at(self, a: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The columns after the substitution l -> l + a: for each k, the
        l^k coefficients of the unknown columns, and of the constant one.
        The shift is the algebra kernel's integer Taylor shift, the one that
        also forms the local data, so the package has one lift shift."""
        entry = self.shifted.get(a)
        if entry is None:
            *unknown, const = [_taylor_shift(col, a) for col in self.columns]
            entry = self.shifted[a] = (
                tuple(zip(*unknown)) if unknown else ((),) * _ROWS, const)
        return entry

    def _read(self, datum: Callable[[Component], LiftPolynomial]
              ) -> list[LiftPolynomial]:
        """datum at lift 0, at a unit evaluation of each unknown and then at
        zero evaluations.  Each is read once per call, so it is computed
        outside the call's memo."""
        comp = self.comp
        data = [datum(_copy(comp, 0, ((name, 1),))) for name in self.unknowns]
        data.append(datum(comp))
        return data

    def p1x_l1(self, den: int) -> tuple[tuple[int, ...], int]:
        """den times the l^1 coefficients of the p1*x datum, read like the
        columns, as the entries for each unknown and the constant one.  The
        datum has degree <= 1 in l + a, so they hold at every lift.  Where
        it has an l^1 term its denominator divides that of an x^3 datum of
        the choice, and so den: n1 n2 n3 for a point, n1^2 n2 or n1 n2^2 for
        a surface at ev_y1 or ev_y2, and n1 against n1^3 (ev_y2) for a
        4-dimensional component, whose datum is 0 at b2 = 0."""
        *unknown, const = [p.num[1] * (den // p.den) if len(p.num) > 1 else 0
                           for p in self._read(_p1x_local_datum)]
        self.l1 = (tuple([u - const for u in unknown]), const)
        return self.l1


def _p1x_l1(combo: tuple[_Choice, ...], x: list[int], den: int) -> int:
    """den times the l^1 coefficient of the p1*x sum of the combination at
    the solver point x, which the p1*x identity asks to be 0."""
    values = iter(x)
    total = 0
    for c in combo:
        unknown, const = c.l1 or c.p1x_l1(den)
        # map stops at the choice's last unknown, as zip does in _search.
        total += const + sum(map(mul, unknown, values))
    return total


def _choices(template: str, ctx: _Ctx, counter: _Counter
             ) -> tuple[list[list[_Choice]], int, tuple[int, ...], bool,
                        tuple[int, ...]]:
    """The choices for every component of the template, in TEMPLATES order,
    each with its lifts, the common denominator of their columns, the
    lift-only rows (the rows k >= 1 that no unknown column of any slot
    reaches), whether t is the only unknown of row l^0, which holds when no
    unknown column reaches that row either, and the head rows: the rows that
    an unknown column of the head (the components before the last) reaches
    and that no column of the tail (the last component), unknown or
    constant, reaches.  The lift is fixed at 0 on the last surface, or else
    on the first component; the first surface of two_surfaces takes the
    lifts >= 1 alone.  Each weight tuple and each choice is a node."""
    flags, a_max, e = ctx.flags, ctx.bounds.max_abs_a, ctx.bounds.max_abs_eval
    kinds = TEMPLATES[template]
    structured = template == "two_surfaces" and flags.lemma64
    fixed = (len(kinds) - 1 - kinds[::-1].index("surface")
             if "surface" in kinds else 0)
    slots = []
    for i, kind in enumerate(kinds):
        if i == fixed:
            lifts = (0,)
        elif template == "two_surfaces":
            # One per swap orbit; at a = 0 row l^0 reads -den * t = 0.
            lifts = range(1, a_max + 1)
        else:
            lifts = range(-a_max, a_max + 1)
        # data: each weight tuple with the components that it gives.
        if kind == "point":
            first = "point" not in kinds[:i]
            eps_values = (1,) if flags.convention35 and first else (1, -1)
            data = ((w, [PointComponent(eps, w, 0) for eps in eps_values])
                    for w in _weight_tuples(ctx, 3))
            unknowns = ()
        elif kind == "surface":
            if structured:
                ws = ctx.weights
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
        # surface-structure fixes ev_y2 = 0, else (n, n) takes sigma.
        plain = (unknowns, (e,) * len(unknowns), False)
        sigma = (unknowns[:2], (e, 2 * e), kind == "surface" and not structured)
        for w, comps in data:
            counter.building = (kind, w)
            counter.tick()
            names, hi, split = sigma if sigma[2] and w[0] == w[1] else plain
            for comp in comps:
                counter.tick()
                choice = _Choice(comp, names, hi, split)
                choice.lifts = lifts
                slot.append(choice)
        slots.append(slot)
    counter.building = None
    den = lcm(*(p.den for slot in slots for c in slot for p in c.polys))
    for slot in slots:
        for c in slot:
            c.columns = [[x * (den // p.den) for x in p.num]
                         + [0] * (_ROWS - len(p.num)) for p in c.polys]

    def reach(i: int, columns: Iterable[list[int]]) -> set[int]:
        # The one reach rule.  A shift by a spreads each coefficient over its
        # row and the rows below, so a lifted column reaches every row up to
        # its degree; a column of the fixed slot, at lift 0, reaches its own
        # nonzero rows.  At a single lift (two_surfaces' first surface at
        # max_abs_a = 1) such a row may cancel: taking it as reached only
        # joins fewer rows or solves the head on a row the tail does not
        # enter, and both stay exact.
        return {k for col in columns for j, x in enumerate(col) if x
                for k in ((j,) if i == fixed else range(j + 1))}

    # The rows that the unknown columns of each slot reach, and those that
    # any column of the tail reaches.
    unknown = [reach(i, (col for c in slot for col in c.columns[:-1]))
               for i, slot in enumerate(slots)]
    tail = unknown[-1] | reach(len(slots) - 1,
                               (c.columns[-1] for c in slots[-1]))
    entered = set().union(*unknown)
    joined = tuple(k for k in range(1, _ROWS) if k not in entered)
    head_rows = tuple(sorted(set().union(*unknown[:-1]) - tail))
    return slots, den, joined, 0 not in entered, head_rows


def _box(choices: tuple[_Choice, ...], ctx: _Ctx
         ) -> tuple[list[int], list[int]]:
    """The lower and upper bounds of each choice's unknowns, then of t."""
    lo, hi = [], []
    for c in choices:
        lo += c.lo
        hi += c.hi
    return lo + [ctx.t_lo], hi + [ctx.t_hi]


def _rows(parts, ks: Iterable[int], den: int) -> list[tuple[int, ...]]:
    """Rows ks of the x^3 identity over the shifted columns parts, (unknown,
    constant) per choice as _Choice.at gives them: the unknowns' entries,
    then t's (-den in row l^0, else 0), then the constant."""
    rows = []
    for k in ks:
        unknown, const = (), 0
        for u, c in parts:
            unknown += u[k]
            const += c[k]
        rows.append(unknown + (-den if k == 0 else 0, const))
    return rows


def _combinations(template: str, slots: list[list[_Choice]], den: int,
                  joined: tuple[int, ...], t_only: bool,
                  head_rows: tuple[int, ...], ctx: _Ctx, counter: _Counter
                  ) -> Iterator[tuple[tuple[_Choice, ...], tuple[int, ...]]]:
    """The combinations of choices, each with its lifts, that pass the
    checks of verify_case that depend on the discrete data alone, whose
    constants on the lift-only rows sum to 0, whose head rows have a point
    in the box and, when t is the only unknown of row l^0, whose l^0
    constants sum to den * t for some t in range, built by one join.  The
    last component's (choice, lift) entries are indexed by signature
    contribution, by the key that the lemma64 predicate relating it to the
    component before compares, and by their constants on the lift-only
    rows, and each bucket is sorted by the entries' l^0 constants; each
    choice of the other components, at each of its lifts, asks _solve for
    one point of its head rows and then looks up the entries that complete
    it, a slice of the bucket found by bisection.  The entries of one
    signature and key are tabulated when a lookup first needs them.  Each
    head tuple, tabulated entry and lookup is a node, and so is each value
    that a head solve tries."""
    key, pair_rule = (_LEMMA64_WEIGHTS.get(template, (None, None))
                      if ctx.flags.lemma64 else (None, None))
    # With t alone in row l^0, den * t is the sum of the row's constants, so
    # the last constant lies in a window set by the others' sum, and den
    # divides the total.  Otherwise every entry's l^0 key is 0 and the
    # window [0, 0] keeps the whole bucket in the order it was tabulated.
    low, high, step = ((den * ctx.t_lo, den * ctx.t_hi, den)
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
        if pair_rule and not pair_rule(head[0].comp.weights,
                                       head[1].comp.weights):
            continue
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
        lo, hi = _box(head, ctx) if head_rows else (None, None)
        for prefix in _product([c.lifts for c in head]):
            counter.tick()
            # The tail enters no head row, so the head of a combination with
            # a solution has a point on those rows.
            if head_rows and next(_solve(
                    _rows([c.at(a) for c, a in zip(head, prefix)], head_rows,
                          den), lo, hi, counter), None) is None:
                continue
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


def _product(ranges: list[Iterable]) -> Iterator[tuple]:
    """The tuples of product(*ranges) in its order, enumerated lazily:
    product would first copy every range into a tuple."""
    if not ranges:
        yield ()
        return
    for prefix in _product(ranges[:-1]):
        for v in ranges[-1]:
            yield prefix + (v,)


def _eliminate(row: list[int], pivot: list[int], col: int) -> list[int]:
    """row with its entry at col cancelled by the pivot row, made primitive."""
    p, q = pivot[col], row[col]
    out = [p * x - q * y for x, y in zip(row, pivot)]
    g = gcd(*out) or 1  # a row that cancels is all zeros
    return [x // g for x in out]


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
    slots, den, joined, t_only, head_rows = _choices(template, ctx, counter)
    solved = [k for k in range(_ROWS) if k not in joined]
    orbit = template == "two_surfaces"
    hits = []
    for combo, lift in _combinations(template, slots, den, joined, t_only,
                                     head_rows, ctx, counter):
        counter.combo = combo
        counter.tick()
        rows = _rows([c.at(a) for c, a in zip(combo, lift)], solved, den)
        for x in _solve(rows, *_box(combo, ctx), counter):
            if _p1x_l1(combo, x, den):
                continue
            # Each zip stops at the choice's last unknown, so the next
            # choice takes the values that follow.
            values = iter(x)
            cand = tuple(_copy(c.comp, a, zip(c.unknowns, values))
                         for c, a in zip(combo, lift))
            rep = _leaf(template, cand, ctx, counter)
            if rep is None:
                continue
            for hit in _members(rep, combo, ctx.bounds.max_abs_eval, counter):
                hits.append(hit)
                if orbit:
                    sx, sy = hit.components
                    image = _image(hit, ((sy, -sx.a, ()), (sx, 0, ())), counter)
                    if image is not None:
                        hits.append(image)
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
    if not isinstance(template, str) or template not in TEMPLATES:
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
    token = _LOCAL_DATA.set({})
    try:
        hits = _search(template, ctx, _Counter(budget, template))
    finally:
        _LOCAL_DATA.reset(token)
    return sorted(hits, key=dump_config)
