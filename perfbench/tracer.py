"""Spans around the public functions at each cisym layer boundary.

The tracer wraps functions from the outside: it rebinds every name in every
loaded ``cisym`` module that refers to a wrapped function (``search`` and
``cli`` import several names directly), and replaces algebra methods on
their classes.  ``installed()`` restores the originals on exit, so passes run
without it pay nothing.

Each call becomes a span with a parent.  Spans of the high-volume algebra
methods are only aggregated per (parent, name); all others are also kept
as ``(id, parent_id, name, start, end)`` records.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# name -> (module, attribute path, aggregate only)
BOUNDARIES = {
    "cli.main": ("cisym.cli", "main", False),
    "search.search_case": ("cisym.search", "search_case", False),
    "localization.x3_sum": ("cisym.localization", "x3_sum", False),
    "localization.p1x_sum": ("cisym.localization", "p1x_sum", False),
    "localization.verify_case": ("cisym.localization", "verify_case", False),
    "localization.signature_checks":
        ("cisym.localization", "signature_checks", False),
    "configio.parse_config": ("cisym.configio", "parse_config", False),
    "configio.dump_config": ("cisym.configio", "dump_config", False),
    "invariants.invariants": ("cisym.invariants", "invariants", False),
    "classify.s1_verdict": ("cisym.classify", "s1_verdict", False),
    "classify.theorem_hypotheses":
        ("cisym.classify", "theorem_hypotheses", False),
    "algebra.TruncatedSeries.mul":
        ("cisym.algebra", "TruncatedSeries.__mul__", True),
    "algebra.TruncatedSeries.pow":
        ("cisym.algebra", "TruncatedSeries.__pow__", True),
    "algebra.TruncatedSeries.inverse":
        ("cisym.algebra", "TruncatedSeries.inverse", True),
    "algebra.LiftPolynomial.add": ("cisym.algebra", "LiftPolynomial.__add__", True),
    "algebra.LiftPolynomial.mul": ("cisym.algebra", "LiftPolynomial.__mul__", True),
    "algebra.LiftPolynomial.pow": ("cisym.algebra", "LiftPolynomial.__pow__", True),
    "algebra.CharacterFunction.add":
        ("cisym.algebra", "CharacterFunction.__add__", True),
    "algebra.CharacterFunction.mul":
        ("cisym.algebra", "CharacterFunction.__mul__", True),
}


class Tracer:
    """Collects spans for one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, name, child time]
        self.agg: dict[tuple, list] = {}  # (parent, name) -> [calls, total, self]
        self.spans: list[tuple] = []
        self.consistent = 0  # verify_case reports that were consistent
        self._next_id = 0

    def _wrap(self, name: str, fn, aggregate: bool):
        stack, agg, spans, perf = self.stack, self.agg, self.spans, time.perf_counter
        count_consistent = name == "localization.verify_case"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                key = (parent[1] if parent else None, name)
                entry = agg.get(key)
                if entry is None:
                    agg[key] = entry = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if not aggregate:
                    spans.append((frame[0], parent[0] if parent else None,
                                  name, start, end))
            if count_consistent and result.consistent:
                self.consistent += 1
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        undo = []
        try:
            for name, (modname, path, aggregate) in BOUNDARIES.items():
                owner = sys.modules[modname]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, original, aggregate))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(name, original, aggregate)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("cisym"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str, parents=None) -> int:
        return sum(v[0] for (p, n), v in self.agg.items()
                   if n == name and (parents is None or p in parents))

    def total_s(self, name: str) -> float:
        return sum(v[1] for (_, n), v in self.agg.items() if n == name)

    def self_s(self, prefix: str) -> float:
        """Self time of every boundary whose name starts with prefix."""
        return sum(v[2] for (_, n), v in self.agg.items() if n.startswith(prefix))

    def top_level_s(self) -> float:
        return sum(v[1] for (p, _), v in self.agg.items() if p is None)

    def fired(self) -> set:
        return {n for (_, n) in self.agg}

    def dump(self, path) -> None:
        """Write the span records and the (parent, name) aggregates."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "spans": ["id parent name start end".split()] + self.spans,
                "aggregates": ["parent name calls total_s self_s".split()]
                + [[p, n, *v] for (p, n), v in self.agg.items()],
            }, handle)
