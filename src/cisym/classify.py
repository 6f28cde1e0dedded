"""Which complete intersections carry a smooth non-trivial circle action.

The verdict is decided on the normalized multidegree (degree-1 factors
removed).  In complex dimension 3 the admissible spaces are exactly the
projective space and the quadric; in dimensions 1 and 2 exactly the spaces
with positive first Chern class.  Higher dimensions are out of scope and get
no boolean claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .invariants import (
    CompleteIntersection,
    InvariantReport,
    invariants,
    normalize,
)

REASON_ADMITS = "admits_action"
REASON_OBSTRUCTED = "obstructed"
REASON_OUT_OF_SCOPE = "out_of_scope"

_ADMISSIBLE = {
    1: {(1,), (2,), (3,), (2, 2)},
    2: {(1,), (2,), (3,), (2, 2)},
    3: {(1,), (2,)},
}

_CITATIONS = {
    1: (
        "curves: the sphere and the torus are the only closed orientable"
        " surfaces with circle symmetry, and they are exactly the"
        " multidegrees (1), (2), (3), (2,2)"
    ),
    2: (
        "surfaces: a compact complex surface of this type admits a smooth"
        " non-trivial circle action exactly when its first Chern class is"
        " positive, i.e. for the multidegrees (1), (2), (3), (2,2)"
    ),
    3: (
        "threefolds: among 6-dimensional complete intersections only the"
        " projective space (1) and the quadric (2) admit a smooth"
        " non-trivial circle action"
    ),
}


@dataclass(frozen=True)
class SymmetryVerdict:
    ci: CompleteIntersection
    normalized: tuple[int, ...]
    admits: Optional[bool]
    reason: str
    citation: str
    evidence: InvariantReport
    # The 6-manifold checklist, decided on the same evidence; only for n = 3.
    hypotheses: Optional[HypothesisChecklist] = None


def s1_verdict(ci: CompleteIntersection) -> SymmetryVerdict:
    """Classification verdict for dimensions n <= 3; out-of-scope above."""
    norm = normalize(ci)
    hypotheses = theorem_hypotheses(ci) if ci.n == 3 else None
    rep = invariants(ci) if hypotheses is None else hypotheses.evidence
    admits = norm.degrees in _ADMISSIBLE[ci.n] if ci.n in _ADMISSIBLE else None
    return SymmetryVerdict(
        ci=ci,
        normalized=norm.degrees,
        admits=admits,
        reason=(REASON_OUT_OF_SCOPE if admits is None
                else REASON_ADMITS if admits else REASON_OBSTRUCTED),
        citation=_CITATIONS.get(ci.n, "no classification is implemented"
                                " for complex dimension >= 4"),
        evidence=rep,
        hypotheses=hypotheses,
    )


@dataclass(frozen=True)
class HypothesisItem:
    name: str
    holds: bool
    citation: str


@dataclass(frozen=True)
class HypothesisChecklist:
    ci: CompleteIntersection
    items: tuple[HypothesisItem, ...]
    satisfied: bool
    evidence: InvariantReport


def theorem_hypotheses(ci: CompleteIntersection) -> HypothesisChecklist:
    """Itemized hypotheses of the non-existence theorem for 6-manifolds:
    torsion-free homology with b1 = 0, b2 = 1 (automatic here), rho <= 0,
    nonzero top power of the degree-2 generator, and euler < 4.  When every
    item holds, the manifold admits no smooth non-trivial circle action."""
    if ci.n != 3:
        raise ValueError("the 6-manifold hypothesis checklist requires n = 3")
    rep = invariants(ci)
    items = (
        HypothesisItem(
            "homology_shape",
            True,
            "complete intersections of complex dimension 3 have torsion-free"
            " homology with b1 = 0 and b2 = 1 (hyperplane-section structure)",
        ),
        HypothesisItem(
            "rho_nonpositive",
            rep.rho <= 0,
            "the first Pontrjagin coefficient rho must be <= 0",
        ),
        HypothesisItem(
            "top_power_nonzero",
            rep.t != 0,
            "the cube of the degree-2 generator must not vanish (t = degree"
            " product >= 1)",
        ),
        HypothesisItem(
            "euler_below_four",
            rep.euler < 4,
            "the Euler characteristic must be smaller than 4 (equivalently"
            " b3 > 0)",
        ),
    )
    return HypothesisChecklist(
        ci=ci, items=items, satisfied=all(i.holds for i in items),
        evidence=rep,
    )
