"""Which complete intersections of complex dimension at most 3 admit a
smooth non-trivial circle action?

The verdict is decided by exact invariants alone.  In complex dimension 3
a checklist of obstruction hypotheses (all derived from the multidegree)
shows why everything beyond the projective space and the quadric is ruled
out.
"""

from itertools import combinations_with_replacement

from cisym import CompleteIntersection, s1_verdict


def sweep(n, max_sum):
    admitted, obstructed = [], []
    for r in range(1, max_sum + 1):
        for degs in combinations_with_replacement(range(1, max_sum + 1), r):
            if sum(degs) > max_sum:
                continue
            ci = CompleteIntersection(n, degs)
            verdict = s1_verdict(ci)
            bucket = admitted if verdict.admits else obstructed
            bucket.append((ci, verdict))
    return admitted, obstructed


for n in (1, 2, 3):
    admitted, obstructed = sweep(n, 8)
    names = sorted({str(v.normalized) for _, v in admitted})
    print(f"complex dimension {n}: {len(admitted)} multidegrees admit an"
          f" action, normalized forms {names}")

print()
print("The threefold checklist, hypothesis by hypothesis:")
for degs in [(2,), (3,), (4,), (2, 2)]:
    ci = CompleteIntersection(3, degs)
    verdict = s1_verdict(ci)
    flags = ", ".join(
        f"{item.name}={'yes' if item.holds else 'no'}"
        for item in verdict.hypotheses.items
    )
    outcome = "admits an action" if verdict.admits else "obstructed"
    print(f"  {ci}: {outcome}; {flags}")

print()
print("Out of scope example (complex dimension 4):")
ci = CompleteIntersection(4, (2,))
verdict = s1_verdict(ci)
print(f"  {ci}: admits={verdict.admits} ({verdict.reason})")
