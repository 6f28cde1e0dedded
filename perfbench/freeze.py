"""Freeze the expected outputs that the benchmark checks answers against.

    python3 perfbench/freeze.py          # from the repository root

Writes perfbench/data/expected.json from the program as it is now: the hit
digests of every search call (full and reduced sizes), the classification
tables and citations, a sample of search hits and the demo configurations
as verify documents, and for every verify document its exit code and, per
lift shift the stream can draw, a digest of its full check list (verdicts,
residuals and citations).  The timed calls are the workloads' own
(``run_search``, ``run_cli``).  Run it only when a change of the program's
answers is intended; the benchmark then compares later commits against the
new freeze.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def search_digests(reduced: bool, keep_hits: dict | None = None) -> dict:
    import cisym.search as search

    out = {}
    for name in ("certify_empty", "search_hits"):
        out[name] = {}
        for op in wl.search_ops(name, reduced):
            key = op[0]
            hits = wl.run_search(search, op)
            out[name][key] = {"count": len(hits),
                              "sha256": wl.digest(wl.canonical_hits(hits))}
            if keep_hits is not None and hits:
                step = max(1, len(hits) // 4)
                keep_hits[key] = hits[::step][:4]
            print(f"{'reduced' if reduced else 'full'} {key}: {len(hits)} hits",
                  file=sys.stderr)
    return out


def classify_tables() -> dict:
    """Classification answers that are not invariants, read off the program:
    the admissible normalized multidegrees, citations and reasons."""
    from cisym import CompleteIntersection, s1_verdict, theorem_hypotheses

    admissible, citations, reasons = {}, {}, {}
    for n in (1, 2, 3, 4):
        for degrees in wl.partitions(wl.MAX_DEGREE_SUM):
            verdict = s1_verdict(CompleteIntersection(n, degrees))
            key = {True: "admits", False: "obstructed", None: "out_of_scope"}[
                verdict.admits]
            reasons[key] = verdict.reason
            if n == 4:
                citations["out_of_scope"] = verdict.citation
                continue
            citations[str(n)] = verdict.citation
            if verdict.admits:
                admissible.setdefault(str(n), set()).add(verdict.normalized)
    checklist = theorem_hypotheses(CompleteIntersection(3, (1,)))
    return {
        "admissible": {n: sorted(list(d) for d in s)
                       for n, s in admissible.items()},
        "citations": {n: c for n, c in citations.items() if n != "out_of_scope"},
        "out_of_scope_citation": citations["out_of_scope"],
        "reasons": reasons,
        "hypotheses": [[i.name, i.citation] for i in checklist.items],
    }


def run_cli(cli, argv):
    code, text = wl.run_cli(cli, argv)
    return code, json.loads(text)


def verify_answers(docs: dict) -> dict:
    """Per document: its exit code, which must not change under the lift
    shifts the stream can draw, and the digest of the full check list at
    each of those shifts, in LIFT_SHIFTS order."""
    import cisym.cli as cli

    answers = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for label, doc in docs.items():
            codes, checks = set(), []
            for delta in wl.LIFT_SHIFTS:
                path.write_text(json.dumps(wl.shift_doc(doc, delta)))
                code, got = run_cli(cli, ["verify", str(path), "--json"])
                codes.add(code)
                checks.append(wl.checks_digest(got["checks"]))
            if len(codes) != 1:
                raise SystemExit(f"{label}: exit code changes under lift shifts")
            answers[label] = {"code": codes.pop(), "checks": checks}
    return answers


def main() -> int:
    import cisym.cli as cli
    import oracle  # noqa: F401  (tests/oracle.py)
    import cisym.configio as configio

    kept: dict = {}
    expected = {
        "search": {"full": search_digests(False, kept),
                   "reduced": search_digests(True)},
        "classify": classify_tables(),
    }
    docs = {}
    for path in sorted((ROOT / "demos" / "configs").glob("*.json")):
        docs[f"demo/{path.stem}"] = json.loads(path.read_text())
    for key in sorted(kept):
        for i, cfg in enumerate(kept[key]):
            docs[f"hit/{key}/{i}"] = configio.config_to_obj(cfg)
    expected["verify_docs"] = docs
    expected["verify"] = verify_answers(wl.verify_universe(expected))

    # The oracle-based expectations must agree with the program at the
    # freeze, on every request the stream can draw.
    checker = wl.Oracle(oracle, expected)
    for n in range(1, 7):
        for degrees in wl.partitions(wl.MAX_DEGREE_SUM):
            kinds = ("invariants", "classify") if n <= 4 else ("invariants",)
            for kind in kinds:
                code, got = run_cli(cli, [kind, str(n), *map(str, degrees),
                                          "--json"])
                if code != 0 or got != getattr(checker, kind)(n, degrees):
                    raise SystemExit(f"{kind} {n} {degrees}: oracle disagrees")
    wl.DATA.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.DATA}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.append(str(ROOT / "tests"))
    sys.exit(main())
