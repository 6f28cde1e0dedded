"""The three benchmark workloads: their inputs, the timed operation and the
check of each answer.

certify_empty  every template under default flags in the certified box
               t in [1, 10], rho in [-10, 0], bounds 5/5/10; each answer
               must be the empty hit list (the paper's theorem).
search_hits    every template at t in [1, 10], rho in [-10, 10] under three
               flag sets; the search runs the unstructured two-surface
               generator and sends ~1.4k leaves on to verify_case.  Each
               sorted hit list must match a digest frozen in
               data/expected.json, and every hit must verify.
queries        a seeded closed-loop stream of in-process ``cisym ... --json``
               calls (invariants, classify, verify), drawn with replacement
               from a seeded pool so that some requests repeat.

The search boxes are the certified result and stay fixed; on those
workloads the seed only permutes the order of the calls.  ``reduced=True``
shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data" / "expected.json"

TEMPLATE_NAMES = (
    "two_fours", "four_plus_surface", "four_plus_two_points",
    "cp2like_plus_point", "single_four_b2_2", "two_surfaces",
    "surface_plus_two_points",
)

# flag set name -> (SearchFlags keywords, bounds, reduced bounds)
HIT_FLAG_SETS = {
    "no_lemma64": ({"lemma64": False}, (3, 3, 6), (2, 2, 3)),
    "default": ({}, (3, 3, 6), (2, 2, 3)),
    "semifree": ({"semifree": True}, (5, 5, 10), (5, 3, 6)),
}
CERTIFY_BOUNDS, CERTIFY_REDUCED = (5, 5, 10), (2, 2, 4)

# (kind, n or verify document group, share of the stream).  There is no
# record of how cisym is used, so the mix is neutral: a third of the stream
# per kind, split equally over n (invariants n = 1..6, classify n = 1..4,
# where n = 4 is out of scope) or over the verify document groups.
QUERY_KINDS = ("invariants", "classify", "verify")
VERIFY_GROUPS = ("random", "demo", "hit")
QUERY_STRATA = (
    *(("invariants", n, 1 / 18) for n in range(1, 7)),
    *(("classify", n, 1 / 12) for n in range(1, 5)),
    *(("verify", group, 1 / 9) for group in VERIFY_GROUPS),
)
LIFT_SHIFTS = range(-6, 7)
STREAM_SIZE, STREAM_REDUCED = 1500, 60
POOL_SHARE = 0.6
RANDOM_CONFIG_SEED, RANDOM_CONFIG_COUNT = 20111108, 200
MAX_DEGREE_SUM = 16


def load_expected() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical_hits(hits) -> str:
    """Render a hit list from the Configuration attributes alone, so the
    digest does not depend on the serializer under test."""
    rows = []
    for cfg in hits:
        comps = []
        for c in cfg.components:
            fields = {"point": ("eps", "weights", "a"),
                      "surface": ("weights", "a", "ev_x", "ev_y1", "ev_y2",
                                  "chi"),
                      "four": ("weight", "a", "ev_x2", "ev_xy", "ev_y2",
                               "ev_p1", "b2", "sign", "chi")}[c.kind]
            comps.append([c.kind] + [getattr(c, f) for f in fields])
        amb, fl = cfg.ambient, cfg.flags
        rows.append([cfg.template, [amb.t, amb.rho, amb.euler, amb.sign],
                     [fl.effectiveness, fl.convention35, fl.lemma64], comps])
    return json.dumps(rows, default=list, separators=(",", ":"))


def checks_digest(checks) -> str:
    """Digest of a verify answer's full check list: name, verdict, residual
    and citation of every check."""
    return digest(json.dumps(checks, sort_keys=True, separators=(",", ":")))


def partitions(max_sum: int) -> list[tuple[int, ...]]:
    """Every multidegree (ascending, 1s included) with entry sum <= max_sum."""
    out = []

    def grow(rest, largest, tail):
        if tail:
            out.append(tuple(reversed(tail)))
        for part in range(min(rest, largest), 0, -1):
            grow(rest - part, part, tail + [part])

    grow(max_sum, max_sum, [])
    return out


def random_config_obj(rng: random.Random) -> dict:
    """A criterion-9-style random configuration document: valid structure,
    almost never consistent."""

    def point():
        return {"kind": "point", "eps": rng.choice((-1, 1)),
                "weights": [rng.randint(1, 4) for _ in range(3)],
                "a": rng.randint(-4, 4)}

    def surface():
        return {"kind": "surface",
                "weights": [rng.randint(1, 4), rng.randint(1, 4)],
                "a": rng.randint(-4, 4), "ev_x": rng.randint(-5, 5),
                "ev_y1": rng.randint(-5, 5), "ev_y2": rng.randint(-5, 5),
                "chi": rng.choice((2, 0, -2))}

    def four(b2):
        sign = rng.choice({0: (0,), 1: (-1, 1), 2: (-2, 0, 2)}[b2])
        evs = [0, 0, 0] if b2 == 0 else [rng.randint(-5, 5) for _ in range(3)]
        return {"kind": "four", "weights": [rng.randint(1, 4)],
                "a": rng.randint(-4, 4), "ev_x2": evs[0], "ev_xy": evs[1],
                "ev_y2": evs[2], "ev_p1": 3 * sign, "b2": b2, "sign": sign,
                "chi": 2 + b2 - 2 * rng.randint(0, 2)}

    builders = {
        "two_fours": lambda: [four(0), four(0)],
        "four_plus_surface": lambda: [four(0), surface()],
        "four_plus_two_points": lambda: [four(0), point(), point()],
        "cp2like_plus_point": lambda: [four(1), point()],
        "single_four_b2_2": lambda: [four(2)],
        "two_surfaces": lambda: [surface(), surface()],
        "surface_plus_two_points": lambda: [surface(), point(), point()],
    }
    template = rng.choice(TEMPLATE_NAMES)
    return {
        "ambient": {"t": rng.randint(1, 6), "rho": rng.randint(-5, 5),
                    "euler": rng.randint(-4, 8), "sign": 0},
        "template": template,
        "flags": {"effectiveness": False, "convention35": False,
                  "lemma64": True},
        "components": builders[template](),
    }


def verify_universe(expected: dict) -> dict[str, dict]:
    """Base documents for verify requests: the frozen random configurations,
    the demo configurations and a sample of search_hits hits."""
    rng = random.Random(RANDOM_CONFIG_SEED)
    docs = {f"random/{i}": random_config_obj(rng)
            for i in range(RANDOM_CONFIG_COUNT)}
    docs.update(expected["verify_docs"])
    return docs


def shift_doc(doc: dict, delta: int) -> dict:
    """Lift-shifted copy: every component's a moves by delta."""
    out = json.loads(json.dumps(doc))
    for comp in out["components"]:
        comp["a"] += delta
    return out


# ---------------------------------------------------------------------------
# Expected answers for the query kinds


class Oracle:
    """Expected invariants and classify answers.  Euler characteristic,
    signature and A-hat come from the repository's independent oracle
    (tests/oracle.py); t, c1, rho, spin and b3 from their closed forms; the
    classification tables and citations from data/expected.json."""

    def __init__(self, oracle_module, expected: dict):
        self.oracle = oracle_module
        self.cls = expected["classify"]
        self._cache: dict = {}

    def invariants(self, n: int, degrees: tuple[int, ...]) -> dict:
        key = (n, degrees)
        if key not in self._cache:
            lines = n + len(degrees) + 1
            t = 1
            for d in degrees:
                t *= d
            c1 = lines - sum(degrees)
            euler = self.oracle.euler_ci(n, degrees)
            even = n % 2 == 0
            a_hat = Fraction(self.oracle.a_hat_ci(n, degrees)) if even else None
            self._cache[key] = {
                "n": n, "degrees": list(degrees), "t": t, "c1": c1,
                "rho": lines - sum(d * d for d in degrees), "euler": euler,
                "spin": c1 % 2 == 0,
                "signature": self.oracle.signature_ci(n, degrees) if even else None,
                "a_hat": None if a_hat is None else _fraction_str(a_hat),
                "b3": 4 - euler if n == 3 else None,
            }
        return self._cache[key]

    def classify(self, n: int, degrees: tuple[int, ...]) -> dict:
        inv = self.invariants(n, degrees)
        normalized = [d for d in degrees if d != 1] or [1]
        evidence = {k: inv[k] for k in ("t", "c1", "rho", "euler", "spin")}
        for k in ("signature", "a_hat", "b3"):
            if inv[k] is not None:
                evidence[k] = inv[k]
        if n >= 4:
            admits, reason = None, self.cls["reasons"]["out_of_scope"]
            citation = self.cls["out_of_scope_citation"]
        else:
            admits = normalized in self.cls["admissible"][str(n)]
            reason = self.cls["reasons"]["admits" if admits else "obstructed"]
            citation = self.cls["citations"][str(n)]
        obj = {"n": n, "degrees": list(degrees), "normalized": normalized,
               "admits": admits, "reason": reason, "citation": citation,
               "evidence": evidence}
        if n == 3:
            holds = {"homology_shape": True,
                     "rho_nonpositive": inv["rho"] <= 0,
                     "top_power_nonzero": inv["t"] != 0,
                     "euler_below_four": inv["euler"] < 4}
            obj["hypotheses"] = [
                {"name": name, "holds": holds[name], "citation": citation}
                for name, citation in self.cls["hypotheses"]
            ]
            obj["hypotheses_satisfied"] = all(holds.values())
        return obj


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# The timed operations, shared with freeze.py


def run_search(search, op):
    """One search_case call; op is an entry of search_ops()."""
    key, template, t_range, rho_range, flags, bounds = op
    return search.search_case(
        template, t_range=t_range, rho_range=rho_range,
        bounds=search.SearchBounds(*bounds), flags=search.SearchFlags(**flags))


def run_cli(cli, argv) -> tuple:
    """One in-process cli.main call: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Workloads


class SearchWorkload:
    """A fixed list of search_case calls; the seed permutes their order.

    About half of the calls take 20 ms or less; the median one is such a
    call.  Timed once per pass, its latency spread by 16-19% (IQR over
    median) across runs, so calls shorter than short_s are timed again
    within the pass (see run.one_pass).
    """

    short_s = 0.15

    def __init__(self, name: str, seed: int, reduced: bool, expected: dict):
        import cisym.search as search
        import cisym.localization as localization
        self.search = search
        self.localization = localization
        self.expected = expected["search"]["reduced" if reduced else "full"][name]
        self.ops = search_ops(name, reduced)
        random.Random(seed).shuffle(self.ops)
        self.kinds = ["search"] * len(self.ops)
        self.stamp = {}

    def run_op(self, op):
        return run_search(self.search, op)

    def check(self, op, hits, first_pass: bool):
        """None if the answer is right, else a one-line reason."""
        key, template = op[0], op[1]
        want = self.expected[key]
        got = {"count": len(hits), "sha256": digest(canonical_hits(hits))}
        if got != want:
            return f"{key}: hit list {got} differs from frozen {want}"
        if not first_pass:
            return None
        for cfg in hits:
            if not self.localization.verify_case(cfg).consistent:
                return f"{key}: a hit fails verify_case"
            if key.startswith("semifree/") and template == "two_surfaces":
                sx, sy = cfg.surfaces()
                rho = cfg.ambient.rho
                if rho not in (1, 4) or rho * (sx.a - sy.a) ** 2 != 4:
                    return f"{key}: semifree hit violates rho*(aX-aY)^2 = 4"
        return None

    def hit_count(self, hits) -> int:
        return len(hits)


def search_ops(name: str, reduced: bool) -> list[tuple]:
    """(key, template, t_range, rho_range, flags, bounds) for every call."""
    if name == "certify_empty":
        bounds = CERTIFY_REDUCED if reduced else CERTIFY_BOUNDS
        return [(f"default/{t}", t, (1, 10), (-10, 0), {}, bounds)
                for t in TEMPLATE_NAMES]
    ops = []
    for set_name, (flags, full, small) in HIT_FLAG_SETS.items():
        for t in TEMPLATE_NAMES:
            ops.append((f"{set_name}/{t}", t, (1, 10), (-10, 10), flags,
                        small if reduced else full))
    return ops


def stratified_sample(rng: random.Random, items: list, k: int) -> list:
    """One item from each of k equal runs of consecutive items."""
    n = len(items)
    return [items[rng.randrange(n * i // k, max(n * i // k + 1, n * (i + 1) // k))]
            for i in range(k)]


def query_inputs(seed: int, size: int, expected: dict) -> tuple[list, dict]:
    """The seeded request stream and the documents its verify requests read.

    Returns (stream, docs): stream entries are (kind, key) with key a
    hashable request identity; docs maps verify keys to document objects.
    Each stratum of QUERY_STRATA gets its fixed share of the stream, so the
    seed changes which requests are drawn but not the mix.  Per stratum a
    pool of POOL_SHARE of its requests is drawn first; the stream asks each
    pool request once and fills the rest of the stratum with repeats of
    pool requests, so that about 1 - POOL_SHARE of the stream repeats an
    earlier request (the workload stamps the measured share).

    Both draws are stratified samples: the pool from the candidates
    (multidegrees ordered by input size, i.e. number of factors, then degree
    sum; or verify documents with their lift shifts), the repeats from the
    pool in that order.  With plain random draws the stream's slowest
    requests, and with them the p99 latency, depended on the seed by about
    9% (IQR over median across 200 seeds, with each request's cost measured
    once); stratified, by about 5%.
    """
    rng = random.Random(seed)
    multidegrees = sorted(partitions(MAX_DEGREE_SUM), key=lambda d: (len(d), sum(d)))
    universe = verify_universe(expected)
    candidates = {group: [(label, delta) for label in universe
                          if label.split("/")[0] == group for delta in LIFT_SHIFTS]
                  for group in VERIFY_GROUPS}
    stream = []
    for kind, sub, share in QUERY_STRATA:
        count = max(1, round(share * size))
        keys = candidates[sub] if kind == "verify" else [(sub, d) for d in multidegrees]
        pool = [(kind, key) for key in
                stratified_sample(rng, keys, max(1, round(POOL_SHARE * count)))]
        stream.extend(pool)
        stream.extend(stratified_sample(rng, pool, count - len(pool)))
    rng.shuffle(stream)
    docs = {key: shift_doc(universe[key[0]], key[1])
            for kind, key in stream if kind == "verify"}
    return stream, docs


class QueriesWorkload:
    """Closed loop, one client: each request is one cli.main call with its
    output captured; the next request starts when the previous returns.
    Each request is timed once per pass; the stream is long enough that its
    percentiles are steady without repeats."""

    short_s = 0.0

    def __init__(self, seed: int, reduced: bool, expected: dict, oracle,
                 workdir: Path):
        import cisym.cli as cli
        self.cli = cli
        size = STREAM_REDUCED if reduced else STREAM_SIZE
        stream, docs = query_inputs(seed, size, expected)
        self.oracle = Oracle(oracle, expected)
        paths = {}
        for i, (key, doc) in enumerate(sorted(docs.items())):
            path = workdir / f"doc{i}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
            paths[key] = str(path)
        self.ops, self.kinds = [], []
        for kind, key in stream:
            if kind == "verify":
                label, delta = key
                frozen = expected["verify"][label]
                argv = ["verify", paths[key], "--json"]
                want = (docs[key], frozen["code"],
                        frozen["checks"][LIFT_SHIFTS.index(delta)])
            else:
                n, degrees = key
                argv = [kind, str(n), *map(str, degrees), "--json"]
                want = getattr(self.oracle, kind)(n, degrees)
            self.ops.append((kind, argv, want))
            self.kinds.append(kind)
        self.stamp = {
            "queries_repeat_share": round(1 - len(set(stream)) / len(stream), 4),
            "queries_requests": {k: self.kinds.count(k) for k in QUERY_KINDS},
        }

    def run_op(self, op):
        return run_cli(self.cli, op[1])

    def check(self, op, answer, first_pass: bool):
        kind, argv, want = op
        code, text = answer
        try:
            got = json.loads(text)
        except ValueError:
            return f"{' '.join(argv)}: exit {code}, output is not JSON"
        if kind != "verify":
            if code != 0 or got != want:
                return f"{' '.join(argv)}: exit {code}, answer differs"
            return None
        doc, want_code, want_checks = want
        if code != want_code:
            return f"verify {argv[1]}: exit {code}, expected {want_code}"
        if (checks_digest(got["checks"]) != want_checks
                or got["consistent"] != (want_code == 0)
                or got["config"] != doc):
            return f"verify {argv[1]}: checks or echoed config differ"
        return None

    def hit_count(self, answer) -> int:
        return 0
