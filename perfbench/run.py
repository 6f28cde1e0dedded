"""cisym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify_empty --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src and the
independent oracle from ./tests/oracle.py.  Everything runs in this one
process on one thread, with one client in a closed loop.

A run repeats the workload's fixed operation set ("pass") until --seconds
have elapsed and checks every answer.  The first pass warms the process up
and is left out of the metrics; at least one more pass always follows it.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it stamps the run (interpreter, CPU,
commit, seed, sample counts, the queries repeat share).

--trace 0 reports the end-to-end metrics:
  wall_s          median time of one warm pass (search: the time to certify the
                  box; queries: the time to answer the whole stream)
  request_p50_ms  median latency of one request (search: one search_case
                  call; queries: one cli call); each request's latency is
                  the median over the warm passes of the run (a short search
                  call is run several times per pass, see one_pass)
  request_p99_ms  99th percentile of the same samples
  setup_s         median time that a fresh interpreter takes to import
                  cisym and build the command-line parser, over several
                  interpreters (interpreter start-up itself is not counted)
  peak_rss_mib    peak resident memory of this process
Times are in reference seconds: speed.py measures the machine's speed around
every timed interval and scales it to a fixed nominal speed, so that drift of
a shared machine does not read as a change of the program.  The stamp keeps
every pass time both in reference and in measured (unscaled) seconds, the
unscaled request percentiles, and the scale factor of every 0.1 s window of
every pass, so that the conversion can be checked.  Failed operations
(raised, wrong answer, unexpected exit code) are the "failed" count of the
result line, out of "attempted".

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: calls and self times at each public boundary (see tracer.py),
per-kind cli latencies from the untraced passes, and the tracing overhead.
These are plain measured seconds; the speed probe is off.  The spans of the
last traced pass are written to perfbench/out/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracer as tracing
import workloads as wl
from speed import SpeedProbe

WORKLOADS = ("certify_empty", "search_hits", "queries")
SETUP_SPAWNS = 9
MAX_RUNS = 50  # runs of one short operation in one pass

END_TO_END = {
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_SEARCH = "search.search_case"
_CLASSIFY = {"classify.s1_verdict", "classify.theorem_hypotheses"}
_CALLS = (
    _SEARCH, "localization.x3_sum", "localization.p1x_sum",
    "localization.verify_case", "algebra.LiftPolynomial.mul",
    "algebra.LiftPolynomial.pow", "algebra.CharacterFunction.mul",
    "configio.parse_config", "configio.dump_config",
    "algebra.TruncatedSeries.mul", "algebra.TruncatedSeries.inverse",
    "invariants.invariants", "cli.main",
)
_SELF = (
    "localization.x3_sum", "localization.p1x_sum", "localization.verify_case",
    "localization.signature_checks", "configio.parse_config",
    "configio.dump_config", "invariants.invariants", "classify.s1_verdict",
    "classify.theorem_hypotheses", "cli.main", "algebra.LiftPolynomial",
    "algebra.CharacterFunction", "algebra.TruncatedSeries", "algebra",
    "localization", "configio", "classify",
)

PER_LAYER = {f"{name}.calls": "count" for name in _CALLS}
PER_LAYER.update({f"{name}.self_s": "s" for name in _SELF})
PER_LAYER.update({
    "search.self_s": "s",
    "search.leaves": "count",
    "search.leaves_per_s": "1/s",
    "search.verify_share": "ratio",
    "search.hit_ratio": "ratio",
    "localization.consistent_ratio": "ratio",
    "invariants.invariants.per_classify": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
})
for _kind in wl.QUERY_KINDS:
    PER_LAYER[f"cli.{_kind}.p50_ms"] = "ms"
    PER_LAYER[f"cli.{_kind}.p99_ms"] = "ms"

# Boundaries each full-size workload must reach; a boundary that never fires
# means the workload no longer exercises the layer it was chosen for.
EXPECTED_BOUNDARIES = {
    "certify_empty": {
        _SEARCH, "localization.x3_sum", "localization.p1x_sum",
        "algebra.LiftPolynomial.add", "algebra.LiftPolynomial.mul",
        "algebra.LiftPolynomial.pow",
    },
    "search_hits": {
        _SEARCH, "localization.x3_sum", "localization.p1x_sum",
        "localization.verify_case", "localization.signature_checks",
        "configio.dump_config", "algebra.LiftPolynomial.add",
        "algebra.LiftPolynomial.mul", "algebra.LiftPolynomial.pow",
        "algebra.CharacterFunction.add", "algebra.CharacterFunction.mul",
    },
    "queries": {
        "cli.main", "invariants.invariants", "classify.s1_verdict",
        "classify.theorem_hypotheses", "configio.parse_config",
        "localization.verify_case", "localization.x3_sum",
        "localization.p1x_sum", "localization.signature_checks",
        "algebra.TruncatedSeries.mul", "algebra.TruncatedSeries.pow",
        "algebra.TruncatedSeries.inverse", "algebra.LiftPolynomial.add",
        "algebra.LiftPolynomial.mul", "algebra.LiftPolynomial.pow",
        "algebra.CharacterFunction.add", "algebra.CharacterFunction.mul",
    },
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


SETUP_CHILD = """\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, "src")
import cisym.cli
cisym.cli.build_parser()
ready = time.perf_counter() - start
sys.path.insert(0, {bench!r})
from speed import SpeedProbe
probe = SpeedProbe()
probe.burst()
probe.clear()
for _ in range(10):
    probe.burst()
print(ready * probe.scale())
"""


def measure_setup(root: Path, spawns: int = SETUP_SPAWNS) -> float:
    """Median time, in reference seconds, that a fresh interpreter takes to
    import cisym and build the command-line parser.  Each child times itself
    and then measures the speed of the CPU it ran on."""
    code = SETUP_CHILD.format(bench=str(Path(__file__).resolve().parent))
    times = []
    for _ in range(spawns):
        out = subprocess.run([sys.executable, "-c", code], cwd=root,
                             check=True, capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


def make_workload(name, seed, reduced, expected, workdir):
    if name == "queries":
        import oracle  # tests/oracle.py, shares no code with cisym

        return wl.QueriesWorkload(seed, reduced, expected, oracle, workdir)
    return wl.SearchWorkload(name, seed, reduced, expected)


def one_pass(workload, first: bool, tracer=None, probe=None):
    """Run and check every operation of the workload.

    Returns (latencies, raw, wall, raw_wall, scales, errors, hits).
    latencies are the operation times, in reference seconds when a probe
    runs; raw are the same times unscaled (measured seconds without probe
    time); scales are the probe's window scale factors over the pass (empty
    without one).  An untraced operation that ran for less than
    workload.short_s is run again, back to back, until its runs add up to
    short_s (or MAX_RUNS runs): one run of a call that short is mostly noise
    of the machine.  Its latency is then the median of its runs, while wall
    and raw_wall count only the first run of each operation, so they stay
    the time of one pass over the operations.  Each answer is checked right
    after it is timed and then dropped, so the live heap, and with it the
    garbage collector's work, does not depend on the order of the
    operations.  Only the first run of each operation in the first pass,
    which is never traced, checks by calling into cisym (it re-verifies
    search hits).
    """
    timed, errors, hits = [], [], 0
    perf = time.perf_counter
    short_s = 0.0 if tracer else workload.short_s
    with tracer.installed() if tracer else nullcontext(), \
            probe.running() if probe else nullcontext():
        for op in workload.ops:
            runs = []
            while True:
                t0 = perf()
                try:
                    answer, error = workload.run_op(op), None
                except Exception:  # a raising operation is a failed operation
                    answer, error = None, traceback.format_exc(limit=3)
                runs.append((t0, perf()))
                if error is None:
                    try:
                        error = workload.check(op, answer, first and len(runs) == 1)
                        if len(runs) == 1:
                            hits += workload.hit_count(answer)
                    except Exception:  # a malformed answer is a failure
                        error = traceback.format_exc(limit=3)
                errors.append(error)
                answer = None
                if (error is not None or len(runs) >= MAX_RUNS
                        or sum(t1 - t0 for t0, t1 in runs) >= short_s):
                    break
            timed.append(runs)
    if probe is None:
        unscaled = scaled = lambda t0, t1: t1 - t0
        scales = []
    else:
        unscaled, scaled = probe.unscaled_s, probe.reference_s
        scales = probe.window_scales(timed[0][0][0], timed[-1][-1][1])
    raw = [statistics.median(unscaled(*run) for run in runs) for runs in timed]
    latencies = [statistics.median(scaled(*run) for run in runs) for runs in timed]
    wall = sum(scaled(*runs[0]) for runs in timed)
    raw_wall = sum(unscaled(*runs[0]) for runs in timed)
    return latencies, raw, wall, raw_wall, scales, errors, hits


def layer_metrics(tr: tracing.Tracer, wall: float, workload, hits: int) -> dict:
    """Per-layer figures of one traced pass."""
    leaves = tr.calls("localization.x3_sum", {_SEARCH})
    leaf_verifies = tr.calls("localization.verify_case", {_SEARCH})
    search_total = tr.total_s(_SEARCH)
    verifies = tr.calls("localization.verify_case")
    classify_requests = workload.kinds.count("classify")
    m = {f"{name}.calls": tr.calls(name) for name in _CALLS}
    m.update({f"{name}.self_s": tr.self_s(name) for name in _SELF})
    m.update({
        "search.self_s": tr.self_s(_SEARCH),
        "search.leaves": leaves,
        "search.leaves_per_s": leaves / search_total if search_total else 0.0,
        "search.verify_share": leaf_verifies / leaves if leaves else 0.0,
        "search.hit_ratio": hits / leaf_verifies if leaf_verifies else 0.0,
        "localization.consistent_ratio":
            tr.consistent / verifies if verifies else 0.0,
        "invariants.invariants.per_classify":
            tr.calls("invariants.invariants", _CLASSIFY) / classify_requests
            if classify_requests else 0.0,
        "trace.wall_s": wall,
        "trace.coverage": tr.top_level_s() / wall,
    })
    return m


def stamp(root: Path, workload, args: dict) -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "cisym").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        **args,
        **workload.stamp,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        reduced: bool = False, expected: dict | None = None):
    """Run one workload; return (result line object, stamp)."""
    expected = wl.load_expected() if expected is None else expected
    import cisym.cli  # noqa: F401  (warm the import and bytecode caches)

    setup_s = None if trace else measure_setup(root)
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    attempted = failed = 0
    problems: list[str] = []
    walls, latencies, traced, traced_walls = [], [], [], []
    raw_walls, raw_latencies, scales, overheads = [], [], [], []
    probe = None if trace else SpeedProbe()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workload = make_workload(name, seed, reduced, expected, Path(tmp))
        start = time.perf_counter()
        first = True
        while True:
            for traced_pass in ((False, True) if trace else (False,)):
                tr = tracing.Tracer() if traced_pass else None
                lat, raw, wall, raw_wall, pass_scales, errors, hits = one_pass(
                    workload, first, tr, probe)
                attempted += len(errors)
                for error in errors:
                    if error is not None:
                        failed += 1
                        problems.append(error)
                first = False
                if traced_pass:
                    last_tracer = tr
                    traced.append(layer_metrics(tr, wall, workload, hits))
                    traced_walls.append(wall)
                    overheads.append(wall - walls[-1])
                    if not reduced:
                        missing = EXPECTED_BOUNDARIES[name] - tr.fired()
                        if missing:
                            problems.append(f"boundaries never reached: {sorted(missing)}")
                else:
                    walls.append(wall)
                    latencies.append(lat)
                    raw_walls.append(raw_wall)
                    raw_latencies.append(raw)
                    scales.append([round(x, 4) for x in pass_scales])
            if time.perf_counter() - start >= seconds and len(walls) > 1:
                break

    # A request's latency is the median over the warm passes that replayed it.
    samples = [statistics.median(col) for col in zip(*latencies[1:])]
    raw_samples = [statistics.median(col) for col in zip(*raw_latencies[1:])]
    extra = {}
    if trace:
        spans_file = out_dir / f"spans-{name}-{seed}.json"
        last_tracer.dump(spans_file)
        extra["spans_file"] = str(spans_file.relative_to(root))
        metrics = {key: statistics.median(p[key] for p in traced)
                   for key in traced[0]}
        # Each traced pass against the untraced pass just before it, so that
        # drift of the machine between passes cancels.  The first pair runs
        # cold and is left out.
        metrics["trace.overhead_s"] = statistics.median(overheads[1:])
        for kind in wl.QUERY_KINDS:
            kind_samples = [x for x, k in zip(samples, workload.kinds)
                            if k == kind]
            for q, label in ((0.5, "p50"), (0.99, "p99")):
                metrics[f"cli.{kind}.{label}_ms"] = (
                    1e3 * percentile(kind_samples, q) if kind_samples else 0.0)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls[1:]),
            "request_p50_ms": 1e3 * percentile(samples, 0.5),
            "request_p99_ms": 1e3 * percentile(samples, 0.99),
            "setup_s": setup_s,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for problem in problems[:5]:
        print(f"perfbench: {problem.strip()}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }
    run_stamp = stamp(root, workload, {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "pass_walls_s": walls, "raw_pass_walls_s": raw_walls,
        "raw_request_p50_ms": 1e3 * percentile(raw_samples, 0.5),
        "raw_request_p99_ms": 1e3 * percentile(raw_samples, 0.99),
        "pass_window_scales": scales, "traced_pass_walls_s": traced_walls,
        "request_samples": len(samples), "setup_spawns": 0 if trace else SETUP_SPAWNS,
        **extra,
    })
    return result, run_stamp


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cisym" / "__init__.py").is_file() or not (
            root / "tests" / "oracle.py").is_file():
        print("perfbench: run from the repository root: src/cisym and"
              " tests/oracle.py are required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.append(str(root / "tests"))
    result, run_stamp = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), root)
    print(json.dumps({"stamp": run_stamp}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
