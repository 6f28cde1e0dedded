"""Command line interface.

Subcommands: invariants, classify, table, verify, search.  Exit codes:
0 success, 2 a verified configuration is inconsistent, 64 usage error,
65 malformed configuration document, 66 search budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from .classify import _ADMISSIBLE, SymmetryVerdict, s1_verdict
from .configio import (
    SchemaError,
    config_to_obj,
    dump_config,
    fraction_str,
    json_text,
    load_config,
)
from .invariants import CompleteIntersection, InvariantReport, invariants
from .localization import MAX_WEIGHT, TEMPLATES, ConfigurationError, verify_case
from .search import BudgetExceededError, SearchBounds, SearchFlags, search_case

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_USAGE = 64
EXIT_SCHEMA = 65
EXIT_BUDGET = 66


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cisym",
        description=(
            "Exact invariants of complete intersections, the classification"
            " of circle-symmetric ones in low dimensions, and a verifier and"
            " bounded search for fixed-point configurations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    for name, text in (
        ("invariants", "invariants of a complete intersection X_n(d_1, ..., d_r)"),
        ("classify", "decide whether X_n(d) admits a smooth circle action"),
    ):
        command = sub.add_parser(name, help=text)
        command.add_argument("n", type=int, help="complex dimension (1 to 6)")
        command.add_argument("degrees", type=int, nargs="+", metavar="d",
                             help="multidegree entries, each >= 1")

    sub.add_parser(
        "table",
        help="the circle-symmetric complete intersections of complex"
             " dimension at most 3",
    )

    ver = sub.add_parser(
        "verify",
        help="run all consistency checks on a fixed-point configuration",
    )
    ver.add_argument("config", help="path to a configuration JSON document")

    sea = sub.add_parser(
        "search",
        help="bounded exhaustive search for consistent configurations",
    )
    sea.add_argument("template", choices=sorted(TEMPLATES),
                     help="the fixed-point template to search")
    for option, default, text in (
        ("--t-min", 1, "least t = x^3 (t is clamped at >= 1)"),
        ("--t-max", 10, "greatest t = x^3"),
        ("--rho-min", -10, "least rho (p1 coefficient)"),
        ("--rho-max", 0, "greatest rho (p1 coefficient)"),
        ("--max-weight", 5, f"greatest normal weight (at most {MAX_WEIGHT})"),
        ("--max-abs-a", 5, "greatest |a| of a lift constant"),
        ("--max-abs-eval", 10, "greatest |value| of an equivariant evaluation"),
        ("--budget", 10**8, "cap on enumeration nodes; past it, exit code 66"),
    ):
        sea.add_argument(option, type=int, default=default, help=text)
    for option, text in (
        ("--no-effectiveness", "drop the coprime-weights (effectiveness) rule"),
        ("--no-convention35", "drop the convention that some point has eps = +1"),
        ("--no-lemma64", "drop the cyclic-subgroup weight restrictions"),
        ("--semifree", "restrict to weight-1 actions"),
    ):
        sea.add_argument(option, action="store_true", help=text)

    for command in sub.choices.values():
        command.add_argument("--json", action="store_true", dest="as_json",
                             help="print the answer as JSON instead of text")

    return parser


def _ci_from_args(parser: _Parser, args) -> CompleteIntersection:
    if not 1 <= args.n <= 6:
        parser.error("n must be between 1 and 6")
    try:
        return CompleteIntersection(args.n, tuple(args.degrees))
    except ValueError as exc:  # a degree below 1 or above MAX_DEGREE, or too many
        parser.error(str(exc))


# The text label of each invariant, in print order; None values are omitted.
_INVARIANT_LABELS = {
    "t": "t (cube of the hyperplane class)",
    "c1": "c1 coefficient",
    "rho": "rho (p1 coefficient)",
    "euler": "euler characteristic",
    "spin": "spin",
    "signature": "signature",
    "a_hat": "a_hat genus",
    "b3": "b3",
}


def _invariants_obj(rep: InvariantReport) -> dict:
    return {
        "n": rep.ci.n,
        "degrees": list(rep.ci.degrees),
        "t": rep.t,
        "c1": rep.c1_coeff,
        "rho": rep.rho,
        "euler": rep.euler,
        "spin": rep.spin,
        "signature": rep.signature,
        "a_hat": None if rep.a_hat is None else fraction_str(rep.a_hat),
        "b3": rep.b3,
    }


def _print_invariants_text(obj: dict) -> None:
    for key, label in _INVARIANT_LABELS.items():
        value = obj.get(key)
        if isinstance(value, bool):
            value = "yes" if value else "no"
        if value is not None:
            print(f"  {label}: {value}")


def _cmd_invariants(parser: _Parser, args) -> int:
    ci = _ci_from_args(parser, args)
    obj = _invariants_obj(invariants(ci))
    if args.as_json:
        print(json_text(obj))
        return EXIT_OK
    print(ci)
    _print_invariants_text(obj)
    return EXIT_OK


def _verdict_obj(verdict: SymmetryVerdict) -> dict:
    ci = verdict.ci
    evidence = {key: value
                for key, value in _invariants_obj(verdict.evidence).items()
                if key not in ("n", "degrees") and value is not None}
    obj = {
        "n": ci.n,
        "degrees": list(ci.degrees),
        "normalized": list(verdict.normalized),
        "admits": verdict.admits,
        "reason": verdict.reason,
        "citation": verdict.citation,
        "evidence": evidence,
    }
    if verdict.hypotheses is not None:
        obj["hypotheses"] = [
            {"name": item.name, "holds": item.holds, "citation": item.citation}
            for item in verdict.hypotheses.items
        ]
        obj["hypotheses_satisfied"] = verdict.hypotheses.satisfied
    return obj


def _cmd_classify(parser: _Parser, args) -> int:
    ci = _ci_from_args(parser, args)
    obj = _verdict_obj(s1_verdict(ci))
    if args.as_json:
        print(json_text(obj))
        return EXIT_OK
    if obj["admits"] is None:
        headline = "out of scope"
    elif obj["admits"]:
        headline = "admits a smooth circle action"
    else:
        headline = "admits no smooth circle action"
    print(f"{ci}: {headline}")
    print(f"  reason: {obj['reason']}")
    print(f"  citation: {obj['citation']}")
    _print_invariants_text(obj["evidence"])
    if "hypotheses" in obj:
        print("  obstruction hypotheses:"
              f" {'all hold' if obj['hypotheses_satisfied'] else 'not all hold'}")
        for item in obj["hypotheses"]:
            print(f"    [{'x' if item['holds'] else ' '}] {item['name']}")
    return EXIT_OK


def _cmd_table(args) -> int:
    verdicts = [s1_verdict(CompleteIntersection(n, degrees))
                for n in sorted(_ADMISSIBLE)
                for degrees in sorted(_ADMISSIBLE[n], key=lambda d: (len(d), d))]
    entries = [dict(_invariants_obj(v.evidence), citation=v.citation)
               for v in verdicts]
    if args.as_json:
        print(json_text({"dimension_bound": 3, "entries": entries}))
        return EXIT_OK
    print("Complete intersections of complex dimension <= 3 admitting a"
          " smooth circle action")
    current = None
    for verdict, obj in zip(verdicts, entries):
        if obj["n"] != current:
            current = obj["n"]
            print(f"n = {current}:")
        extras = ""
        if obj["signature"] is not None:
            extras = f"  sign={obj['signature']}  a_hat={obj['a_hat']}"
        if obj["b3"] is not None:
            extras = f"  b3={obj['b3']}"
        print(f"  {str(verdict.ci):12s} t={obj['t']}  c1={obj['c1']}"
              f"  rho={obj['rho']}  euler={obj['euler']}" + extras)
    print("Every other multidegree is obstructed.")
    return EXIT_OK


def _residual_json(value):
    if value is None:
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return fraction_str(value)
    return str(value)


def _cmd_verify(args) -> int:
    try:
        cfg = load_config(args.config)
    except SchemaError as exc:
        print(f"configuration schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ConfigurationError as exc:
        print(f"configuration invariant violated: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = verify_case(cfg)
    if args.as_json:
        print(json_text({
            "consistent": report.consistent,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "citation": c.citation,
                    "residual": _residual_json(c.residual),
                }
                for c in report.checks
            ],
            "config": config_to_obj(cfg),
        }))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.name}"
            if not c.passed and c.residual is not None:
                line += f" (residual {c.residual})"
            print(line)
            if not c.passed:
                print(f"     {c.citation}")
        print("consistent" if report.consistent else "inconsistent")
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def _cmd_search(parser: _Parser, args) -> int:
    flags = SearchFlags(
        effectiveness=not args.no_effectiveness,
        convention35=not args.no_convention35,
        lemma64=not args.no_lemma64,
        semifree=args.semifree,
    )
    try:
        hits = search_case(
            args.template,
            t_range=(args.t_min, args.t_max),
            rho_range=(args.rho_min, args.rho_max),
            bounds=SearchBounds(args.max_weight, args.max_abs_a,
                                args.max_abs_eval),
            flags=flags,
            budget=args.budget,
        )
    except BudgetExceededError as exc:
        print(f"search aborted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ConfigurationError) as exc:
        parser.error(str(exc))
    if args.as_json:
        print(json_text({
            "template": args.template,
            "count": len(hits),
            "hits": [config_to_obj(cfg) for cfg in hits],
        }))
    else:
        print(f"{len(hits)} consistent configuration(s) within bounds")
        for cfg in hits:
            print(dump_config(cfg), end="")
    return EXIT_OK


_parser: Optional[_Parser] = None


def main(argv=None) -> int:
    # One parser per process: building it costs more than most requests.
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    if args.command == "invariants":
        return _cmd_invariants(parser, args)
    if args.command == "classify":
        return _cmd_classify(parser, args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_search(parser, args)


if __name__ == "__main__":
    sys.exit(main())
