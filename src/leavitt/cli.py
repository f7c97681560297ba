"""Batch command line: analyze graphs, draw lattices, compute with ideals.

Exit codes: 0 on success, 2 for input or validation errors, 3 when an
internal cross-check fails (which indicates a bug, never bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import FactorizationError, InternalInconsistencyError, LeavittError
from .ideals import graded_part, limit_power, power
from .lattice import enumerate_pairs
from .serialize import (
    analyze_report,
    analyze_text,
    ideal_to_data,
    lattice_dot,
    lattice_text,
    load_graph,
    pair_to_data,
    parse_ideal_literal,
)
from . import theorems

IDEAL_OPS = ("gr", "power", "limit", "primes-over", "decompose", "factor", "krull")
LATTICE_OPS = ("primes-over", "decompose", "factor")  # the ideal ops that read the pair lattice


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="leavitt",
        description="Ideal-lattice analysis of Leavitt path algebras of finite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="conditions, lattice size, primes, checks")
    analyze.add_argument("path", help="graph JSON file, or - for stdin")
    analyze.add_argument("--json", action="store_true", help="emit the JSON report")
    analyze.add_argument("--field", help="override the file header: Q or Fp:<p>")

    lattice = sub.add_parser("lattice", help="admissible-pair lattice listing or DOT diagram")
    lattice.add_argument("path", help="graph JSON file, or - for stdin")
    lattice.add_argument("--dot", action="store_true", help="emit a DOT Hasse diagram")
    lattice.add_argument("--field", help="override the file header: Q or Fp:<p>")

    ideal = sub.add_parser("ideal", help="operate on one ideal literal")
    ideal.add_argument("path", help="graph JSON file, or - for stdin")
    ideal.add_argument("literal", help='ideal literal, e.g. {"H":["w"],"S":[],"components":[...]}')
    ideal.add_argument("op", choices=IDEAL_OPS)
    ideal.add_argument("n", nargs="?", type=int, help="exponent for the power op")
    ideal.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ideal.add_argument("--field", help="override the file header: Q or Fp:<p>")
    return parser


def _cmd_analyze(args) -> int:
    g, field = load_graph(args.path, args.field)
    lattice = enumerate_pairs(g)
    report = analyze_report(args.path, g, field, lattice)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(analyze_text(report))
    return 0


def _cmd_lattice(args) -> int:
    g, field = load_graph(args.path, args.field)
    lattice = enumerate_pairs(g)
    print(lattice_dot(g, lattice) if args.dot else lattice_text(g, lattice))
    return 0


def _cmd_ideal(args) -> int:
    g, field = load_graph(args.path, args.field)
    I = parse_ideal_literal(g, field, args.literal)
    if args.op in LATTICE_OPS:
        lattice = enumerate_pairs(g)
    out: dict
    if args.op == "gr":
        out = {"op": "gr", "result": pair_to_data(graded_part(I))}
    elif args.op == "power":
        if args.n is None:
            raise LeavittError("the power op needs an exponent n")
        out = {"op": "power", "n": args.n, "result": ideal_to_data(power(g, I, args.n))}
    elif args.op == "limit":
        out = {"op": "limit", "result": ideal_to_data(limit_power(g, I))}
    elif args.op == "primes-over":
        report = theorems.intersection_of_primes(g, lattice, I)
        out = {
            "op": "primes-over",
            "gradedPrimes": [pair_to_data(p) for p in report.primes.graded],
            "nongradedPrimes": [ideal_to_data(p) for p in report.primes.nongraded],
            "intersection": ideal_to_data(report.result),
            "equalsInput": report.equals_input,
        }
    elif args.op == "decompose":
        fam = theorems.irredundant_prime_intersection(g, lattice, I)
        out = {
            "op": "decompose",
            "result": [ideal_to_data(p) for p in fam] if fam is not None else None,
        }
    elif args.op == "factor":
        try:
            factors = theorems.factor_graded(g, lattice, I)
            out = {"op": "factor", "result": [pair_to_data(p) for p in factors]}
        except FactorizationError as e:
            out = {"op": "factor", "result": None, "note": str(e)}
    elif args.op == "krull":
        out = {"op": "krull", "result": theorems.krull_check(g, I)}
    else:  # pragma: no cover
        raise LeavittError(f"unknown op {args.op!r}")
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(_ideal_text(out))
    return 0


def _ideal_text(out: dict) -> str:
    op = out["op"]
    if op == "gr":
        p = out["result"]
        return f"gr: ({{{','.join(p['H'])}}}, {{{','.join(p['S'])}}})"
    if op in ("power", "limit"):
        return f"{op}: {json.dumps(out['result'], sort_keys=True)}"
    if op == "primes-over":
        lines = [
            f"graded primes over: {len(out['gradedPrimes'])}",
        ]
        for p in out["gradedPrimes"]:
            lines.append(f"  ({{{','.join(p['H'])}}}, {{{','.join(p['S'])}}})")
        lines.append(f"non-graded primes over: {len(out['nongradedPrimes'])}")
        for d in out["nongradedPrimes"]:
            lines.append(f"  {json.dumps(d, sort_keys=True)}")
        lines.append(f"intersection: {json.dumps(out['intersection'], sort_keys=True)}")
        lines.append(f"equals input: {'yes' if out['equalsInput'] else 'no'}")
        return "\n".join(lines)
    if op == "decompose":
        if out["result"] is None:
            return "decompose: none"
        return "decompose:\n" + "\n".join(
            f"  {json.dumps(d, sort_keys=True)}" for d in out["result"]
        )
    if op == "factor":
        if out["result"] is None:
            return f"factor: none ({out['note']})"
        return "factor:\n" + "\n".join(
            f"  ({{{','.join(p['H'])}}}, {{{','.join(p['S'])}}})" for p in out["result"]
        )
    if op == "krull":
        return f"krull: {'true' if out['result'] else 'false'}"
    raise LeavittError(f"unknown op {op!r}")  # pragma: no cover


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "lattice":
            return _cmd_lattice(args)
        return _cmd_ideal(args)
    except InternalInconsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return 3
    except (LeavittError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
