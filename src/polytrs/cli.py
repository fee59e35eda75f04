"""Command line front end.

`polytrs analyze FILE` parses a rewrite system, runs the default proof
search and prints a verdict line followed by an optional proof certificate:
WORST_CASE(?, O(n^d)) when a closed proof with a polynomial bound was found,
MAYBE otherwise.  Exit codes: 0 bounded, 1 MAYBE, 2 error.

`polytrs oracle FILE` brute-forces the runtime complexity function on small
start terms, as an independent cross-check of the prover's claims.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Callable, Iterator, Optional, Sequence

from .depgraph import DepGraph, estimate_dg, to_dot
from .framework import cc_rows
from .parsing import ParseError, parse_file
from .processors import StrategyConfig, default_strategy
from .proofs import is_closed, iter_nodes, proof_to_json, render_proof
from .rewriting import TooLargeError


def _at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}"
            )
        return int(text)

    return parse


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"expected seconds >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytrs",
        description="polynomial runtime complexity bounds for term rewrite systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="prove a complexity bound")
    analyze.add_argument("file", help="rewrite system in parenthesized format")
    analyze.add_argument(
        "--degree-max",
        type=_at_least(1),
        default=2,
        help="largest interpretation degree to search, one complete search "
        "per degree (above 2 counts as 2; all ground start terms use degree 1); "
        "combined proofs may still conclude a higher bound",
    )
    analyze.add_argument(
        "--coeff-max",
        type=_at_least(1),
        default=3,
        help="largest interpretation coefficient to search; a certificate "
        "records the largest coefficient it uses",
    )
    analyze.add_argument(
        "--timeout", type=_seconds, default=None, help="time limit in seconds"
    )
    analyze.add_argument(
        "--proof",
        choices=("text", "json", "none"),
        default="text",
        help="certificate format printed after the verdict",
    )
    analyze.add_argument(
        "--dot-dg",
        metavar="FILE",
        default=None,
        help="write the estimated dependency graph in DOT format",
    )

    oracle = sub.add_parser("oracle", help="brute-force small runtime values")
    oracle.add_argument("file", help="rewrite system in parenthesized format")
    oracle.add_argument(
        "--size", type=_at_least(0), default=6, help="largest start term size to try"
    )
    oracle.add_argument(
        "--budget",
        type=_at_least(1),
        default=50,
        help="exploration depth per start term",
    )
    return parser


def _verdict(degree: Optional[int]) -> str:
    if degree is None:
        return "MAYBE"
    if degree == 0:
        return "WORST_CASE(?, O(1))"
    return f"WORST_CASE(?, O(n^{degree}))"


def _dp_graph_of(tree) -> DepGraph:
    for node in iter_nodes(tree):
        if node.judgement.problem.is_dp_problem():
            return estimate_dg(node.judgement.problem)
    return DepGraph((), frozenset())


def _run_analyze(args: argparse.Namespace) -> int:
    problem = parse_file(args.file)
    config = StrategyConfig(
        degree_max=args.degree_max,
        coeff_max=args.coeff_max,
        timeout=args.timeout,
    )
    tree = default_strategy(problem, config)

    if args.dot_dg is not None:
        with open(args.dot_dg, "w", encoding="utf-8") as handle:
            handle.write(to_dot(_dp_graph_of(tree)))

    bound = tree.judgement.bound
    closed = is_closed(tree)
    with _stdout_may_close():
        print(_verdict(bound.degree if closed else None))
        if args.proof == "text":
            print(render_proof(tree))
        elif args.proof == "json":
            print(json.dumps(proof_to_json(tree), sort_keys=True, separators=(",", ":")))
    return 0 if closed and not bound.is_unknown else 1


def _run_oracle(args: argparse.Namespace) -> int:
    problem = parse_file(args.file)
    n = 0  # rows printed, and the size being explored
    with _stdout_may_close():
        print("n\tcc")
        try:
            for row in cc_rows(problem, args.size, args.budget):
                print(f"{n}\t{row}")
                n += 1
        except RecursionError:
            # reachable terms, not the input, outgrew the recursive term walks
            print(
                f"error: terms reached from start terms of size {n} are nested too "
                "deeply to explore; try a smaller --budget or --size",
                file=sys.stderr,
            )
            return 2
        except TooLargeError as err:
            print(
                f"error: {err} up to size {args.size}; try a smaller --size",
                file=sys.stderr,
            )
            return 2
    return 0


@contextlib.contextmanager
def _stdout_may_close() -> Iterator[None]:
    """Print inside: a reader that has gone, as in `polytrs ... | head -1`,
    stops the printing but is no error, so the run keeps its exit code."""
    try:
        yield
        sys.stdout.flush()
    except BrokenPipeError:
        # so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_oracle(args)
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
