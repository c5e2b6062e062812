"""Command-line interface.

Subcommands: eval, compose, iso, dot, check-equivalence, check-reduction,
check-properties; ``eval --mode`` takes an ApplyMode value: original,
relaxed (the default) or relaxed-strict.  Requested artifacts (graph
documents, DOT, campaign reports) go to stdout; everything diagnostic goes
to stderr.  Exit codes: 0 success, 1 undefined application or non-isomorphic
pair, 2 usage or data errors, 3 campaign failures, 4 internal error (an
unexpected exception, reported as ``internal error: <type>: <message>``
instead of a traceback).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .algebra import ApplyMode, Undefined, evaluate
from .campaigns import (
    DEFAULT_EQUIVALENCE_BOUNDS,
    check_algebraic_properties,
    check_apply_reduction,
    check_composition_equivalence,
)
from .compose import parallel_compose, parallel_compose_classic
from .graphs import GraphError, MsGraph, isomorphic
from .serialize import (
    SchemaError,
    export_dot,
    parse_graph,
    parse_lexicon,
    parse_term,
    serialize_graph,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not valid UTF-8: {err}") from err


def _emit_graph(g: MsGraph, fmt: str) -> None:
    text = export_dot(g) if fmt == "dot" else serialize_graph(g)
    try:
        if fmt == "dot":
            # Strict, since stdout's surrogateescape under the C locale would
            # write a lone surrogate from U+DC80-U+DCFF as a raw byte.
            text.encode("utf-8")
        sys.stdout.write(text)
    except UnicodeEncodeError as err:  # DOT keeps non-ASCII text, JSON escapes it
        raise SchemaError(f"stdout cannot encode the output: {err}") from err


def _count(text: str) -> int:
    """A non-negative integer option value in ASCII digits; anything else is a usage error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _labels(text: str) -> tuple[str, ...]:
    """Comma-separated source labels; naming one twice is a usage error."""
    labels = tuple(s for s in text.split(",") if s)
    if len(set(labels)) != len(labels):
        raise argparse.ArgumentTypeError(f"source labels repeat in {text!r}")
    return labels


def _bounds_from(args: argparse.Namespace):
    """The campaigns' default population, resized by the command line."""
    return replace(
        DEFAULT_EQUIVALENCE_BOUNDS,
        max_vertices=args.max_vertices,
        source_labels=args.labels,
        max_edges=args.max_edges,
    )


def _emit_report(report) -> int:
    sys.stdout.write(json.dumps(report.to_document(), indent=2) + "\n")
    summary = (
        f"{report.campaign}: {report.cases_run} cases, "
        f"{len(report.failures)} failures, {len(report.findings)} findings"
    )
    print(summary, file=sys.stderr)
    return 0 if report.passed else 3


def _cmd_eval(args: argparse.Namespace) -> int:
    lexicon = parse_lexicon(_read(args.lexicon))
    term = parse_term(args.term)
    result = evaluate(term, lexicon, ApplyMode(args.mode))
    if isinstance(result, Undefined):
        print(result.message(), file=sys.stderr)
        return 1
    _emit_graph(result.graph, args.format)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    left = parse_graph(_read(args.left))
    right = parse_graph(_read(args.right))
    combine = parallel_compose_classic if args.classic else parallel_compose
    _emit_graph(combine(left, right), args.format)
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    left = parse_graph(_read(args.left))
    right = parse_graph(_read(args.right))
    if isomorphic(left, right):
        print("isomorphic")
        return 0
    print("not isomorphic")
    return 1


def _cmd_dot(args: argparse.Namespace) -> int:
    _emit_graph(parse_graph(_read(args.graph)), "dot")
    return 0


def _cmd_check_equivalence(args: argparse.Namespace) -> int:
    return _emit_report(check_composition_equivalence(_bounds_from(args)))


def _cmd_check_reduction(args: argparse.Namespace) -> int:
    return _emit_report(check_apply_reduction(trials=args.trials, seed=args.seed))


def _cmd_check_properties(args: argparse.Namespace) -> int:
    report = check_algebraic_properties(
        _bounds_from(args), trials=args.trials, seed=args.seed
    )
    return _emit_report(report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call.

    It holds no handler: ``main`` looks ``_cmd_<command>`` up when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description="Compose, apply, compare, and render source-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "dot"), default="json")

    default = DEFAULT_EQUIVALENCE_BOUNDS
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--max-vertices", type=_count, default=default.max_vertices)
    bounds.add_argument("--max-edges", type=_count, default=default.max_edges)
    bounds.add_argument(
        "--labels",
        type=_labels,
        default=default.source_labels,
        help="comma-separated source labels",
    )

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", parents=[fmt], help="evaluate a term against a lexicon")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--mode", choices=[m.value for m in ApplyMode], default="relaxed")

    p = sub.add_parser("compose", parents=[fmt], help="compose two graph files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--classic", action="store_true", help="use the glue-based composition")

    p = sub.add_parser("iso", help="test two graph files for isomorphism")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("dot", help="render a graph file as DOT")
    p.add_argument("graph")

    p = sub.add_parser(
        "check-equivalence",
        parents=[bounds],
        help="exhaustive merge-vs-glue composition sweep",
    )

    p = sub.add_parser(
        "check-reduction",
        parents=[seed],
        help="randomized original-vs-relaxed apply agreement",
    )
    p.add_argument("--trials", type=_count, default=10_000)

    p = sub.add_parser(
        "check-properties",
        parents=[bounds, seed],
        help="commutativity, identity, and sampled associativity",
    )
    p.add_argument("--trials", type=_count, default=1_000)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (GraphError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
