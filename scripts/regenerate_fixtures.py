#!/usr/bin/env python3
"""Rebuild every JSON fixture under fixtures/ from first principles.

The fixture graphs are either hand-declared inputs (the lexicon, the
two composition demo graphs) or canonical outputs of the library on those
inputs (the evaluated sentences).  Regenerating and diffing is the quickest
way to see whether a library change moved any observable behavior.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Read the package from this checkout's src/, so a fresh clone runs as is.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from amalgam.algebra import (
    EMPTY_TYPE,
    RELAXED,
    App,
    AsGraph,
    GraphType,
    Leaf,
    Slot,
    apply,
    evaluate,
)
from amalgam.graphs import build_graph
from amalgam.serialize import serialize_graph, serialize_lexicon


def build_lexicon() -> dict[str, AsGraph]:
    wash = build_graph(
        [("w", "wash"), ("s_arg", None), ("o_arg", None)],
        [("w", "s_arg", "ARG0"), ("w", "o_arg", "ARG1")],
        {"rt": "w", "s": "s_arg", "o": "o_arg"},
    )
    raven = build_graph([("r", "raven")], [], {"rt": "r"})
    # One vertex carrying both the root and the subject slot: the whole
    # point of allowing more than one source label per vertex.
    reflexive = build_graph([("x", None)], [], {"rt": "x", "s": "x"})
    return {
        "wash": AsGraph(wash, GraphType({"s": Slot(), "o": Slot()})),
        "raven": AsGraph(raven, EMPTY_TYPE),
        "self": AsGraph(reflexive, GraphType({"s": Slot()})),
    }


def fixture_documents() -> dict[str, str]:
    lexicon = build_lexicon()

    reflexive_sentence = evaluate(
        App("s", App("o", Leaf("wash"), Leaf("self")), Leaf("raven")), lexicon, RELAXED
    )
    two_place_sentence = evaluate(
        App("s", App("o", Leaf("wash"), Leaf("raven")), Leaf("raven")), lexicon, RELAXED
    )
    predicate = apply("o", lexicon["wash"], lexicon["self"], RELAXED)
    for stage in (reflexive_sentence, two_place_sentence, predicate):
        if not isinstance(stage, AsGraph):
            raise RuntimeError(f"fixture derivation unexpectedly undefined: {stage}")

    # Composition demo: one graph spreads the labels A and B over two
    # vertices, the other stacks both on a single vertex.  Their
    # composition collapses everything onto one vertex.
    two_vertices = build_graph([("p", None), ("q", None)], [], {"A": "p", "B": "q"})
    one_vertex = build_graph([("u", None)], [], {"A": "u", "B": "u"})

    return {
        "lexicon.json": serialize_lexicon(lexicon),
        "sentence_reflexive.json": serialize_graph(reflexive_sentence.graph),
        "sentence_two_place.json": serialize_graph(two_place_sentence.graph),
        "reflexive_predicate.json": serialize_graph(predicate.graph),
        "two_vertices_sources_ab.json": serialize_graph(two_vertices),
        "one_vertex_sources_ab.json": serialize_graph(one_vertex),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "fixtures",
        help="directory to write fixtures into (default: repo fixtures/)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="do not write; fail if any fixture on disk differs",
    )
    args = parser.parse_args(argv)

    documents = fixture_documents()
    args.out.mkdir(parents=True, exist_ok=True)
    stale = []
    for name, text in sorted(documents.items()):
        path = args.out / name
        if args.check:
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                stale.append(name)
            continue
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    if stale:
        print("stale fixtures: " + ", ".join(stale), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
