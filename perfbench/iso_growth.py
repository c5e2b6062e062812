#!/usr/bin/env python3
"""How isomorphism time grows with sentence size, on cli-mix sentences.

    python3 perfbench/iso_growth.py --seed 0 --samples 30 --clauses 24 36

For each clause count it evaluates generated sentences, then times
``isomorphic`` of each result against its gold graph (a positive pair) and
against a near-miss mutation of it (a negative pair that only exhaustive
search refutes).  A call still running after ``--limit`` seconds is
stopped and reported as ``>limit``.  Prints vertex range and sorted
milliseconds per kind.
"""
from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import amalgam  # noqa: E402
import climix  # noqa: E402


class _Late(Exception):
    pass


def _alarm(signum, frame):
    raise _Late


def timed_iso(g, h, limit: float) -> float:
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        amalgam.isomorphic(g, h)
    except _Late:
        return float("inf")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start


def near_miss(rng, gold):
    """A near-miss mutation, whatever the size (unlike the timed workload)."""
    for _ in range(20):
        m = climix.mutate(rng, gold, near_miss_max=climix.ISO_VERTEX_CAP)
        if m is not None and m.base.edges != gold.base.edges:
            return m
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=30)
    parser.add_argument("--limit", type=float, default=30.0, help="seconds per call")
    parser.add_argument("--clauses", type=int, nargs="+", default=[24, 36])
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)

    rng = random.Random(args.seed)
    doc, kinds = climix.lexicon_document(rng)
    lexicon = amalgam.parse_lexicon(json.dumps(doc))
    for clauses in args.clauses:
        sizes, positive, negative = [], [], []
        while len(sizes) < args.samples:
            s = climix.sentence(rng, kinds, clauses)
            if s.expected["relaxed"] != "defined":
                continue
            result = amalgam.evaluate(amalgam.parse_term(s.term), lexicon, amalgam.RELAXED)
            sizes.append(len(result.graph.base.vertices))
            positive.append(timed_iso(result.graph, s.gold, args.limit))
            m = near_miss(rng, s.gold)
            if m is not None:
                negative.append(timed_iso(result.graph, m, args.limit))

        def show(xs):
            return " ".join(f">{args.limit:g}s" if x == float("inf") else f"{1e3 * x:.1f}"
                            for x in sorted(xs))

        print(f"{clauses} clauses, {min(sizes)}-{max(sizes)} vertices")
        print(f"  positive ms: {show(positive)}")
        print(f"  near-miss ms: {show(negative)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
