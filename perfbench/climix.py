"""Seeded inputs for the ``cli-mix`` workload: a lexicon, sentences, gold graphs.

Every sentence is generated twice over, from the same random choices: once
as term text for ``amalgam eval`` and once as its expected meaning graph,
built vertex by vertex with ``build_graph``.  The gold graph never goes
through ``apply`` or composition, so it is an independent answer for the
evaluator's output.

Sentences are chains: each clause above the innermost one embeds the next
through a complement-taking verb (``say``-like, closed complement) or a
control verb (``want``-like, complement whose subject is the controller's).
The innermost clause is intransitive or transitive; a transitive object may
be the reflexive ``self``, which only the relaxed apply mode accepts.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from amalgam import MsGraph, build_graph

NOUN_POOL = ("raven", "dog", "cat", "owl", "fox", "boy", "girl", "bee", "elk", "ant")
INTRANSITIVE_POOL = ("sleep", "sing", "run", "fall", "smile")
TRANSITIVE_POOL = ("see", "wash", "like", "feed", "help", "call")
COMPLEMENT_POOL = ("say", "think", "know", "hope")
CONTROL_POOL = ("want", "try")

# Clause counts: a fixed histogram per pass, so that seeds change the
# content of the sentences but not how much work a pass holds.  Most
# sentences are short; the tail reaches 45-61 vertices, close to the
# 64-vertex cap of the isomorphism check.
CLAUSE_HISTOGRAM = (
    (1, 90), (2, 70), (3, 50), (5, 14), (8, 8), (12, 6), (18, 4), (24, 2), (30, 2)
)
ISO_VERTEX_CAP = 64

# Near-miss mutations (see ``mutate``) are refuted only by exhaustive
# search, whose time grows steeply with size: on one 2-core x86-64 machine
# with Python 3.11, at most 60 ms at 32-44 vertices but up to 27 s at
# 49-61 vertices.  Above this size a mutation relabels a vertex instead, so
# that no single request outweighs a whole pass.
NEAR_MISS_MAX_VERTICES = 40

REFLEXIVE_SHARE = 0.3
UNDEFINED_SHARE = 0.1
ORIGINAL_MODE_SHARE = 0.25


def _vertex(ident: str, label: str | None) -> dict:
    return {"id": ident, "label": label} if label is not None else {"id": ident}


def lexicon_document(rng: random.Random) -> tuple[dict, dict[str, tuple[str, ...]]]:
    """A lexicon document and the lexeme names of each kind.

    Lexeme names double as node labels.  Few distinct nouns make long
    sentences repeat labels, which is what makes isomorphism search work.
    """
    kinds = {
        "noun": tuple(sorted(rng.sample(NOUN_POOL, 5))),
        "intransitive": tuple(sorted(rng.sample(INTRANSITIVE_POOL, 3))),
        "transitive": tuple(sorted(rng.sample(TRANSITIVE_POOL, 4))),
        "complement": tuple(sorted(rng.sample(COMPLEMENT_POOL, 2))),
        "control": tuple(sorted(rng.sample(CONTROL_POOL, 1))),
    }
    empty: dict = {}
    doc: dict = {}
    for name in kinds["noun"]:
        doc[name] = {
            "graph": {"vertices": [_vertex("n", name)], "edges": [], "sources": {"rt": "n"}},
            "type": {},
        }
    for name in kinds["intransitive"]:
        doc[name] = {
            "graph": {
                "vertices": [_vertex("v", name), _vertex("s", None)],
                "edges": [{"from": "v", "to": "s", "label": "ARG0"}],
                "sources": {"rt": "v", "s": "s"},
            },
            "type": {"s": {"type": empty}},
        }
    for name in kinds["transitive"]:
        doc[name] = {
            "graph": {
                "vertices": [_vertex("v", name), _vertex("s", None), _vertex("o", None)],
                "edges": [
                    {"from": "v", "to": "s", "label": "ARG0"},
                    {"from": "v", "to": "o", "label": "ARG1"},
                ],
                "sources": {"rt": "v", "s": "s", "o": "o"},
            },
            "type": {"s": {"type": empty}, "o": {"type": empty}},
        }
    for kind, requested in (("complement", empty), ("control", {"s": {"type": empty}})):
        for name in kinds[kind]:
            doc[name] = {
                "graph": {
                    "vertices": [_vertex("v", name), _vertex("s", None), _vertex("c", None)],
                    "edges": [
                        {"from": "v", "to": "s", "label": "ARG0"},
                        {"from": "v", "to": "c", "label": "ARG1"},
                    ],
                    "sources": {"rt": "v", "s": "s", "c": "c"},
                },
                "type": {"s": {"type": empty}, "c": {"type": requested}},
            }
    doc["self"] = {
        "graph": {"vertices": [_vertex("x", None)], "edges": [], "sources": {"rt": "x", "s": "x"}},
        "type": {"s": {"type": empty}},
    }
    return doc, kinds


@dataclass
class _Gold:
    vertices: list[tuple[str, str]] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)

    def vertex(self, label: str) -> str:
        ident = f"g{len(self.vertices)}"
        self.vertices.append((ident, label))
        return ident


@dataclass(frozen=True)
class Sentence:
    """One generated sentence.

    ``expected`` is ``"defined"`` or the ladder rung (``"condition 1"``...)
    that ``eval`` must name on stderr in each mode.
    """

    term: str
    gold: MsGraph
    expected: dict[str, str]


def _verb_phrase(rng, kinds, clauses, subject, gold, defect, reflexive_ok):
    """Term text (type {s}) of a clause chain whose subject is ``subject``.

    The ARG edges into ``subject`` are added to ``gold`` here; the caller
    fills the subject slot.  Returns (term, root vertex, used reflexive).
    """
    if clauses == 1:
        if defect == "missing-slot":
            verb = rng.choice(kinds["intransitive"])
            gold.edges.append((gold.vertex(verb), subject, "ARG0"))
            return f"app_o({verb}, {rng.choice(kinds['noun'])})", None, False
        if rng.random() < 0.35:
            verb = rng.choice(kinds["intransitive"])
            v = gold.vertex(verb)
            gold.edges.append((v, subject, "ARG0"))
            return verb, v, False
        verb = rng.choice(kinds["transitive"])
        v = gold.vertex(verb)
        gold.edges.append((v, subject, "ARG0"))
        if reflexive_ok and rng.random() < REFLEXIVE_SHARE:
            gold.edges.append((v, subject, "ARG1"))
            return f"app_o({verb}, self)", v, True
        noun = rng.choice(kinds["noun"])
        gold.edges.append((v, gold.vertex(noun), "ARG1"))
        return f"app_o({verb}, {noun})", v, False

    control = rng.random() < 0.5
    if defect == "closed-complement" and clauses == 2:
        control = True
    verb = rng.choice(kinds["control" if control else "complement"])
    v = gold.vertex(verb)
    gold.edges.append((v, subject, "ARG0"))
    if control:
        inner_subject = subject
        if defect == "closed-complement" and clauses == 2:
            # The control verb asks for an open subject; give it a closed
            # clause instead.
            inner_subject = gold.vertex(rng.choice(kinds["noun"]))
    else:
        inner_subject = gold.vertex(rng.choice(kinds["noun"]))
    inner, root, used = _verb_phrase(
        rng, kinds, clauses - 1, inner_subject, gold, defect, reflexive_ok
    )
    if inner_subject != subject:
        inner = f"app_s({inner}, {gold.vertices[int(inner_subject[1:])][1]})"
    if root is not None:
        gold.edges.append((v, root, "ARG1"))
    return f"app_c({verb}, {inner})", v, used


def sentence(rng: random.Random, kinds, clauses: int) -> Sentence:
    """A closed sentence of ``clauses`` clauses, maybe with one planted defect.

    Drawn again while its graph would exceed the isomorphism check's cap.
    """
    while True:
        s = _sentence(rng, kinds, clauses)
        if len(s.gold.base.vertices) <= ISO_VERTEX_CAP:
            return s


def _sentence(rng: random.Random, kinds, clauses: int) -> Sentence:
    defect = None
    if rng.random() < UNDEFINED_SHARE:
        defect = "closed-complement" if clauses >= 2 else "missing-slot"
    gold = _Gold()
    subject = gold.vertex(rng.choice(kinds["noun"]))
    vp, root, reflexive = _verb_phrase(
        rng, kinds, clauses, subject, gold, defect, reflexive_ok=defect is None
    )
    term = f"app_s({vp}, {gold.vertices[0][1]})"
    if defect == "missing-slot":
        expected = {"original": "condition 1", "relaxed": "condition 1"}
    elif defect == "closed-complement":
        expected = {"original": "condition 2", "relaxed": "condition 2a"}
    elif reflexive:
        expected = {"original": "condition 2", "relaxed": "defined"}
    else:
        expected = {"original": "defined", "relaxed": "defined"}
    g = build_graph(gold.vertices, gold.edges, {"rt": root} if root else {})
    return Sentence(term, g, expected)


def _triples(g: MsGraph) -> Counter:
    label = {v.id: v.label for v in g.base.vertices}
    return Counter((label[e.src], e.label, label[e.dst]) for e in g.base.edges)


def mutate(
    rng: random.Random, g: MsGraph, near_miss_max: int = NEAR_MISS_MAX_VERTICES
) -> MsGraph | None:
    """A graph of the same size that is provably not isomorphic to ``g``.

    Either one vertex takes another vertex's label (the label multiset
    changes), or two equally labelled edges swap targets so that every
    vertex keeps its degree profile while the multiset of (source label,
    edge label, target label) triples changes.  The second kind passes the
    isomorphism check's cheap filters and has to be refuted by search.
    Graphs above ``near_miss_max`` vertices only get the first kind.
    Returns None when ``g`` admits neither mutation.
    """
    vertices = list(g.base.vertices)
    edges = list(g.base.edges)
    label = {v.id: v.label for v in vertices}
    near_miss = rng.random() < 0.5
    if near_miss and len(vertices) <= near_miss_max:
        swaps = [
            (i, j)
            for i in range(len(edges))
            for j in range(i + 1, len(edges))
            if edges[i].label == edges[j].label
            and label[edges[i].src] != label[edges[j].src]
            and label[edges[i].dst] != label[edges[j].dst]
        ]
        if swaps:
            i, j = rng.choice(swaps)
            a, b = edges[i], edges[j]
            edges[i] = a._replace(dst=b.dst)
            edges[j] = b._replace(dst=a.dst)
            out = build_graph([(v.id, v.label) for v in vertices], edges, g.sources)
            if _triples(out) != _triples(g):
                return out
    labels = sorted({v.label for v in vertices})
    if len(labels) < 2:
        return None
    k = rng.randrange(len(vertices))
    new = rng.choice([lab for lab in labels if lab != vertices[k].label])
    vertices[k] = vertices[k]._replace(label=new)
    return build_graph([(v.id, v.label) for v in vertices], edges, g.sources)
