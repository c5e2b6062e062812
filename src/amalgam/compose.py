"""Parallel composition of source-labeled graphs.

Two graphs are composed by fusing equally-labeled source vertices.  With
multiple labels per vertex the fusion is a genuine equivalence closure: the
shared-label relation is closed reflexively, symmetrically and transitively,
a cross-section picks one representative per class, and the disjoint union
is quotiented onto those representatives.

``parallel_compose_classic`` keeps the older construction that simply glues
the second graph's source vertices onto the first's.  It is only defined
when both inputs have at most one label per vertex and serves as an
independent reference implementation for cross-checking.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .graphs import BaseGraph, Edge, GraphError, MsGraph, Vertex


class NodeLabelConflictError(GraphError):
    """Fused vertices carry two different node labels."""


class SGraphRequiredError(GraphError):
    """The operation only accepts graphs with at most one source label per vertex."""


class VertexOverlapError(GraphError):
    """Inputs were required to be vertex-disjoint but share an id."""


@dataclass(frozen=True)
class MergePartition:
    """An equivalence partition over a vertex universe plus chosen representatives.

    ``classes[i]`` lists one equivalence class in universe order and
    ``cross_section[i]`` is its representative.
    """

    universe: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]
    cross_section: tuple[str, ...]

    @cached_property
    def representative_of(self) -> dict[str, str]:
        rep = {}
        for members, chosen in zip(self.classes, self.cross_section):
            for m in members:
                rep[m] = chosen
        return rep


def fresh_ids(ids: Iterable[str], avoid: Iterable[str]) -> dict[str, str]:
    """A fresh name for every id: ticks appended until clear of ``avoid``."""
    used = set(avoid)
    out: dict[str, str] = {}
    for v in ids:
        candidate = v + "'"
        while candidate in used:
            candidate += "'"
        out[v] = candidate
        used.add(candidate)
    return out

def disjoint_copy(
    h: MsGraph, avoid: MsGraph | Iterable[str]
) -> tuple[MsGraph, dict[str, str]]:
    """An isomorphic copy of ``h`` sharing no vertex ids with ``avoid``.

    ``avoid`` is a graph or a bare collection of ids to steer clear of.
    Returns the copy and the id map from ``h`` vertices to copy vertices.
    """
    avoid_ids = avoid.base.vertex_ids() if isinstance(avoid, MsGraph) else avoid
    vmap = fresh_ids(h.base.vertex_ids(), avoid_ids)
    vertices = tuple(Vertex(vmap[v.id], v.label) for v in h.base.vertices)
    edges = tuple(Edge(vmap[e.src], vmap[e.dst], e.label) for e in h.base.edges)
    sources = {a: vmap[v] for a, v in h.sources.items()}
    return MsGraph(BaseGraph(vertices, edges), sources), vmap


def merge_relation(g: MsGraph, h_prime: MsGraph) -> tuple[tuple[str, str], ...]:
    """Vertex pairs that a shared source label forces together.

    Inputs must be vertex-disjoint.  One pair per shared label, in sorted
    label order.
    """
    if not g.base._id_set.isdisjoint(h_prime.base._id_set):
        overlap = g.base._id_set & h_prime.base._id_set
        raise VertexOverlapError(f"inputs share vertex ids: {sorted(overlap)}")
    shared = sorted(g.tau & h_prime.tau)
    return tuple((g.sources[a], h_prime.sources[a]) for a in shared)


def equivalence_closure(
    pairs: Iterable[tuple[str, str]],
    universe: Iterable[str],
    preferred: Iterable[str] = (),
) -> MergePartition:
    """Reflexive-symmetric-transitive closure of ``pairs`` over ``universe``.

    Representatives: the smallest id from ``preferred`` present in a class,
    else the smallest id in the class.
    """
    order = tuple(universe)
    parent = {v: v for v in order}

    def find(v: str) -> str:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    for a, b in pairs:
        if a not in parent or b not in parent:
            raise VertexOverlapError(f"pair ({a!r}, {b!r}) mentions ids outside the universe")
        parent[find(a)] = find(b)

    groups: dict[str, list[str]] = {}
    for v in order:
        groups.setdefault(find(v), []).append(v)
    classes = tuple(tuple(members) for members in groups.values())

    prefer = set(preferred)
    chosen = []
    for members in classes:
        candidates = [m for m in members if m in prefer]
        chosen.append(min(candidates) if candidates else min(members))
    return MergePartition(order, classes, tuple(chosen))


def quotient(base: BaseGraph, partition: MergePartition) -> BaseGraph:
    """Collapse each partition class onto its representative.

    Edge endpoints are remapped; the edge multiset keeps its size, so merging
    the two ends of an edge produces a loop.  A class whose members carry two
    different node labels is a conflict and raises.
    """
    ids = base.vertex_ids()
    if len(ids) != len(partition.universe) or base._id_set != frozenset(partition.universe):
        raise VertexOverlapError("partition universe does not match the graph's vertices")

    rep = partition.representative_of
    lmap = base._label_map
    fused_label: dict[str, str | None] = {}
    for members, chosen in zip(partition.classes, partition.cross_section):
        if len(members) == 1:
            fused_label[chosen] = lmap[chosen]
            continue
        labels = {lmap[m] for m in members} - {None}
        if len(labels) > 1:
            raise NodeLabelConflictError(
                f"vertices {list(members)} carry conflicting labels {sorted(labels)}"
            )
        fused_label[chosen] = labels.pop() if labels else None

    vertices = tuple(
        Vertex(v.id, fused_label[v.id]) for v in base.vertices if rep[v.id] == v.id
    )
    edges = tuple(Edge(rep[e.src], rep[e.dst], e.label) for e in base.edges)
    return BaseGraph(vertices, edges)


def compose_disjoint(g: MsGraph, h_prime: MsGraph) -> MsGraph:
    """Compose ``g`` with an already vertex-disjoint copy of the second operand.

    Same result as ``parallel_compose(g, h)`` whenever ``h_prime`` is a
    disjoint copy of ``h``; useful when the caller prepares copies up front.
    Disjointness is enforced, not assumed.
    """
    pairs = merge_relation(g, h_prime)
    combined = BaseGraph(
        g.base.vertices + h_prime.base.vertices, g.base.edges + h_prime.base.edges
    )
    if not pairs:
        # Nothing to merge: the composition is a plain union.
        return MsGraph(combined, {**g.sources, **h_prime.sources})

    universe = g.base.vertex_ids() + h_prime.base.vertex_ids()
    partition = equivalence_closure(pairs, universe, preferred=g.base.vertex_ids())
    quotiented = quotient(combined, partition)

    rep = partition.representative_of
    sources: dict[str, str] = {a: rep[v] for a, v in g.sources.items()}
    for a, v in h_prime.sources.items():
        r = rep[v]
        prev = sources.get(a)
        if prev is not None and prev != r:
            # Cannot happen: a shared label relates both vertices, so the
            # closure puts them in one class.  Checked, not assumed.
            raise RuntimeError(f"source {a!r} resolves to two classes after merging")
        sources[a] = r
    return MsGraph(quotiented, sources)


def parallel_compose(g: MsGraph, h: MsGraph) -> MsGraph:
    """Compose two graphs by merging equally-labeled sources.

    The label set of the result is the union of the operands'; each shared
    label drags its two vertices (and transitively everything they are merged
    with) into a single vertex.
    """
    h_prime, _ = disjoint_copy(h, g)
    return compose_disjoint(g, h_prime)


def parallel_compose_classic(g: MsGraph, h: MsGraph) -> MsGraph:
    """Glue-style composition, defined only for single-label-per-vertex graphs.

    The second graph is copied with its shared-source vertices replaced by
    the first graph's vertices for those labels; everything else is a
    disjoint union.  Refuses inputs where any vertex carries two labels,
    because gluing cannot express the merges those graphs require.
    """
    if not g.is_sgraph():
        raise SGraphRequiredError("left operand has a vertex with multiple source labels")
    if not h.is_sgraph():
        raise SGraphRequiredError("right operand has a vertex with multiple source labels")

    shared = g.tau & h.tau
    glue = {h.sources[a]: g.sources[a] for a in shared}
    free = fresh_ids(
        (v.id for v in h.base.vertices if v.id not in glue),
        (v.id for v in g.base.vertices),
    )
    vmap = {**glue, **free}

    labels: dict[str, str | None] = {v.id: v.label for v in g.base.vertices}
    for v in h.base.vertices:
        if v.id in glue and v.label is not None:
            target = glue[v.id]
            if labels[target] is None:
                labels[target] = v.label
            elif labels[target] != v.label:
                raise NodeLabelConflictError(
                    f"glued vertex {target!r} would carry both "
                    f"{labels[target]!r} and {v.label!r}"
                )

    vertices = tuple(Vertex(v.id, labels[v.id]) for v in g.base.vertices) + tuple(
        Vertex(vmap[v.id], v.label) for v in h.base.vertices if v.id not in glue
    )
    edges = g.base.edges + tuple(
        Edge(vmap[e.src], vmap[e.dst], e.label) for e in h.base.edges
    )
    sources = dict(g.sources)
    for a, v in h.sources.items():
        sources.setdefault(a, vmap[v])
    return MsGraph(BaseGraph(vertices, edges), sources)
