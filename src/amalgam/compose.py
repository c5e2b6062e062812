"""Parallel composition of source-labeled graphs.

Two graphs are composed by fusing equally-labeled source vertices.  With
multiple labels per vertex the fusion is a genuine equivalence closure: the
shared-label relation is closed reflexively, symmetrically and transitively,
a cross-section picks one representative per class, and every class
collapses onto its representative.

Only vertices named by a shared label can merge, so ``compose_disjoint``
builds classes of just those vertices: each shared label joins the class of
its vertex in one operand with that of its vertex in the other.  It then
rebuilds the result in one pass over the operands, reusing every vertex and
edge the merge leaves alone.  ``merge_relation``, ``equivalence_closure`` and
``quotient`` are the dense reference construction over the whole disjoint
union: the core calls none of them, and the tests check it against them.

One operand rule holds for every composition: an operand with a repeated
vertex id, or with an edge endpoint or a source that names no vertex of its
own, raises UnknownVertexError, which lists each such id of every operand
as ``validate`` words them.

``parallel_compose_classic`` keeps the older construction that simply glues
the second graph's source vertices onto the first's.  It is only defined
when both inputs have at most one label per vertex and serves as an
independent reference implementation for cross-checking.
"""
from __future__ import annotations

from typing import Container, Iterable, Mapping

from .graphs import BaseGraph, Edge, GraphError, MsGraph, UnknownVertexError, Vertex


class NodeLabelConflictError(GraphError):
    """Fused vertices carry two different node labels."""


class SGraphRequiredError(GraphError):
    """The operation only accepts graphs with at most one source label per vertex."""


class VertexOverlapError(GraphError):
    """Inputs were required to be vertex-disjoint but share an id."""


def fresh_ids(ids: Iterable[str], avoid: Container[str]) -> dict[str, str]:
    """A fresh name for every id: ticks appended until clear of ``avoid``.

    ``avoid`` is any container, looked up in place, not copied.
    """
    taken: set[str] = set()
    out: dict[str, str] = {}
    for v in ids:
        candidate = v + "'"
        while candidate in avoid or candidate in taken:
            candidate += "'"
        out[v] = candidate
        taken.add(candidate)
    return out


def _refuse_unresolved(g: MsGraph, h: MsGraph = MsGraph()) -> None:
    """Enforce the operand rule: raise if an id of either graph names no vertex or two."""
    if g._unresolved or h._unresolved:
        raise UnknownVertexError("; ".join(g._unresolved + h._unresolved))


def disjoint_copy(h: MsGraph, avoid: MsGraph | Container[str]) -> MsGraph:
    """An isomorphic copy of ``h`` sharing no vertex ids with ``avoid``.

    ``avoid`` is a graph or a bare collection of ids to steer clear of.
    The copy's vertices come in ``h``'s order, each renamed by ``fresh_ids``.
    """
    _refuse_unresolved(h)
    avoid_ids = avoid.base._id_set if isinstance(avoid, MsGraph) else avoid
    vmap = fresh_ids(h.base._label_map, avoid_ids)
    vertices = tuple(Vertex(vmap[v.id], v.label) for v in h.base.vertices)
    edges = tuple(Edge(vmap[e.src], vmap[e.dst], e.label) for e in h.base.edges)
    sources = {a: vmap[v] for a, v in h.sources.items()}
    return MsGraph(BaseGraph(vertices, edges), sources)


def _overlap(g_ids: frozenset[str], h_ids: frozenset[str]) -> VertexOverlapError:
    return VertexOverlapError(f"inputs share vertex ids: {sorted(g_ids & h_ids)}")


def merge_relation(g: MsGraph, h_prime: MsGraph) -> tuple[tuple[str, str], ...]:
    """Vertex pairs that a shared source label forces together.

    Inputs must be vertex-disjoint.  One pair per shared label, in sorted
    label order.  Part of the dense reference; ``compose_disjoint`` does not
    call it.
    """
    g_ids, h_ids = g.base._id_set, h_prime.base._id_set
    if not g_ids.isdisjoint(h_ids):
        raise _overlap(g_ids, h_ids)
    g_sources, h_sources = g.sources, h_prime.sources
    return tuple([(g_sources[a], h_sources[a]) for a in sorted(g.tau & h_prime.tau)])


def equivalence_closure(
    pairs: Iterable[tuple[str, str]],
    universe: Iterable[str],
    preferred: Iterable[str] = (),
) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Reflexive-symmetric-transitive closure of ``pairs`` over ``universe``.

    Returns one ``(representative, members)`` pair per class.  Classes come
    in the universe order of their first member, and members in universe
    order.  The representative is the smallest id from ``preferred`` in the
    class, else the smallest id in the class.  A set or dict ``preferred``
    is read in place, not copied.  Part of the dense reference;
    ``compose_disjoint`` does not call it.
    """
    order = tuple(universe)
    parent = dict(zip(order, order))
    for a, b in pairs:
        if a not in parent or b not in parent:
            raise VertexOverlapError(f"pair ({a!r}, {b!r}) mentions ids outside the universe")
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b

    groups: dict[str, list[str]] = {}
    for v in order:
        root = v
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(v)

    prefer = preferred if isinstance(preferred, (set, frozenset, dict)) else set(preferred)
    classes = []
    for members in groups.values():
        chosen = None
        for m in members:
            if m in prefer and (chosen is None or m < chosen):
                chosen = m
        classes.append((min(members) if chosen is None else chosen, tuple(members)))
    return tuple(classes)


def quotient(base: BaseGraph, partition: tuple[tuple[str, tuple[str, ...]], ...]) -> BaseGraph:
    """Collapse each class of an ``equivalence_closure`` result onto its representative.

    Edge endpoints are remapped; the edge multiset keeps its size, so merging
    the two ends of an edge produces a loop.  A class whose members carry two
    different node labels is a conflict and raises, and an edge endpoint that
    names no vertex breaks the operand rule.

    This is the dense reference construction: the classes cover every
    vertex of ``base``.  ``compose_disjoint`` does not call it; it builds the
    same graph from the merged vertices alone and is tested against it.
    """
    rep = {m: chosen for chosen, members in partition for m in members}
    size = sum(len(members) for _, members in partition)
    if size != len(base.vertices) or base._id_set != rep.keys():
        raise VertexOverlapError("partition universe does not match the graph's vertices")
    _refuse_unresolved(MsGraph(base))

    lmap = base._label_map
    fused_label: dict[str, str | None] = {}
    for chosen, members in partition:
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


def _refuse_label_conflict(joined: Mapping[str, object], labels: dict[str, str | None]) -> None:
    """Raise for the conflicting class of ``joined`` that comes first in ``labels``.

    ``labels`` holds g's vertices, then h_prime's; members are named in that order.
    """
    for v in labels:
        if v in joined:
            members = [m for m in labels if joined.get(m) is joined[v]]
            found = {labels[m] for m in members} - {None}
            if len(found) > 1:
                raise NodeLabelConflictError(
                    f"vertices {members} carry conflicting labels {sorted(found)}"
                )


def compose_disjoint(g: MsGraph, h_prime: MsGraph) -> MsGraph:
    """Compose ``g`` with an already vertex-disjoint copy of the second operand.

    Same result as ``parallel_compose(g, h)`` whenever ``h_prime`` is a
    disjoint copy of ``h``; useful when the caller prepares copies up front.
    Disjointness is enforced, not assumed.  Ids are part of the contract: a
    vertex no shared label names keeps its id; each merged class becomes its
    smallest g member and is named by every label of its members.

    Each shared label, in sorted label order, joins the class of its g vertex
    with that of its h_prime vertex.  Of the classes with two node labels, the
    error names the one whose first member comes first in g-then-h_prime
    vertex order, as ``quotient`` does.  The result is built in one pass over
    both operands.  The operand rule is checked before disjointness.
    """
    _refuse_unresolved(g, h_prime)
    g_base, h_base = g.base, h_prime.base
    if not g_base._id_set.isdisjoint(h_base._id_set):
        raise _overlap(g_base._id_set, h_base._id_set)
    g_sources, h_sources = g.sources, h_prime.sources
    shared = g.tau & h_prime.tau
    if not shared:
        # Nothing to merge: the composition is a plain union.
        return MsGraph(
            BaseGraph(g_base.vertices + h_base.vertices, g_base.edges + h_base.edges),
            g_sources | h_sources,
        )

    joined: dict[str, tuple[list[str], list[str]]] = {}  # vertex -> (g members, h_prime members)
    classes = []
    for a in sorted(shared):
        x, y = g_sources[a], h_sources[a]
        cx = joined.get(x)
        if cx is None:
            cx = joined[x] = ([x], [])
            classes.append(cx)
        cy = joined.get(y)
        if cy is None:
            cx[1].append(y)
            joined[y] = cx
        elif cy is not cx:  # fold y's class into x's
            joined.update(dict.fromkeys(cy[0] + cy[1], cx))
            cx[0].extend(cy[0])
            cx[1].extend(cy[1])
            classes.remove(cy)

    g_labels, h_labels = g_base._label_map, h_base._label_map
    moved: dict[str, str] = {}  # merged vertex -> its representative, if another
    fused: dict[str, str] = {}  # representative -> the label it gains, if any
    for g_members, h_members in classes:
        chosen = min(g_members) if len(g_members) > 1 else g_members[0]  # min() of one is slow
        label = None
        for m in g_members + h_members:
            own = g_labels[m] if m in g_labels else h_labels[m]
            if own is not None and own != label:
                if label is not None:
                    _refuse_label_conflict(joined, g_labels | h_labels)
                label = own
            moved[m] = chosen
        del moved[chosen]
        if label is not None and g_labels[chosen] is None:
            fused[chosen] = label

    # Each class's representative is a g member, so every named h_prime
    # vertex moves; g's vertices stay as they are unless one of them moved
    # too or gained a label.
    g_vertices = g_base.vertices
    if fused or not moved.keys().isdisjoint(g_base._id_set):
        g_vertices = tuple(
            [
                Vertex(v.id, fused[v.id]) if v.id in fused else v
                for v in g_vertices
                if v.id not in moved
            ]
        )
    vertices = g_vertices + tuple([v for v in h_base.vertices if v.id not in moved])
    edges = g_base.edges + h_base.edges
    if edges:
        edges = tuple(
            [
                Edge(moved.get(e.src, e.src), moved.get(e.dst, e.dst), e.label)
                if e.src in moved or e.dst in moved
                else e
                for e in edges
            ]
        )

    sources: dict[str, str] = {a: moved.get(v, v) for a, v in g.sources.items()}
    for a, v in h_prime.sources.items():
        r = moved.get(v, v)
        prev = sources.get(a)
        if prev is not None and prev != r:
            # Cannot happen: a shared label joins both vertices into one
            # class.  Checked, not assumed.
            raise RuntimeError(f"source {a!r} resolves to two classes after merging")
        sources[a] = r
    return MsGraph(BaseGraph(vertices, edges), sources)


def parallel_compose(g: MsGraph, h: MsGraph) -> MsGraph:
    """Compose two graphs by merging equally-labeled sources.

    The label set of the result is the union of the operands'; each shared
    label drags its two vertices (and transitively everything they are merged
    with) into a single vertex.
    """
    _refuse_unresolved(g, h)
    return compose_disjoint(g, disjoint_copy(h, g))


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
    _refuse_unresolved(g, h)

    shared = g.tau & h.tau
    glue = {h.sources[a]: g.sources[a] for a in shared}
    g_labels = g.base._label_map
    vmap = fresh_ids([v.id for v in h.base.vertices if v.id not in glue], g_labels)

    fused: dict[str, str] = {}  # glued g vertex -> the label it gains
    h_vertices = []  # the copies of h's unglued vertices
    for v in h.base.vertices:
        if v.id not in glue:
            h_vertices.append(Vertex(vmap[v.id], v.label))
        elif v.label is not None:
            target = glue[v.id]
            current = fused.get(target, g_labels[target])
            if current is None:
                fused[target] = v.label
            elif current != v.label:
                raise NodeLabelConflictError(
                    f"glued vertex {target!r} would carry both "
                    f"{current!r} and {v.label!r}"
                )
    vmap.update(glue)
    edges = g.base.edges
    if h.base.edges:
        edges += tuple([Edge(vmap[e.src], vmap[e.dst], e.label) for e in h.base.edges])
    sources = g.sources.copy()
    for a, v in h.sources.items():
        sources.setdefault(a, vmap[v])

    g_vertices = g.base.vertices
    if fused:
        g_vertices = tuple(
            [Vertex(v.id, fused[v.id]) if v.id in fused else v for v in g_vertices]
        )
    return MsGraph(BaseGraph(g_vertices + tuple(h_vertices), edges), sources)
