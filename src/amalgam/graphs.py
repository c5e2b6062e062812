"""Labeled directed multigraphs with named source vertices.

The core value type is the ms-graph: a finite multigraph together with a
finite set of source labels, each label naming exactly one vertex.  Several
labels may share a vertex.  When the source assignment is injective (at most
one label per vertex) the graph is an s-graph, the classic special case.

Everything here is an immutable value; operations return new graphs.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

ROOT_LABEL = "rt"

# Ceiling on the vertex count of either graph in an isomorphism search.
ISO_VERTEX_LIMIT = 64

# Ceiling on how many graphs enumerate_graphs may produce.
ENUMERATION_BUDGET = 500_000

# Budget refusals print a count in full up to this many digits, Python's
# default limit for converting an int to text.
_COUNT_DIGITS = 4300


class GraphError(Exception):
    """Base class for data-level errors raised by this package."""


class UnknownVertexError(GraphError):
    """An id names no vertex of its graph, or more than one."""


class MissingSourceError(GraphError):
    pass


class RenameCollisionError(GraphError):
    """A source rename would make two labels name the same vertex slot."""


class CapacityError(GraphError):
    """An operation was asked to exceed its configured size budget."""


class _cached:
    """A computed attribute stored in the instance ``__dict__`` on first read.

    ``functools.cached_property`` does the same but takes a lock on every
    first read (Python 3.11), which costs more than the value on the small
    graphs composition builds by the million.  Writing the instance
    ``__dict__`` directly also works on frozen dataclasses.  Two threads
    racing on a first read both compute the (equal) value; one store wins.

    The value classes (``BaseGraph``, ``MsGraph`` and the types of
    ``algebra``) write their fields the same way, from a hand-written
    ``__init__``: the generated one stores each field through
    ``object.__setattr__``, which costs 1.6 to 2.2 times as much, and
    these objects are built on every composition and application.  The
    dataclass ``__eq__``, ``__repr__``, ``__hash__``, frozen ``__setattr__``
    and ``replace`` all still apply.  Each default is stated once, in that
    ``__init__``: the fields declare none.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Vertex(NamedTuple):
    id: str
    label: str | None = None


class Edge(NamedTuple):
    src: str
    dst: str
    label: str


@dataclass(frozen=True, init=False)
class BaseGraph:
    """A finite directed multigraph: ordered vertices, a multiset of edges.

    Vertex order and edge order are part of the value (they make
    serialization deterministic); semantic comparisons go through
    isomorphism instead.  The fields are kept as given, so pass tuples of
    ``Vertex`` and ``Edge``; ``build_graph`` builds them from plain values.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __init__(self, vertices: tuple[Vertex, ...] = (), edges: tuple[Edge, ...] = ()) -> None:
        d = self.__dict__
        d["vertices"] = vertices
        d["edges"] = edges

    @_cached
    def _label_map(self) -> dict[str, str | None]:  # the id index, in vertex order
        return {v.id: v.label for v in self.vertices}

    @_cached
    def _id_set(self) -> frozenset[str]:
        # The index's ids again, because frozenset operations beat key views: the
        # equivalence sweep ran about 8% slower with its readers on _label_map.
        return frozenset(self._label_map)

    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(self._label_map)

    def has_vertex(self, vertex_id: str) -> bool:
        return vertex_id in self._label_map

    def label_of(self, vertex_id: str) -> str | None:
        if vertex_id not in self._label_map:
            raise UnknownVertexError(f"unknown vertex {vertex_id!r}")
        return self._label_map[vertex_id]


_EMPTY_BASE = BaseGraph()
_NO_LABELS: Mapping[str, str] = MappingProxyType({})


@dataclass(frozen=True, init=False)
class MsGraph:
    """A multigraph plus a total map from source labels to vertices.

    ``sources[label] = vertex_id``.  The label set (``tau``) may be empty;
    distinct labels may name the same vertex.  ``sources`` is a read-only
    view of a private copy, so the verdicts computed once per graph hold.
    """

    base: BaseGraph
    sources: Mapping[str, str]

    def __init__(
        self, base: BaseGraph = _EMPTY_BASE, sources: Mapping[str, str] = _NO_LABELS
    ) -> None:
        d = self.__dict__
        d["base"] = base
        d["sources"] = MappingProxyType(dict(sources))

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain copy instead.
        return type(self), (self.base, self.sources.copy())

    @_cached
    def tau(self) -> frozenset[str]:
        """The set of source labels in use."""
        return frozenset(self.sources)

    @_cached
    def _unresolved(self) -> tuple[str, ...]:
        """``validate``'s details for each id that names no vertex or more than one.

        Empty when the vertex ids are distinct and every edge and source names one.
        """
        ids = self.base._id_set
        if len(ids) == len(self.base.vertices) and ids.issuperset(self.sources.values()):
            for src, dst, _ in self.base.edges:  # 0.6 µs cheaper than all() over a generator
                if src not in ids or dst not in ids:
                    break
            else:
                return ()
        faults = ("duplicate vertex id", "dangling")  # edge endpoint or source
        return tuple(p.detail for p in self._violations if p.invariant.startswith(faults))

    @_cached
    def _violations(self) -> tuple[Violation, ...]:
        """``validate``'s verdict, worked out on first read and kept."""
        out: list[Violation] = []
        seen: set[str] = set()
        for v in self.base.vertices:
            if v.id in seen:
                out.append(Violation("duplicate vertex id", f"vertex id {v.id!r} appears twice"))
            seen.add(v.id)
            if v.label == "":
                out.append(Violation("empty node label", f"vertex {v.id!r} has an empty label"))
        for e in self.base.edges:
            for endpoint in (e.src, e.dst):
                if endpoint not in seen:
                    out.append(
                        Violation(
                            "dangling edge endpoint",
                            f"edge {e.src!r}->{e.dst!r} uses missing vertex {endpoint!r}",
                        )
                    )
            if e.label == "":
                out.append(Violation("empty edge label", "edges must carry a label"))
        for label, vertex_id in self.sources.items():
            if label == "":
                out.append(Violation("empty source label", "source labels must be non-empty"))
            if vertex_id not in seen:
                out.append(
                    Violation(
                        "dangling source", f"source {label!r} names missing vertex {vertex_id!r}"
                    )
                )
        return tuple(out)

    @_cached
    def _slab_map(self) -> dict[str, frozenset[str]]:
        acc: dict[str, set[str]] = {}
        for label, vertex_id in self.sources.items():
            acc.setdefault(vertex_id, set()).add(label)
        return {v: frozenset(ls) for v, ls in acc.items()}

    def slab(self, vertex_id: str) -> frozenset[str]:
        """All source labels naming the given vertex."""
        if not self.base.has_vertex(vertex_id):
            raise UnknownVertexError(f"unknown vertex {vertex_id!r}")
        return self._slab_map.get(vertex_id, frozenset())

    def is_sgraph(self) -> bool:
        """True when no vertex carries more than one source label."""
        return len(self._slab_map) == len(self.sources)

    def rename(self, mapping: Mapping[str, str]) -> MsGraph:
        """Simultaneously substitute source labels.

        ``mapping`` must be injective on its domain, and no renamed label may
        land on a label of this graph that is itself left unrenamed; either
        situation raises RenameCollisionError.  Domain labels the graph does
        not use are ignored.  A rename that changes no label returns this graph.
        """
        if len(set(mapping.values())) != len(mapping):
            raise RenameCollisionError("rename map is not injective")
        relevant = {a: b for a, b in mapping.items() if a in self.sources}
        untouched = self.tau - relevant.keys()
        for a, b in relevant.items():
            if b in untouched:
                raise RenameCollisionError(
                    f"renaming {a!r} to {b!r} collides with existing label {b!r}"
                )
        if all(a == b for a, b in relevant.items()):
            return self
        new_sources = {mapping.get(a, a): v for a, v in self.sources.items()}
        return MsGraph(self.base, new_sources)

    def forget(self, label: str) -> MsGraph:
        """Drop one source label; the vertex stays."""
        if label not in self.sources:
            raise MissingSourceError(f"cannot forget absent source {label!r}")
        new_sources = {a: v for a, v in self.sources.items() if a != label}
        return MsGraph(self.base, new_sources)

    def rlab(self) -> frozenset[str]:
        """Source labels sharing the root vertex, other than the root label."""
        if ROOT_LABEL not in self.sources:
            raise MissingSourceError("graph has no root source")
        return self.slab(self.sources[ROOT_LABEL]) - {ROOT_LABEL}


def build_graph(
    vertices: Iterable[str | tuple[str, str | None]],
    edges: Iterable[tuple[str, str, str]] = (),
    sources: Mapping[str, str] | None = None,
) -> MsGraph:
    """Concise constructor: vertices as ids or (id, label) pairs."""
    vs = tuple(
        Vertex(v) if isinstance(v, str) else Vertex(v[0], v[1]) for v in vertices
    )
    es = tuple(Edge(*e) for e in edges)
    return MsGraph(BaseGraph(vs, es), dict(sources or {}))


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    invariant: str
    detail: str


def validate(g: MsGraph) -> list[Violation]:
    """Check structural invariants, one Violation per problem found.

    An empty list means the graph is well formed.  ``invariant`` names the
    broken rule, ``detail`` the problem.  Each call copies a kept verdict.
    """
    return list(g._violations)


# ---------------------------------------------------------------------------
# isomorphism

def _pair_labels(base: BaseGraph) -> dict[tuple[str, str], tuple[str, ...]]:
    acc: dict[tuple[str, str], list[str]] = {}
    for e in base.edges:
        acc.setdefault((e.src, e.dst), []).append(e.label)
    return {k: tuple(sorted(v)) for k, v in acc.items()}


_NO_SOURCES: frozenset[str] = frozenset()


def _signatures(g: MsGraph) -> dict[str, tuple]:
    outs: dict[str, dict[str, int]] = {}
    ins: dict[str, dict[str, int]] = {}
    for e in g.base.edges:
        d = outs.setdefault(e.src, {})
        d[e.label] = d.get(e.label, 0) + 1
        d = ins.setdefault(e.dst, {})
        d[e.label] = d.get(e.label, 0) + 1
    slab = g._slab_map
    sig = {}
    for v in g.base.vertices:
        o = outs.get(v.id)
        i = ins.get(v.id)
        sig[v.id] = (
            v.label,
            slab.get(v.id, _NO_SOURCES),
            tuple(sorted(o.items())) if o else (),
            tuple(sorted(i.items())) if i else (),
        )
    return sig


def _is_isomorphism(g: MsGraph, h: MsGraph, mapping: Mapping[str, str]) -> bool:
    """True when ``mapping`` carries g onto h exactly, in O(n + m).

    Any mapping may be passed; keys that are not g vertices are ignored,
    except that an edge endpoint naming no g vertex maps through them too
    (to None when absent).  It must send every g vertex to a distinct h
    vertex with the same node label, send every source of g to h's source of
    the same label (the label sets must be equal), and carry g's edge
    multiset onto h's.
    """
    g_base, h_base = g.base, h.base
    if len(g_base.vertices) != len(h_base.vertices) or len(g_base.edges) != len(h_base.edges):
        return False
    if g.tau != h.tau:
        return False
    get = mapping.get
    h_labels = h_base._label_map
    images: set[str] = set()
    for v in g_base.vertices:
        y = get(v.id)
        if y not in h_labels or y in images or h_labels[y] != v.label:
            return False
        images.add(y)
    h_sources = h.sources
    for label, x in g.sources.items():
        if get(x) != h_sources[label]:
            return False
    # The edge counts are equal, so g's mapped edges use up h's multiset
    # exactly when each finds an unused copy.  An Edge hashes and compares
    # as its plain tuple.
    unused: dict[tuple, int] = {}
    for e in h_base.edges:
        unused[e] = unused.get(e, 0) + 1
    for src, dst, label in g_base.edges:
        key = (get(src), get(dst), label)
        count = unused.get(key)
        if not count:
            return False
        unused[key] = count - 1
    return True


def find_isomorphism(g: MsGraph, h: MsGraph) -> dict[str, str] | None:
    """A vertex bijection carrying g onto h exactly, or None.

    The bijection must preserve node labels, the edge multiset, and every
    source label.  Backtracking with pruning on (node label, source labels,
    degree profile): a label names one vertex, so each source-named vertex
    has a single candidate and is mapped first.  A graph with an id that
    names no vertex or more than one (a dangling edge or source, a repeated
    vertex id) is isomorphic only to an equal graph.  Graphs above
    ``ISO_VERTEX_LIMIT`` vertices raise CapacityError.
    """
    n_g, n_h = len(g.base.vertices), len(h.base.vertices)
    if n_g > ISO_VERTEX_LIMIT or n_h > ISO_VERTEX_LIMIT:
        raise CapacityError(
            f"isomorphism search capped at {ISO_VERTEX_LIMIT} vertices; got {max(n_g, n_h)}"
        )
    if n_g != n_h or len(g.base.edges) != len(h.base.edges) or g.tau != h.tau:
        return None
    if g == h:
        return {v.id: v.id for v in g.base.vertices}
    if g._unresolved or h._unresolved:
        return None

    sig_g, sig_h = _signatures(g), _signatures(h)
    # All counts are positive, so plain dict equality is multiset equality
    # (``Counter.__eq__`` runs a Python-level loop).
    if not dict.__eq__(Counter(sig_g.values()), Counter(sig_h.values())):
        return None

    buckets: dict[tuple, list[str]] = {}
    for v, s in sig_h.items():
        buckets.setdefault(s, []).append(v)

    pl_g, pl_h = _pair_labels(g.base), _pair_labels(h.base)
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def compatible(x: str, y: str) -> bool:
        if pl_g.get((x, x)) != pl_h.get((y, y)):
            return False
        for a, b in mapping.items():
            if pl_g.get((x, a)) != pl_h.get((y, b)):
                return False
            if pl_g.get((a, x)) != pl_h.get((b, y)):
                return False
        return True

    free = [v.id for v in g.base.vertices]
    # Most constrained first: small candidate pools early.
    free.sort(key=lambda v: (len(buckets.get(sig_g[v], ())), v))

    def extend(i: int) -> bool:
        if i == len(free):
            return True
        x = free[i]
        for y in buckets.get(sig_g[x], ()):
            if y in used or not compatible(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return dict(mapping) if extend(0) else None


def isomorphic(g: MsGraph, h: MsGraph) -> bool:
    return find_isomorphism(g, h) is not None


# ---------------------------------------------------------------------------
# exhaustive enumeration

@dataclass(frozen=True)
class EnumerationBounds:
    """Finite search space for graph enumeration.

    Node labels are optional per vertex (a vertex may stay unlabeled), each
    source label is optionally assigned to a vertex, and edges form a
    multiset of at most ``max_edges`` labeled arcs.  A negative count, or a
    label tuple that repeats a label or holds an empty one, raises
    ValueError: either would break "every graph exactly once".
    """

    max_vertices: int = 3
    source_labels: tuple[str, ...] = ("a", "b", ROOT_LABEL)
    node_labels: tuple[str, ...] = ()
    edge_labels: tuple[str, ...] = ("e",)
    max_edges: int = 2
    sgraphs_only: bool = False
    allow_loops: bool = False

    def __post_init__(self) -> None:
        for name in ("max_vertices", "max_edges"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("source_labels", "node_labels", "edge_labels"):
            labels = getattr(self, name)
            if "" in labels or len(set(labels)) != len(labels):
                raise ValueError(f"{name} must be distinct non-empty labels, got {labels!r}")


def count_graphs(bounds: EnumerationBounds) -> int:
    """Closed-form size of the enumeration space; mirrors enumerate_graphs."""
    return _count_below(bounds, None)


def _count_below(bounds: EnumerationBounds, digits: int | None) -> int | None:
    """``count_graphs(bounds)`` if it has at most ``digits`` digits, else None.

    Stops as soon as a partial sum or a single factor reaches ``10**digits``,
    so a budget check never builds a number much past it.  A ``digits`` of
    None counts exactly.
    """
    limit = None if digits is None else 10**digits - 1
    total = 0
    k = len(bounds.source_labels)
    for n in range(bounds.max_vertices + 1):
        labelings = _power(len(bounds.node_labels) + 1, n, limit)
        if bounds.sgraphs_only:
            # The sum over j of comb(k, j) * perm(n, j), term by term.
            assignments = term = 1
            for j in range(min(k, n)):
                term = term * (k - j) * (n - j) // (j + 1)
                assignments += term
                if limit is not None and assignments > limit:
                    return None
        else:
            assignments = _power(n + 1, k, limit)
        arcs = n * n if bounds.allow_loops else n * (n - 1)
        arcs *= len(bounds.edge_labels)
        # Multisets of 0..max_edges arcs, summed by the hockey-stick identity.
        edge_sets = _comb(arcs + bounds.max_edges, bounds.max_edges, limit)
        if labelings is None or assignments is None or edge_sets is None:
            return None
        total += labelings * assignments * edge_sets
        if limit is not None and total > limit:
            return None
    return total


def _power(base: int, exp: int, limit: int | None) -> int | None:
    """``base ** exp``, or None when it is over ``limit``."""
    if limit is None or base < 2:
        return base**exp
    if (base.bit_length() - 1) * exp > limit.bit_length():
        return None
    power = base**exp  # under 2 ** (2 * limit.bit_length())
    return power if power <= limit else None


def _comb(n: int, k: int, limit: int | None) -> int | None:
    """``math.comb(n, k)``, or None once a partial product is over ``limit``."""
    if limit is None:
        return math.comb(n, k)
    c = 1
    for i in range(min(k, n - k)):
        c = c * (n - i) // (i + 1)  # comb(n, i + 1), rising while i < n / 2
        if c > limit:
            return None
    return c


def enumerate_graphs(bounds: EnumerationBounds) -> Iterator[MsGraph]:
    """Every graph within the bounds, exactly once, in a fixed order.

    Order is lexicographic over (vertex count, node labeling, source
    assignment, edge multiset), so runs are reproducible.  Raises
    CapacityError, before yielding any graph, when ``count_graphs(bounds)``
    is over ``ENUMERATION_BUDGET``; when ``max_vertices + 1`` alone is, before
    counting.  A count past ``_COUNT_DIGITS`` digits is not finished.
    """
    least = bounds.max_vertices + 1  # each vertex count adds at least one graph
    if least > ENUMERATION_BUDGET:
        raise CapacityError(
            f"enumeration space has at least {least} graphs (one per vertex count), "
            f"over the budget of {ENUMERATION_BUDGET}"
        )
    total = _count_below(bounds, _COUNT_DIGITS)
    if total is None or total > ENUMERATION_BUDGET:
        shown = f"at least 10^{_COUNT_DIGITS}" if total is None else total
        raise CapacityError(
            f"enumeration space has {shown} graphs, "
            f"over the budget of {ENUMERATION_BUDGET}"
        )
    label_options: tuple[str | None, ...] = (None,) + tuple(bounds.node_labels)
    for n in range(bounds.max_vertices + 1):
        ids = tuple(f"v{i}" for i in range(n))
        arcs = [
            (u, v, lab)
            for u in range(n)
            for v in range(n)
            if bounds.allow_loops or u != v
            for lab in bounds.edge_labels
        ]
        slot_options: tuple[int | None, ...] = (None,) + tuple(range(n))
        for labeling in itertools.product(label_options, repeat=n):
            vertices = tuple(Vertex(ids[i], labeling[i]) for i in range(n))
            for slots in itertools.product(slot_options, repeat=len(bounds.source_labels)):
                taken = [s for s in slots if s is not None]
                if bounds.sgraphs_only and len(set(taken)) != len(taken):
                    continue
                sources = {
                    lab: ids[s]
                    for lab, s in zip(bounds.source_labels, slots)
                    if s is not None
                }
                for m in range(bounds.max_edges + 1):
                    for combo in itertools.combinations_with_replacement(arcs, m):
                        edges = tuple(Edge(ids[u], ids[v], lab) for u, v, lab in combo)
                        yield MsGraph(BaseGraph(vertices, edges), sources)
