"""Parallel composition: merge machinery, the main operation, and the glue oracle."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from amalgam import (
    BaseGraph,
    Edge,
    EnumerationBounds,
    GraphError,
    MsGraph,
    NodeLabelConflictError,
    SGraphRequiredError,
    UnknownVertexError,
    Vertex,
    VertexOverlapError,
    build_graph,
    compose_disjoint,
    disjoint_copy,
    enumerate_graphs,
    isomorphic,
    parallel_compose,
    parallel_compose_classic,
    validate,
)
from amalgam.compose import equivalence_closure, fresh_ids, merge_relation, quotient
from conftest import LABELLED


@pytest.fixture
def spread() -> MsGraph:
    # Labels A and B on two different vertices.
    return build_graph(["p", "q"], [], {"A": "p", "B": "q"})


@pytest.fixture
def stacked() -> MsGraph:
    # Labels A and B stacked on a single vertex.
    return build_graph(["u"], [], {"A": "u", "B": "u"})


# --------------------------------------------------------------------------
# building blocks

def test_fresh_ids_always_tick():
    out = fresh_ids(["a", "b"], avoid=[])
    assert out == {"a": "a'", "b": "b'"}


def test_fresh_ids_escalate_past_collisions():
    out = fresh_ids(["v"], avoid=["v'", "v''"])
    assert out == {"v": "v'''"}


def test_fresh_ids_avoid_each_other():
    # "a" claims "a'" first, so the copy of "a'" must skip past it.
    assert fresh_ids(["a", "a'"], avoid=[]) == {"a": "a'", "a'": "a''"}


def test_disjoint_copy(spread):
    copy = disjoint_copy(spread, spread)
    assert copy.base.vertex_ids() == ("p'", "q'")
    assert copy.sources == {"A": "p'", "B": "q'"}
    assert isomorphic(copy, spread)


def test_disjoint_copy_accepts_bare_id_collections(spread):
    copy = disjoint_copy(spread, {"p", "p'", "q"})
    assert copy.base.vertex_ids() == ("p''", "q'")


def test_merge_relation_sorted_by_label(spread, stacked):
    prime = disjoint_copy(stacked, spread)
    assert merge_relation(spread, prime) == (("p", "u'"), ("q", "u'"))


def test_merge_relation_requires_disjoint_ids(spread):
    with pytest.raises(VertexOverlapError):
        merge_relation(spread, spread)


def test_equivalence_closure_transitivity():
    classes = equivalence_closure([("a", "b"), ("b", "c")], "abcd", preferred=())
    assert classes == (("a", ("a", "b", "c")), ("d", ("d",)))


def test_equivalence_closure_prefers_given_ids():
    classes = equivalence_closure([("x", "a")], ["x", "a", "b"], preferred=["a", "b"])
    assert classes == (("a", ("x", "a")), ("b", ("b",)))


def test_equivalence_closure_rejects_foreign_pairs():
    with pytest.raises(VertexOverlapError):
        equivalence_closure([("a", "z")], "ab")


def test_quotient_merges_and_remaps():
    base = BaseGraph(
        (Vertex("a", "L"), Vertex("b"), Vertex("c")),
        (Edge("a", "b", "e"), Edge("c", "a", "f")),
    )
    part = equivalence_closure([("b", "c")], "abc", preferred="a")
    out = quotient(base, part)
    assert out.vertices == (Vertex("a", "L"), Vertex("b"))
    assert out.edges == (Edge("a", "b", "e"), Edge("b", "a", "f"))


def test_quotient_keeps_edge_multiset_size_as_loops():
    base = BaseGraph((Vertex("a"), Vertex("b")), (Edge("a", "b", "e"),))
    part = equivalence_closure([("a", "b")], "ab")
    out = quotient(base, part)
    assert out.edges == (Edge("a", "a", "e"),)  # merged endpoints become a loop


def test_quotient_fuses_node_labels():
    base = BaseGraph((Vertex("a", "L"), Vertex("b")), ())
    part = equivalence_closure([("a", "b")], "ab")
    assert quotient(base, part).vertices == (Vertex("a", "L"),)


def test_quotient_rejects_label_conflicts():
    base = BaseGraph((Vertex("a", "L"), Vertex("b", "M")), ())
    part = equivalence_closure([("a", "b")], "ab")
    with pytest.raises(NodeLabelConflictError):
        quotient(base, part)


def test_quotient_universe_must_match():
    base = BaseGraph((Vertex("a"),), ())
    with pytest.raises(VertexOverlapError):
        quotient(base, equivalence_closure([], "ab"))


def test_quotient_names_a_missing_vertex():
    base = BaseGraph((Vertex("a"),), (Edge("a", "ghost", "e"),))
    with pytest.raises(UnknownVertexError) as err:
        quotient(base, equivalence_closure([], "a"))
    assert str(err.value) == "edge 'a'->'ghost' uses missing vertex 'ghost'"


# --------------------------------------------------------------------------
# parallel composition

def test_compose_collapses_shared_labels(spread, stacked):
    out = parallel_compose(spread, stacked)
    assert len(out.base.vertices) == 1
    assert out.tau == {"A", "B"}
    assert isomorphic(out, stacked)


def test_compose_keeps_left_ids_and_sources(spread, stacked):
    out = parallel_compose(spread, stacked)
    assert out.base.vertex_ids() == ("p",)  # left representative wins
    out2 = parallel_compose(stacked, spread)
    assert out2.base.vertex_ids() == ("u",)
    assert all(out2.sources[a] == stacked.sources[a] for a in stacked.tau)


def test_compose_without_shared_labels_is_disjoint_union(spread):
    other = build_graph(["z"], [], {"C": "z"})
    out = parallel_compose(spread, other)
    assert out.base.vertex_ids() == ("p", "q", "z'")
    assert out.tau == {"A", "B", "C"}


def test_compose_with_empty_is_exact_identity(spread):
    assert parallel_compose(spread, MsGraph()) == spread
    assert isomorphic(parallel_compose(MsGraph(), spread), spread)


def test_compose_concatenates_edge_multisets():
    g = build_graph(["p"], [("p", "p", "e")], {"A": "p"})
    h = build_graph(["x"], [("x", "x", "f")], {"A": "x"})
    out = parallel_compose(g, h)
    assert out.base.edges == (Edge("p", "p", "e"), Edge("p", "p", "f"))


def test_compose_transitive_merge_chain():
    # A and B land on one left vertex; the right operand stacks them apart.
    g = build_graph(["m", "n"], [], {"A": "m", "B": "n"})
    h = build_graph(["u"], [], {"A": "u", "B": "u", "C": "u"})
    out = parallel_compose(g, h)
    assert len(out.base.vertices) == 1
    assert out.tau == {"A", "B", "C"}
    assert out.sources == {"A": "m", "B": "m", "C": "m"}


def test_compose_fuses_node_labels_across_operands():
    g = build_graph([("p", "L")], [], {"A": "p"})
    h = build_graph(["x"], [], {"A": "x"})
    assert parallel_compose(g, h).base.vertices == (Vertex("p", "L"),)
    assert parallel_compose(h, g).base.vertices == (Vertex("x", "L"),)


def test_compose_rejects_node_label_conflicts():
    g = build_graph([("p", "L")], [], {"A": "p"})
    h = build_graph([("x", "M")], [], {"A": "x"})
    with pytest.raises(NodeLabelConflictError):
        parallel_compose(g, h)


def test_compose_disjoint_enforces_disjointness(spread):
    with pytest.raises(VertexOverlapError):
        compose_disjoint(spread, spread)


def test_composition_steps_agree_with_parallel_compose(spread, stacked):
    prime = disjoint_copy(stacked, spread)
    assert prime.base.vertex_ids() == ("u'",)
    assert prime.sources == {"A": "u'", "B": "u'"}
    pairs = merge_relation(spread, prime)
    universe = spread.base.vertex_ids() + prime.base.vertex_ids()
    classes = equivalence_closure(pairs, universe, preferred=spread.base.vertex_ids())
    assert classes == (("p", ("p", "q", "u'")),)
    result = compose_disjoint(spread, prime)
    assert result == parallel_compose(spread, stacked)
    assert result.base.vertex_ids() == ("p",)


# --------------------------------------------------------------------------
# the sparse core against the dense construction

def _dense_partition(g: MsGraph, h_prime: MsGraph) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The merge classes over the whole disjoint union, by a naive fixpoint.

    Classes come in union order of their first member, members in union
    order; the representative is the smallest g member, else the smallest
    member.
    """
    pairs = [(v, h_prime.sources[a]) for a, v in g.sources.items() if a in h_prime.sources]
    order = g.base.vertex_ids() + h_prime.base.vertex_ids()
    joined = {v: {v} for v in order}  # each vertex's class so far
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            if joined[a] is not joined[b]:
                merged = joined[a] | joined[b]
                for m in merged:
                    joined[m] = merged
                changed = True
    g_ids = set(g.base.vertex_ids())
    partition, placed = [], set()
    for v in order:
        if v not in placed:
            members = tuple(m for m in order if m in joined[v])
            placed.update(members)
            partition.append((min([m for m in members if m in g_ids] or members), members))
    return tuple(partition)


def _dense_compose(g: MsGraph, h_prime: MsGraph, partition=None) -> MsGraph:
    """Close over the whole disjoint union, then quotient it.

    The pairs and their closure are built here, so that only ``quotient``
    comes from the core under test.  ``partition`` defaults to
    ``_dense_partition(g, h_prime)``.
    """
    union = BaseGraph(g.base.vertices + h_prime.base.vertices, g.base.edges + h_prime.base.edges)
    if not g.tau & h_prime.tau:
        return MsGraph(union, {**g.sources, **h_prime.sources})
    partition = partition or _dense_partition(g, h_prime)
    rep = {m: chosen for chosen, members in partition for m in members}
    sources = {a: rep[v] for a, v in g.sources.items()}
    sources.update((a, rep[v]) for a, v in h_prime.sources.items())
    return MsGraph(quotient(union, partition), sources)


def _outcome(compose, *operands):
    """Everything observable: vertex, edge and source order, or the error."""
    try:
        out = compose(*operands)
    except GraphError as err:
        return type(err), str(err)
    return out.base.vertices, out.base.edges, list(out.sources.items())


def test_sparse_core_matches_dense_oracle_on_ms_population():
    bounds = EnumerationBounds(
        max_vertices=2, source_labels=("a", "b"), node_labels=("x", "y"), max_edges=1
    )
    graphs = list(enumerate_graphs(bounds))
    copies = [disjoint_copy(h, {"v0", "v1"}) for h in graphs]
    outcomes = {"merged": 0, "conflict": 0}
    for g in graphs:
        for h_prime in copies:
            got = _outcome(compose_disjoint, g, h_prime)
            assert got == _outcome(_dense_compose, g, h_prime)
            if got[0] is NodeLabelConflictError:
                outcomes["conflict"] += 1
            elif len(got[0]) < len(g.base.vertices) + len(h_prime.base.vertices):
                outcomes["merged"] += 1
    assert outcomes["merged"] and outcomes["conflict"]


@st.composite
def graph_inputs(draw):
    ids = draw(st.lists(st.sampled_from(("p", "q", "r", "s")), unique=True, max_size=4))
    vertices = [(v, draw(st.sampled_from((None, "L", "M")))) for v in ids]
    if not ids:
        return build_graph([], [], {})
    edge = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(("e", "f")))
    edges = draw(st.lists(edge, max_size=4))
    sources = draw(st.dictionaries(st.sampled_from(("a", "b", "c", "rt")), st.sampled_from(ids)))
    return build_graph(vertices, edges, sources)


@settings(deadline=None, max_examples=200)
@given(graph_inputs(), graph_inputs())
def test_sparse_core_matches_dense_oracle(g, h):
    h_prime = disjoint_copy(h, g)
    assert _outcome(compose_disjoint, g, h_prime) == _outcome(_dense_compose, g, h_prime)


def _labelled_pairs() -> list[tuple[MsGraph, MsGraph]]:
    """Every ordered pair of ``LABELLED``, the right one a disjoint copy: 71,824 pairs."""
    graphs = list(enumerate_graphs(LABELLED))
    copies = [disjoint_copy(h, {"v0", "v1"}) for h in graphs]
    return [(g, h_prime) for g in graphs for h_prime in copies]


def test_merge_core_matches_dense_oracle_on_labelled_population():
    kinds = {"class of three or more": 0, "conflict": 0, "two conflicting classes": 0}
    for g, h_prime in _labelled_pairs():
        partition = _dense_partition(g, h_prime)
        got = _outcome(compose_disjoint, g, h_prime)
        assert got == _outcome(_dense_compose, g, h_prime, partition)
        labels = {v.id: v.label for v in g.base.vertices + h_prime.base.vertices}
        conflicts = sum(len({labels[m] for m in ms} - {None}) > 1 for _, ms in partition)
        assert (got[0] is NodeLabelConflictError) == (conflicts > 0)
        kinds["class of three or more"] += any(len(ms) >= 3 for _, ms in partition)
        kinds["conflict"] += conflicts > 0
        kinds["two conflicting classes"] += conflicts > 1
    assert all(kinds.values()), kinds


def test_compose_names_the_conflict_first_in_vertex_order():
    # Label a meets q's class first, but p comes first in vertex order.  p's
    # class joins r through b and p through c; its members are named in
    # vertex order, g's before h_prime's.
    g = build_graph([("p", "L"), ("q", "L"), "r"], [], {"a": "q", "b": "r", "c": "p"})
    h_prime = build_graph([("x", "M"), ("y", "M")], [], {"a": "x", "b": "y", "c": "y"})
    for compose in (compose_disjoint, _dense_compose):
        with pytest.raises(NodeLabelConflictError) as err:
            compose(g, h_prime)
        assert str(err.value) == "vertices ['p', 'r', 'y'] carry conflicting labels ['L', 'M']"


def test_compose_chain_through_one_vertex_keeps_the_smallest_g_member():
    # u carries A and B, so n and m merge through it.  m is the smaller id and
    # stays, though n comes first; n's edges and source move onto m.
    edges = [("n", "k", "e"), ("k", "n", "f")]
    g = build_graph(["n", "m", "k"], edges, {"A": "n", "B": "m", "C": "k"})
    h_prime = build_graph(["u"], [("u", "u", "g")], {"A": "u", "B": "u"})
    out = compose_disjoint(g, h_prime)
    assert out.base.vertices == (Vertex("m"), Vertex("k"))
    assert out.base.edges == (Edge("m", "k", "e"), Edge("k", "m", "f"), Edge("m", "m", "g"))
    assert list(out.sources.items()) == [("A", "m"), ("B", "m"), ("C", "k")]
    assert _outcome(compose_disjoint, g, h_prime) == _outcome(_dense_compose, g, h_prime)


def test_merge_core_calls_no_dense_reference(monkeypatch):
    # The dense construction is the oracle, so the core must share none of it.
    def refuse(*args, **kwargs):
        raise AssertionError("the merge core called a reference construction")

    for name in ("merge_relation", "equivalence_closure", "quotient", "parallel_compose_classic"):
        monkeypatch.setattr(f"amalgam.compose.{name}", refuse)
    for g, h_prime in _labelled_pairs():
        _outcome(compose_disjoint, g, h_prime)
        _outcome(parallel_compose, g, h_prime)


def test_compose_disjoint_refuses_a_dangling_edge_endpoint():
    # An edge to a vertex that does not exist is refused, with or without a
    # shared label, in the words parallel_compose uses for both operands.
    g = build_graph(["p"], [("p", "ghost", "e")], {"A": "p"})
    shared = build_graph(["x"], [("x", "ghost", "f")], {"A": "x"})
    apart = build_graph(["x"], [("x", "ghost", "f")], {"B": "x"})
    for right in (shared, apart):
        with pytest.raises(UnknownVertexError) as want:
            parallel_compose(g, right)
        with pytest.raises(UnknownVertexError) as got:
            compose_disjoint(g, right)
        assert str(got.value) == str(want.value) == (
            "edge 'p'->'ghost' uses missing vertex 'ghost'; "
            "edge 'x'->'ghost' uses missing vertex 'ghost'"
        )


def test_compose_disjoint_names_a_missing_shared_vertex():
    # A shared source that names no vertex is refused in the words
    # parallel_compose uses, whichever operand holds it.
    g = MsGraph(BaseGraph((Vertex("p"),), ()), {"a": "ghost", "rt": "p"})
    h = build_graph(["x"], [], {"a": "x"})
    for left, right in ((g, h), (h, g)):
        with pytest.raises(UnknownVertexError) as want:
            parallel_compose(left, right)
        with pytest.raises(UnknownVertexError) as got:
            compose_disjoint(left, right)
        assert str(got.value) == str(want.value) == "source 'a' names missing vertex 'ghost'"


def test_compose_disjoint_checks_each_shared_source_in_its_own_operand():
    # g's source 'a' names 'x', a vertex of h but not of g: it is missing all
    # the same, in either operand order.
    g = MsGraph(BaseGraph((Vertex("p"),), ()), {"a": "x", "rt": "p"})
    h = build_graph(["x"], [], {"a": "x"})
    for left, right in ((g, h), (h, g)):
        with pytest.raises(UnknownVertexError) as want:
            parallel_compose(left, right)
        with pytest.raises(UnknownVertexError) as got:
            compose_disjoint(left, right)
        assert str(got.value) == str(want.value) == "source 'a' names missing vertex 'x'"


def test_parallel_compose_names_a_missing_vertex():
    # Whichever operand has an edge endpoint or a source that names no
    # vertex, composing raises with the details validate gives.
    g = build_graph(["p"], [], {"A": "p"})
    dangling = build_graph(["x"], [("x", "ghost", "e")], {"A": "x", "B": "nowhere"})
    for left, right in ((g, dangling), (dangling, g)):
        with pytest.raises(UnknownVertexError) as err:
            parallel_compose(left, right)
        assert str(err.value) == (
            "edge 'x'->'ghost' uses missing vertex 'ghost'; "
            "source 'B' names missing vertex 'nowhere'"
        )
    # A dangling source under a shared label is the same error, not a
    # complaint about the merge relation.
    shared = build_graph(["p"], [], {"A": "nowhere"})
    labelled = build_graph([("x", "L")], [], {"A": "x"})
    for left, right in ((shared, labelled), (labelled, shared)):
        with pytest.raises(UnknownVertexError, match="source 'A' names missing vertex 'nowhere'"):
            parallel_compose(left, right)


def test_every_composition_refuses_a_repeated_vertex_id():
    # Two vertices share the id "p", so the source "a" names two vertices.
    # Every entry point refuses it, in either operand order, in validate's
    # words; unrefused, the result depended on the order.
    g = MsGraph(BaseGraph((Vertex("p", "L"), Vertex("p", "M"))), {"a": "p"})
    h = build_graph(["x"], [], {"a": "x"})
    calls = [
        (compose, left, right)
        for compose in (parallel_compose, parallel_compose_classic, compose_disjoint)
        for left, right in ((g, h), (h, g))
    ]
    for compose, left, right in calls + [(disjoint_copy, g, h)]:
        with pytest.raises(UnknownVertexError) as err:
            compose(left, right)
        assert str(err.value) == "vertex id 'p' appears twice", compose.__name__


# Operands for the operand rule, all s-graphs so that the glue-based
# composition reaches its check too.  Some share the id "p".
_CLEAN_OPERANDS = (
    build_graph(["p"], [], {"A": "p"}),
    build_graph([("x", "L"), "y"], [("x", "y", "e")], {"A": "x", "B": "y"}),
)
_DANGLING_OPERANDS = (
    build_graph(["p"], [("p", "ghost", "e")], {"A": "p"}),
    build_graph(["q"], [("ghost", "q", "f")], {"C": "q"}),
    build_graph(["u"], [], {"A": "nowhere", "rt": "u"}),
    build_graph(["w"], [], {"C": "nowhere"}),
    MsGraph(BaseGraph((Vertex("p"),), ()), {"A": "x", "rt": "p"}),
)


def _missing(g: MsGraph) -> list[str]:
    return [v.detail for v in validate(g) if v.invariant.startswith("dangling")]


def _id_faults(g: MsGraph) -> list[str]:
    """validate's details for each id that names no vertex or more than one."""
    return [v.detail for v in validate(g) if v.invariant.startswith(("dangling", "duplicate"))]


def test_every_composition_refuses_a_dangling_operand():
    # Whichever operand dangles, and whatever the other shares with it, every
    # entry point raises UnknownVertexError listing the left operand's faults
    # and then the right's; given the same operands, the same message.
    # disjoint_copy checks only the graph it copies.
    operands = _CLEAN_OPERANDS + _DANGLING_OPERANDS
    pairs = 0
    for left in operands:
        for right in operands:
            expected = "; ".join(_missing(left) + _missing(right))
            if not expected:
                continue
            pairs += 1
            for compose in (parallel_compose, parallel_compose_classic, compose_disjoint):
                with pytest.raises(UnknownVertexError) as err:
                    compose(left, right)
                assert str(err.value) == expected, (compose.__name__, left, right)
            if _missing(right):
                with pytest.raises(UnknownVertexError) as err:
                    disjoint_copy(right, left)
                assert str(err.value) == "; ".join(_missing(right))
    assert pairs == len(operands) ** 2 - len(_CLEAN_OPERANDS) ** 2


@st.composite
def rough_graphs(draw):
    """Small graphs whose ids may repeat and whose edges and sources may dangle."""
    ids = draw(st.lists(st.sampled_from(("p", "q", "x")), max_size=4))
    ends = st.sampled_from(ids + ["ghost"])
    vertices = tuple(Vertex(v, draw(st.sampled_from((None, "L", "M")))) for v in ids)
    edges = draw(st.lists(st.builds(Edge, ends, ends, st.sampled_from(("e", "f"))), max_size=3))
    sources = draw(st.dictionaries(st.sampled_from(("a", "b", "rt")), ends, max_size=3))
    return MsGraph(BaseGraph(vertices, tuple(edges)), sources)


def _refuses_an_id(compose, g: MsGraph, h: MsGraph) -> bool:
    """True when ``compose(g, h)`` raises UnknownVertexError, False when it
    returns or raises another GraphError."""
    try:
        compose(g, h)
    except UnknownVertexError:
        return True
    except GraphError:
        pass
    return False


@settings(deadline=None, max_examples=300)
@given(rough_graphs(), rough_graphs())
def test_rough_operands_give_a_result_or_a_graph_error(g, h):
    # Every entry point refuses an unresolved id in one operand order exactly
    # when it does in the other, and (past the glue oracle's s-graph check)
    # exactly when validate finds an id fault in either operand.
    faulty = bool(_id_faults(g) or _id_faults(h))
    for compose in (parallel_compose, parallel_compose_classic, compose_disjoint):
        refused = _refuses_an_id(compose, g, h)
        assert refused == _refuses_an_id(compose, h, g), compose.__name__
        if compose is not parallel_compose_classic or g.is_sgraph() and h.is_sgraph():
            assert refused == faulty, compose.__name__
    calls = (
        lambda: parallel_compose(g, h),
        lambda: parallel_compose_classic(g, h),
        lambda: compose_disjoint(g, h),
        lambda: compose_disjoint(g, disjoint_copy(h, g)),
        lambda: disjoint_copy(h, g),
        lambda: isomorphic(g, h),
        lambda: quotient(g.base, equivalence_closure([], g.base.vertex_ids())),
    )
    for call in calls:
        try:
            call()
        except GraphError:
            pass


# --------------------------------------------------------------------------
# glue-based reference

def test_classic_names_a_missing_vertex():
    g = build_graph(["p"], [], {"A": "p"})
    dangling_edge = build_graph(["x"], [("x", "ghost", "e")], {"A": "x"})
    with pytest.raises(UnknownVertexError, match="edge 'x'->'ghost' uses missing vertex 'ghost'"):
        parallel_compose_classic(g, dangling_edge)
    shared = build_graph(["p"], [], {"A": "nowhere"})
    labelled = build_graph([("x", "L")], [], {"A": "x"})
    with pytest.raises(UnknownVertexError, match="source 'A' names missing vertex 'nowhere'"):
        parallel_compose_classic(shared, labelled)
    # A dangling edge of the left operand, and a dangling right source under
    # a shared label, are refused too, though no lookup touches them.
    left_edge = build_graph(["p"], [("p", "ghost", "e")], {"A": "p"})
    with pytest.raises(UnknownVertexError) as err:
        parallel_compose_classic(left_edge, build_graph(["x"], [], {"A": "x"}))
    assert str(err.value) == "edge 'p'->'ghost' uses missing vertex 'ghost'"
    with pytest.raises(UnknownVertexError) as err:
        parallel_compose_classic(g, build_graph(["x"], [], {"A": "ghost"}))
    assert str(err.value) == "source 'A' names missing vertex 'ghost'"


def test_classic_agrees_on_sgraphs():
    g = build_graph([("p", "L"), "q"], [("p", "q", "e")], {"A": "p", "B": "q"})
    h = build_graph(["x", "y"], [("y", "x", "f")], {"B": "x", "C": "y"})
    merged, glued = parallel_compose(g, h), parallel_compose_classic(g, h)
    assert merged == glued  # construction matches exactly here, not just up to iso
    assert isomorphic(merged, glued)


def test_classic_keeps_left_sources():
    g = build_graph(["p"], [], {"A": "p"})
    h = build_graph(["x", "y"], [], {"A": "x", "C": "y"})
    out = parallel_compose_classic(g, h)
    assert out.sources["A"] == "p"
    assert out.sources["C"] == "y'"


def test_classic_fuses_glued_node_labels():
    g = build_graph(["p"], [], {"A": "p"})
    h = build_graph([("x", "L")], [], {"A": "x"})
    assert parallel_compose_classic(g, h).base.vertices == (Vertex("p", "L"),)


def test_classic_rejects_glued_label_conflicts():
    g = build_graph([("p", "L")], [], {"A": "p"})
    h = build_graph([("x", "M")], [], {"A": "x"})
    with pytest.raises(NodeLabelConflictError):
        parallel_compose_classic(g, h)


def test_classic_refuses_ms_graphs(spread, stacked):
    with pytest.raises(SGraphRequiredError):
        parallel_compose_classic(spread, stacked)
    with pytest.raises(SGraphRequiredError):
        parallel_compose_classic(stacked, spread)
