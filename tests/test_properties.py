"""Property-based checks over randomly generated graphs and terms."""
from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from amalgam import (
    App,
    EnumerationBounds,
    Leaf,
    MsGraph,
    NodeLabelConflictError,
    build_graph,
    compose_disjoint,
    count_graphs,
    disjoint_copy,
    enumerate_graphs,
    find_isomorphism,
    isomorphic,
    parallel_compose,
    parallel_compose_classic,
    parse_graph,
    parse_term,
    format_term,
    serialize_graph,
    validate,
)
from amalgam.compose import equivalence_closure, merge_relation

IDS = tuple(f"p{i}" for i in range(5))
NODE_LABELS = (None, "L1", "L2")
EDGE_LABELS = ("e1", "e2")
SOURCE_POOL = ("a", "b", "c", "rt")


@st.composite
def ms_graphs(draw, max_vertices: int = 4, sgraph: bool = False):
    n = draw(st.integers(0, max_vertices))
    ids = IDS[:n]
    vertices = [(v, draw(st.sampled_from(NODE_LABELS))) for v in ids]
    edges = []
    if n:
        edges = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(EDGE_LABELS)
                ),
                max_size=4,
            )
        )
    sources: dict[str, str] = {}
    if n and sgraph:
        k = draw(st.integers(0, min(len(SOURCE_POOL), n)))
        labels = draw(st.permutations(SOURCE_POOL))[:k]
        targets = draw(st.permutations(ids))[:k]
        sources = dict(zip(labels, targets))
    elif n:
        for label in SOURCE_POOL:
            target = draw(st.sampled_from((None,) + ids))
            if target is not None:
                sources[label] = target
    return build_graph(vertices, edges, sources)


@settings(deadline=None)
@given(ms_graphs())
def test_generated_graphs_are_valid(g):
    assert validate(g) == []


@settings(deadline=None)
@given(ms_graphs())
def test_src_and_slab_are_inverse(g):
    for label in g.tau:
        assert label in g.slab(g.sources[label])
    for v in g.base.vertices:
        for label in g.slab(v.id):
            assert g.sources[label] == v.id


@settings(deadline=None)
@given(ms_graphs())
def test_rename_round_trip(g):
    fwd = {label: label + "@" for label in g.tau}
    back = {b: a for a, b in fwd.items()}
    assert g.rename(fwd).rename(back) == g


@settings(deadline=None)
@given(ms_graphs())
def test_forget_each_label(g):
    for label in g.tau:
        out = g.forget(label)
        assert out.tau == g.tau - {label}
        assert out.base == g.base


def try_compose(g, h):
    # Merging two vertices with different node labels is a defined refusal,
    # not a law violation; laws below quantify over the defined cases.
    try:
        return parallel_compose(g, h)
    except NodeLabelConflictError:
        return None


@settings(deadline=None)
@given(ms_graphs(), ms_graphs())
def test_compose_tau_union(g, h):
    out = try_compose(g, h)
    assume(out is not None)
    assert out.tau == g.tau | h.tau


@settings(deadline=None)
@given(ms_graphs(sgraph=True), ms_graphs(sgraph=True))
def test_compose_preserves_left_sources_literally(g, h):
    # Holds for s-graph operands: no merge chain can fuse two left vertices,
    # so every left vertex represents its own class.
    out = try_compose(g, h)
    assume(out is not None)
    for label in g.tau:
        assert out.sources[label] == g.sources[label]
    left_ids = set(g.base.vertex_ids())
    assert left_ids <= set(out.base.vertex_ids())


@settings(deadline=None)
@given(ms_graphs(), ms_graphs())
def test_compose_roots_of_merge_classes_survive(g, h):
    # The general ms-graph guarantee: each result source is the chosen
    # representative of the class its left (or fresh right) vertex joined.
    h_prime = disjoint_copy(h, g)
    try:
        out = compose_disjoint(g, h_prime)
    except NodeLabelConflictError:
        assume(False)
    universe = g.base.vertex_ids() + h_prime.base.vertex_ids()
    classes = equivalence_closure(
        merge_relation(g, h_prime), universe, preferred=g.base.vertex_ids()
    )
    rep = {m: chosen for chosen, members in classes for m in members}
    for operand in (g, h_prime):
        for label, v in operand.sources.items():
            assert out.sources[label] == rep[v]


@settings(deadline=None)
@given(ms_graphs(), ms_graphs())
def test_compose_result_is_valid(g, h):
    out = try_compose(g, h)
    assume(out is not None)
    assert validate(out) == []


@settings(deadline=None)
@given(ms_graphs(), ms_graphs())
def test_compose_entry_points_agree(g, h):
    # Both entry points define exactly the same pairs and agree on them.
    out = try_compose(g, h)
    prepared = disjoint_copy(h, g)
    try:
        fused = compose_disjoint(g, prepared)
    except NodeLabelConflictError:
        fused = None
    assert fused == out


@settings(deadline=None)
@given(ms_graphs(), ms_graphs())
def test_compose_is_commutative_up_to_iso(g, h):
    # Conflicts are symmetric because both orders build the same classes.
    left = try_compose(g, h)
    right = try_compose(h, g)
    if left is None or right is None:
        assert left is None and right is None
    else:
        assert isomorphic(left, right)


@settings(deadline=None)
@given(ms_graphs())
def test_compose_with_empty_is_identity(g):
    assert parallel_compose(g, MsGraph()) == g
    assert isomorphic(parallel_compose(MsGraph(), g), g)


@settings(deadline=None)
@given(ms_graphs(sgraph=True), ms_graphs(sgraph=True))
def test_classic_matches_merge_based_on_sgraphs(g, h):
    # Both constructions define the same pairs; on those they coincide
    # exactly because unprimed ids survive and fresh primes line up.
    merged = try_compose(g, h)
    try:
        glued = parallel_compose_classic(g, h)
    except NodeLabelConflictError:
        glued = None
    assert merged == glued


@settings(deadline=None)
@given(ms_graphs())
def test_iso_reflexive_and_stable_under_copy(g):
    assert isomorphic(g, g)
    copy = disjoint_copy(g, g)
    assert isomorphic(g, copy)
    mapping = find_isomorphism(g, copy)
    assert mapping is not None and len(mapping) == len(g.base.vertices)


@settings(deadline=None)
@given(ms_graphs(), ms_graphs())
def test_iso_is_symmetric(g, h):
    assert isomorphic(g, h) == isomorphic(h, g)


@settings(deadline=None)
@given(ms_graphs())
def test_graph_serialization_round_trip(g):
    text = serialize_graph(g)
    again = parse_graph(text)
    assert again == g
    assert serialize_graph(again) == text


TERMS = st.recursive(
    st.sampled_from(["wash", "raven", "app_x", "a_1"]).map(Leaf),
    lambda kids: st.builds(App, st.sampled_from(["s", "o", "x1"]), kids, kids),
    max_leaves=8,
)


@given(TERMS)
def test_term_format_parse_round_trip(term):
    assert parse_term(format_term(term)) == term


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(0, 2),
    k=st.integers(0, 2),
    labeled=st.booleans(),
    m=st.integers(0, 3),
    sgraphs=st.booleans(),
    loops=st.booleans(),
)
def test_enumeration_matches_closed_form(n, k, labeled, m, sgraphs, loops):
    bounds = EnumerationBounds(
        max_vertices=n,
        source_labels=("a", "b")[:k],
        node_labels=("L",) if labeled else (),
        edge_labels=("e",),
        max_edges=m,
        sgraphs_only=sgraphs,
        allow_loops=loops,
    )
    graphs = list(enumerate_graphs(bounds))
    assert len(graphs) == count_graphs(bounds)
    assert len({serialize_graph(g) for g in graphs}) == len(graphs)
    for g in graphs:
        assert validate(g) == []
        assert len(g.base.vertices) <= n
        assert len(g.base.edges) <= m
        if sgraphs:
            assert g.is_sgraph()
        if not loops:
            assert all(e.src != e.dst for e in g.base.edges)
