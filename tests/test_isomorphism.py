"""Isomorphism search: forced mappings, backtracking, and limits."""
from __future__ import annotations

import itertools
from collections import Counter

import pytest

from amalgam import (
    BaseGraph,
    CapacityError,
    Edge,
    EnumerationBounds,
    MsGraph,
    Vertex,
    build_graph,
    enumerate_graphs,
    find_isomorphism,
    isomorphic,
)
from amalgam.graphs import _is_isomorphism


def relabel(g: MsGraph, mapping: dict[str, str]) -> MsGraph:
    return build_graph(
        [(mapping[v.id], v.label) for v in g.base.vertices],
        [(mapping[e.src], mapping[e.dst], e.label) for e in g.base.edges],
        {a: mapping[v] for a, v in g.sources.items()},
    )


@pytest.fixture
def sentence() -> MsGraph:
    return build_graph(
        [("w", "wash"), ("r", "raven")],
        [("w", "r", "ARG0"), ("w", "r", "ARG1")],
        {"rt": "w"},
    )


def test_identical_graphs_map_identically(sentence):
    assert find_isomorphism(sentence, sentence) == {"w": "w", "r": "r"}


def test_relabeled_copy_is_isomorphic(sentence):
    other = relabel(sentence, {"w": "n1", "r": "n2"})
    mapping = find_isomorphism(sentence, other)
    assert mapping == {"w": "n1", "r": "n2"}


def test_vertex_order_does_not_matter(sentence):
    shuffled = build_graph(
        [("r", "raven"), ("w", "wash")],
        [("w", "r", "ARG1"), ("w", "r", "ARG0")],
        {"rt": "w"},
    )
    assert isomorphic(sentence, shuffled)


def test_source_labels_force_the_mapping():
    g = build_graph(["p", "q"], [("p", "q", "e")], {"A": "p", "B": "q"})
    h = build_graph(["x", "y"], [("x", "y", "e")], {"A": "x", "B": "y"})
    assert find_isomorphism(g, h) == {"p": "x", "q": "y"}
    # Same shape but the edge runs against the forced mapping.
    h_flipped = build_graph(["x", "y"], [("y", "x", "e")], {"A": "x", "B": "y"})
    assert not isomorphic(g, h_flipped)


def test_multi_label_vertices_must_match():
    stacked = build_graph(["u"], [], {"A": "u", "B": "u"})
    assert isomorphic(stacked, build_graph(["z"], [], {"A": "z", "B": "z"}))
    spread = build_graph(["u", "v"], [], {"A": "u", "B": "v"})
    assert not isomorphic(stacked, spread)  # vertex counts differ
    # Equal counts, same tau, but the labels sit on different vertices.
    g = build_graph(["u", "v"], [], {"A": "u", "B": "u"})
    h = build_graph(["u", "v"], [], {"A": "u", "B": "v"})
    assert not isomorphic(g, h)


def test_sources_naming_no_vertex_are_not_isomorphic():
    # A source must map onto the other graph's source of the same label, and
    # a source that names no vertex cannot: the signatures alone would pair
    # the two unsourced vertices.  Edges to missing vertices likewise.
    g = build_graph(["x"], [], {"a": "ghost"})
    h = build_graph(["y"], [], {"a": "ghost2"})
    assert find_isomorphism(g, h) is None
    assert find_isomorphism(h, g) is None
    assert find_isomorphism(g, build_graph(["y"], [], {"a": "y"})) is None
    ghost = build_graph(["x", "y"], [("x", "ghost", "e")])
    assert find_isomorphism(ghost, build_graph(["x", "y"], [("x", "phantom", "e")])) is None
    # Equal values stay isomorphic, as every value is to itself.
    two = build_graph(["x", "y"], [], {"a": "ghost"})
    assert isomorphic(two, build_graph(["x", "y"], [], {"a": "ghost"}))
    assert not isomorphic(two, build_graph(["y", "x"], [], {"a": "ghost"}))


def test_differing_taus_are_never_isomorphic():
    g = build_graph(["u"], [], {"A": "u"})
    h = build_graph(["u"], [], {"B": "u"})
    assert not isomorphic(g, h)


def test_node_labels_must_match():
    g = build_graph([("u", "L")], [], {"A": "u"})
    h = build_graph([("u", "M")], [], {"A": "u"})
    assert not isomorphic(g, h)


def test_edge_multiplicity_matters(sentence):
    single = build_graph(
        [("w", "wash"), ("r", "raven")], [("w", "r", "ARG0")], {"rt": "w"}
    )
    assert not isomorphic(sentence, single)


def test_unsourced_structure_uses_backtracking():
    triangle = build_graph(
        ["a", "b", "c"], [("a", "b", "e"), ("b", "c", "e"), ("c", "a", "e")], {}
    )
    rotated = build_graph(
        ["x", "y", "z"], [("y", "z", "e"), ("z", "x", "e"), ("x", "y", "e")], {}
    )
    mapping = find_isomorphism(triangle, rotated)
    assert mapping is not None
    for e in triangle.base.edges:
        assert (mapping[e.src], mapping[e.dst]) in {
            (f.src, f.dst) for f in rotated.base.edges
        }
    path = build_graph(["x", "y", "z"], [("x", "y", "e"), ("y", "z", "e")], {})
    assert not isomorphic(triangle, path)


def test_backtracking_refutes_two_triangles_against_a_hexagon():
    # Every vertex of both graphs has one e-arc out and one in, so signatures
    # agree and only the search tells the graphs apart: it must skip used
    # and incompatible candidates and undo partial mappings.
    triangles = build_graph(
        list("abcdef"),
        [("a", "b", "e"), ("b", "c", "e"), ("c", "a", "e"),
         ("d", "e", "e"), ("e", "f", "e"), ("f", "d", "e")],
        {},
    )
    hexagon = build_graph(
        list("uvwxyz"), [(p, q, "e") for p, q in zip("uvwxyz", "vwxyzu")], {}
    )
    assert find_isomorphism(triangles, hexagon) is None
    assert find_isomorphism(hexagon, triangles) is None
    assert not any(
        _is_isomorphism(triangles, hexagon, dict(zip("abcdef", image)))
        for image in itertools.permutations("uvwxyz")
    )


def test_degree_profiles_prune():
    fan_out = build_graph(["a", "b", "c"], [("a", "b", "e"), ("a", "c", "e")], {})
    chain = build_graph(["a", "b", "c"], [("a", "b", "e"), ("b", "c", "e")], {})
    assert not isomorphic(fan_out, chain)


def test_loops_are_preserved():
    loop = build_graph(["a", "b"], [("a", "a", "e")], {})
    arc = build_graph(["a", "b"], [("a", "b", "e")], {})
    assert not isomorphic(loop, arc)
    assert isomorphic(loop, build_graph(["p", "q"], [("q", "q", "e")], {}))


def test_capacity_limit():
    big = MsGraph(BaseGraph(tuple(Vertex(f"v{i}") for i in range(65))), {})
    with pytest.raises(CapacityError):
        isomorphic(big, big)
    # The cap is ISO_VERTEX_LIMIT = 64 vertices on either side.
    at_cap = MsGraph(BaseGraph(tuple(Vertex(f"v{i}") for i in range(64))), {})
    assert isomorphic(at_cap, at_cap)
    with pytest.raises(CapacityError, match="capped at 64 vertices; got 65"):
        isomorphic(at_cap, big)


def test_empty_graphs_are_isomorphic():
    assert find_isomorphism(MsGraph(), MsGraph()) == {}


# --------------------------------------------------------------------------
# the O(n + m) verifier behind the forced path and the commutativity witness

def carries_onto(g: MsGraph, h: MsGraph, bijection: dict[str, str]) -> bool:
    """The definition: renaming g by the bijection gives h, up to order."""
    image = relabel(g, bijection)
    return (
        sorted(image.base.vertices) == sorted(h.base.vertices)
        and Counter(image.base.edges) == Counter(h.base.edges)
        and image.sources == h.sources
    )


@pytest.mark.parametrize(
    "bounds",
    [
        # several labels per vertex, three vertices
        EnumerationBounds(max_vertices=3, source_labels=("a", "rt"), max_edges=1),
        # node labels and loops
        EnumerationBounds(
            max_vertices=2, source_labels=("a",), node_labels=("n",), max_edges=1,
            allow_loops=True,
        ),
        # parallel edges, so an edge multiset can repeat an edge
        EnumerationBounds(max_vertices=2, source_labels=("a",), max_edges=2),
    ],
)
def test_verifier_agrees_with_the_definition_on_every_bijection(bounds):
    graphs = list(enumerate_graphs(bounds))
    by_size: dict[int, list[MsGraph]] = {}
    for g in graphs:
        by_size.setdefault(len(g.base.vertices), []).append(g)
    for same_size in by_size.values():
        for g, h in itertools.product(same_size, repeat=2):
            g_ids, h_ids = g.base.vertex_ids(), h.base.vertex_ids()
            found = False
            for image in itertools.permutations(h_ids):
                bijection = dict(zip(g_ids, image))
                verdict = _is_isomorphism(g, h, bijection)
                assert verdict == carries_onto(g, h, bijection), (g, h, bijection)
                found = found or verdict
            assert found == isomorphic(g, h), (g, h)


def test_verifier_rejects_maps_that_are_not_bijections():
    # No labels, sources or edges to tell the vertices apart: only the
    # bijection check can reject these maps.
    g = build_graph(["p", "q"])
    h = build_graph(["x", "y"])
    assert _is_isomorphism(g, h, {"p": "x", "q": "y"})
    assert _is_isomorphism(g, h, {"p": "x", "q": "y", "elsewhere": "x"})
    assert not _is_isomorphism(g, h, {"p": "x", "q": "x"})  # two onto one
    assert not _is_isomorphism(g, h, {"p": "x", "q": "ghost"})  # not an h vertex
    assert not _is_isomorphism(g, h, {"p": "x"})  # q unmapped
    # With edges, a collapsing map could otherwise carry the edge multiset.
    g = build_graph(["p", "q"], [("p", "p", "e")], {})
    h = build_graph(["x", "y"], [("x", "x", "e")], {})
    assert not _is_isomorphism(g, h, {"p": "x", "q": "x"})
    # Sizes and label sets are checked too.
    assert not _is_isomorphism(build_graph(["p"]), build_graph(["x", "y"]), {"p": "x"})
    assert not _is_isomorphism(
        build_graph(["p"], [], {"A": "p"}), build_graph(["x"], [], {"B": "x"}), {"p": "x"}
    )


def test_verifier_counts_edges_as_a_multiset():
    # Same edge set, different multiplicities.
    g = build_graph(["p", "q"], [("p", "q", "e"), ("p", "q", "e"), ("q", "p", "e")])
    h = build_graph(["x", "y"], [("x", "y", "e"), ("y", "x", "e"), ("y", "x", "e")])
    assert not _is_isomorphism(g, h, {"p": "x", "q": "y"})
    assert _is_isomorphism(g, h, {"p": "y", "q": "x"})
    # Two parallel edges of g map onto one edge of h.
    g = build_graph(["p", "q"], [("p", "q", "e"), ("p", "q", "e")])
    h = build_graph(["x", "y"], [("x", "y", "e"), ("y", "x", "e")])
    assert not _is_isomorphism(g, h, {"p": "x", "q": "y"})
    assert not _is_isomorphism(h, g, {"x": "p", "y": "q"})


def test_verifier_on_dangling_edges():
    # An endpoint that is no vertex maps through the mapping like any id;
    # left unmapped, it matches no edge of h.
    dangling = MsGraph(BaseGraph((Vertex("p"),), (Edge("p", "ghost", "e"),)), {})
    also_dangling = MsGraph(BaseGraph((Vertex("x"),), (Edge("x", "ghost", "e"),)), {})
    loop = build_graph(["x"], [("x", "x", "e")])
    assert not _is_isomorphism(dangling, loop, {"p": "x"})
    assert not _is_isomorphism(loop, dangling, {"x": "p"})
    assert not _is_isomorphism(dangling, also_dangling, {"p": "x"})
    assert _is_isomorphism(dangling, also_dangling, {"p": "x", "ghost": "ghost"})
    # Unmapped on g's side, the endpoint becomes None, which an edge of h
    # can hold only when it was built with None.
    held = MsGraph(BaseGraph((Vertex("x"),), (Edge("x", None, "e"),)), {})
    assert _is_isomorphism(dangling, held, {"p": "x"})
    assert not _is_isomorphism(dangling, held, {"p": "x", "ghost": "x"})


def test_repeated_ids_are_isomorphic_only_to_an_equal_graph():
    # A repeated id would let the search map one id twice; like a dangling
    # graph, such a graph is isomorphic only to itself.
    g = MsGraph(BaseGraph((Vertex("r"), Vertex("p"), Vertex("p")), ()))
    h = MsGraph(BaseGraph((Vertex("q"), Vertex("s"), Vertex("s")), ()))
    plain = build_graph(["q", "s", "t"])
    for left, right in ((g, h), (h, g), (g, plain), (plain, g)):
        assert find_isomorphism(left, right) is None
        assert not isomorphic(left, right)
    assert find_isomorphism(g, g) == {"r": "r", "p": "p"}
