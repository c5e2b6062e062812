"""Core graph type: construction, sources, rename/forget, validation."""
from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle

import pytest

from amalgam import (
    BaseGraph,
    Edge,
    MissingSourceError,
    MsGraph,
    RenameCollisionError,
    UnknownVertexError,
    Vertex,
    build_graph,
    validate,
)
from amalgam.graphs import _cached


@pytest.fixture
def doubly_sourced() -> MsGraph:
    # One vertex carries two labels; the other carries one.
    return build_graph(
        [("u", "U"), ("v", None)],
        [("u", "v", "e")],
        {"A": "u", "B": "u", "C": "v"},
    )


def test_build_graph_accepts_ids_and_pairs():
    g = build_graph(["a", ("b", "B")], [("a", "b", "e")], {"rt": "a"})
    assert g.base.vertices == (Vertex("a", None), Vertex("b", "B"))
    assert g.base.edges == (Edge("a", "b", "e"),)
    assert g.sources == {"rt": "a"}


def test_base_graph_vertex_accessors():
    base = BaseGraph((Vertex("a"), Vertex("b", "B")), (Edge("a", "b", "e"),))
    assert base.vertices == (Vertex("a"), Vertex("b", "B"))
    assert base.edges == (Edge("a", "b", "e"),)
    assert base.vertex_ids() == ("a", "b")
    assert base.has_vertex("a") and not base.has_vertex("c")
    assert base.label_of("b") == "B"


def test_vertex_ids_name_each_id_once():
    # A repeated id (which validate refuses) is listed once, at its first place.
    base = BaseGraph((Vertex("b"), Vertex("a"), Vertex("b", "B")))
    assert base.vertex_ids() == ("b", "a")


def test_label_of_unknown_vertex_raises():
    with pytest.raises(UnknownVertexError):
        BaseGraph((Vertex("a"),)).label_of("zzz")


def test_graphs_are_immutable_values():
    g = build_graph(["a"], [], {"rt": "a"})
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.sources = {}
    assert g == build_graph(["a"], [], {"rt": "a"})


def test_sources_are_copied_defensively():
    mapping = {"rt": "a"}
    g = MsGraph(BaseGraph((Vertex("a"),)), mapping)
    mapping["rt"] = "b"
    assert g.sources == {"rt": "a"}


def test_sources_are_read_only():
    # tau, validate's verdict and the other per-graph values are kept after a
    # first read; a writable sources mapping would let them go stale.
    g = build_graph(["x"], [], {"a": "x"})
    assert validate(g) == []
    with pytest.raises(TypeError):
        g.sources["b"] = "ghost"
    assert validate(g) == []
    assert g.tau == {"a"}
    assert pickle.loads(pickle.dumps(g)) == g
    assert copy.deepcopy(g) == g


def test_tau_src_slab(doubly_sourced):
    g = doubly_sourced
    assert g.tau == {"A", "B", "C"}
    assert g.sources == {"A": "u", "B": "u", "C": "v"}
    assert g.slab("u") == {"A", "B"}
    assert g.slab("v") == {"C"}
    with pytest.raises(UnknownVertexError):
        g.slab("w")


def test_slab_of_unlabeled_vertex_is_empty():
    g = build_graph(["a", "b"], [], {"rt": "a"})
    assert g.slab("b") == frozenset()


def test_cached_attribute_computes_once_on_a_frozen_dataclass():
    calls = []

    @dataclasses.dataclass(frozen=True)
    class Box:
        value: int

        @_cached
        def doubled(self) -> int:
            calls.append(self.value)
            return 2 * self.value

    box = Box(3)
    assert box.doubled == 6
    assert box.doubled == 6
    assert calls == [3]
    assert vars(box)["doubled"] == 6  # later reads skip the descriptor
    assert box == Box(3)  # the cached value is not part of the value


def test_is_sgraph(doubly_sourced):
    assert not doubly_sourced.is_sgraph()
    assert build_graph(["a", "b"], [], {"A": "a", "B": "b"}).is_sgraph()
    assert build_graph([], [], {}).is_sgraph()


def test_rename_moves_labels(doubly_sourced):
    g = doubly_sourced.rename({"A": "X"})
    assert g.sources == {"X": "u", "B": "u", "C": "v"}
    # the base graph is untouched and shared
    assert g.base is doubly_sourced.base


def test_rename_ignores_irrelevant_domain(doubly_sourced):
    assert doubly_sourced.rename({"nope": "A2"}) == doubly_sourced


def test_rename_swaps_labels_simultaneously(doubly_sourced):
    g = doubly_sourced.rename({"A": "B", "B": "A"})
    assert g.sources == {"B": "u", "A": "u", "C": "v"}


def test_rename_rejects_non_injective_map(doubly_sourced):
    with pytest.raises(RenameCollisionError):
        doubly_sourced.rename({"A": "X", "B": "X"})


def test_rename_rejects_collision_with_untouched_label(doubly_sourced):
    with pytest.raises(RenameCollisionError):
        doubly_sourced.rename({"A": "C"})


def test_forget(doubly_sourced):
    g = doubly_sourced.forget("A")
    assert g.tau == {"B", "C"}
    assert g.base == doubly_sourced.base
    with pytest.raises(MissingSourceError):
        g.forget("A")


def test_rlab():
    g = build_graph(["x"], [], {"rt": "x", "s": "x"})
    assert g.rlab() == {"s"}
    assert build_graph(["x"], [], {"rt": "x"}).rlab() == frozenset()
    with pytest.raises(MissingSourceError):
        build_graph(["x"], [], {"s": "x"}).rlab()


def test_validate_reports_each_violation_class():
    g = MsGraph(
        BaseGraph(
            (Vertex("a"), Vertex("a"), Vertex("b", "")),
            (Edge("a", "zz", "e"), Edge("a", "b", "")),
        ),
        {"A": "missing", "": "a"},
    )
    problems = {p.invariant for p in validate(g)}
    assert problems == {
        "duplicate vertex id",
        "empty node label",
        "dangling edge endpoint",
        "empty edge label",
        "dangling source",
        "empty source label",
    }
    # The verdict is kept on the graph, and each call hands out a new list.
    validate(g).clear()
    assert len(validate(g)) == 6


def test_validate_accepts_well_formed(doubly_sourced):
    assert validate(doubly_sourced) == []
    assert validate(MsGraph()) == []


def test_id_verdict_lists_validates_id_faults_in_order():
    # Every graph of a small rough population: ids p and q, repeats allowed,
    # up to 3 vertices; at most 2 edges and 2 sources, whose ends may name
    # the missing "ghost".  The empty source label adds a fault that is not
    # about ids.  The cached verdict (fast path first) must equal
    # validate's id faults, in validate's order.
    id_faults = {"duplicate vertex id", "dangling edge endpoint", "dangling source"}
    ends = ("p", "q", "ghost")
    arcs = [Edge(a, b, "e") for a in ends for b in ends]
    id_lists = [ids for n in range(4) for ids in itertools.product(("p", "q"), repeat=n)]
    edge_sets = [es for m in range(3) for es in itertools.combinations_with_replacement(arcs, m)]
    source_maps = [
        {a: v for a, v in zip(("a", ""), slots) if v is not None}
        for slots in itertools.product((None,) + ends, repeat=2)
    ]
    faulty = 0
    for ids, edges, sources in itertools.product(id_lists, edge_sets, source_maps):
        g = MsGraph(BaseGraph(tuple(Vertex(v) for v in ids), edges), sources)
        verdict = g._unresolved
        assert list(verdict) == [p.detail for p in validate(g) if p.invariant in id_faults], g
        faulty += bool(verdict)
    assert (len(id_lists), len(edge_sets), len(source_maps)) == (15, 55, 16)
    assert 0 < faulty < 15 * 55 * 16
