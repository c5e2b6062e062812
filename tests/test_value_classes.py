"""The six value classes built on every hot path keep their dataclass contract.

``BaseGraph``, ``MsGraph``, ``GraphType``, ``Slot``, ``AsGraph`` and
``Undefined`` write their fields from a hand-written ``__init__``.  These
tests pin what callers see: field names and defaults, positional and keyword
construction, equality, ``repr``, ``replace``, pickling, immutability,
hashing, and every constructor error with its precedence.  They also pin the
edits that return their input when nothing changes.
"""
from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from amalgam import (
    AsGraph,
    BaseGraph,
    CapacityError,
    EMPTY_TYPE,
    Edge,
    GraphType,
    MsGraph,
    RenameCollisionError,
    Slot,
    Undefined,
    Vertex,
    build_graph,
)
from amalgam.algebra import type_rekey, type_remove

NESTED = GraphType({"q": Slot()})
GRAPH = build_graph([("r", "n"), "x"], [("r", "x", "e")], {"rt": "r", "s": "x"})
VERTICES = (Vertex("a"), Vertex("b", "n"))
EDGES = (Edge("a", "b", "e"),)

# (class, field names, positional arguments, the value they build by keyword)
CASES = [
    (BaseGraph, ("vertices", "edges"), (VERTICES, EDGES),
     BaseGraph(vertices=VERTICES, edges=EDGES)),
    (MsGraph, ("base", "sources"), (GRAPH.base, {"rt": "r", "s": "x"}),
     MsGraph(base=GRAPH.base, sources={"rt": "r", "s": "x"})),
    (GraphType, ("entries",), ({"s": Slot(NESTED)},), GraphType(entries={"s": Slot(NESTED)})),
    (Slot, ("requested", "rename"), (NESTED, {"a": "b"}),
     Slot(requested=NESTED, rename={"a": "b"})),
    (AsGraph, ("graph", "type"), (GRAPH, GraphType({"s": Slot()})),
     AsGraph(graph=GRAPH, type=GraphType({"s": Slot()}))),
    (Undefined, ("condition", "detail", "strict_clause", "subterm"),
     ("condition 4", "why", True, "app_s(a,b)"),
     Undefined(condition="condition 4", detail="why", strict_clause=True, subterm="app_s(a,b)")),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, args, by_keyword", CASES, ids=IDS)
def test_fields_and_construction(cls, names, args, by_keyword):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert tuple(inspect.signature(cls).parameters) == names
    value = cls(*args)
    assert value == by_keyword
    assert tuple(getattr(value, name) for name in names) == args


def test_defaults():
    assert BaseGraph() == BaseGraph((), ())
    assert MsGraph() == MsGraph(BaseGraph(), {})
    assert MsGraph().sources == {}
    assert GraphType() == GraphType({}) == EMPTY_TYPE
    assert Slot() == Slot(EMPTY_TYPE, {})
    assert Slot().rename == {}
    root_only = build_graph(["r"], [], {"rt": "r"})
    assert AsGraph(root_only) == AsGraph(root_only, EMPTY_TYPE)
    assert Undefined("c", "d") == Undefined("c", "d", False, None)


def test_equality_is_by_field_and_by_class():
    assert Slot(NESTED) != Slot()
    assert GraphType({"s": Slot()}) != GraphType({"o": Slot()})
    assert Undefined("c", "d") != Undefined("c", "d", True)
    assert BaseGraph() != MsGraph()


def test_repr():
    assert repr(BaseGraph(VERTICES[:1], (Edge("a", "a", "e"),))) == (
        "BaseGraph(vertices=(Vertex(id='a', label=None),), "
        "edges=(Edge(src='a', dst='a', label='e'),))"
    )
    assert repr(MsGraph()) == (
        "MsGraph(base=BaseGraph(vertices=(), edges=()), sources=mappingproxy({}))"
    )
    assert repr(Slot(NESTED, {"a": "b"})) == (
        "Slot(requested=GraphType(entries=mappingproxy({'q': Slot(requested=GraphType("
        "entries=mappingproxy({})), rename=mappingproxy({}))})), "
        "rename=mappingproxy({'a': 'b'}))"
    )
    assert repr(AsGraph(build_graph(["r"], [], {"rt": "r"}))) == (
        "AsGraph(graph=MsGraph(base=BaseGraph(vertices=(Vertex(id='r', label=None),), "
        "edges=()), sources=mappingproxy({'rt': 'r'})), "
        "type=GraphType(entries=mappingproxy({})))"
    )
    assert repr(Undefined("condition 1", "no slot")) == (
        "Undefined(condition='condition 1', detail='no slot', strict_clause=False, "
        "subterm=None)"
    )


@pytest.mark.parametrize("cls, names, args, by_keyword", CASES, ids=IDS)
def test_replace_pickle_and_immutability(cls, names, args, by_keyword):
    value = cls(*args)
    assert dataclasses.replace(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert value == by_keyword


def test_replace_runs_the_constructor_checks():
    assert dataclasses.replace(Undefined("c", "d"), subterm="t") == Undefined("c", "d", False, "t")
    assert dataclasses.replace(Slot(), rename={"a": "b"}) == Slot(EMPTY_TYPE, {"a": "b"})
    with pytest.raises(ValueError, match="slot rename map must be injective"):
        dataclasses.replace(Slot(), rename={"a": "x", "b": "x"})
    with pytest.raises(ValueError, match="type domain"):
        dataclasses.replace(AsGraph(GRAPH, GraphType({"s": Slot()})), type=EMPTY_TYPE)


def test_hashing():
    # Mappings do not hash, so neither does a value that holds one.
    for value in (MsGraph(), GraphType(), Slot(), AsGraph(build_graph(["r"], [], {"rt": "r"}))):
        with pytest.raises(TypeError):
            hash(value)
    assert hash(BaseGraph(VERTICES, EDGES)) == hash(BaseGraph(VERTICES, EDGES))
    assert hash(Undefined("c", "d")) == hash(Undefined("c", "d"))


def test_mappings_are_private_copies():
    sources, entries, rename = {"rt": "r"}, {"s": Slot()}, {"a": "b"}
    g, t, s = MsGraph(GRAPH.base, sources), GraphType(entries), Slot(rename=rename)
    sources["s"], entries["o"], rename["c"] = "x", Slot(), "d"
    assert g.sources == {"rt": "r"}
    assert t.entries == {"s": Slot()}
    assert s.rename == {"a": "b"}


def test_type_mappings_are_read_only():
    # A writable mapping would let a type gain a root entry, a rename stop
    # being injective, or an enclosing Slot's measured depth go stale.
    t, s = GraphType({"s": Slot()}), Slot(EMPTY_TYPE, {"a": "x"})
    outer = Slot(t)
    with pytest.raises(TypeError):
        t.entries["rt"] = Slot()
    with pytest.raises(TypeError):
        t.entries["o"] = Slot(NESTED)
    with pytest.raises(TypeError):
        s.rename["b"] = "x"
    assert t.entries == {"s": Slot()}
    assert s.rename == {"a": "x"}
    assert outer._depth == 2
    for value in (t, s, outer):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value


# ---------------------------------------------------------------------------
# constructor errors, their messages and precedence

def _nested_type(depth: int) -> GraphType:
    t = EMPTY_TYPE
    for _ in range(depth):
        t = GraphType({"x": Slot(t)})
    return t


def test_graph_type_refuses_a_root_entry():
    with pytest.raises(ValueError, match="^the root label cannot be an open slot$"):
        GraphType({"s": Slot(), "rt": Slot()})


def test_slot_checks_injectivity_before_depth():
    too_deep = _nested_type(64)
    with pytest.raises(ValueError, match="^slot rename map must be injective$"):
        Slot(too_deep, {"a": "x", "b": "x"})
    with pytest.raises(CapacityError, match="^types nest deeper than 64 levels$"):
        Slot(too_deep, {"a": "x"})
    assert Slot(_nested_type(63))._depth == 64


def test_as_graph_checks_validity_then_root_then_domain():
    # Each graph below breaks every later check too.
    invalid = build_graph(["a"], [], {"s": "ghost"})
    with pytest.raises(ValueError) as err:
        AsGraph(invalid, GraphType({"o": Slot()}))
    assert str(err.value) == "as-graph over an invalid graph: source 's' names missing vertex 'ghost'"
    rootless = build_graph(["a"], [], {"s": "a"})
    with pytest.raises(ValueError) as err:
        AsGraph(rootless, GraphType({"o": Slot()}))
    assert str(err.value) == "as-graph requires a root source"
    with pytest.raises(ValueError) as err:
        AsGraph(GRAPH, GraphType({"o": Slot()}))
    assert str(err.value) == "type domain ['o'] must equal the open sources ['s']"


# ---------------------------------------------------------------------------
# edits that change nothing return their input

def test_rename_that_changes_no_label_returns_the_graph():
    for mapping in ({}, {"s": "s"}, {"zz": "q"}, {"rt": "rt", "s": "s", "zz": "s2"}):
        out = GRAPH.rename(mapping)
        assert out is GRAPH
        assert out == MsGraph(GRAPH.base, {mapping.get(a, a): v for a, v in GRAPH.sources.items()})
    assert GRAPH.rename({"s": "o"}) == build_graph(
        [("r", "n"), "x"], [("r", "x", "e")], {"rt": "r", "o": "x"}
    )


def test_rename_that_changes_no_label_still_checks_collisions():
    with pytest.raises(RenameCollisionError, match="not injective"):
        GRAPH.rename({"s": "s", "zz": "s"})
    with pytest.raises(RenameCollisionError, match="collides with existing label 'rt'"):
        GRAPH.rename({"s": "rt"})


def test_type_edits_that_change_nothing_return_their_input():
    t = GraphType({"s": Slot(), "o": Slot(NESTED)})
    for labels in ([], ["zz"], {"q"}):
        assert type_remove(t, labels) is t
    for rename in ({}, {"zz": "q"}, {"q": "s"}):
        assert type_rekey(t, rename) is t
    assert type_remove(EMPTY_TYPE, ["s"]) is EMPTY_TYPE
    assert type_rekey(EMPTY_TYPE, {"s": "o"}) is EMPTY_TYPE
    # Edits that do change something build an equal value as before.
    assert type_remove(t, ["s", "zz"]) == GraphType({"o": Slot(NESTED)})
    assert type_rekey(t, {"s": "s"}) == t
    with pytest.raises(RenameCollisionError):
        type_rekey(t, {"s": "o"})
