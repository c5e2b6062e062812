"""Graph types, the apply operation's condition ladder, and term evaluation."""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from amalgam import (
    App,
    ApplyMode,
    AsGraph,
    CapacityError,
    EMPTY_TYPE,
    GraphType,
    Leaf,
    LexiconError,
    ORIGINAL,
    RELAXED,
    RELAXED_STRICT,
    RenameCollisionError,
    Slot,
    GraphError,
    SchemaError,
    Undefined,
    apply,
    build_graph,
    evaluate,
    format_term,
    format_type,
    isomorphic,
    parse_lexicon,
)
from amalgam.algebra import type_rekey, type_remove
from conftest import SLOT_RENAME_LEXICONS

NESTED = GraphType({"q": Slot()})


# --------------------------------------------------------------------------
# types

def test_graph_type_rejects_root_entry():
    with pytest.raises(ValueError):
        GraphType({"rt": Slot()})


def _nested_type(depth: int) -> GraphType:
    t = EMPTY_TYPE
    for _ in range(depth):
        t = GraphType({"x": Slot(t)})
    return t


def test_graph_type_nesting_limit():
    # Types compare recursively, and apply compares two separately built
    # ones level by level, so construction refuses a 65th level.
    functor = build_graph(["r", "z"], [], {"rt": "r", "s": "z"})
    argument = build_graph(["r", "y"], [], {"rt": "r", "x": "y"})
    deepest = GraphType({"s": Slot(_nested_type(63))})
    out = apply("s", AsGraph(functor, deepest), AsGraph(argument, _nested_type(63)))
    assert isinstance(out, AsGraph)
    assert out.type == _nested_type(63)
    for build in (lambda: GraphType({"s": Slot(_nested_type(64))}), lambda: _nested_type(150)):
        with pytest.raises(CapacityError, match="types nest deeper than 64 levels"):
            build()


def test_graph_type_domain():
    t = GraphType({"s": Slot(), "o": Slot(NESTED)})
    assert set(t.entries) == {"s", "o"}
    assert set(EMPTY_TYPE.entries) == set()


def test_slot_rename_must_be_injective():
    with pytest.raises(ValueError):
        Slot(rename={"a": "x", "b": "x"})


@pytest.mark.parametrize("rename", [{"rt": "z"}, {"o": "rt"}, {"": "z"}, {"o": ""}])
def test_slot_rename_names_neither_the_root_nor_the_empty_label(rename):
    with pytest.raises(ValueError, match="cannot name 'rt' or the empty label"):
        Slot(rename=rename)


def test_type_remove():
    t = GraphType({"s": Slot(), "o": Slot(NESTED)})
    assert type_remove(t, ["s"]) == GraphType({"o": Slot(NESTED)})
    assert type_remove(t, []) == t


def test_type_rekey():
    t = GraphType({"s": Slot(), "o": Slot(NESTED)})
    assert type_rekey(t, {"s": "z"}) == GraphType({"z": Slot(), "o": Slot(NESTED)})
    assert type_rekey(t, {}) == t


def test_type_rekey_collision_is_an_error():
    t = GraphType({"s": Slot(), "o": Slot()})
    with pytest.raises(RenameCollisionError):
        type_rekey(t, {"s": "o"})


def test_format_type():
    assert format_type(EMPTY_TYPE) == "{}"
    assert format_type(GraphType({"o": Slot(), "s": Slot()})) == "{o, s}"
    assert format_type(GraphType({"s": Slot(NESTED)})) == "{s: {q}}"
    assert format_type(GraphType({"s": Slot(rename={"a": "b"})})) == "{s/a>b}"


# --------------------------------------------------------------------------
# as-graphs

def test_as_graph_requires_valid_graph():
    bad = build_graph(["a"], [], {"rt": "missing"})
    with pytest.raises(ValueError):
        AsGraph(bad, EMPTY_TYPE)


def test_as_graph_requires_root():
    with pytest.raises(ValueError):
        AsGraph(build_graph(["a"], [], {"s": "a"}), GraphType({"s": Slot()}))


def test_as_graph_type_domain_must_match_open_sources(lexicon):
    g = lexicon["wash"].graph
    with pytest.raises(ValueError):
        AsGraph(g, GraphType({"s": Slot()}))  # "o" missing from the type


def test_apply_mode_validation(lexicon):
    with pytest.raises(ValueError):
        ApplyMode("fancy")
    assert list(ApplyMode) == [ORIGINAL, RELAXED, RELAXED_STRICT]
    assert ApplyMode("original") is ORIGINAL
    assert ApplyMode("relaxed-strict") is RELAXED_STRICT
    # A value that is not a member never silently picks a ladder.
    for stray in ("original", "relaxed", None):
        with pytest.raises(TypeError, match="mode must be an ApplyMode"):
            apply("o", lexicon["wash"], lexicon["raven"], stray)


# --------------------------------------------------------------------------
# apply: the condition ladder

def test_apply_rejects_root_label(lexicon):
    with pytest.raises(ValueError):
        apply("rt", lexicon["wash"], lexicon["raven"])


def test_condition_1_missing_slot(lexicon):
    out = apply("z", lexicon["wash"], lexicon["raven"], ORIGINAL)
    assert isinstance(out, Undefined)
    assert out.condition == "condition 1"
    out = apply("z", lexicon["wash"], lexicon["raven"], RELAXED)
    assert isinstance(out, Undefined) and out.condition == "condition 1"


def test_condition_2_exact_type_match(lexicon):
    out = apply("o", lexicon["wash"], lexicon["self"], ORIGINAL)
    assert isinstance(out, Undefined)
    assert out.condition == "condition 2"
    assert "type {s}" in out.detail


def test_condition_2a_unexpected_leftover_type(lexicon):
    out = apply("s", lexicon["wash"], lexicon["wash"], RELAXED)
    assert isinstance(out, Undefined)
    assert out.condition == "condition 2a"


def test_condition_2b_extra_root_label_must_match_functor_slot(lexicon):
    # Functor whose own "s" slot requests a non-empty type: the argument's
    # extra root label "s" no longer agrees with it.
    g = lexicon["wash"].graph
    functor = AsGraph(g, GraphType({"s": Slot(NESTED), "o": Slot()}))
    out = apply("o", functor, lexicon["self"], RELAXED)
    assert isinstance(out, Undefined)
    assert out.condition == "condition 2b"


def test_condition_2b_names_the_first_mismatch_in_the_argument_type_order():
    # Both extra root labels mismatch; the argument's type lists "b" first.
    functor = AsGraph(
        build_graph(["r", "x"], [], {"rt": "r", "o": "x"}), GraphType({"o": Slot()})
    )
    argument = AsGraph(
        build_graph(["r"], [], {"rt": "r", "a": "r", "b": "r"}),
        GraphType({"b": Slot(), "a": Slot()}),
    )
    for mode in (RELAXED, RELAXED_STRICT):
        assert apply("o", functor, argument, mode) == Undefined(
            "condition 2b",
            "the argument's extra root label 'b' must match the functor's own 'b' slot, "
            "which differs or is absent",
        )


def test_condition_4_functor_extra_root_label(lexicon):
    out = apply("s", lexicon["self"], lexicon["raven"], RELAXED)
    assert isinstance(out, Undefined)
    assert out.condition == "condition 4"
    assert not out.strict_clause


def test_condition_4_strict_clause(lexicon):
    out = apply("s", lexicon["wash"], lexicon["self"], RELAXED_STRICT)
    assert isinstance(out, Undefined)
    assert out.condition == "condition 4"
    assert out.strict_clause


def test_without_strict_clause_the_same_call_is_a_hard_error(lexicon):
    # The argument's root also carries "s"; renaming its root onto the slot
    # label collides.  This is a data problem, not a type mismatch.
    with pytest.raises(RenameCollisionError):
        apply("s", lexicon["wash"], lexicon["self"], RELAXED)


def test_condition_3_merged_type_conflict():
    functor_graph = build_graph(
        ["f0", "f1", "f2"], [], {"rt": "f0", "o": "f1", "b": "f2"}
    )
    argument_graph = build_graph(["x0", "x1"], [], {"rt": "x0", "b": "x1"})
    argument = AsGraph(argument_graph, GraphType({"b": Slot(NESTED)}))
    functor = AsGraph(
        functor_graph, GraphType({"o": Slot(argument.type), "b": Slot()})
    )
    out = apply("o", functor, argument, ORIGINAL)
    assert isinstance(out, Undefined)
    assert out.condition == "condition 3"


def test_apply_defined_reflexive(lexicon):
    out = apply("o", lexicon["wash"], lexicon["self"], RELAXED)
    assert isinstance(out, AsGraph)
    assert out.type == GraphType({"s": Slot()})
    g = out.graph
    assert len(g.base.vertices) == 2
    assert g.tau == {"rt", "s"}
    root = g.sources["rt"]
    other = g.sources["s"]
    assert g.base.label_of(root) == "wash"
    assert g.base.label_of(other) is None
    assert sorted(e.label for e in g.base.edges) == ["ARG0", "ARG1"]
    assert all(e.src == root and e.dst == other for e in g.base.edges)


def test_apply_defined_plain_argument_agrees_across_modes(lexicon):
    a = apply("o", lexicon["wash"], lexicon["raven"], ORIGINAL)
    b = apply("o", lexicon["wash"], lexicon["raven"], RELAXED)
    assert isinstance(a, AsGraph) and isinstance(b, AsGraph)
    assert a.type == b.type == GraphType({"s": Slot()})
    assert a.graph == b.graph
    assert len(a.graph.base.vertices) == 3


def test_apply_slot_rename_moves_argument_sources():
    functor_graph = build_graph(["f0", "f1"], [], {"rt": "f0", "o": "f1"})
    argument_graph = build_graph(["x0", "x1"], [], {"rt": "x0", "b": "x1"})
    argument = AsGraph(argument_graph, GraphType({"b": Slot()}))
    functor = AsGraph(
        functor_graph,
        GraphType({"o": Slot(argument.type, rename={"b": "c"})}),
    )
    out = apply("o", functor, argument, ORIGINAL)
    assert isinstance(out, AsGraph)
    assert out.type == GraphType({"c": Slot()})
    assert out.graph.sources["c"] == "x1'"


def test_apply_slot_rename_collision_is_a_hard_error():
    functor_graph = build_graph(["f0", "f1"], [], {"rt": "f0", "o": "f1"})
    argument_graph = build_graph(
        ["x0", "x1", "x2"], [], {"rt": "x0", "a": "x1", "b": "x2"}
    )
    argument = AsGraph(argument_graph, GraphType({"a": Slot(), "b": Slot()}))
    functor = AsGraph(
        functor_graph,
        GraphType({"o": Slot(argument.type, rename={"b": "a"})}),
    )
    with pytest.raises(RenameCollisionError):
        apply("o", functor, argument, ORIGINAL)


def test_undefined_message_formatting():
    bare = Undefined("condition 1", "no slot")
    assert bare.message() == "undefined (condition 1): no slot"
    placed = Undefined("condition 2", "mismatch", subterm="app_o(a,b)")
    assert placed.message() == "undefined (condition 2) at app_o(a,b): mismatch"


# --------------------------------------------------------------------------
# terms

def test_app_rejects_root_label():
    with pytest.raises(ValueError):
        App("rt", Leaf("a"), Leaf("b"))


def test_format_term_nested():
    t = App("s", App("o", Leaf("wash"), Leaf("self")), Leaf("raven"))
    assert format_term(t) == "app_s(app_o(wash,self),raven)"
    assert format_term(Leaf("raven")) == "raven"


def test_evaluate_leaf_and_unknown_lexeme(lexicon):
    assert evaluate(Leaf("raven"), lexicon) == lexicon["raven"]
    with pytest.raises(LexiconError):
        evaluate(Leaf("emu"), lexicon)


def test_evaluate_reflexive_sentence(lexicon):
    out = evaluate(
        App("s", App("o", Leaf("wash"), Leaf("self")), Leaf("raven")), lexicon, RELAXED
    )
    assert isinstance(out, AsGraph)
    assert out.type == EMPTY_TYPE
    g = out.graph
    assert g.tau == {"rt"}
    assert len(g.base.vertices) == 2
    labels = sorted(v.label for v in g.base.vertices)
    assert labels == ["raven", "wash"]
    assert sorted(e.label for e in g.base.edges) == ["ARG0", "ARG1"]


def test_evaluate_two_place_sentence_in_both_modes(lexicon):
    term = App("s", App("o", Leaf("wash"), Leaf("raven")), Leaf("raven"))
    for mode in (ORIGINAL, RELAXED):
        out = evaluate(term, lexicon, mode)
        assert isinstance(out, AsGraph)
        assert len(out.graph.base.vertices) == 3
        assert out.type == EMPTY_TYPE
    assert isomorphic(
        evaluate(term, lexicon, ORIGINAL).graph, evaluate(term, lexicon, RELAXED).graph
    )


def test_evaluate_reports_innermost_failure(lexicon):
    term = App("s", App("o", Leaf("wash"), Leaf("self")), Leaf("raven"))
    out = evaluate(term, lexicon, ORIGINAL)
    assert isinstance(out, Undefined)
    assert out.subterm == "app_o(wash,self)"
    assert out.condition == "condition 2"


def _tag_chain(depth: int) -> App | Leaf:
    term = Leaf("raven")
    for _ in range(depth):
        term = App("s", Leaf("tag"), term)
    return term


def test_evaluate_nesting_limit():
    # Every level of app_s(tag, ...) is defined, so evaluation recurses the
    # whole depth and adds one vertex per level.
    tag = build_graph([("t", "tag"), "x"], [("t", "x", "ARG0")], {"rt": "t", "s": "x"})
    raven = build_graph([("r", "raven")], [], {"rt": "r"})
    lexicon = {
        "tag": AsGraph(tag, GraphType({"s": Slot()})),
        "raven": AsGraph(raven, EMPTY_TYPE),
    }
    out = evaluate(_tag_chain(256), lexicon)
    assert isinstance(out, AsGraph)
    assert len(out.graph.base.vertices) == 257
    for depth in (257, 1500):
        with pytest.raises(CapacityError, match="nest deeper than 256 levels"):
            evaluate(_tag_chain(depth), lexicon)


def test_evaluate_argument_failure_propagates(lexicon):
    term = App("o", Leaf("wash"), App("z", Leaf("raven"), Leaf("raven")))
    out = evaluate(term, lexicon, RELAXED)
    assert isinstance(out, Undefined)
    assert out.subterm == "app_z(raven,raven)"
    assert out.condition == "condition 1"


# --------------------------------------------------------------------------
# evaluation over generated lexicons

_LEXEMES = ("f", "g", "a")
_SLOTS = ("s", "o")
_RENAME_LABELS = ("s", "o", "z", "rt", "")


@st.composite
def lexicon_documents(draw):
    """Small lexicon documents, valid except perhaps for their slot renames."""
    doc = {}
    for name in _LEXEMES:
        ids = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
        vertex = st.sampled_from(ids)
        vertices = []
        for v in ids:
            label = draw(st.sampled_from((None, "x", "y")))
            vertices.append({"id": v} if label is None else {"id": v, "label": label})
        edge = st.fixed_dictionaries({"from": vertex, "to": vertex, "label": st.just("e")})
        opens = draw(st.lists(st.sampled_from(_SLOTS), unique=True))
        requested = st.sampled_from([{}] + [{s: {"type": {}}} for s in _SLOTS])
        renames = st.dictionaries(
            st.sampled_from(_RENAME_LABELS), st.sampled_from(_RENAME_LABELS), max_size=2
        )
        doc[name] = {
            "graph": {
                "vertices": vertices,
                "edges": draw(st.lists(edge, max_size=2)),
                "sources": {"rt": draw(vertex), **{s: draw(vertex) for s in opens}},
            },
            "type": {s: {"type": draw(requested), "rename": draw(renames)} for s in opens},
        }
    return doc


_TERMS = st.recursive(
    st.sampled_from(_LEXEMES).map(Leaf),
    lambda inner: st.builds(App, st.sampled_from(_SLOTS), inner, inner),
    max_leaves=4,  # so at most 3 applications deep
)


@settings(deadline=None, max_examples=300)
@given(lexicon_documents(), st.lists(_TERMS, min_size=1, max_size=4))
@example(SLOT_RENAME_LEXICONS[0], [App("s", Leaf("f"), Leaf("a"))])
@example(SLOT_RENAME_LEXICONS[1], [App("s", Leaf("f"), Leaf("a"))])
@example(SLOT_RENAME_LEXICONS[2], [App("s", Leaf("f"), Leaf("a"))])
def test_evaluation_gives_a_value_or_a_graph_error(doc, terms):
    # A lexicon the reader accepts never makes evaluation leak an exception
    # that is not a GraphError, in any mode.
    try:
        lexicon = parse_lexicon(json.dumps(doc))
    except SchemaError:
        return
    for term in terms:
        for mode in ApplyMode:
            try:
                out = evaluate(term, lexicon, mode)
            except GraphError:
                continue
            assert isinstance(out, (AsGraph, Undefined))
