"""Document round-trips, schema diagnostics, term parsing, DOT export."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from amalgam import (
    App,
    AsGraph,
    BaseGraph,
    Edge,
    EnumerationBounds,
    GraphType,
    Leaf,
    SchemaError,
    Slot,
    TermSyntaxError,
    MsGraph,
    Vertex,
    build_graph,
    enumerate_graphs,
    evaluate,
    export_dot,
    graph_to_document,
    parse_graph,
    parse_lexicon,
    parse_term,
    serialize_graph,
    serialize_lexicon,
    type_to_document,
)
from conftest import FIXTURES, make_lexicon


@pytest.fixture
def sample():
    return build_graph(
        [("w", "wash"), ("r", None)],
        [("w", "r", "ARG0"), ("w", "r", "ARG1")],
        {"rt": "w", "s": "r"},
    )


# --------------------------------------------------------------------------
# graph documents

def test_graph_document_shape(sample):
    doc = graph_to_document(sample)
    assert doc == {
        "vertices": [{"id": "w", "label": "wash"}, {"id": "r"}],
        "edges": [
            {"from": "w", "to": "r", "label": "ARG0"},
            {"from": "w", "to": "r", "label": "ARG1"},
        ],
        "sources": {"rt": "w", "s": "r"},
    }


def test_graph_round_trip_is_exact(sample):
    text = serialize_graph(sample)
    assert parse_graph(text) == sample  # same ids and order, not merely isomorphic
    assert serialize_graph(parse_graph(text)) == text


def test_serialization_is_deterministic(sample):
    # Source insertion order must not leak into the output.
    reordered = build_graph(
        [("w", "wash"), ("r", None)],
        [("w", "r", "ARG0"), ("w", "r", "ARG1")],
        {"s": "r", "rt": "w"},
    )
    assert serialize_graph(reordered) == serialize_graph(sample)
    assert serialize_graph(sample).endswith("\n")


def test_empty_graph_document_round_trip():
    g = build_graph([], [], {})
    assert parse_graph(serialize_graph(g)) == g


# --------------------------------------------------------------------------
# the graph writer against json.dumps

def dumped(g: MsGraph) -> str:
    """The text serialize_graph must write: json.dumps' own."""
    return json.dumps(graph_to_document(g), indent=2) + "\n"


def _chain_outputs() -> list[MsGraph]:
    """Relaxed-mode eval results of 3 to 59 vertices: G_self under a control
    verb, embedded under up to 28 complement-taking verbs."""
    lexicon = make_lexicon()
    say = build_graph(
        [("v", "say"), "s", "c"], [("v", "s", "ARG0"), ("v", "c", "ARG1")],
        {"rt": "v", "s": "s", "c": "c"},
    )
    lexicon["say"] = AsGraph(say, GraphType({"s": Slot(), "c": Slot()}))
    lexicon["want"] = AsGraph(say, GraphType({"s": Slot(), "c": Slot(GraphType({"s": Slot()}))}))
    term = "app_s(app_c(want, app_o(wash, self)), raven)"
    outputs = []
    for _ in range(29):
        outputs.append(evaluate(parse_term(term), lexicon).graph)
        term = f"app_s(app_c(say, {term}), raven)"
    return outputs


def test_writer_matches_json_dumps_on_populations_fixtures_and_eval_outputs():
    graphs = [MsGraph(), build_graph([], [], {})]
    graphs += enumerate_graphs(EnumerationBounds())
    graphs += enumerate_graphs(EnumerationBounds(sgraphs_only=True))
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name == "lexicon.json":
            graphs += [entry.graph for entry in parse_lexicon(path.read_text()).values()]
        else:
            graphs.append(parse_graph(path.read_text()))
    outputs = _chain_outputs()
    assert max(len(g.base.vertices) for g in outputs) == 59
    graphs += outputs
    assert len(graphs) == 2 + 1963 + 1035 + 5 + 3 + 29
    for g in graphs:
        assert serialize_graph(g) == dumped(g)


# Quotes, backslashes, control characters, a line separator, non-ASCII, an
# astral character and a lone surrogate: everything json escapes.
AWKWARD = st.text(
    alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\t é€\u2028\U0001f600\ud800'), max_size=6
) | st.text(max_size=4)


@st.composite
def awkward_graphs(draw) -> MsGraph:
    vertices = tuple(
        Vertex(draw(AWKWARD), draw(st.none() | AWKWARD)) for _ in range(draw(st.integers(0, 3)))
    )
    edges = tuple(
        Edge(draw(AWKWARD), draw(AWKWARD), draw(AWKWARD)) for _ in range(draw(st.integers(0, 3)))
    )
    return MsGraph(BaseGraph(vertices, edges), draw(st.dictionaries(AWKWARD, AWKWARD, max_size=3)))


@settings(max_examples=400, deadline=None)
@given(awkward_graphs())
def test_writer_escapes_like_json_dumps(g):
    assert serialize_graph(g) == dumped(g)


# Python can build a graph JSON text cannot hold; neither writer emits one.
NOT_STRINGS = [
    MsGraph(BaseGraph((Vertex(1),), ()), {}),
    MsGraph(BaseGraph((Vertex(1), Vertex("a")), ()), {}),
    MsGraph(BaseGraph((Vertex("b", 2.5),), ()), {"rt": "b"}),
    MsGraph(BaseGraph((Vertex("a"),), (Edge("a", None, "e"),)), {}),
    MsGraph(BaseGraph((Vertex("a"),), (Edge("a", "a", 3),)), {}),
    MsGraph(BaseGraph((Vertex("a"),), ()), {1: "a", 2: "a"}),
    MsGraph(BaseGraph((Vertex("a"),), ()), {1: "a", "rt": "a"}),
    MsGraph(BaseGraph((Vertex(object()),))),
]
NOT_STRINGS_MESSAGE = "graph vertex ids, labels and source labels must be strings"


@pytest.mark.parametrize("g", NOT_STRINGS + [MsGraph(BaseGraph((Vertex("a"),)), {"rt": True})])
def test_graph_writer_refuses_values_that_are_not_strings(g):
    with pytest.raises(SchemaError) as err:
        serialize_graph(g)
    assert str(err.value) == NOT_STRINGS_MESSAGE


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ([], "expected object"),
        ({"vertices": [], "edges": []}, "missing field 'sources'"),
        ({"vertices": [], "edges": [], "sources": {}, "extra": 1}, "unknown field"),
        ({"vertices": [{}], "edges": [], "sources": {}}, "missing field 'id'"),
        ({"vertices": [{"id": 3}], "edges": [], "sources": {}}, "vertices[0].id"),
        (
            {"vertices": [{"id": "a", "colour": "red"}], "edges": [], "sources": {}},
            "unknown field(s) ['colour']",
        ),
        (
            {"vertices": [], "edges": [{"from": "a", "to": "b"}], "sources": {}},
            "missing field 'label'",
        ),
        ({"vertices": [], "edges": [], "sources": {"rt": 5}}, "sources['rt']"),
        (
            {"vertices": [], "edges": [], "sources": {"rt": "ghost"}},
            "dangling source",
        ),
        (
            {
                "vertices": [{"id": "a"}, {"id": "a"}],
                "edges": [],
                "sources": {},
            },
            "duplicate vertex id",
        ),
        (
            {"vertices": [], "edges": [{"from": "a", "to": 5, "label": "e"}], "sources": {}},
            "edges[0].to: expected string",
        ),
        # Two faults in one edge: the missing field is reported first.
        ({"vertices": [], "edges": [{"from": 5}], "sources": {}}, "missing field 'to'"),
    ],
)
def test_graph_document_diagnostics(doc, fragment):
    with pytest.raises(SchemaError) as err:
        parse_graph(json.dumps(doc))
    assert fragment in str(err.value)


def test_unknown_string_fields_are_still_named_in_order():
    with pytest.raises(SchemaError) as err:
        parse_graph('{"vertices": [], "edges": [], "sources": {}, "z": 1, "b": 2}')
    assert str(err.value) == "graph: unknown field(s) ['b', 'z']"


def test_parse_graph_reports_json_position():
    with pytest.raises(SchemaError) as err:
        parse_graph("{ not json")
    assert "line 1, column" in str(err.value)


def test_json_nested_too_deep_to_decode_is_a_schema_error():
    text = '{"vertices": ' + "[" * 2000 + "]" * 2000 + ', "edges": [], "sources": {}}'
    with pytest.raises(SchemaError, match="JSON nests too deeply to decode"):
        parse_graph(text)
    with pytest.raises(SchemaError, match="JSON nests too deeply to decode"):
        parse_lexicon('{"it": ' + '{"a": ' * 2000 + "1" + "}" * 2001)


def test_parse_graph_rejects_duplicate_keys():
    # Plain json.loads would keep the last value and load rt -> b silently.
    text = (
        '{"vertices": [{"id": "a"}, {"id": "b"}], "edges": [], '
        '"sources": {"rt": "a", "rt": "b"}}'
    )
    with pytest.raises(SchemaError) as err:
        parse_graph(text)
    assert "duplicate key 'rt'" in str(err.value)


def test_duplicate_key_error_names_the_first_repeated_key_quickly():
    with pytest.raises(SchemaError, match="duplicate key 'a'"):
        parse_graph('{"a": 1, "b": 2, "b": 3, "a": 4}')
    # The duplicate is found in linear time: 20,000 keys, the last one repeated.
    text = "{" + ", ".join(f'"k{i}": 0' for i in range(20_000)) + ', "k19999": 0}'
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="duplicate key 'k19999'"):
        parse_graph(text)
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# type and lexicon documents

def read_type(doc) -> GraphType:
    """The type ``doc`` reads as: the type of a lexicon entry over one vertex
    that carries the root and every label ``doc`` names."""
    sources = dict.fromkeys(["rt", *doc] if isinstance(doc, dict) else ["rt"], "v")
    graph = {"vertices": [{"id": "v"}], "edges": [], "sources": sources}
    return parse_lexicon(json.dumps({"it": {"graph": graph, "type": doc}}))["it"].type


def test_type_document_round_trip():
    t = GraphType(
        {"s": Slot(GraphType({"q": Slot()}), rename={"b": "a"}), "o": Slot()}
    )
    doc = type_to_document(t)
    assert doc == {
        "o": {"type": {}},
        "s": {"type": {"q": {"type": {}}}, "rename": {"b": "a"}},
    }
    assert read_type(doc) == t


def test_type_document_omits_empty_rename():
    assert type_to_document(GraphType({"s": Slot()})) == {"s": {"type": {}}}


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("nope", "expected object"),
        ({"s": {}}, "missing field 'type'"),
        ({"s": {"type": {}, "size": 1}}, "unknown field"),
        ({"s": {"type": {}, "rename": {"a": "x", "b": "x"}}}, "injective"),
        ({"rt": {"type": {}}}, "root label"),
    ],
)
def test_type_document_diagnostics(doc, fragment):
    with pytest.raises(SchemaError) as err:
        read_type(doc)
    assert fragment in str(err.value)


def _nested_type_document(depth: int) -> dict:
    doc: dict = {}
    for _ in range(depth):
        doc = {"x": {"type": doc}}
    return doc


def test_type_document_nesting_limit():
    at_limit = _nested_type_document(64)
    assert type_to_document(read_type(at_limit)) == at_limit
    # Past about 490 levels the text nests too deeply for json.loads itself.
    for depth in (65, 300):
        with pytest.raises(SchemaError) as err:
            read_type(_nested_type_document(depth))
        assert str(err.value) == (
            "lexicon['it'].type['x']" + ".type['x']" * 64 + ": types nest deeper than 64 levels"
        )


def test_lexicon_round_trip_matches_fixture(fixtures_dir):
    # Double-entry bookkeeping: the checked-in fixture must equal the
    # lexicon rebuilt from scratch, byte for byte.
    text = (fixtures_dir / "lexicon.json").read_text(encoding="utf-8")
    assert parse_lexicon(text) == make_lexicon()
    assert serialize_lexicon(make_lexicon()) == text


def test_regenerated_fixtures_match_disk(fixtures_dir):
    # The script rebuilds every fixture from the library; --check fails on
    # any byte that differs from the files on disk.  It finds the package
    # from a fresh checkout, with no PYTHONPATH or install.
    root = fixtures_dir.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "regenerate_fixtures.py"), "--check"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_lexicon_diagnostics():
    with pytest.raises(SchemaError) as err:
        parse_lexicon('{"wash": {"graph": {"vertices": [], "edges": [], "sources": {}}}}')
    assert "missing field 'type'" in str(err.value)
    # Type domain disagreeing with the graph's open sources is a data error.
    doc = {
        "it": {
            "graph": {
                "vertices": [{"id": "a"}],
                "edges": [],
                "sources": {"rt": "a", "s": "a"},
            },
            "type": {},
        }
    }
    with pytest.raises(SchemaError) as err:
        parse_lexicon(json.dumps(doc))
    assert "type domain" in str(err.value)


def test_parse_lexicon_rejects_duplicate_keys(fixtures_dir):
    text = (fixtures_dir / "lexicon.json").read_text(encoding="utf-8")
    doubled = text.replace('"raven": {', '"raven": {"graph": {}, ', 1)
    with pytest.raises(SchemaError) as err:
        parse_lexicon(doubled)
    assert "duplicate key 'graph'" in str(err.value)


# --------------------------------------------------------------------------
# terms

def test_parse_term_leaf():
    assert parse_term("raven") == Leaf("raven")
    assert parse_term("  raven  ") == Leaf("raven")


def test_parse_term_nested_with_whitespace():
    got = parse_term(" app_s ( app_o ( wash , self ) , raven ) ")
    assert got == App("s", App("o", Leaf("wash"), Leaf("self")), Leaf("raven"))


def test_parse_term_round_trips_formatting():
    term = App("s", App("o", Leaf("wash"), Leaf("self")), Leaf("raven"))
    assert parse_term("app_s(app_o(wash,self),raven)") == term


def test_app_prefixed_lexeme_without_parens_is_a_leaf():
    assert parse_term("app_x") == Leaf("app_x")
    assert parse_term("app_") == Leaf("app_")
    assert parse_term("application") == Leaf("application")


def test_parse_term_rejects_root_application():
    with pytest.raises(TermSyntaxError):
        parse_term("app_rt(a,b)")


@pytest.mark.parametrize(
    "text",
    ["", "9lives", "app_s(a b)", "app_s(a,b", "app_s(,b)", "a,b", "app_s(a,b))"],
)
def test_parse_term_syntax_errors(text):
    with pytest.raises(TermSyntaxError):
        parse_term(text)


def test_parse_term_nesting_limit():
    text = "raven"
    for _ in range(256):
        text = f"app_s(wash,{text})"
    assert parse_term(text).label == "s"
    with pytest.raises(TermSyntaxError, match="nest deeper than 256"):
        parse_term(f"app_s(wash,{text})")


def test_term_error_carries_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("app_s(a,b")
    assert err.value.position == 9
    assert "position 9" in str(err.value)


# --------------------------------------------------------------------------
# DOT

def test_dot_node_annotations(sample):
    text = export_dot(sample)
    assert text.startswith("digraph {\n")
    assert '"w" [label="wash, rt"];' in text
    assert '"r" [label="s"];' in text
    assert '"w" -> "r" [label="ARG0"];' in text
    assert '"w" -> "r" [label="ARG1"];' in text
    assert text.endswith("}\n")


def test_dot_multi_source_annotation():
    g = build_graph(["u"], [], {"B": "u", "A": "u"})
    assert '"u" [label="A, B"];' in export_dot(g)


def test_dot_plain_vertex_annotation():
    g = build_graph(["u"], [], {})
    assert '"u" [label=""];' in export_dot(g)


def test_dot_empty_graph():
    assert export_dot(build_graph([], [], {})) == "digraph {\n}\n"


def test_dot_escapes_quotes_and_backslashes():
    g = build_graph([('he"llo', 'a\\b')], [], {})
    text = export_dot(g)
    assert '"he\\"llo"' in text
    assert 'a\\\\b' in text


def test_dot_output_is_sorted():
    g = build_graph(["z", "a"], [("z", "a", "e"), ("a", "z", "d")], {})
    text = export_dot(g)
    assert text.index('"a" [') < text.index('"z" [')
    assert text.index('"a" -> "z"') < text.index('"z" -> "a"')


@pytest.mark.parametrize("g", NOT_STRINGS)
def test_dot_refuses_values_that_are_not_strings(g):
    with pytest.raises(SchemaError) as err:
        export_dot(g)
    assert str(err.value) == NOT_STRINGS_MESSAGE


def test_dot_sorts_vertices_by_id_alone():
    # A repeated id, with and without a label: no label is compared.
    g = MsGraph(BaseGraph((Vertex("b"), Vertex("a", "x"), Vertex("a"))), {})
    assert export_dot(g).splitlines() == [
        "digraph {", '  "a" [label="x"];', '  "a" [label=""];', '  "b" [label=""];', "}"
    ]


def test_json_documents_are_pure_json(sample):
    json.loads(serialize_graph(sample))
    json.loads(serialize_lexicon(make_lexicon()))
