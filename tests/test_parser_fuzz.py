"""Fuzzed parser input: only SchemaError or TermSyntaxError may escape.

The document readers are also checked against a reference: the earlier
reader, which checked every value through ``_require`` and ``_object`` with
a path built up front, kept here (its entry points prefixed ``reference_``).
Both read the same JSON text: ``parse_graph`` and ``parse_lexicon`` the text
itself, the reference ``json.loads`` of it.  For every document the readers
must return equal values, or raise the same exception type with the same
message.

The term parser is checked the same way, against the earlier parser with its
hand-written scanners (``reference_parse_term``): for every text both return
equal terms, or raise TermSyntaxError with the same message and position.
"""
from __future__ import annotations

import copy
import json
import sys
from collections import Counter
from typing import Any

import pytest
from hypothesis import example, given, settings, strategies as st

from amalgam import (
    App,
    AsGraph,
    EnumerationBounds,
    GraphType,
    Leaf,
    ROOT_LABEL,
    SchemaError,
    Slot,
    Term,
    TermSyntaxError,
    build_graph,
    count_graphs,
    enumerate_graphs,
    graph_to_document,
    parse_graph,
    parse_lexicon,
    parse_term,
)
from amalgam.algebra import _TERM_DEPTH_LIMIT, _TYPE_DEPTH_LIMIT
from amalgam.serialize import _IDENT, _SPACE
from conftest import FIXTURES

# ---------------------------------------------------------------------------
# the reference reader

def _require(value: Any, kind: type, path: str) -> Any:
    names = {dict: "object", list: "array", str: "string"}
    if not isinstance(value, kind):
        raise SchemaError(f"{path}: expected {names[kind]}, got {type(value).__name__}")
    return value


def _object(value: Any, path: str, required: tuple, optional: tuple = ()) -> None:
    """Check that ``value`` is an object with no unknown field, then no missing one."""
    _require(value, dict, path)
    for key in value:
        if key not in required and key not in optional:
            unknown = sorted(set(value).difference(required, optional))
            raise SchemaError(f"{path}: unknown field(s) {unknown}")
    for key in required:
        if key not in value:
            raise SchemaError(f"{path}: missing field {key!r}")


def reference_graph_from_document(doc: Any, path: str = "graph"):
    _object(doc, path, ("vertices", "edges", "sources"))

    vertices = []
    for i, entry in enumerate(_require(doc["vertices"], list, f"{path}.vertices")):
        vp = f"{path}.vertices[{i}]"
        _object(entry, vp, ("id",), ("label",))
        vid = _require(entry["id"], str, f"{vp}.id")
        label = entry.get("label")
        if label is not None:
            label = _require(label, str, f"{vp}.label")
        vertices.append((vid, label))

    edges = []
    for i, entry in enumerate(_require(doc["edges"], list, f"{path}.edges")):
        ep = f"{path}.edges[{i}]"
        _object(entry, ep, ("from", "to", "label"))
        for key in ("from", "to", "label"):
            _require(entry[key], str, f"{ep}.{key}")
        edges.append((entry["from"], entry["to"], entry["label"]))

    sources = _require(doc["sources"], dict, f"{path}.sources")
    for a, v in sources.items():
        _require(v, str, f"{path}.sources[{a!r}]")

    g = build_graph(vertices, edges, sources)
    if g._violations:
        listing = "; ".join(f"{p.invariant} ({p.detail})" for p in g._violations)
        raise SchemaError(f"{path}: invalid graph: {listing}")
    return g


def reference_type_from_document(doc: Any, path: str = "type") -> GraphType:
    """Read a type document; slots nested more than 64 deep raise SchemaError."""
    return _reference_type_from_document(doc, path, 0)


def _reference_type_from_document(doc: Any, path: str, depth: int) -> GraphType:
    _require(doc, dict, path)
    entries = {}
    for label, entry in doc.items():
        ep = f"{path}[{label!r}]"
        _object(entry, ep, ("type",), ("rename",))
        if depth == _TYPE_DEPTH_LIMIT:
            raise SchemaError(f"{ep}: types nest deeper than {_TYPE_DEPTH_LIMIT} levels")
        requested = _reference_type_from_document(entry["type"], f"{ep}.type", depth + 1)
        rename = entry.get("rename", {})
        _require(rename, dict, f"{ep}.rename")
        for a, b in rename.items():
            _require(b, str, f"{ep}.rename[{a!r}]")
        try:
            entries[label] = Slot(requested, rename)
        except ValueError as err:
            raise SchemaError(f"{ep}: {err}") from err
    try:
        return GraphType(entries)
    except ValueError as err:
        raise SchemaError(f"{path}: {err}") from err


def reference_lexicon_from_document(doc: Any) -> dict[str, AsGraph]:
    _require(doc, dict, "lexicon")
    out = {}
    for lexeme, entry in doc.items():
        ep = f"lexicon[{lexeme!r}]"
        _object(entry, ep, ("graph", "type"))
        graph = reference_graph_from_document(entry["graph"], f"{ep}.graph")
        gtype = reference_type_from_document(entry["type"], f"{ep}.type")
        try:
            out[lexeme] = AsGraph(graph, gtype)
        except ValueError as err:
            raise SchemaError(f"{ep}: {err}") from err
    return out


READERS = (
    (parse_graph, lambda text: reference_graph_from_document(json.loads(text))),
    (parse_lexicon, lambda text: reference_lexicon_from_document(json.loads(text))),
)


def outcome(read, text):
    """What ``read`` makes of ``text``: ("value", value) or (exception type, message)."""
    try:
        return "value", read(text)
    except Exception as err:  # any escape must match the reference's
        return type(err), str(err)


def assert_readers_agree(read, reference, text) -> str:
    got, expected = outcome(read, text), outcome(reference, text)
    assert got == expected
    return "accepted" if got[0] == "value" else "refused"

# ---------------------------------------------------------------------------
# the reference term parser

def _ident_char(c: str) -> bool:
    return c.isascii() and (c.isalnum() or c == "_")


def reference_parse_term(text: str) -> Term:
    """Parse ``lexeme`` or ``app_<label>(term, term)`` with arbitrary whitespace.

    Applications may nest at most 256 deep; a deeper term raises
    TermSyntaxError.
    """
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def read_ident() -> tuple[str, int]:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and _ident_char(text[pos]):
            pos += 1
        ident = text[start:pos]
        if not ident:
            raise TermSyntaxError("expected an identifier", start)
        if ident[0].isdigit():
            raise TermSyntaxError(f"identifier {ident!r} may not start with a digit", start)
        return ident, start

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise TermSyntaxError(f"expected {ch!r}", pos)
        pos += 1

    def term(depth: int) -> Term:
        nonlocal pos
        ident, start = read_ident()
        if ident.startswith("app_"):
            label = ident[4:]
            save = pos
            skip_ws()
            if pos < len(text) and text[pos] == "(":
                if not label or label[0].isdigit():
                    raise TermSyntaxError(f"bad apply label {label!r}", start)
                if label == ROOT_LABEL:
                    raise TermSyntaxError("cannot apply at the root label", start)
                if depth == _TERM_DEPTH_LIMIT:
                    raise TermSyntaxError(
                        f"applications nest deeper than {_TERM_DEPTH_LIMIT} levels", start
                    )
                pos += 1
                functor = term(depth + 1)
                expect(",")
                argument = term(depth + 1)
                expect(")")
                return App(label, functor, argument)
            pos = save  # plain lexeme that happens to start with app_
        return Leaf(ident)

    result = term(0)
    skip_ws()
    if pos != len(text):
        raise TermSyntaxError("unexpected trailing input", pos)
    return result



# ---------------------------------------------------------------------------
# clean failures

# Every field name the schemas know, plus labels and ids they use as keys.
KEYS = st.sampled_from(
    ["vertices", "edges", "sources", "id", "label", "from", "to", "type", "rename",
     "graph", "rt", "s", "a", "v0", ""]
)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(["rt", "s", "a", "v0", "v1", "e", ""]) | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=24,
)


def nested(depth: int, kind: str) -> str:
    """JSON text nesting one array or object ``depth`` levels deep."""
    if kind == "array":
        return "[" * depth + "]" * depth
    return '{"type": ' * depth + "{}" + "}" * depth


def texts_fail_cleanly(text: str) -> None:
    for parse in (parse_graph, parse_lexicon):
        try:
            parse(text)
        except SchemaError:
            pass


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_documents_raise_only_schema_errors(doc):
    texts_fail_cleanly(json.dumps(doc))
    texts_fail_cleanly(json.dumps({"it": {"graph": doc, "type": doc}}))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.sampled_from(["array", "object"]),
    st.sampled_from(["vertices", "edges", "sources", "type"]),
)
def test_deep_documents_raise_only_schema_errors(depth, kind, field):
    deep = nested(depth, kind)
    fields = {"vertices": "[]", "edges": "[]", "sources": "{}", field: deep}
    texts_fail_cleanly("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    texts_fail_cleanly(f'{{"it": {{"graph": {{}}, "type": {deep}}}}}')
    texts_fail_cleanly(deep)


def test_over_long_json_integer_is_a_schema_error():
    # Past Python's 4,300-digit limit json.loads raises a plain ValueError.
    digits = "7" * 5000
    for parse, text in (
        (parse_graph, '{"vertices": [], "edges": [], "sources": {"rt": %s}}' % digits),
        (parse_lexicon, '{"it": %s}' % digits),
    ):
        with pytest.raises(SchemaError, match="too many digits"):
            parse(text)


# ---------------------------------------------------------------------------
# the readers against the reference

# The empty label in each label pool breaks a graph invariant when drawn; an
# empty vertex id is legal.
IDS = st.sampled_from(["v0", "v1", "v2", "v3", ""])
LABELS = st.sampled_from(["rt", "s", "o", "a", "rt", "s", "o", "a", ""])
NODE_LABELS = st.sampled_from(["-", "-", "-", "wash", "wash", None, ""])  # "-": no field
EDGE_LABELS = st.sampled_from(["e", "e", "e", "e", ""])
# Values of the wrong shape for any field, plus a few of the right one; each
# draw is a fresh copy, since faults are planted in place.
WRONG = st.sampled_from(
    [None, 0, 1.5, True, "x", "v0", [], ["v0"], {}, {"id": "v0"}, {"type": {}}]
).map(copy.deepcopy)
FIELDS = st.sampled_from(
    ["vertices", "edges", "sources", "id", "label", "from", "to", "type", "rename",
     "graph", "rt", "s", "colour"]
)


@st.composite
def graph_documents(draw) -> dict:
    ids = draw(st.lists(IDS, max_size=3, unique=True))
    if ids and draw(st.integers(0, 9)) == 0:
        ids.append(ids[0])  # a duplicate vertex id
    vertices = []
    for vid in ids:
        label = draw(NODE_LABELS)
        vertices.append({"id": vid} if label == "-" else {"id": vid, "label": label})
    ends = st.sampled_from(ids * 4 + ["ghost"])  # now and then a dangling end
    edges = [
        {"from": draw(ends), "to": draw(ends), "label": draw(EDGE_LABELS)}
        for _ in range(draw(st.integers(0, 2)))
    ]
    sources = draw(st.dictionaries(LABELS, ends, max_size=3))
    return {"vertices": vertices, "edges": edges, "sources": sources}


@st.composite
def type_documents(draw, labels=None, depth: int = 2) -> dict:
    if labels is None:
        labels = draw(st.lists(LABELS, max_size=2, unique=True))
    doc = {}
    for label in labels:
        shape = draw(st.integers(0, 5))  # 0: nested type, 1: rename, else neither
        entry: dict = {"type": draw(type_documents(depth=depth - 1)) if depth and not shape else {}}
        if shape == 1:
            entry["rename"] = draw(st.dictionaries(LABELS, LABELS, max_size=2))
        doc[label] = entry
    return doc


# Valid rooted graphs, for lexicon entries meant to be accepted.
ROOTED_GRAPHS = st.sampled_from([
    graph_to_document(g)
    for g in enumerate_graphs(
        EnumerationBounds(
            max_vertices=2, source_labels=("rt", "s", "o"), node_labels=("wash",), max_edges=1
        )
    )
    if "rt" in g.sources
]).map(copy.deepcopy)


@st.composite
def lexicon_documents(draw) -> dict:
    doc = {}
    lexemes = st.sampled_from(["wash", "self", "", "wash", "self"])
    for lexeme in draw(st.lists(lexemes, max_size=2, unique=True)):
        # Mostly a valid graph and the type its open sources call for.
        if draw(st.integers(0, 3)):
            graph = draw(ROOTED_GRAPHS)
            gtype = draw(type_documents(labels=[a for a in graph["sources"] if a != "rt"]))
        else:
            graph = draw(graph_documents())
            gtype = draw(type_documents())
        doc[lexeme] = {"graph": graph, "type": gtype}
    return doc


def _positions(doc):
    """Every (container, key) pair inside a document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _positions(value)


@st.composite
def near_valid(draw, documents):
    """A document with up to two faults: a value of the wrong shape, a null,
    a field dropped or an unknown one added."""
    doc = draw(documents)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        positions = list(_positions(doc))
        if not positions or draw(st.integers(0, 19)) == 0:
            return draw(WRONG)  # the whole document has the wrong shape
        container, key = draw(st.sampled_from(positions))
        fault = draw(st.sampled_from(["wrong", "null", "drop", "extra"]))
        if fault == "wrong":
            container[key] = draw(WRONG)
        elif fault == "null":
            container[key] = None
        elif fault == "drop":
            del container[key]
        elif isinstance(container[key], dict):
            container[key][draw(FIELDS)] = draw(WRONG)
        else:
            container[key] = {draw(FIELDS): draw(WRONG)}
    return doc


@st.composite
def typed_entries(draw) -> dict:
    """A one-entry lexicon whose type may carry faults, over one vertex that
    carries the root and every label the type names."""
    gtype = draw(near_valid(type_documents()))
    sources = dict.fromkeys(["rt", *gtype] if isinstance(gtype, dict) else ["rt"], "v")
    graph = {"vertices": [{"id": "v"}], "edges": [], "sources": sources}
    return {"it": {"graph": graph, "type": gtype}}


DOCUMENTS = near_valid(graph_documents()) | typed_entries() | near_valid(lexicon_documents())


def test_readers_agree_with_the_reference():
    verdicts: Counter = Counter()

    @settings(max_examples=2000, deadline=None)
    @given(DOCUMENTS)
    def agree(doc):
        text = json.dumps(doc)
        for read, reference in READERS:
            verdicts[read.__name__, assert_readers_agree(read, reference, text)] += 1

    agree()
    # Agreement means little unless every reader often accepts and often refuses.
    for read, _ in READERS:
        for verdict in ("accepted", "refused"):
            assert verdicts[read.__name__, verdict] >= 50, verdicts


def test_readers_agree_on_the_fixtures_and_on_custom_paths():
    lexicon = (FIXTURES / "lexicon.json").read_text(encoding="utf-8")
    assert assert_readers_agree(*READERS[1], lexicon) == "accepted"
    # The lexicon reader's paths: per entry, then into its graph and its type.
    graph = {"vertices": [{"id": "a"}, {"id": 1}], "edges": [], "sources": {}}
    text = json.dumps({"it": {"graph": graph, "type": {}}})
    assert assert_readers_agree(*READERS[1], text) == "refused"
    assert outcome(parse_lexicon, text) == (
        SchemaError, "lexicon['it'].graph.vertices[1].id: expected string, got int"
    )
    graph = {"vertices": [{"id": "a"}], "edges": [], "sources": {"rt": "a", "s": "a"}}
    nested = {"s": {"type": {"o": {"type": {"q": {"type": []}}}}}}
    text = json.dumps({"it": {"graph": graph, "type": nested}})
    assert assert_readers_agree(*READERS[1], text) == "refused"
    assert outcome(parse_lexicon, text) == (
        SchemaError, "lexicon['it'].type['s'].type['o'].type['q'].type: expected object, got list"
    )


def test_every_small_graph_round_trips_through_its_document():
    bounds = EnumerationBounds(max_vertices=3, source_labels=("a", "b", "rt"), max_edges=2)
    count = 0
    for g in enumerate_graphs(bounds):
        assert parse_graph(json.dumps(graph_to_document(g))) == g
        count += 1
    assert count == count_graphs(bounds) == 1963


TERM_PIECES = st.sampled_from(
    ["app_", "app_s", "app_rt", "app_9", "(", ")", ",", "a", "b", "x1", "7", "rt",
     " ", "\t", "\n", "é", "٣", "ß", "_"]
)


@settings(max_examples=600, deadline=None)
@given(st.lists(TERM_PIECES, max_size=24).map("".join))
def test_term_text_raises_only_term_syntax_errors(text):
    try:
        parse_term(text)
    except TermSyntaxError:
        pass


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1200), TERM_PIECES)
def test_deep_term_text_raises_only_term_syntax_errors(depth, filler):
    for text in ("app_s(" * depth + filler + ",a)" * depth, "(" * depth + filler):
        assert_term_parsers_agree(text)


def term_outcome(parse, text):
    """What ``parse`` makes of ``text``: ("value", term) or (message, position)."""
    try:
        return "value", parse(text)
    except TermSyntaxError as err:
        return str(err), err.position


def assert_term_parsers_agree(text) -> str:
    got = term_outcome(parse_term, text)
    assert got == term_outcome(reference_parse_term, text)
    return type(got[1]).__name__ if got[0] == "value" else "refused"


# Whitespace outside ASCII, a character that is neither whitespace nor part of
# an identifier, and a whole application, on top of TERM_PIECES.
MORE_TERM_PIECES = st.one_of(
    TERM_PIECES, st.sampled_from(["\x1c", "\u3000", "\xa0", "app_o(a,b)", "$"])
)


def test_term_parser_agrees_with_the_reference():
    kinds: Counter = Counter()

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(MORE_TERM_PIECES, max_size=14).map("".join))
    @example("app_s(app_o(wash, self), raven)")
    @example("\u3000app_o\xa0(a\x1c,\u2003b)\n")
    @example("app_ (a,b)")
    @example("app_rt(a,b)")
    @example("app_1x(a,b)")
    @example("1x")
    @example("a $")
    @example("app_s(a b)")
    @example("app_s(a,b")
    def agree(text):
        kinds[assert_term_parsers_agree(text)] += 1

    agree()
    # Agreement means little unless texts often parse, as applications too.
    assert min(kinds["App"], kinds["Leaf"], kinds["refused"]) >= 5, kinds


def test_the_scanners_match_str_isspace_and_identifier_characters():
    chars = [chr(i) for i in range(sys.maxunicode + 1)]
    assert [c for c in chars if bool(_SPACE.fullmatch(c)) != c.isspace()] == []
    assert [c for c in chars if bool(_IDENT.fullmatch(c)) != _ident_char(c)] == []
