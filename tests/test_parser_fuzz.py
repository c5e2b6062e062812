"""Fuzzed parser input: only SchemaError or TermSyntaxError may escape."""
from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from amalgam import (
    SchemaError,
    TermSyntaxError,
    graph_from_document,
    lexicon_from_document,
    parse_graph,
    parse_lexicon,
    parse_term,
    type_from_document,
)

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


def documents_fail_cleanly(doc) -> None:
    for read in (graph_from_document, type_from_document, lexicon_from_document):
        try:
            read(doc)
        except SchemaError:
            pass


def texts_fail_cleanly(text: str) -> None:
    for parse in (parse_graph, parse_lexicon):
        try:
            parse(text)
        except SchemaError:
            pass


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_documents_raise_only_schema_errors(doc):
    documents_fail_cleanly(doc)
    documents_fail_cleanly({"it": {"graph": doc, "type": doc}})
    texts_fail_cleanly(json.dumps(doc))


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
    if depth <= 500:  # within json.loads' own reach
        documents_fail_cleanly(json.loads(deep))


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
        try:
            parse_term(text)
        except TermSyntaxError:
            pass
