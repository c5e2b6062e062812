"""JSON documents for graphs and lexica, term text, and DOT export.

Serialization is deterministic: equal values produce byte-identical text,
and parsing a serialized graph reproduces the value exactly (same vertex
ids, same order), not merely an isomorphic copy.

The document readers refuse a document with SchemaError, whose message
names the path of the fault (``lexicon['wash'].graph.edges[1].to: expected
string, got int``).  Every message, and which fault is reported when there
are several, are part of the interface: within an object a key that is not
a string (possible only in a document built in Python) comes first, then
an unknown field, then a missing one; a graph reports its vertices, then
its edges, then its sources, each at the first bad index, and only then
its invariants; a type reports its entries in document order.  The readers test
each value's shape inline and build a path only to word an error; the
fuzz tests hold the earlier, helper-per-value reader as the reference they
must match.
"""
from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping, Union

from .algebra import App, AsGraph, EMPTY_TYPE, GraphType, Leaf, Slot, Term
from .algebra import _TERM_DEPTH_LIMIT, _TYPE_DEPTH_LIMIT
from .graphs import BaseGraph, Edge, GraphError, MsGraph, ROOT_LABEL, Vertex


class SchemaError(GraphError):
    """A document does not match the expected shape; message carries the path."""


class TermSyntaxError(GraphError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# graph documents

def graph_to_document(g: MsGraph) -> dict:
    vertices = []
    for v in g.base.vertices:
        entry: dict[str, Any] = {"id": v.id}
        if v.label is not None:
            entry["label"] = v.label
        vertices.append(entry)
    edges = [{"from": e.src, "to": e.dst, "label": e.label} for e in g.base.edges]
    sources = {a: g.sources[a] for a in sorted(g.sources)}
    return {"vertices": vertices, "edges": edges, "sources": sources}


def _require(value: Any, kind: type, path: str) -> None:
    names = {dict: "object", list: "array", str: "string"}
    if not isinstance(value, kind):
        raise SchemaError(f"{path}: expected {names[kind]}, got {type(value).__name__}")


def _require_key(key: Any, path: str) -> None:
    if not isinstance(key, str):
        raise SchemaError(f"{path}[{key!r}]: expected string key, got {type(key).__name__}")


def _object(value: Any, path: str, required: tuple, optional: tuple = ()) -> None:
    """Check that ``value`` is an object with no unknown field, then no missing one.

    Unknown fields are named in sorted order, unless one is not a string:
    the first such key (in document order) is named instead.
    """
    _require(value, dict, path)
    for key in value:
        if key not in required and key not in optional:
            for other in value:
                _require_key(other, path)
            unknown = sorted(set(value).difference(required, optional))
            raise SchemaError(f"{path}: unknown field(s) {unknown}")
    for key in required:
        if key not in value:
            raise SchemaError(f"{path}: missing field {key!r}")


# A document path is a string, or a ``(parent, key, suffix)`` triple standing
# for ``parent[key]suffix``; the readers format one only to word an error.
_Path = Union[str, tuple]


def _where(path: _Path) -> str:
    if isinstance(path, str):
        return path
    parent, key, suffix = path
    return f"{_where(parent)}[{key!r}]{suffix}"


def graph_from_document(doc: Any, path: _Path = "graph") -> MsGraph:
    # Each value's shape is one inline test; the helper behind it runs only
    # when the test fails, to raise the message the module docstring fixes.
    if not (
        isinstance(doc, dict) and len(doc) == 3
        and "vertices" in doc and "edges" in doc and "sources" in doc
    ):
        _object(doc, _where(path), ("vertices", "edges", "sources"))

    entries = doc["vertices"]
    if not isinstance(entries, list):
        _require(entries, list, f"{_where(path)}.vertices")
    vertices = []
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict) and "id" in entry
            and (len(entry) == 1 or len(entry) == 2 and "label" in entry)
        ):
            _object(entry, f"{_where(path)}.vertices[{i}]", ("id",), ("label",))
        vid = entry["id"]
        label = entry.get("label")
        if not isinstance(vid, str) or label is not None and not isinstance(label, str):
            vp = f"{_where(path)}.vertices[{i}]"
            _require(vid, str, f"{vp}.id")
            _require(label, str, f"{vp}.label")
        vertices.append(Vertex(vid, label))

    entries = doc["edges"]
    if not isinstance(entries, list):
        _require(entries, list, f"{_where(path)}.edges")
    edges = []
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict) and len(entry) == 3
            and "from" in entry and "to" in entry and "label" in entry
        ):
            _object(entry, f"{_where(path)}.edges[{i}]", ("from", "to", "label"))
        src, dst, label = entry["from"], entry["to"], entry["label"]
        if not (isinstance(src, str) and isinstance(dst, str) and isinstance(label, str)):
            ep = f"{_where(path)}.edges[{i}]"
            for key in ("from", "to", "label"):
                _require(entry[key], str, f"{ep}.{key}")
        edges.append(Edge(src, dst, label))

    sources = doc["sources"]
    if not isinstance(sources, dict):
        _require(sources, dict, f"{_where(path)}.sources")
    for a, v in sources.items():
        if not (isinstance(a, str) and isinstance(v, str)):
            _require_key(a, f"{_where(path)}.sources")
            _require(v, str, f"{_where(path)}.sources[{a!r}]")

    g = MsGraph(BaseGraph(tuple(vertices), tuple(edges)), sources)
    if g._violations:
        listing = "; ".join(f"{p.invariant} ({p.detail})" for p in g._violations)
        raise SchemaError(f"{_where(path)}: invalid graph: {listing}")
    return g


# json.dumps' indent=2 layout for one vertex, one edge and one source.
_VERTEX = '\n    {\n      "id": %s\n    }'
_LABELLED_VERTEX = '\n    {\n      "id": %s,\n      "label": %s\n    }'
_EDGE = '\n    {\n      "from": %s,\n      "to": %s,\n      "label": %s\n    }'
_SOURCE = "\n    %s: %s"


def _block(open_: str, items: list[str], close: str) -> str:
    return open_ + ",".join(items) + "\n  " + close if items else open_ + close


def serialize_graph(g: MsGraph) -> str:
    """``json.dumps(graph_to_document(g), indent=2)`` and a newline, byte for byte.

    Written directly, at a fraction of ``json.dumps``' cost; a graph holding
    an id or label that is not a string goes through ``json.dumps`` itself.
    """
    try:
        vertices = [
            _VERTEX % _quote(v.id) if v.label is None
            else _LABELLED_VERTEX % (_quote(v.id), _quote(v.label))
            for v in g.base.vertices
        ]
        edges = [
            _EDGE % (_quote(e.src), _quote(e.dst), _quote(e.label)) for e in g.base.edges
        ]
        sources = [_SOURCE % (_quote(a), _quote(g.sources[a])) for a in sorted(g.sources)]
    except TypeError:  # a value that is not a string: json.dumps writes it, or raises
        return json.dumps(graph_to_document(g), indent=2) + "\n"
    return (
        '{\n  "vertices": ' + _block("[", vertices, "]")
        + ',\n  "edges": ' + _block("[", edges, "]")
        + ',\n  "sources": ' + _block("{", sources, "}") + "\n}\n"
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        counts = Counter(k for k, _ in pairs)
        duplicate = next(k for k, _ in pairs if counts[k] > 1)
        raise SchemaError(f"duplicate key {duplicate!r}")
    return doc


def _load_json(text: str) -> Any:
    """Parse JSON text; malformed, key-repeating or too deeply nested text raises SchemaError.

    So does an integer past Python's digit limit for ``int`` (4,300 by default).
    """
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise SchemaError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
    except ValueError as err:  # json.loads' only other ValueError: the int digit limit
        raise SchemaError(f"JSON integer has too many digits to decode: {err}") from err
    except RecursionError as err:
        raise SchemaError("JSON nests too deeply to decode") from err


def parse_graph(text: str) -> MsGraph:
    return graph_from_document(_load_json(text))


# ---------------------------------------------------------------------------
# lexicon documents

def type_to_document(t: GraphType) -> dict:
    out: dict[str, Any] = {}
    for label in sorted(t.entries):
        slot = t.entries[label]
        entry: dict[str, Any] = {"type": type_to_document(slot.requested)}
        if slot.rename:
            entry["rename"] = {a: slot.rename[a] for a in sorted(slot.rename)}
        out[label] = entry
    return out


def type_from_document(doc: Any, path: _Path = "type") -> GraphType:
    """Read a type document; slots nested more than 64 deep raise SchemaError."""
    return _type_from_document(doc, path, 0)


def _type_from_document(doc: Any, path: _Path, depth: int) -> GraphType:
    if not isinstance(doc, dict):
        _require(doc, dict, _where(path))
    entries = {}
    for label, entry in doc.items():
        if not isinstance(label, str):
            _require_key(label, _where(path))
        if not (
            isinstance(entry, dict) and "type" in entry
            and (len(entry) == 1 or len(entry) == 2 and "rename" in entry)
        ):
            _object(entry, f"{_where(path)}[{label!r}]", ("type",), ("rename",))
        if depth == _TYPE_DEPTH_LIMIT:
            raise SchemaError(
                f"{_where(path)}[{label!r}]: types nest deeper than {_TYPE_DEPTH_LIMIT} levels"
            )
        requested = entry["type"]
        if isinstance(requested, dict) and not requested:  # most slots: no call needed
            requested = EMPTY_TYPE
        else:
            requested = _type_from_document(requested, (path, label, ".type"), depth + 1)
        rename = entry.get("rename", {})
        if not isinstance(rename, dict):
            _require(rename, dict, f"{_where(path)}[{label!r}].rename")
        for a, b in rename.items():
            if not (isinstance(a, str) and isinstance(b, str)):
                _require_key(a, f"{_where(path)}[{label!r}].rename")
                _require(b, str, f"{_where(path)}[{label!r}].rename[{a!r}]")
        try:
            entries[label] = Slot(requested, rename)
        except ValueError as err:
            raise SchemaError(f"{_where(path)}[{label!r}]: {err}") from err
    try:
        return GraphType(entries)
    except ValueError as err:
        raise SchemaError(f"{_where(path)}: {err}") from err


def lexicon_to_document(lexicon: Mapping[str, AsGraph]) -> dict:
    return {
        lexeme: {
            "graph": graph_to_document(lexicon[lexeme].graph),
            "type": type_to_document(lexicon[lexeme].type),
        }
        for lexeme in sorted(lexicon)
    }


def lexicon_from_document(doc: Any) -> dict[str, AsGraph]:
    if not isinstance(doc, dict):
        _require(doc, dict, "lexicon")
    out = {}
    for lexeme, entry in doc.items():
        if not isinstance(lexeme, str):
            _require_key(lexeme, "lexicon")
        if not (
            isinstance(entry, dict) and len(entry) == 2 and "graph" in entry and "type" in entry
        ):
            _object(entry, f"lexicon[{lexeme!r}]", ("graph", "type"))
        graph = graph_from_document(entry["graph"], ("lexicon", lexeme, ".graph"))
        gtype = _type_from_document(entry["type"], ("lexicon", lexeme, ".type"), 0)
        try:
            out[lexeme] = AsGraph(graph, gtype)
        except ValueError as err:
            raise SchemaError(f"lexicon[{lexeme!r}]: {err}") from err
    return out


def serialize_lexicon(lexicon: Mapping[str, AsGraph]) -> str:
    return json.dumps(lexicon_to_document(lexicon), indent=2) + "\n"


def parse_lexicon(text: str) -> dict[str, AsGraph]:
    return lexicon_from_document(_load_json(text))


# ---------------------------------------------------------------------------
# term text

def _ident_char(c: str) -> bool:
    return c.isascii() and (c.isalnum() or c == "_")


def parse_term(text: str) -> Term:
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
# DOT export

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(g: MsGraph) -> str:
    """Render a graph as a DOT digraph.

    Each node's label is its node label (if any) followed by its source
    labels, comma-separated.  Output order is sorted by vertex and edge ids,
    so equal graphs render identically.
    """
    lines = ["digraph {"]
    for v in sorted(g.base.vertices):
        parts = ([v.label] if v.label is not None else []) + sorted(g.slab(v.id))
        lines.append(f'  "{_dot_escape(v.id)}" [label="{_dot_escape(", ".join(parts))}"];')
    for e in sorted(g.base.edges):
        lines.append(
            f'  "{_dot_escape(e.src)}" -> "{_dot_escape(e.dst)}" '
            f'[label="{_dot_escape(e.label)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
