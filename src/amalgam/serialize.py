"""JSON documents for graphs and lexica, term text, and DOT export.

Serialization is deterministic: equal values produce byte-identical text,
and parsing a serialized graph reproduces the value exactly (same vertex
ids, same order), not merely an isomorphic copy.
"""
from __future__ import annotations

import json
from typing import Any, Mapping

from .algebra import App, AsGraph, GraphType, Leaf, Slot, Term
from .algebra import _TERM_DEPTH_LIMIT, _TYPE_DEPTH_LIMIT
from .graphs import GraphError, MsGraph, ROOT_LABEL, build_graph


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


def graph_from_document(doc: Any, path: str = "graph") -> MsGraph:
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


def serialize_graph(g: MsGraph) -> str:
    return json.dumps(graph_to_document(g), indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    doc = dict(pairs)
    if len(doc) != len(pairs):
        keys = [k for k, _ in pairs]
        duplicate = next(k for k in keys if keys.count(k) > 1)
        raise SchemaError(f"duplicate key {duplicate!r}")
    return doc


def _load_json(text: str) -> Any:
    """Parse JSON text; malformed, key-repeating or too deeply nested text raises SchemaError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise SchemaError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
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


def type_from_document(doc: Any, path: str = "type") -> GraphType:
    """Read a type document; slots nested more than 64 deep raise SchemaError."""
    return _type_from_document(doc, path, 0)


def _type_from_document(doc: Any, path: str, depth: int) -> GraphType:
    _require(doc, dict, path)
    entries = {}
    for label, entry in doc.items():
        ep = f"{path}[{label!r}]"
        _object(entry, ep, ("type",), ("rename",))
        if depth == _TYPE_DEPTH_LIMIT:
            raise SchemaError(f"{ep}: types nest deeper than {_TYPE_DEPTH_LIMIT} levels")
        requested = _type_from_document(entry["type"], f"{ep}.type", depth + 1)
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


def lexicon_to_document(lexicon: Mapping[str, AsGraph]) -> dict:
    return {
        lexeme: {
            "graph": graph_to_document(lexicon[lexeme].graph),
            "type": type_to_document(lexicon[lexeme].type),
        }
        for lexeme in sorted(lexicon)
    }


def lexicon_from_document(doc: Any) -> dict[str, AsGraph]:
    _require(doc, dict, "lexicon")
    out = {}
    for lexeme, entry in doc.items():
        ep = f"lexicon[{lexeme!r}]"
        _object(entry, ep, ("graph", "type"))
        graph = graph_from_document(entry["graph"], f"{ep}.graph")
        gtype = type_from_document(entry["type"], f"{ep}.type")
        try:
            out[lexeme] = AsGraph(graph, gtype)
        except ValueError as err:
            raise SchemaError(f"{ep}: {err}") from err
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
