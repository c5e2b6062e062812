"""JSON documents for graphs and lexica, term text, and DOT export.

Serialization is deterministic: equal values produce byte-identical text,
and parsing a serialized graph reproduces the value exactly (same vertex
ids, same order), not merely an isomorphic copy.

Documents are read from JSON text only (``parse_graph``, ``parse_lexicon``).
A reader refuses a document with SchemaError, whose message names the path
of the fault (``lexicon['wash'].graph.edges[1].to: expected string, got
int``).  Every message, and which fault is reported when there are several,
are part of the interface: within an object an unknown field comes first,
then a missing one; a graph reports its vertices, then its edges, then its
sources, each at the first bad index, and only then its invariants; a type
reports its entries in document order.  Each value's shape is one inline
test; the helper that words the error runs only when it fails.  Paths are
plain strings, built per lexicon entry and per nested type, and for a vertex,
edge or source only to word an error.  The fuzz tests hold the earlier,
helper-per-value reader as the reference the readers must match, and the
earlier term parser, with its hand-written scanners, as ``parse_term``'s.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping

from .algebra import App, AsGraph, EMPTY_TYPE, GraphType, Leaf, Slot, Term
from .algebra import _TERM_DEPTH_LIMIT, _TYPE_DEPTH_LIMIT
from .graphs import BaseGraph, Edge, GraphError, MsGraph, ROOT_LABEL, Vertex


class SchemaError(GraphError):
    """A document does not match the expected shape; message carries the path."""


class TermSyntaxError(GraphError):
    """Term text that ``parse_term`` cannot read; ``position`` is a character offset."""

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


def _object(value: Any, path: str, required: tuple, optional: tuple = ()) -> None:
    """Check ``value`` is an object with no unknown field (sorted), then no missing one."""
    _require(value, dict, path)
    unknown = sorted(set(value).difference(required, optional))
    if unknown:
        raise SchemaError(f"{path}: unknown field(s) {unknown}")
    for key in required:
        if key not in value:
            raise SchemaError(f"{path}: missing field {key!r}")


def _graph_from_document(doc: Any, path: str) -> MsGraph:
    if not (
        isinstance(doc, dict) and len(doc) == 3
        and "vertices" in doc and "edges" in doc and "sources" in doc
    ):
        _object(doc, path, ("vertices", "edges", "sources"))

    entries = doc["vertices"]
    if not isinstance(entries, list):
        _require(entries, list, f"{path}.vertices")
    vertices = []
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict) and "id" in entry
            and (len(entry) == 1 or len(entry) == 2 and "label" in entry)
        ):
            _object(entry, f"{path}.vertices[{i}]", ("id",), ("label",))
        vid = entry["id"]
        label = entry.get("label")
        if not isinstance(vid, str) or label is not None and not isinstance(label, str):
            vp = f"{path}.vertices[{i}]"
            _require(vid, str, f"{vp}.id")
            _require(label, str, f"{vp}.label")
        vertices.append(Vertex(vid, label))

    entries = doc["edges"]
    if not isinstance(entries, list):
        _require(entries, list, f"{path}.edges")
    edges = []
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict) and len(entry) == 3
            and "from" in entry and "to" in entry and "label" in entry
        ):
            _object(entry, f"{path}.edges[{i}]", ("from", "to", "label"))
        src, dst, label = entry["from"], entry["to"], entry["label"]
        if not (isinstance(src, str) and isinstance(dst, str) and isinstance(label, str)):
            ep = f"{path}.edges[{i}]"
            for key in ("from", "to", "label"):
                _require(entry[key], str, f"{ep}.{key}")
        edges.append(Edge(src, dst, label))

    sources = doc["sources"]
    if not isinstance(sources, dict):
        _require(sources, dict, f"{path}.sources")
    for a, v in sources.items():
        if not isinstance(v, str):
            _require(v, str, f"{path}.sources[{a!r}]")

    g = MsGraph(BaseGraph(tuple(vertices), tuple(edges)), sources)
    if g._violations:
        listing = "; ".join(f"{p.invariant} ({p.detail})" for p in g._violations)
        raise SchemaError(f"{path}: invalid graph: {listing}")
    return g


# json.dumps' indent=2 layout for one vertex, one edge and one source.
_VERTEX = '\n    {\n      "id": %s\n    }'
_LABELLED_VERTEX = '\n    {\n      "id": %s,\n      "label": %s\n    }'
_EDGE = '\n    {\n      "from": %s,\n      "to": %s,\n      "label": %s\n    }'
_SOURCE = "\n    %s: %s"


def _block(open_: str, items: list[str], close: str) -> str:
    return open_ + ",".join(items) + "\n  " + close if items else open_ + close


_NOT_STRINGS = "graph vertex ids, labels and source labels must be strings"


def serialize_graph(g: MsGraph) -> str:
    """What ``json.dumps`` writes for ``graph_to_document(g)`` at ``indent=2``, and a newline.

    Written directly, at a fraction of ``json.dumps``' cost.  An id or label
    that is not a string, which ``parse_graph`` could not read back, raises SchemaError.
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
    except TypeError as err:  # a value that is not a string, or unsortable labels
        raise SchemaError(_NOT_STRINGS) from err
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
    return _graph_from_document(_load_json(text), "graph")


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


def _type_from_document(doc: Any, path: str, depth: int) -> GraphType:
    if not isinstance(doc, dict):
        _require(doc, dict, path)
    entries = {}
    for label, entry in doc.items():
        if not (
            isinstance(entry, dict) and "type" in entry
            and (len(entry) == 1 or len(entry) == 2 and "rename" in entry)
        ):
            _object(entry, f"{path}[{label!r}]", ("type",), ("rename",))
        if depth == _TYPE_DEPTH_LIMIT:
            raise SchemaError(
                f"{path}[{label!r}]: types nest deeper than {_TYPE_DEPTH_LIMIT} levels"
            )
        requested = entry["type"]
        if isinstance(requested, dict) and not requested:  # most slots: no call needed
            requested = EMPTY_TYPE
        else:
            requested = _type_from_document(requested, f"{path}[{label!r}].type", depth + 1)
        rename = entry.get("rename", {})
        if not isinstance(rename, dict):
            _require(rename, dict, f"{path}[{label!r}].rename")
        for a, b in rename.items():
            if not isinstance(b, str):
                _require(b, str, f"{path}[{label!r}].rename[{a!r}]")
        try:
            entries[label] = Slot(requested, rename)
        except ValueError as err:
            raise SchemaError(f"{path}[{label!r}]: {err}") from err
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


def serialize_lexicon(lexicon: Mapping[str, AsGraph]) -> str:
    return json.dumps(lexicon_to_document(lexicon), indent=2) + "\n"


def parse_lexicon(text: str) -> dict[str, AsGraph]:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        _require(doc, dict, "lexicon")
    out = {}
    for lexeme, entry in doc.items():
        path = f"lexicon[{lexeme!r}]"
        if not (
            isinstance(entry, dict) and len(entry) == 2 and "graph" in entry and "type" in entry
        ):
            _object(entry, path, ("graph", "type"))
        graph = _graph_from_document(entry["graph"], f"{path}.graph")
        gtype = _type_from_document(entry["type"], f"{path}.type", 0)
        try:
            out[lexeme] = AsGraph(graph, gtype)
        except ValueError as err:
            raise SchemaError(f"{path}: {err}") from err
    return out


# ---------------------------------------------------------------------------
# term text

_SPACE = re.compile(r"\s*")  # what str.isspace accepts
_IDENT = re.compile(r"[A-Za-z0-9_]*")


def parse_term(text: str) -> Term:
    """Parse ``lexeme`` or ``app_<label>(term, term)`` with arbitrary whitespace.

    An identifier is ASCII letters, digits and ``_``, and does not start with
    a digit.  Whitespace is anything ``str.isspace`` accepts, Unicode spaces
    included.  ``app_<label>`` not followed by ``(`` is a lexeme.
    Applications may nest at most 256 deep; a deeper term raises
    TermSyntaxError.
    """
    result, pos = _term(text, 0, 0)
    if pos != len(text):
        raise TermSyntaxError("unexpected trailing input", pos)
    return result


def _term(text: str, pos: int, depth: int) -> tuple[Term, int]:
    """The term after any whitespace at ``pos``, and where the whitespace after it ends."""
    start = _SPACE.match(text, pos).end()
    end = _IDENT.match(text, start).end()
    ident = text[start:end]
    if not ident:
        raise TermSyntaxError("expected an identifier", start)
    if ident[0].isdigit():
        raise TermSyntaxError(f"identifier {ident!r} may not start with a digit", start)
    pos = _SPACE.match(text, end).end()
    if not (ident.startswith("app_") and text.startswith("(", pos)):
        return Leaf(ident), pos
    label = ident[4:]
    if not label or label[0].isdigit():
        raise TermSyntaxError(f"bad apply label {label!r}", start)
    if label == ROOT_LABEL:
        raise TermSyntaxError("cannot apply at the root label", start)
    if depth == _TERM_DEPTH_LIMIT:
        raise TermSyntaxError(f"applications nest deeper than {_TERM_DEPTH_LIMIT} levels", start)
    functor, pos = _term(text, pos + 1, depth + 1)
    if not text.startswith(",", pos):
        raise TermSyntaxError("expected ','", pos)
    argument, pos = _term(text, pos + 1, depth + 1)
    if not text.startswith(")", pos):
        raise TermSyntaxError("expected ')'", pos)
    return App(label, functor, argument), _SPACE.match(text, pos + 1).end()


# ---------------------------------------------------------------------------
# DOT export

def _dot_escape(text: str) -> str:
    # str.replace, so that a value that is not a string raises TypeError.
    return str.replace(text, "\\", "\\\\").replace('"', '\\"')


def export_dot(g: MsGraph) -> str:
    """Render a graph as a DOT digraph.

    Each node's label is its node label (if any) followed by its source
    labels, comma-separated.  Output order is sorted by vertex id and by
    edge, so equal graphs render identically.  A graph holding an id or
    label that is not a string raises SchemaError, as in ``serialize_graph``.
    """
    lines = ["digraph {"]
    try:
        for v in sorted(g.base.vertices, key=lambda v: v.id):
            parts = ([v.label] if v.label is not None else []) + sorted(g.slab(v.id))
            lines.append(f'  "{_dot_escape(v.id)}" [label="{_dot_escape(", ".join(parts))}"];')
        for e in sorted(g.base.edges):
            lines.append(
                f'  "{_dot_escape(e.src)}" -> "{_dot_escape(e.dst)}" '
                f'[label="{_dot_escape(e.label)}"];'
            )
    except TypeError as err:  # a value that is not a string, or unsortable ones
        raise SchemaError(_NOT_STRINGS) from err
    lines.append("}")
    return "\n".join(lines) + "\n"
