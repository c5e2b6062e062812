"""Typed apply over source-labeled graphs, and term evaluation.

An as-graph pairs a rooted graph with a graph type: one entry per open
source, each entry recording the argument type that slot requests and a
rename map applied to the argument's remaining open sources.

``apply`` fills one slot: the argument is renamed (slot rename, then its
root onto the slot label), composed in, and the slot label forgotten.
Whether the application is defined is decided by numbered conditions checked
in a fixed order; an undefined application is an ordinary result value, not
an exception.  Two condition sets exist: the original one, and a relaxed one
that tolerates arguments whose root carries extra source labels (the
mechanism behind reflexive readings) while guarding the problematic cases.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Union

from .compose import parallel_compose
from .graphs import CapacityError, GraphError, MsGraph, RenameCollisionError, ROOT_LABEL


class LexiconError(GraphError):
    pass


# Deepest slot nesting a type may have: comparing and rendering types recurse per level.
_TYPE_DEPTH_LIMIT = 64

_NO_ENTRIES: Mapping = MappingProxyType({})


@dataclass(frozen=True, init=False)
class GraphType:
    """A finite map from open source labels to argument expectations.

    The root label is never an entry.  Equality is structural.  Slots nest
    at most 64 levels deep: building a deeper Slot raises CapacityError.
    ``entries`` is a read-only view of a private copy, so the depth each
    enclosing Slot measured holds.
    """

    entries: Mapping[str, "Slot"]

    # Fields are written to __dict__ directly; graphs._cached says why.
    def __init__(self, entries: Mapping[str, "Slot"] = _NO_ENTRIES) -> None:
        entries = dict(entries)
        if ROOT_LABEL in entries:
            raise ValueError("the root label cannot be an open slot")
        self.__dict__["entries"] = MappingProxyType(entries)

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain copy instead.
        return type(self), (self.entries.copy(),)


EMPTY_TYPE = GraphType()


@dataclass(frozen=True, init=False)
class Slot:
    """What one open source expects: an argument type and a rename map.

    ``rename`` is a read-only view of a private copy, so it stays injective
    and never names the root label or the empty label.
    """

    requested: GraphType
    rename: Mapping[str, str]

    def __init__(
        self, requested: GraphType = EMPTY_TYPE, rename: Mapping[str, str] = _NO_ENTRIES
    ) -> None:
        rename = dict(rename)
        if len(set(rename.values())) != len(rename):
            raise ValueError("slot rename map must be injective")
        if rename and not {ROOT_LABEL, ""}.isdisjoint(rename.keys() | rename.values()):
            raise ValueError(f"slot rename map cannot name {ROOT_LABEL!r} or the empty label")
        # Slot levels from here down, read off the measured slots below: no recursion.
        depth = 1
        for s in requested.entries.values():
            if s._depth >= depth:
                depth = s._depth + 1
        if depth > _TYPE_DEPTH_LIMIT:
            raise CapacityError(f"types nest deeper than {_TYPE_DEPTH_LIMIT} levels")
        d = self.__dict__
        d["requested"] = requested
        d["rename"] = MappingProxyType(rename)
        d["_depth"] = depth

    def __reduce__(self):
        return type(self), (self.requested, self.rename.copy())


def type_remove(t: GraphType, labels) -> GraphType:
    """``t`` without the given entries; ``t`` itself when it has none of them."""
    drop = set(labels)
    if drop.isdisjoint(t.entries):
        return t
    return GraphType({k: s for k, s in t.entries.items() if k not in drop})


def type_rekey(t: GraphType, rename: Mapping[str, str]) -> GraphType:
    """Push entry keys through the rename map (identity off its domain).

    ``t`` itself when the map renames none of its entries.
    """
    if rename.keys().isdisjoint(t.entries):
        return t
    out: dict[str, Slot] = {}
    for k, slot in t.entries.items():
        nk = rename.get(k, k)
        if nk in out:
            raise RenameCollisionError(
                f"rekeying a type by {dict(rename)!r} collapses two {nk!r} entries"
            )
        out[nk] = slot
    return GraphType(out)


def format_type(t: GraphType) -> str:
    """Compact one-line rendering, e.g. ``{o, s}`` or ``{s: {o}}``."""
    if not t.entries:
        return "{}"
    parts = []
    for label in sorted(t.entries):
        slot = t.entries[label]
        text = label
        if slot.rename:
            text += "/" + ",".join(f"{a}>{b}" for a, b in sorted(slot.rename.items()))
        if slot.requested.entries:
            text += ": " + format_type(slot.requested)
        parts.append(text)
    return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True, init=False)
class AsGraph:
    """A rooted graph annotated with a graph type.

    Valid by construction: the graph must pass validation, carry a root
    source, and the type domain must be exactly the non-root source labels.
    """

    graph: MsGraph
    type: GraphType

    def __init__(self, graph: MsGraph, type: GraphType = EMPTY_TYPE) -> None:
        problems = graph._violations
        if problems:
            raise ValueError(
                "as-graph over an invalid graph: " + "; ".join(p.detail for p in problems)
            )
        if ROOT_LABEL not in graph.sources:
            raise ValueError("as-graph requires a root source")
        open_sources = graph.tau - {ROOT_LABEL}
        if type.entries.keys() != open_sources:
            raise ValueError(
                f"type domain {sorted(type.entries)} must equal the open "
                f"sources {sorted(open_sources)}"
            )
        d = self.__dict__
        d["graph"] = graph
        d["type"] = type


class ApplyMode(Enum):
    """Which definedness conditions apply.

    ORIGINAL: conditions 1, 2, 3.
    RELAXED: conditions 1, 2a, 2b, 4, 3.
    RELAXED_STRICT: the relaxed ladder, and condition 4 also requires the
    slot label to be clear of the argument's extra root labels.
    """

    ORIGINAL = "original"
    RELAXED = "relaxed"
    RELAXED_STRICT = "relaxed-strict"


ORIGINAL, RELAXED, RELAXED_STRICT = ApplyMode


@dataclass(frozen=True, init=False)
class Undefined:
    """A failed definedness check: which condition, and why.

    ``strict_clause`` marks the strict-root half of condition 4.  When the
    failure happened inside a term, ``subterm`` holds the innermost failing
    application.
    """

    condition: str
    detail: str
    strict_clause: bool
    subterm: str | None

    def __init__(
        self, condition: str, detail: str, strict_clause: bool = False, subterm: str | None = None
    ) -> None:
        d = self.__dict__
        d["condition"] = condition
        d["detail"] = detail
        d["strict_clause"] = strict_clause
        d["subterm"] = subterm

    def message(self) -> str:
        where = f" at {self.subterm}" if self.subterm else ""
        return f"undefined ({self.condition}){where}: {self.detail}"


def apply(
    label: str, functor: AsGraph, argument: AsGraph, mode: ApplyMode = RELAXED
) -> AsGraph | Undefined:
    """Fill the functor's ``label`` slot with the argument's root.

    Returns the combined as-graph, or an Undefined naming the first failing
    condition.  Rename collisions and node-label conflicts during the graph
    work are bugs in the inputs, not type mismatches, and raise instead.
    A ``mode`` that is not an ApplyMode raises TypeError.
    """
    if not isinstance(mode, ApplyMode):
        raise TypeError(f"mode must be an ApplyMode, not {mode!r}")
    if label == ROOT_LABEL:
        raise ValueError("cannot apply at the root label")
    t1, t2 = functor.type, argument.type

    # condition 1: the slot must exist
    if label not in t1.entries:
        return Undefined(
            "condition 1",
            f"functor has no open {label!r} slot (its type is {format_type(t1)})",
        )
    slot = t1.entries[label]

    if mode is ORIGINAL:
        # condition 2: requested type matches the argument exactly
        if slot.requested != t2:
            return Undefined(
                "condition 2",
                f"slot {label!r} requests an argument of type "
                f"{format_type(slot.requested)}, but the argument has type {format_type(t2)}",
            )
    else:
        rlab2 = argument.graph.rlab()
        # condition 2a: requested type matches the argument minus the slots
        # its own extra root labels will discharge
        remainder = type_remove(t2, rlab2)
        if slot.requested != remainder:
            return Undefined(
                "condition 2a",
                f"slot {label!r} requests {format_type(slot.requested)}, but after "
                f"discharging extra root labels {sorted(rlab2)} the argument still "
                f"has type {format_type(remainder)}",
            )
        # condition 2b: discharged slots must agree with the functor's own
        for beta, s in t2.entries.items():
            if beta in rlab2 and t1.entries.get(beta) != s:
                return Undefined(
                    "condition 2b",
                    f"the argument's extra root label {beta!r} must match the "
                    f"functor's own {beta!r} slot, which differs or is absent",
                )
        # condition 4: the slot label itself must not be an extra root label
        if label in functor.graph.rlab():
            return Undefined(
                "condition 4", f"{label!r} is an extra root label of the functor"
            )
        if mode is RELAXED_STRICT and label in rlab2:
            return Undefined(
                "condition 4",
                f"{label!r} is an extra root label of the argument",
                strict_clause=True,
            )

    # condition 3: the merged type must be a function
    kept = {k: s for k, s in t1.entries.items() if k != label}
    rekeyed = type_rekey(t2, slot.rename)
    for beta, s in rekeyed.entries.items():
        if beta in kept and kept[beta] != s:
            return Undefined(
                "condition 3",
                f"after the merge, slot {beta!r} would be requested two different ways",
            )

    refreshed = argument.graph.rename(slot.rename).rename({ROOT_LABEL: label})
    combined = parallel_compose(functor.graph, refreshed)
    result_graph = combined.forget(label)
    return AsGraph(result_graph, GraphType({**kept, **rekeyed.entries}))


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Leaf:
    lexeme: str


@dataclass(frozen=True)
class App:
    label: str
    functor: "Term"
    argument: "Term"

    def __post_init__(self) -> None:
        if self.label == ROOT_LABEL:
            raise ValueError("cannot apply at the root label")


Term = Union[Leaf, App]


def format_term(t: Term) -> str:
    if isinstance(t, Leaf):
        return t.lexeme
    return f"app_{t.label}({format_term(t.functor)},{format_term(t.argument)})"


# Deepest application nesting evaluate and parse_term accept.  Evaluation
# recurses once per level, so this keeps well inside Python's default
# recursion limit of 1,000 frames; generated sentences nest a few dozen deep.
_TERM_DEPTH_LIMIT = 256


def evaluate(
    term: Term, lexicon: Mapping[str, AsGraph], mode: ApplyMode = RELAXED
) -> AsGraph | Undefined:
    """Evaluate a term bottom-up against a lexicon.

    An undefined application anywhere makes the whole term undefined; the
    returned Undefined names the innermost failing application.
    Applications may nest at most 256 deep; a deeper term raises
    CapacityError.
    """

    def value(t: Term, depth: int) -> AsGraph | Undefined:
        if isinstance(t, Leaf):
            if t.lexeme not in lexicon:
                raise LexiconError(f"unknown lexeme {t.lexeme!r}")
            return lexicon[t.lexeme]
        if isinstance(t, App):
            if depth == _TERM_DEPTH_LIMIT:
                raise CapacityError(
                    f"applications nest deeper than {_TERM_DEPTH_LIMIT} levels"
                )
            functor = value(t.functor, depth + 1)
            if isinstance(functor, Undefined):
                return functor
            argument = value(t.argument, depth + 1)
            if isinstance(argument, Undefined):
                return argument
            result = apply(t.label, functor, argument, mode)
            if isinstance(result, Undefined) and result.subterm is None:
                result = replace(result, subterm=format_term(t))
            return result
        raise TypeError(f"not a term: {t!r}")

    return value(term, 0)
