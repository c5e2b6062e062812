"""Shared fixtures and the acceptance summary hook.

The lexicon here is written out independently of scripts/regenerate_fixtures.py
on purpose: the sync test comparing it against fixtures/lexicon.json is
double-entry bookkeeping for the fixture content.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from amalgam import AsGraph, EMPTY_TYPE, EnumerationBounds, GraphType, Slot, build_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# 268 graphs: <=2 vertices, source labels a, b, c, node labels x or y, no
# edges.  Their ordered pairs hold merge classes of three, node-label
# conflicts and pairs with two conflicting classes.
LABELLED = EnumerationBounds(
    max_vertices=2, source_labels=("a", "b", "c"), node_labels=("x", "y"), max_edges=0
)


def make_lexicon() -> dict[str, AsGraph]:
    wash = build_graph(
        [("w", "wash"), ("s_arg", None), ("o_arg", None)],
        [("w", "s_arg", "ARG0"), ("w", "o_arg", "ARG1")],
        {"rt": "w", "s": "s_arg", "o": "o_arg"},
    )
    raven = build_graph([("r", "raven")], [], {"rt": "r"})
    reflexive = build_graph([("x", None)], [], {"rt": "x", "s": "x"})
    return {
        "wash": AsGraph(wash, GraphType({"s": Slot(), "o": Slot()})),
        "raven": AsGraph(raven, EMPTY_TYPE),
        "self": AsGraph(reflexive, GraphType({"s": Slot()})),
    }


def _slot_rename_lexicon(rename: dict[str, str], argument_type: dict) -> dict:
    """A lexicon document: f's slot s requests ``argument_type`` and renames
    the argument's sources by ``rename``; the lexeme a has that type."""
    a_vertices = [{"id": "x", "label": "a"}] + [{"id": label} for label in argument_type]
    return {
        "f": {
            "graph": {
                "vertices": [{"id": "r", "label": "f"}, {"id": "s"}],
                "edges": [],
                "sources": {"rt": "r", "s": "s"},
            },
            "type": {"s": {"type": argument_type, "rename": rename}},
        },
        "a": {
            "graph": {
                "vertices": a_vertices,
                "edges": [],
                "sources": {"rt": "x", **{label: label for label in argument_type}},
            },
            "type": argument_type,
        },
    }


# Slot renames that name the root label or the empty label: a reader that
# accepted them left app_s(f, a) to fail with a bare ValueError.
SLOT_RENAME_LEXICONS = (
    _slot_rename_lexicon({"rt": "z"}, {}),
    _slot_rename_lexicon({"o": "rt"}, {"o": {"type": {}}}),
    _slot_rename_lexicon({"o": ""}, {"o": {"type": {}}}),
)


@pytest.fixture
def lexicon() -> dict[str, AsGraph]:
    return make_lexicon()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


# --------------------------------------------------------------------------
# acceptance criteria summary

_CRITERIA: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, name: str, passed: bool) -> None:
    _CRITERIA[number] = (name, passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERIA):
        name, passed = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({name}): {verdict}")
