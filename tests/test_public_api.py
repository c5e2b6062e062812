"""The names ``amalgam`` exports: changing them takes an edit here."""
from __future__ import annotations

import types

import amalgam

PUBLIC_NAMES = [
    "App",
    "ApplyMode",
    "AsGraph",
    "BaseGraph",
    "CampaignReport",
    "CapacityError",
    "EMPTY_TYPE",
    "Edge",
    "EnumerationBounds",
    "Failure",
    "GraphError",
    "GraphType",
    "Leaf",
    "LexiconError",
    "MissingSourceError",
    "MsGraph",
    "NodeLabelConflictError",
    "ORIGINAL",
    "RELAXED",
    "RELAXED_STRICT",
    "ROOT_LABEL",
    "RenameCollisionError",
    "SGraphRequiredError",
    "SchemaError",
    "Slot",
    "Term",
    "TermSyntaxError",
    "Undefined",
    "UnknownVertexError",
    "Vertex",
    "VertexOverlapError",
    "Violation",
    "apply",
    "build_graph",
    "check_algebraic_properties",
    "check_apply_reduction",
    "check_composition_equivalence",
    "compose_disjoint",
    "count_graphs",
    "disjoint_copy",
    "enumerate_graphs",
    "evaluate",
    "export_dot",
    "find_isomorphism",
    "format_term",
    "format_type",
    "graph_to_document",
    "isomorphic",
    "lexicon_to_document",
    "parallel_compose",
    "parallel_compose_classic",
    "parse_graph",
    "parse_lexicon",
    "parse_term",
    "serialize_graph",
    "serialize_lexicon",
    "type_to_document",
    "validate",
]


def test_public_surface_is_pinned():
    # Submodules become package attributes once imported, so they are not
    # part of the comparison; the construction steps stay in amalgam.compose,
    # and apply's type steps in amalgam.algebra.
    exported = sorted(
        name
        for name, value in vars(amalgam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
