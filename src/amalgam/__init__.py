"""Graph algebra for source-labeled multigraphs.

Vertices may carry several source labels; composition merges equally
labeled sources via an equivalence closure, and typed apply operations
build sentence graphs from a lexicon.
"""
from .algebra import (
    App,
    ApplyMode,
    AsGraph,
    EMPTY_TYPE,
    GraphType,
    Leaf,
    LexiconError,
    ORIGINAL,
    RELAXED,
    RELAXED_STRICT,
    Slot,
    Term,
    Undefined,
    apply,
    evaluate,
    format_term,
    format_type,
)
from .campaigns import (
    CampaignReport,
    Failure,
    check_algebraic_properties,
    check_apply_reduction,
    check_composition_equivalence,
)
from .compose import (
    NodeLabelConflictError,
    SGraphRequiredError,
    VertexOverlapError,
    compose_disjoint,
    disjoint_copy,
    parallel_compose,
    parallel_compose_classic,
)
from .graphs import (
    BaseGraph,
    CapacityError,
    Edge,
    EnumerationBounds,
    GraphError,
    MissingSourceError,
    MsGraph,
    RenameCollisionError,
    ROOT_LABEL,
    UnknownVertexError,
    Vertex,
    Violation,
    build_graph,
    count_graphs,
    enumerate_graphs,
    find_isomorphism,
    isomorphic,
    validate,
)
from .serialize import (
    SchemaError,
    TermSyntaxError,
    export_dot,
    graph_to_document,
    lexicon_to_document,
    parse_graph,
    parse_lexicon,
    parse_term,
    serialize_graph,
    serialize_lexicon,
    type_to_document,
)

__version__ = "0.1.0"
