"""Cross-checking campaigns: exhaustive and randomized property sweeps.

Three campaigns back the core claims with executable evidence:

* composition equivalence: over every pair of enumerated single-label
  graphs, the merge-based composition agrees with the classic glue-based
  one up to isomorphism, unions the label sets, and keeps the left
  operand's sources in place;
* apply reduction: on as-graphs whose roots carry no extra labels, the
  original and relaxed apply variants agree;
* algebraic properties: identity and commutativity of composition
  (exhaustive) and associativity (seeded random triples, reported as
  findings).  Each law compares two ``compose_disjoint`` results through
  the vertex bijection the construction fixes; the isomorphism search runs
  only when that check fails, so the verdicts are those of the search.

Reports are plain data and deterministic for a given (bounds, seed).
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .algebra import (
    AsGraph,
    ApplyMode,
    EMPTY_TYPE,
    GraphType,
    ORIGINAL,
    RELAXED,
    Slot,
    Undefined,
    apply,
)
from .compose import (
    NodeLabelConflictError,
    SGraphRequiredError,
    compose_disjoint,
    disjoint_copy,
    parallel_compose_classic,
)
from .graphs import (
    CapacityError,
    EnumerationBounds,
    GraphError,
    MsGraph,
    ROOT_LABEL,
    build_graph,
    count_graphs,
    enumerate_graphs,
    isomorphic,
    _is_isomorphism,
)
from .serialize import graph_to_document, type_to_document

PAIR_BUDGET = 4_000_000


@dataclass(frozen=True)
class Failure:
    case: dict
    expected: str
    observed: str

    def to_document(self) -> dict:
        return {"case": self.case, "expected": self.expected, "observed": self.observed}


@dataclass(frozen=True)
class CampaignReport:
    campaign: str
    parameters: dict
    cases_run: int
    failures: tuple[Failure, ...] = ()
    findings: tuple[Failure, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_document(self) -> dict:
        return {
            "campaign": self.campaign,
            "parameters": self.parameters,
            "cases_run": self.cases_run,
            "passed": self.passed,
            "failures": [f.to_document() for f in self.failures],
            "findings": [f.to_document() for f in self.findings],
        }


DEFAULT_EQUIVALENCE_BOUNDS = EnumerationBounds(sgraphs_only=True)


def _population(bounds: EnumerationBounds) -> tuple[list[MsGraph], list[MsGraph]]:
    """Every graph within the bounds, and a disjoint copy of each.

    Raises CapacityError, before enumerating any graph, when the ordered
    pairs (``count_graphs(bounds)`` squared) are over ``PAIR_BUDGET``; when
    ``max_vertices + 1`` graphs already make too many, before counting.  A
    copy only depends on the ids in play, so one copy per graph, primed clear
    of every id in the population, serves every pair; compose_disjoint still
    enforces disjointness per pair.
    """
    least = bounds.max_vertices + 1  # each vertex count adds at least one graph
    if least * least > PAIR_BUDGET:
        raise CapacityError(
            f"at least {least} graphs (one per vertex count) make at least "
            f"{least * least} ordered pairs, over the budget of {PAIR_BUDGET}"
        )
    population = count_graphs(bounds)
    if population * population > PAIR_BUDGET:
        raise CapacityError(
            f"{population} graphs make {population * population} ordered pairs, "
            f"over the budget of {PAIR_BUDGET}"
        )
    graphs = list(enumerate_graphs(bounds))
    all_ids = {v for g in graphs for v in g.base._ids}
    return graphs, [disjoint_copy(h, all_ids) for h in graphs]


def _compose(g: MsGraph | None, h_prime: MsGraph | None) -> MsGraph | None:
    """``compose_disjoint(g, h_prime)``, or None for a refusal.

    The composition refuses when fused vertices carry two node labels, and
    when an operand is itself a refusal (None).
    """
    if g is None or h_prime is None:
        return None
    try:
        return compose_disjoint(g, h_prime)
    except NodeLabelConflictError:
        return None


def check_composition_equivalence(bounds: EnumerationBounds | None = None) -> CampaignReport:
    """Differential sweep of merge-based vs glue-based composition.

    Enumerates every graph within the bounds (which must be restricted to
    single-label-per-vertex graphs, since the glue oracle refuses anything
    else) and checks, for every ordered pair: isomorphism of the two
    compositions, the label-set union law, preservation of the left
    operand's source assignments, and that every left vertex survives.  A
    pair both compositions refuse with NodeLabelConflictError agrees; a pair
    only one refuses fails.
    """
    bounds = bounds or DEFAULT_EQUIVALENCE_BOUNDS
    if not bounds.sgraphs_only:
        raise SGraphRequiredError(
            "equivalence campaign needs sgraphs_only bounds; the glue-based "
            "reference is undefined on multi-label graphs"
        )
    graphs, copies = _population(bounds)
    failures: list[Failure] = []

    def fail(g: MsGraph, h: MsGraph, expected: str, observed: str) -> None:
        failures.append(
            Failure(
                {"left": graph_to_document(g), "right": graph_to_document(h)},
                expected,
                observed,
            )
        )

    for g in graphs:
        g_sources = g.sources
        g_tau = g.tau
        g_ids = set(g.base.vertex_ids())
        for h, h_prime in zip(graphs, copies):
            merged = _compose(g, h_prime)
            try:
                glued = parallel_compose_classic(g, h)
            except NodeLabelConflictError:
                glued = None
            if merged is None or glued is None:
                if merged is not glued:
                    refused = "merge-based" if merged is None else "glue-based"
                    fail(
                        g, h,
                        "both compositions refuse a node-label conflict, or neither does",
                        f"only the {refused} composition refused",
                    )
                continue
            if not isomorphic(merged, glued):
                fail(g, h, "merge-based result isomorphic to glue-based result", "not isomorphic")
                continue
            if merged.tau != g_tau | h.tau:
                fail(
                    g, h,
                    "label set of the composition is the union of the operands'",
                    f"got {sorted(merged.tau)}",
                )
            bad = [a for a in g_sources if merged.sources[a] != g_sources[a]]
            if bad:
                fail(
                    g, h,
                    "left operand's source assignments survive the composition",
                    f"labels {bad} moved",
                )
            if not g_ids <= {v.id for v in merged.base.vertices}:
                fail(
                    g, h,
                    "every left-operand vertex is chosen as its class representative",
                    "some left vertex was dropped",
                )

    return CampaignReport(
        campaign="composition-equivalence",
        parameters={"bounds": asdict(bounds)},
        cases_run=len(graphs) ** 2,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# apply reduction

_SOURCE_POOL = ("s", "o", "a", "b")
_NODE_LABEL_POOL = (None, None, None, "n1", "n2")
_EDGE_LABEL_POOL = ("e0", "e1")


def _random_small_type(rng: random.Random, depth: int) -> GraphType:
    if depth <= 0 or rng.random() < 0.7:
        return EMPTY_TYPE
    labels = rng.sample(_SOURCE_POOL, rng.randint(1, 2))
    return GraphType({b: Slot(_random_small_type(rng, depth - 1)) for b in labels})


def _random_rooted_graph(rng: random.Random, prefix: str) -> MsGraph:
    """A small graph whose root carries only the root label."""
    extra = rng.randint(0, 2)
    ids = [f"{prefix}{i}" for i in range(extra + 1)]
    vertices = [(v, rng.choice(_NODE_LABEL_POOL)) for v in ids]
    sources = {ROOT_LABEL: ids[0]}
    if extra:
        for lab in _SOURCE_POOL:
            if rng.random() < 0.4:
                sources[lab] = rng.choice(ids[1:])
    edges = []
    for _ in range(rng.randint(0, 3)):
        edges.append((rng.choice(ids), rng.choice(ids), rng.choice(_EDGE_LABEL_POOL)))
    return build_graph(vertices, edges, sources)


def _random_instance(rng: random.Random) -> tuple[str, AsGraph, AsGraph]:
    g2 = _random_rooted_graph(rng, "x")
    open2 = sorted(set(g2.sources) - {ROOT_LABEL})
    t2_entries = {}
    for beta in open2:
        rename = {}
        if rng.random() < 0.1:
            rename = {rng.choice(_SOURCE_POOL): rng.choice(("z1", "z2"))}
        t2_entries[beta] = Slot(_random_small_type(rng, 1), rename)
    argument = AsGraph(g2, GraphType(t2_entries))

    g1 = _random_rooted_graph(rng, "f")
    open1 = sorted(set(g1.sources) - {ROOT_LABEL})
    if open1 and rng.random() < 0.85:
        label = rng.choice(open1)
    else:
        label = rng.choice(("s", "o", "q"))  # may miss the type: exercises condition 1
    t1_entries = {}
    for beta in open1:
        if beta == label and rng.random() < 0.65:
            requested = argument.type  # make condition 2 pass often
        else:
            requested = _random_small_type(rng, 1)
        rename = {}
        if beta == label and rng.random() < 0.15:
            rename = {rng.choice(_SOURCE_POOL): rng.choice(("z1", "z2"))}
        t1_entries[beta] = Slot(requested, rename)
    functor = AsGraph(g1, GraphType(t1_entries))
    return label, functor, argument


def _apply_outcome(label: str, functor: AsGraph, argument: AsGraph, mode: ApplyMode):
    try:
        result = apply(label, functor, argument, mode)
    except GraphError as err:
        return f"error:{type(err).__name__}", None
    if isinstance(result, Undefined):
        return "undefined", None
    return "defined", result


def _instance_document(label: str, functor: AsGraph, argument: AsGraph) -> dict:
    return {
        "label": label,
        "functor": {
            "graph": graph_to_document(functor.graph),
            "type": type_to_document(functor.type),
        },
        "argument": {
            "graph": graph_to_document(argument.graph),
            "type": type_to_document(argument.type),
        },
    }


def check_apply_reduction(*, trials: int = 10_000, seed: int = 0) -> CampaignReport:
    """Original vs relaxed apply on randomly generated root-clean instances.

    Every generated functor and argument has an empty extra-root-label set,
    the regime where the two condition systems are meant to coincide.  The
    modes must agree on definedness and, when defined, produce equal types
    and isomorphic graphs.  A negative ``trials`` raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    rng = random.Random(seed)
    failures: list[Failure] = []
    for _ in range(trials):
        label, functor, argument = _random_instance(rng)
        kind_orig, res_orig = _apply_outcome(label, functor, argument, ORIGINAL)
        kind_rel, res_rel = _apply_outcome(label, functor, argument, RELAXED)
        if kind_orig != kind_rel:
            expected = "both modes agree on definedness"
            observed = f"original={kind_orig}, relaxed={kind_rel}"
        elif res_orig is None:
            continue
        elif res_orig.type != res_rel.type:
            expected, observed = "both modes produce the same result type", "types differ"
        elif not isomorphic(res_orig.graph, res_rel.graph):
            expected = "both modes produce isomorphic result graphs"
            observed = "graphs differ"
        else:
            continue
        failures.append(Failure(_instance_document(label, functor, argument), expected, observed))
    return CampaignReport(
        campaign="apply-reduction",
        parameters={"trials": trials, "seed": seed},
        cases_run=trials,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# algebraic properties

def _witness_holds(left: MsGraph, right: MsGraph) -> bool:
    """True when the bijection the construction fixes carries ``left`` onto ``right``.

    Both are ``compose_disjoint`` results over the same operands: by its id
    contract a vertex no label names keeps its id, and the vertex label ``a``
    names goes to ``right.sources[a]``.  False decides nothing.
    """
    witness = {v: v for v in left.base._ids}
    for a, v in left.sources.items():
        witness[v] = right.sources.get(a)
    return _is_isomorphism(left, right, witness)


def check_algebraic_properties(
    bounds: EnumerationBounds | None = None,
    *,
    trials: int = 1_000,
    seed: int = 0,
) -> CampaignReport:
    """Identity and commutativity (exhaustive), and associativity (sampled).

    Identity compares ``g∘∅`` with ``g``, commutativity ``g∘h′`` with ``h′∘g``
    and associativity ``(g∘h′)∘k″`` with ``g∘(h′∘k″)``, h′ and k″ being copies
    disjoint from the population and each other.  A case passes at once when
    ``_witness_holds``; otherwise ``isomorphic`` searches and decides.  Both
    sides refusing with NodeLabelConflictError agree; one refusing alone
    does not.
    Identity and commutativity failures break the campaign; associativity
    runs on ``trials`` seeded random triples and records each violation as a
    finding.  A negative ``trials`` raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    bounds = bounds or DEFAULT_EQUIVALENCE_BOUNDS
    graphs, copies = _population(bounds)
    empty = MsGraph()
    failures: list[Failure] = []
    findings: list[Failure] = []
    cases = 0

    def agree(left: MsGraph | None, right: MsGraph | None) -> bool:
        if left is None or right is None:
            return left is right
        return _witness_holds(left, right) or isomorphic(left, right)

    for g in graphs:
        cases += 1
        if not agree(_compose(g, empty), g):
            failures.append(
                Failure(
                    {"graph": graph_to_document(g)},
                    "composing with the empty graph changes nothing",
                    "result not isomorphic to the operand",
                )
            )

    for i, g in enumerate(graphs):
        for h, h_prime in zip(graphs[i:], copies[i:]):
            cases += 1
            if not agree(_compose(g, h_prime), _compose(h_prime, g)):
                failures.append(
                    Failure(
                        {"left": graph_to_document(g), "right": graph_to_document(h)},
                        "composition is commutative up to isomorphism",
                        "operand order changed the result",
                    )
                )

    taken = {v for c in graphs + copies for v in c.base._ids}
    seconds = [disjoint_copy(h, taken) for h in graphs]
    rng = random.Random(seed)
    for _ in range(trials):
        cases += 1
        x, y, z = (rng.randrange(len(graphs)) for _ in range(3))
        left = _compose(_compose(graphs[x], copies[y]), seconds[z])
        right = _compose(graphs[x], _compose(copies[y], seconds[z]))
        if not agree(left, right):
            findings.append(
                Failure(
                    {
                        "first": graph_to_document(graphs[x]),
                        "second": graph_to_document(graphs[y]),
                        "third": graph_to_document(graphs[z]),
                    },
                    "composition is associative up to isomorphism",
                    "grouping changed the result",
                )
            )

    return CampaignReport(
        campaign="algebraic-properties",
        parameters={
            "bounds": asdict(bounds),
            "trials": trials,
            "seed": seed,
        },
        cases_run=cases,
        failures=tuple(failures),
        findings=tuple(findings),
    )
