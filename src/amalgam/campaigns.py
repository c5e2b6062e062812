"""Cross-checking campaigns: exhaustive and randomized property sweeps.

Three campaigns back the core claims with executable evidence:

* composition equivalence: over every pair of enumerated single-label
  graphs, the merge-based composition agrees with the classic glue-based
  one up to isomorphism, unions the label sets, keeps the left operand's
  sources in place, and keeps every left vertex;
* apply reduction: on as-graphs whose roots carry no extra labels, the
  original and relaxed apply variants agree;
* algebraic properties: identity and commutativity of composition
  (exhaustive) and associativity (seeded random triples, reported as
  findings), each one row of a law table that a single loop runs.

Every sweep compares two results through ``_agree``: two refusals agree,
one alone does not; equal graphs agree at once, then the vertex bijection
the construction fixes (``_witness_holds``) is tried, and the isomorphism
search runs only when both fail, so the verdicts are those of the search.

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
    enumerate_graphs,
    isomorphic,
    _count_below,
    _is_isomorphism,
    _COUNT_DIGITS,
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
    ``max_vertices + 1`` graphs already make too many, before counting; and
    it stops counting once the pairs would pass ``_COUNT_DIGITS`` digits.  A
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
    digits = _COUNT_DIGITS // 2  # so the pair count prints in full
    population = _count_below(bounds, digits)
    if population is None or population * population > PAIR_BUDGET:
        count, pairs = (
            (f"at least 10^{digits}", f"at least 10^{2 * digits}")
            if population is None
            else (population, population * population)
        )
        raise CapacityError(
            f"{count} graphs make {pairs} ordered pairs, over the budget of {PAIR_BUDGET}"
        )
    graphs = list(enumerate_graphs(bounds))
    all_ids = {v for g in graphs for v in g.base._label_map}
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


def _glue(g: MsGraph, h: MsGraph) -> MsGraph | None:
    """``parallel_compose_classic(g, h)``, or None for a node-label refusal."""
    try:
        return parallel_compose_classic(g, h)
    except NodeLabelConflictError:
        return None


def _witness_holds(left: MsGraph, right: MsGraph) -> bool:
    """True when ``left`` equals ``right`` or the construction's bijection carries it there.

    ``compose_disjoint`` fixes that bijection by its id contract: a vertex no
    label names keeps its id, and the vertex label ``a`` names goes to
    ``right.sources[a]``.  Other graphs get the same candidate, which
    ``_is_isomorphism`` checks in full, so True always means isomorphic.
    False decides nothing.
    """
    if left == right:
        return True
    ids = left.base._label_map
    witness = dict(zip(ids, ids))
    for a, v in left.sources.items():
        witness[v] = right.sources.get(a)
    return _is_isomorphism(left, right, witness)


def _agree(left: MsGraph | None, right: MsGraph | None) -> bool:
    """Two results agree when both are refusals (None) or isomorphic graphs.

    ``_witness_holds`` settles most pairs; ``isomorphic`` searches the rest.
    """
    if left is None or right is None:
        return left is right
    return _witness_holds(left, right) or isomorphic(left, right)


def _failure(keys: tuple, operands: tuple, expected: str, observed: str) -> Failure:
    """A failure whose case holds each operand's document under its key."""
    return Failure(dict(zip(keys, map(graph_to_document, operands))), expected, observed)


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
    pair = ("left", "right")
    for g in graphs:
        g_sources = g.sources
        g_tau = g.tau
        g_ids = g.base._id_set
        for h, h_prime in zip(graphs, copies):
            merged, glued = _compose(g, h_prime), _glue(g, h)
            if not _agree(merged, glued):
                if merged is None or glued is None:
                    refused = "merge-based" if merged is None else "glue-based"
                    expected = "both compositions refuse a node-label conflict, or neither does"
                    observed = f"only the {refused} composition refused"
                else:
                    expected = "merge-based result isomorphic to glue-based result"
                    observed = "not isomorphic"
                failures.append(_failure(pair, (g, h), expected, observed))
                continue
            if merged is None:  # both refused
                continue
            if merged.tau != g_tau | h.tau:
                expected = "label set of the composition is the union of the operands'"
                failures.append(_failure(pair, (g, h), expected, f"got {sorted(merged.tau)}"))
            bad = [a for a in g_sources if merged.sources[a] != g_sources[a]]
            if bad:
                expected = "left operand's source assignments survive the composition"
                failures.append(_failure(pair, (g, h), expected, f"labels {bad} moved"))
            if not g_ids <= {v.id for v in merged.base.vertices}:
                expected = "every left-operand vertex is chosen as its class representative"
                failures.append(_failure(pair, (g, h), expected, "some left vertex was dropped"))

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
        elif not _agree(res_orig.graph, res_rel.graph):
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

def check_algebraic_properties(
    bounds: EnumerationBounds | None = None,
    *,
    trials: int = 1_000,
    seed: int = 0,
) -> CampaignReport:
    """Identity and commutativity (exhaustive), and associativity (sampled).

    Identity compares ``g∘∅`` with ``g``, commutativity ``g∘h′`` with ``h′∘g``
    and associativity ``(g∘h′)∘k″`` with ``g∘(h′∘k″)``, h′ and k″ being copies
    disjoint from the population and each other, so ``_agree`` settles each
    case by the construction's bijection before any search.  Both sides
    refusing with NodeLabelConflictError agree; one refusing alone does not.
    Identity and commutativity failures break the campaign; associativity
    runs on ``trials`` seeded random triples and records each violation as a
    finding.  A negative ``trials`` raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    bounds = bounds or DEFAULT_EQUIVALENCE_BOUNDS
    graphs, copies = _population(bounds)
    empty = MsGraph()
    taken = {v for c in graphs + copies for v in c.base._label_map}
    seconds = [disjoint_copy(h, taken) for h in graphs]
    rng = random.Random(seed)
    n = len(graphs)
    triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(trials))
    failures: list[Failure] = []
    findings: list[Failure] = []
    # One row per law: case keys, expected, observed, where a violation goes,
    # and its cases as (operands, left side, right side).
    laws = (
        (("graph",), "composing with the empty graph changes nothing",
         "result not isomorphic to the operand", failures,
         (((g,), _compose(g, empty), g) for g in graphs)),
        (("left", "right"), "composition is commutative up to isomorphism",
         "operand order changed the result", failures,
         (((g, h), _compose(g, h_prime), _compose(h_prime, g))
          for i, g in enumerate(graphs) for h, h_prime in zip(graphs[i:], copies[i:]))),
        (("first", "second", "third"), "composition is associative up to isomorphism",
         "grouping changed the result", findings,
         (((graphs[x], graphs[y], graphs[z]),
           _compose(_compose(graphs[x], copies[y]), seconds[z]),
           _compose(graphs[x], _compose(copies[y], seconds[z])))
          for x, y, z in triples)),
    )
    cases = 0
    for keys, expected, observed, sink, law_cases in laws:
        for operands, left, right in law_cases:
            cases += 1
            if not _agree(left, right):
                sink.append(_failure(keys, operands, expected, observed))

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
