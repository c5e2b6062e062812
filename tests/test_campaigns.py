"""Campaign harness on deliberately small populations."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from amalgam import campaigns, cli, graphs
from amalgam import (
    BaseGraph,
    CampaignReport,
    CapacityError,
    EnumerationBounds,
    Failure,
    MsGraph,
    NodeLabelConflictError,
    ORIGINAL,
    RELAXED,
    SGraphRequiredError,
    Vertex,
    check_algebraic_properties,
    check_apply_reduction,
    check_composition_equivalence,
    count_graphs,
    enumerate_graphs,
)
from conftest import LABELLED

SMALL = EnumerationBounds(max_vertices=2, max_edges=1, sgraphs_only=True)
SRC = Path(__file__).resolve().parent.parent / "src"
# 171 graphs with several labels per vertex.
MULTI_SOURCE = EnumerationBounds(max_vertices=2, source_labels=("a", "b", "rt"), max_edges=2)
# 7,678 graphs make 58.9M ordered pairs, over the campaigns' 4M pair budget.
OVER_PAIR_BUDGET = EnumerationBounds(max_vertices=4, max_edges=2, sgraphs_only=True)


def test_report_serialization():
    failure = Failure({"left": {}}, "things match", "they did not")
    report = CampaignReport("demo", {"seed": 1}, 3, (failure,), ())
    assert not report.passed
    doc = report.to_document()
    assert doc["campaign"] == "demo"
    assert doc["cases_run"] == 3
    assert doc["passed"] is False
    assert doc["failures"] == [
        {"case": {"left": {}}, "expected": "things match", "observed": "they did not"}
    ]
    assert CampaignReport("demo", {}, 0).passed


def test_equivalence_small_population_is_clean():
    report = check_composition_equivalence(SMALL)
    assert report.passed
    assert report.cases_run == count_graphs(SMALL) ** 2
    assert report.parameters["bounds"]["max_vertices"] == 2


def test_equivalence_with_node_labels_is_clean():
    # Exercises node-label fusion inside the differential sweep.
    bounds = EnumerationBounds(
        max_vertices=2, max_edges=1, node_labels=("n",), sgraphs_only=True
    )
    report = check_composition_equivalence(bounds)
    assert report.passed
    assert report.cases_run == count_graphs(bounds) ** 2


# 7 graphs; composing two whose sourced vertices carry n1 and n2 is refused.
TWO_NODE_LABELS = EnumerationBounds(
    max_vertices=1, node_labels=("n1", "n2"), source_labels=("a",), max_edges=0
)


def test_node_label_conflicts_refused_on_both_sides_agree():
    n = count_graphs(TWO_NODE_LABELS)
    report = check_algebraic_properties(TWO_NODE_LABELS, trials=50)
    assert report.passed and not report.findings
    assert report.cases_run == n + n * (n + 1) // 2 + 50
    sgraphs = dataclasses.replace(TWO_NODE_LABELS, sgraphs_only=True)
    report = check_composition_equivalence(sgraphs)
    assert report.passed
    assert report.cases_run == count_graphs(sgraphs) ** 2


def test_node_label_conflict_refused_on_one_side_fails(monkeypatch):
    def refuse(g, h):
        raise NodeLabelConflictError("planted")

    monkeypatch.setattr(campaigns, "parallel_compose_classic", refuse)
    report = check_composition_equivalence(SMALL)
    assert len(report.failures) == report.cases_run
    assert {f.observed for f in report.failures} == {
        "only the glue-based composition refused"
    }

    compose = campaigns.compose_disjoint

    def refuse_copy_first(g, h_prime):
        if any(v.endswith("'") for v in g.base.vertex_ids()):
            raise NodeLabelConflictError("planted")
        return compose(g, h_prime)

    monkeypatch.setattr(campaigns, "compose_disjoint", refuse_copy_first)
    report = check_algebraic_properties(SMALL, trials=0)
    # A commutativity pair (graphs[i], graphs[j]), i <= j, now composes on one
    # side only whenever graphs[j]'s copy has a vertex.
    graphs = list(enumerate_graphs(SMALL))
    assert len(report.failures) == sum(j + 1 for j, h in enumerate(graphs) if h.base.vertices)
    assert {f.expected for f in report.failures} == {
        "composition is commutative up to isomorphism"
    }


# Three graphs: the empty one, a bare vertex, and a vertex carrying a.
TINY = EnumerationBounds(max_vertices=1, source_labels=("a",), max_edges=0, sgraphs_only=True)
EMPTY = {"vertices": [], "edges": [], "sources": {}}
BARE = {"vertices": [{"id": "v0"}], "edges": [], "sources": {}}
SOURCED = {"vertices": [{"id": "v0"}], "edges": [], "sources": {"a": "v0"}}


def planted(monkeypatch, change) -> None:
    """Make the campaigns' compose_disjoint return ``change`` of its result."""
    compose = campaigns.compose_disjoint
    monkeypatch.setattr(campaigns, "compose_disjoint", lambda g, h: change(compose(g, h)))


def with_vertex(g: MsGraph, sources: dict) -> MsGraph:
    return MsGraph(BaseGraph(g.base.vertices + (Vertex("planted"),), g.base.edges), sources)


def test_equivalence_reports_a_result_not_isomorphic(monkeypatch):
    planted(monkeypatch, lambda out: with_vertex(out, out.sources))
    report = check_composition_equivalence(TINY)
    assert [f.case for f in report.failures] == [
        {"left": g, "right": h} for g in (EMPTY, BARE, SOURCED) for h in (EMPTY, BARE, SOURCED)
    ]
    assert {(f.expected, f.observed) for f in report.failures} == {
        ("merge-based result isomorphic to glue-based result", "not isomorphic")
    }


# Each planted fault below passes the isomorphism check, so the campaign
# goes on to the checks it would otherwise skip.
@pytest.mark.parametrize(
    "change, expected, observed",
    [
        (
            lambda out: with_vertex(out, {**out.sources, "z": "planted"}),
            "label set of the composition is the union of the operands'",
            [("got ['z']", EMPTY, EMPTY), ("got ['z']", EMPTY, BARE),
             ("got ['a', 'z']", EMPTY, SOURCED), ("got ['z']", BARE, EMPTY),
             ("got ['z']", BARE, BARE), ("got ['a', 'z']", BARE, SOURCED),
             ("got ['a', 'z']", SOURCED, EMPTY), ("got ['a', 'z']", SOURCED, BARE),
             ("got ['a', 'z']", SOURCED, SOURCED)],
        ),
        (
            lambda out: with_vertex(out, dict.fromkeys(out.sources, "planted")),
            "left operand's source assignments survive the composition",
            [("labels ['a'] moved", SOURCED, h) for h in (EMPTY, BARE, SOURCED)],
        ),
        (
            lambda out: MsGraph(
                BaseGraph(tuple(v for v in out.base.vertices if v.id in out._slab_map)),
                out.sources,
            ),
            "every left-operand vertex is chosen as its class representative",
            [("some left vertex was dropped", BARE, h) for h in (EMPTY, BARE, SOURCED)],
        ),
    ],
    ids=["label-set", "sources-moved", "left-vertex-dropped"],
)
def test_equivalence_reports_each_law_a_result_breaks(monkeypatch, change, expected, observed):
    planted(monkeypatch, change)
    monkeypatch.setattr(campaigns, "isomorphic", lambda g, h: True)
    report = check_composition_equivalence(TINY)
    assert report.failures == tuple(
        Failure({"left": g, "right": h}, expected, text) for text, g, h in observed
    )


def test_identity_failures_name_each_operand(monkeypatch):
    # Composing with the identity's empty operand now adds a vertex.
    compose = campaigns.compose_disjoint
    monkeypatch.setattr(
        campaigns, "compose_disjoint",
        lambda g, h: with_vertex(g, g.sources) if h == MsGraph() else compose(g, h),
    )
    report = check_algebraic_properties(TINY, trials=0)
    identity = [f for f in report.failures if f.expected.startswith("composing with the empty")]
    assert identity == [
        Failure(
            {"graph": g},
            "composing with the empty graph changes nothing",
            "result not isomorphic to the operand",
        )
        for g in (EMPTY, BARE, SOURCED)
    ]


def _ticked(g: MsGraph, ticks: int) -> bool:
    return any(v.endswith("'" * ticks) for v in g.base.vertex_ids())


COMMUTED = [(EMPTY, BARE), (EMPTY, SOURCED), (BARE, BARE), (BARE, SOURCED), (SOURCED, SOURCED)]
# The first 12 triples seed 0 draws from TINY whose three graphs all have a vertex.
REGROUPED = [
    (BARE, SOURCED, BARE), (BARE, BARE, BARE), (BARE, SOURCED, SOURCED),
    (SOURCED, BARE, BARE), (BARE, BARE, SOURCED),
]


# Each planted composition breaks one law only, so the report holds exactly
# that law's failure documents, in sweep order.
@pytest.mark.parametrize(
    "planted_compose, trials, failures, findings",
    [
        (
            # Associativity also composes population graphs with empty
            # copies, so it is not run.
            lambda compose: lambda g, h: (
                with_vertex(g, g.sources)
                if h == MsGraph() and not _ticked(g, 1)
                else compose(g, h)
            ),
            0,
            [
                Failure(
                    {"graph": g},
                    "composing with the empty graph changes nothing",
                    "result not isomorphic to the operand",
                )
                for g in (EMPTY, BARE, SOURCED)
            ],
            [],
        ),
        (
            # h′∘g gains a vertex whenever the copy h′ has one.
            lambda compose: lambda g, h: (
                with_vertex(compose(g, h), compose(g, h).sources)
                if _ticked(g, 1)
                else compose(g, h)
            ),
            12,
            [
                Failure(
                    {"left": g, "right": h},
                    "composition is commutative up to isomorphism",
                    "operand order changed the result",
                )
                for g, h in COMMUTED
            ],
            [],
        ),
        (
            # A copy composed with a second copy k″ returns k″ alone.
            lambda compose: lambda g, h: (
                h if _ticked(g, 1) and _ticked(h, 2) else compose(g, h)
            ),
            12,
            [],
            [
                Failure(
                    {"first": x, "second": y, "third": z},
                    "composition is associative up to isomorphism",
                    "grouping changed the result",
                )
                for x, y, z in REGROUPED
            ],
        ),
    ],
    ids=["identity", "commutativity", "associativity"],
)
def test_each_law_reports_its_whole_failure(
    monkeypatch, planted_compose, trials, failures, findings
):
    monkeypatch.setattr(
        campaigns, "compose_disjoint", planted_compose(campaigns.compose_disjoint)
    )
    report = check_algebraic_properties(TINY, trials=trials, seed=0)
    assert report.failures == tuple(failures)
    assert report.findings == tuple(findings)


def _relaxed_planted(monkeypatch, change) -> None:
    """Make relaxed-mode apply return ``change`` of its result."""
    apply = campaigns.apply

    def planted_apply(label, functor, argument, mode):
        result = apply(label, functor, argument, mode)
        return change(result) if mode is RELAXED else result

    monkeypatch.setattr(campaigns, "apply", planted_apply)


def _instances(trials: int, seed: int) -> list:
    rng = random.Random(seed)
    return [campaigns._random_instance(rng) for _ in range(trials)]


def test_reduction_reports_definedness_disagreements(monkeypatch):
    def refuse(result):
        raise CapacityError("planted")

    _relaxed_planted(monkeypatch, refuse)
    report = check_apply_reduction(trials=6, seed=0)
    assert report.failures == tuple(
        Failure(
            campaigns._instance_document(*instance),
            "both modes agree on definedness",
            f"original={kind}, relaxed=error:CapacityError",
        )
        for instance, kind in zip(
            _instances(6, 0),
            ["undefined", "undefined", "defined", "undefined", "undefined", "undefined"],
        )
    )


@pytest.mark.parametrize(
    "change, expected, observed",
    [
        (
            lambda r: types.SimpleNamespace(graph=r.graph, type=None),
            "both modes produce the same result type",
            "types differ",
        ),
        (
            lambda r: types.SimpleNamespace(graph=MsGraph(), type=r.type),
            "both modes produce isomorphic result graphs",
            "graphs differ",
        ),
    ],
    ids=["types", "graphs"],
)
def test_reduction_reports_defined_results_that_differ(monkeypatch, change, expected, observed):
    defined = [
        instance for instance in _instances(40, 1)
        if campaigns._apply_outcome(*instance, ORIGINAL)[0] == "defined"
    ]
    assert len(defined) == 12
    _relaxed_planted(monkeypatch, lambda r: change(r) if hasattr(r, "graph") else r)
    report = check_apply_reduction(trials=40, seed=1)
    assert report.failures == tuple(
        Failure(campaigns._instance_document(*instance), expected, observed)
        for instance in defined
    )


def test_equivalence_refuses_ms_graph_bounds():
    with pytest.raises(SGraphRequiredError):
        check_composition_equivalence(EnumerationBounds(max_vertices=1))


def test_equivalence_respects_pair_budget():
    assert count_graphs(OVER_PAIR_BUDGET) == 7_678
    with pytest.raises(CapacityError, match="7678 graphs make 58951684 ordered pairs"):
        check_composition_equivalence(OVER_PAIR_BUDGET)


def test_reduction_campaign_agrees_and_is_deterministic():
    a = check_apply_reduction(trials=300, seed=7)
    b = check_apply_reduction(trials=300, seed=7)
    assert a.passed
    assert a.cases_run == 300
    assert a.to_document() == b.to_document()


# sha256 of the first 500 generated instances at seed 0, as JSON with sorted
# keys.  The report digest in the acceptance tests covers only failures, so
# it cannot see a change to the generated population; this can.
INSTANCE_STREAM_DIGEST = "442c1d1b95d1ec5a0cdf123cc5768070d192e0dfbb84650a19d176e0434e35d2"


def test_reduction_instance_stream_is_pinned():
    rng = random.Random(0)
    docs = [campaigns._instance_document(*campaigns._random_instance(rng)) for _ in range(500)]
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_STREAM_DIGEST


def test_reduction_campaign_parameters_recorded():
    report = check_apply_reduction(trials=5, seed=42)
    assert report.parameters == {"trials": 5, "seed": 42}


def test_properties_small_population_is_clean():
    report = check_algebraic_properties(SMALL, trials=50, seed=3)
    assert report.passed
    assert report.findings == ()
    n = count_graphs(SMALL)
    assert report.cases_run == n + n * (n + 1) // 2 + 50


def test_properties_deterministic():
    a = check_algebraic_properties(SMALL, trials=25, seed=11)
    b = check_algebraic_properties(SMALL, trials=25, seed=11)
    assert a.to_document() == b.to_document()


HASH_SEED_PROBE = f"""
import hashlib
from amalgam import (
    EnumerationBounds, GraphError, check_algebraic_properties, enumerate_graphs, parallel_compose,
)
digest = hashlib.sha256()
graphs = list(enumerate_graphs({LABELLED!r}))
for g in graphs:
    for h in graphs:
        try:
            out = parallel_compose(g, h)
            seen = out.base.vertices, out.base.edges, list(out.sources.items())
        except GraphError as err:
            seen = type(err).__name__, str(err)
        digest.update(repr(seen).encode())
report = check_algebraic_properties({SMALL!r}, trials=50, seed=3)
digest.update(repr(report.to_document()).encode())
print(digest.hexdigest())
"""


def test_outcomes_do_not_depend_on_the_hash_seed():
    # Every other determinism test runs in one process, so it cannot see an
    # outcome that follows set iteration order, which str hashing sets.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_PROBE],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    ]
    outputs = [run.communicate(timeout=60) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], outputs
    assert outputs[0][0] == outputs[1][0]


def test_properties_respects_pair_budget():
    with pytest.raises(CapacityError, match="7678 graphs make 58951684 ordered pairs"):
        check_algebraic_properties(OVER_PAIR_BUDGET, trials=1)


@pytest.mark.parametrize("campaign", [check_apply_reduction, check_algebraic_properties])
def test_negative_trials_are_refused(campaign):
    with pytest.raises(ValueError, match="trials must be non-negative, got -1"):
        campaign(trials=-1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_vertices", -1, "max_vertices must be non-negative, got -1"),
        ("max_edges", -1, "max_edges must be non-negative, got -1"),
        ("source_labels", ("a", "a"), "source_labels must be distinct non-empty labels, "
         "got ('a', 'a')"),
        ("source_labels", ("",), "source_labels must be distinct non-empty labels, got ('',)"),
        ("node_labels", ("x", "x"), "node_labels must be distinct non-empty labels, "
         "got ('x', 'x')"),
        ("edge_labels", ("e", ""), "edge_labels must be distinct non-empty labels, "
         "got ('e', '')"),
    ],
    ids=["negative-max-vertices", "negative-max-edges", "repeated-source", "empty-source",
         "repeated-node-label", "empty-edge-label"],
)
def test_bounds_that_break_every_graph_exactly_once_are_refused(field, value, message):
    # A repeated label enumerates a graph twice, an empty one an invalid
    # graph, and a negative count a space the closed form cannot count.
    with pytest.raises(ValueError) as err:
        EnumerationBounds(**{field: value})
    assert str(err.value) == message
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, **{field: value})


def test_enumeration_respects_its_budget():
    # 717,714 graphs, over the 500,000 budget: refused before the first graph.
    bounds = EnumerationBounds(max_vertices=7)
    assert count_graphs(bounds) == 717_714
    with pytest.raises(CapacityError, match="717714 graphs, over the budget of 500000"):
        next(enumerate_graphs(bounds))


def test_budgets_refuse_a_huge_vertex_count_before_counting(monkeypatch):
    # Each vertex count adds at least one graph, so max_vertices + 1 alone
    # can be over a budget; then nothing is counted.
    def uncounted(bounds, digits):
        raise AssertionError("counted")

    monkeypatch.setattr(graphs, "_count_below", uncounted)
    monkeypatch.setattr(campaigns, "_count_below", uncounted)
    with pytest.raises(CapacityError) as err:
        check_composition_equivalence(EnumerationBounds(max_vertices=2000, sgraphs_only=True))
    assert str(err.value) == (
        "at least 2001 graphs (one per vertex count) make at least 4004001 ordered pairs, "
        "over the budget of 4000000"
    )
    with pytest.raises(CapacityError) as err:
        next(enumerate_graphs(EnumerationBounds(max_vertices=500_000)))
    assert str(err.value) == (
        "enumeration space has at least 500001 graphs (one per vertex count), "
        "over the budget of 500000"
    )
    monkeypatch.undo()
    # One vertex count fewer: the exact count decides.
    with pytest.raises(CapacityError, match="^[0-9]+ graphs make [0-9]+ ordered pairs"):
        check_algebraic_properties(EnumerationBounds(max_vertices=1999, sgraphs_only=True))


@pytest.mark.parametrize("command", ["check-equivalence", "check-properties"])
def test_counts_past_printing_are_refused_at_once(capsys, command):
    # The population would have thousands of digits: the count stops early.
    start = time.perf_counter()
    code = cli.main([command, "--max-vertices", "100", "--max-edges", str(10**9)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (
        "error: at least 10^2150 graphs make at least 10^4300 ordered pairs, "
        "over the budget of 4000000\n"
    )
    with pytest.raises(CapacityError, match="^enumeration space has at least 10\\^4300 graphs"):
        next(enumerate_graphs(EnumerationBounds(max_vertices=100, max_edges=10**9)))


@pytest.mark.parametrize(
    "bounds",
    [
        EnumerationBounds(),
        OVER_PAIR_BUDGET,
        EnumerationBounds(max_vertices=5, node_labels=("x", "y"), max_edges=3, allow_loops=True),
        EnumerationBounds(
            max_vertices=6, source_labels=tuple("abcdefgh"), edge_labels=("e", "f"),
            max_edges=4, sgraphs_only=True,
        ),
    ],
)
def test_count_stops_exactly_past_its_digits(bounds):
    exact = count_graphs(bounds)
    digits = len(str(exact))
    assert graphs._count_below(bounds, digits) == exact
    assert graphs._count_below(bounds, digits - 1) is None


def count_isomorphic_calls(monkeypatch) -> list[int]:
    calls = [0]
    search = campaigns.isomorphic

    def counted(g, h):
        calls[0] += 1
        return search(g, h)

    monkeypatch.setattr(campaigns, "isomorphic", counted)
    return calls


@pytest.mark.parametrize("bounds, trials", [(SMALL, 20), (MULTI_SOURCE, 10)])
def test_witness_never_falls_back_to_search(monkeypatch, bounds, trials):
    # The construction's bijection holds for every identity, commutativity
    # and associativity case, so no law searches.
    calls = count_isomorphic_calls(monkeypatch)
    report = check_algebraic_properties(bounds, trials=trials, seed=5)
    assert report.passed and report.findings == ()
    n = count_graphs(bounds)
    assert report.cases_run == n + n * (n + 1) // 2 + trials
    assert calls[0] == 0


def test_equivalence_and_reduction_never_search(monkeypatch):
    # Equal results agree at once and the rest by the witness.
    calls = count_isomorphic_calls(monkeypatch)
    assert check_composition_equivalence(SMALL).passed
    assert check_apply_reduction(trials=300, seed=7).passed
    assert calls[0] == 0


@pytest.mark.parametrize(
    "g",
    [
        graphs.build_graph(["x", "y"], [("x", "y", "e"), ("y", "y", "e")]),
        graphs.build_graph(["x"], [("x", "ghost", "e")], {"a": "nowhere"}),
    ],
    ids=["unsourced", "dangling"],
)
def test_witness_holds_on_equal_graphs_without_a_witness(monkeypatch, g):
    # Equality is checked first, so equal inputs need no witness, whether or
    # not they are compose_disjoint results.
    def unchecked(g, h, mapping):
        raise AssertionError("witness checked")

    monkeypatch.setattr(campaigns, "_is_isomorphism", unchecked)
    assert campaigns._witness_holds(g, MsGraph(BaseGraph(g.base.vertices, g.base.edges), g.sources))


def test_wrong_witness_falls_back_to_search(monkeypatch):
    expected = check_algebraic_properties(MULTI_SOURCE, trials=10, seed=2).to_document()
    calls = count_isomorphic_calls(monkeypatch)
    monkeypatch.setattr(campaigns, "_witness_holds", lambda left, right: False)
    report = check_algebraic_properties(MULTI_SOURCE, trials=10, seed=2)
    assert report.to_document() == expected
    n = count_graphs(MULTI_SOURCE)
    assert n == 171
    assert calls[0] == n + n * (n + 1) // 2 + 10


def test_witness_does_not_hide_a_commutativity_failure(monkeypatch):
    # Each planted composition breaks a law: dropping the right operand's
    # edges breaks commutativity, and dropping every edge whenever the right
    # operand has some breaks associativity.  The witness path reports
    # exactly the failures and findings the search alone finds.
    compose = campaigns.compose_disjoint

    def lopsided(g, h_prime):
        return compose(g, MsGraph(BaseGraph(h_prime.base.vertices), h_prime.sources))

    def forgetful(g, h_prime):
        out = compose(g, h_prime)
        return MsGraph(BaseGraph(out.base.vertices), out.sources) if h_prime.base.edges else out

    for planted, broken in ((lopsided, "failures"), (forgetful, "findings")):
        with monkeypatch.context() as m:
            m.setattr(campaigns, "compose_disjoint", planted)
            with_witness = check_algebraic_properties(SMALL, trials=200, seed=4)
            m.setattr(campaigns, "_witness_holds", lambda left, right: False)
            search_only = check_algebraic_properties(SMALL, trials=200, seed=4)
        assert getattr(with_witness, broken)
        assert with_witness.to_document() == search_only.to_document()
