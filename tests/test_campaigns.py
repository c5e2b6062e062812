"""Campaign harness on deliberately small populations."""
from __future__ import annotations

import pytest

from amalgam import (
    CampaignReport,
    CapacityError,
    EnumerationBounds,
    Failure,
    SGraphRequiredError,
    check_algebraic_properties,
    check_apply_reduction,
    check_composition_equivalence,
    count_graphs,
    enumerate_graphs,
)

SMALL = EnumerationBounds(max_vertices=2, max_edges=1, sgraphs_only=True)
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


def test_properties_respects_pair_budget():
    with pytest.raises(CapacityError, match="7678 graphs make 58951684 ordered pairs"):
        check_algebraic_properties(OVER_PAIR_BUDGET, trials=1)


def test_enumeration_respects_its_budget():
    # 717,714 graphs, over the 500,000 budget: refused before the first graph.
    bounds = EnumerationBounds(max_vertices=7)
    assert count_graphs(bounds) == 717_714
    with pytest.raises(CapacityError, match="717714 graphs, over the budget of 500000"):
        next(enumerate_graphs(bounds))
