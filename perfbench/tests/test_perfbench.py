"""Tests of the benchmark itself: generator, tracer, verdict checks, contract.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import amalgam  # noqa: E402
import amalgam.cli  # noqa: E402
import climix  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_BOUNDS = amalgam.EnumerationBounds(max_vertices=2, max_edges=1, sgraphs_only=True)
SMALL_HISTOGRAM = ((1, 12), (2, 8), (3, 6), (8, 2), (24, 1))


def small(name: str, seed: int, workdir: Path):
    if name == "equivalence":
        return workloads.Equivalence(seed, workdir, bounds=SMALL_BOUNDS)
    if name == "properties":
        return workloads.Properties(seed, workdir, bounds=SMALL_BOUNDS, trials=50)
    if name == "reduction":
        return workloads.Reduction(seed, workdir, trials=300)
    return workloads.CliMix(seed, workdir, histogram=SMALL_HISTOGRAM)


def traced_pass(name: str, seed: int, workdir: Path, passes: int = 1):
    w = small(name, seed, workdir)
    t = tracing.Tracer()
    t.install()
    try:
        t.open_root()
        cases = sum(w.run_pass().cases for _ in range(passes))
        t.close_root()
    finally:
        t.uninstall()
    return w, t, cases


ALL = ("equivalence", "properties", "reduction", "cli-mix")


# -- generator ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
def test_eval_outputs_match_gold_graphs(tmp_path, seed):
    w = small("cli-mix", seed, tmp_path)
    w.run_pass()
    verdict = w.verify()
    assert verdict.attempted == len(w.requests)
    assert verdict.failed == 0, verdict.problems
    kinds = {r.kind for r in w.requests}
    assert kinds == {"eval", "iso"}
    assert any(r.rung for r in w.requests), "no planted undefined term"
    assert {r.code for r in w.requests if r.kind == "iso"} == {0, 1}


def test_mutations_are_provably_different():
    rng = random.Random(3)
    _, kinds = climix.lexicon_document(rng)
    for clauses in (1, 2, 3, 8, 24):
        for _ in range(10):
            gold = climix.sentence(rng, kinds, clauses).gold
            assert len(gold.base.vertices) <= climix.ISO_VERTEX_CAP
            mutated = climix.mutate(rng, gold)
            if mutated is None:
                continue
            assert len(mutated.base.vertices) == len(gold.base.vertices)
            assert len(mutated.base.edges) == len(gold.base.edges)
            assert not amalgam.isomorphic(gold, mutated)


def test_generation_is_seeded(tmp_path):
    a = small("cli-mix", 5, tmp_path / "a")
    b = small("cli-mix", 5, tmp_path / "b")
    assert [r.argv[4:] for r in a.requests if r.kind == "eval"] == [
        r.argv[4:] for r in b.requests if r.kind == "eval"
    ]
    assert (tmp_path / "a" / "lexicon.json").read_text() == (tmp_path / "b" / "lexicon.json").read_text()


# -- verdict checks ---------------------------------------------------------


def test_wrong_exit_code_and_escaped_exception_count_as_failures(tmp_path, monkeypatch):
    w = small("cli-mix", 1, tmp_path)
    calls = {"n": 0}
    real = amalgam.cli.main

    def flaky(argv):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RecursionError("deep term")
        if calls["n"] == 2:
            return 2
        return real(argv)

    monkeypatch.setattr(amalgam.cli, "main", flaky)
    w.run_pass()
    verdict = w.verify()
    assert verdict.failed >= 2
    assert any("RecursionError" in p for p in verdict.problems)


def test_campaign_cases_must_match_the_closed_form(tmp_path):
    w = small("properties", 0, tmp_path)
    n = amalgam.count_graphs(SMALL_BOUNDS)
    assert w.expected_cases() == n + n * (n + 1) // 2 + 50
    w.run_pass()
    assert w.verify().failed == 0
    w.trials += 1  # the report now disagrees with the closed form
    verdict = w.verify()
    assert verdict.failed == verdict.attempted


# -- tracer -----------------------------------------------------------------


def test_install_rebinds_every_name_and_uninstall_restores():
    modules = [m for k, m in sys.modules.items() if k == "amalgam" or k.startswith("amalgam.")]
    originals = {
        fn: getattr(sys.modules[f"amalgam.{fn.split('.')[0]}"], fn.split(".")[1])
        for fn in tracing.FUNCTIONS
    }
    before = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    t = tracing.Tracer()
    t.install()
    try:
        for m in modules:
            for attr, value in vars(m).items():
                assert all(value is not o for o in originals.values()), f"{m.__name__}.{attr}"
        assert amalgam.campaigns.apply.__wrapped__ is originals["algebra.apply"]
    finally:
        t.uninstall()
    after = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    assert after == before


@pytest.mark.parametrize("name", ALL)
def test_traced_counts_repeat_exactly(tmp_path, name):
    deterministic = [
        k for k in tracing.metric_names()
        if k.endswith(".calls") or k in tracing.COUNTER_METRICS
    ]
    runs = []
    for i in range(2):
        w, t, cases = traced_pass(name, 4, tmp_path / str(i))
        summary = t.summary(1, cases)
        runs.append({k: summary[k] for k in deterministic})
    assert runs[0] == runs[1]
    assert sorted(summary) == sorted(tracing.metric_names())
    assert sum(runs[0][k] for k in deterministic if k.endswith(".calls")) > 0


@pytest.mark.parametrize("name", ("equivalence", "properties", "reduction"))
def test_traced_and_untraced_reports_are_equal(tmp_path, name):
    plain = small(name, 2, tmp_path / "plain")
    plain.run_pass()
    traced, t, _ = traced_pass(name, 2, tmp_path / "traced")
    assert len(t.span_start) > 1
    assert traced.outcomes[0].to_document() == plain.outcomes[0].to_document()


@pytest.mark.parametrize("name", ALL)
def test_self_times_add_up_to_the_traced_wall_time(tmp_path, name):
    w, t, cases = traced_pass(name, 1, tmp_path, passes=2)
    duration, own = t.self_times()
    assert min(own) > -1e-9
    summary = t.summary(2, cases)
    layers = sum(summary[f"{fn}.self_s"] for fn in tracing.FUNCTIONS)
    assert layers + summary["bench.self_s"] == pytest.approx(summary["bench.wall_s"], rel=1e-9)
    assert summary["bench.wall_s"] * 2 == pytest.approx(duration[0], rel=1e-12)


def test_spans_written_and_read_back(tmp_path):
    _, t, _ = traced_pass("reduction", 0, tmp_path)
    path = tmp_path / "spans.bin"
    t.write(path)
    names, name, parent, start, end = tracing.load_spans(path)
    assert names == t.names
    assert (name, parent, start, end) == (t.span_name, t.span_parent, t.span_start, t.span_end)


def test_iso_path_agrees_with_find_isomorphism():
    graphs = list(amalgam.enumerate_graphs(SMALL_BOUNDS))
    seen = set()
    for g in graphs[::3]:
        for h in graphs[::5]:
            path = tracing.iso_path(g, h)
            seen.add(path)
            found = amalgam.find_isomorphism(g, h)
            if path == "rejected":
                assert found is None
            elif path == "identical":
                assert found == {v.id: v.id for v in g.base.vertices}
    assert {"rejected", "forced", "search"} <= seen


# -- contract -----------------------------------------------------------------


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    import run

    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "reduction", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
