"""The four benchmark workloads.

A workload is built from its seed at set-up, then run in passes: one pass
is a fixed piece of work that repeats identically, so a run of any length
holds whole passes and per-pass counts repeat exactly.  ``run_pass`` times
only the calls into amalgam; ``verify`` checks every verdict afterwards,
outside the timed region.

Every call goes through the public ``amalgam`` entry points, looked up at
call time so that a traced run sees the rebound functions.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import amalgam
import amalgam.cli

import climix

clock = time.perf_counter

# Campaign sweeps use s-graphs of up to three vertices, as in the default
# regime, but with source labels a and rt and at most one edge: 116 graphs,
# so one equivalence pass is 13,456 ordered pairs and takes about a second.
# The default regime (labels a, b, rt; two edges; 1,071,225 pairs) takes
# over a minute per pass, and short passes are what make a run steady (see
# README.md, "Steadiness").
SWEEP_BOUNDS = amalgam.EnumerationBounds(
    max_vertices=3, source_labels=("a", "rt"), max_edges=1, sgraphs_only=True
)


@dataclass
class PassResult:
    """Cases completed in a pass, and the duration of each timed call in it.

    Calls come in the same order every pass, so the i-th durations of two
    passes time the same work.
    """

    cases: int
    calls: list[float]


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


class Campaign:
    """A campaign workload: one pass is one campaign call, repeated as is."""

    name = ""

    def __init__(self) -> None:
        # One entry per pass: its report, or the error of a call that raised.
        self.outcomes: list = []

    def call(self):
        raise NotImplementedError

    def expected_cases(self) -> int:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        start = clock()
        try:
            report = self.call()
        except Exception as err:  # counted as failed cases, never fatal
            self.outcomes.append(f"{type(err).__name__}: {err}")
            return PassResult(0, [clock() - start])
        seconds = clock() - start
        self.outcomes.append(report)
        return PassResult(report.cases_run, [seconds])

    def verify(self) -> Verdict:
        verdict = Verdict()
        expected = self.expected_cases()
        first = None
        for report in self.outcomes:
            verdict.attempted += expected
            if isinstance(report, str):
                verdict.fail(expected, report)
                continue
            if report.cases_run != expected:
                verdict.fail(expected, f"cases_run {report.cases_run}, expected {expected}")
                continue
            bad = len(report.failures) + len(report.findings)
            if bad:
                verdict.fail(bad, f"{len(report.failures)} failures, {len(report.findings)} findings")
            document = report.to_document()
            if first is None:
                first = document
            elif document != first:
                verdict.fail(expected, "report differs from the first pass's")
        return verdict

    def size(self) -> dict:
        raise NotImplementedError


class Equivalence(Campaign):
    """Merge-based against glue-based composition over every ordered pair."""

    name = "equivalence"

    def __init__(self, seed: int, workdir: Path, bounds=SWEEP_BOUNDS) -> None:
        super().__init__()
        self.bounds = bounds

    def call(self):
        return amalgam.check_composition_equivalence(self.bounds)

    def expected_cases(self) -> int:
        return amalgam.count_graphs(self.bounds) ** 2

    def size(self) -> dict:
        return {"bounds": _bounds(self.bounds), "cases_per_pass": self.expected_cases()}


class Properties(Campaign):
    """Identity and commutativity (exhaustive) plus seeded associativity triples."""

    name = "properties"

    def __init__(self, seed: int, workdir: Path, bounds=SWEEP_BOUNDS, trials: int = 500) -> None:
        super().__init__()
        self.bounds, self.trials, self.seed = bounds, trials, seed

    def call(self):
        return amalgam.check_algebraic_properties(self.bounds, trials=self.trials, seed=self.seed)

    def expected_cases(self) -> int:
        n = amalgam.count_graphs(self.bounds)
        return n + n * (n + 1) // 2 + self.trials

    def size(self) -> dict:
        return {
            "bounds": _bounds(self.bounds),
            "trials": self.trials,
            "cases_per_pass": self.expected_cases(),
        }


class Reduction(Campaign):
    """Original against relaxed apply on seeded root-clean instances."""

    name = "reduction"

    def __init__(self, seed: int, workdir: Path, trials: int = 1_000) -> None:
        super().__init__()
        self.trials, self.seed = trials, seed

    def call(self):
        return amalgam.check_apply_reduction(trials=self.trials, seed=self.seed)

    def expected_cases(self) -> int:
        return self.trials

    def size(self) -> dict:
        return {"trials": self.trials, "cases_per_pass": self.trials}


def _bounds(b) -> dict:
    return {"max_vertices": b.max_vertices, "max_edges": b.max_edges,
            "source_labels": list(b.source_labels), "sgraphs_only": b.sgraphs_only}


@dataclass
class Request:
    kind: str  # "eval" or "iso"
    argv: list[str]
    code: int  # expected exit code
    rung: str | None = None  # ladder rung stderr must name, for undefined evals
    sentence: int = -1
    output: Path | None = None  # where an eval's stdout goes for a later iso


class CliMix:
    """One client in a closed loop of in-process ``amalgam`` CLI requests.

    Set-up writes a seeded lexicon and the gold graphs once.  A pass runs
    every request in order: each sentence is evaluated (relaxed or original
    mode), and each defined relaxed-mode result is then compared by ``iso``
    with its gold graph, a provably different mutation of it every other
    time.
    """

    name = "cli-mix"

    def __init__(self, seed: int, workdir: Path, histogram=climix.CLAUSE_HISTOGRAM) -> None:
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        doc, kinds = climix.lexicon_document(rng)
        lexicon = workdir / "lexicon.json"
        lexicon.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

        counts = [c for c, n in histogram for _ in range(n)]
        rng.shuffle(counts)
        self.sentences = [climix.sentence(rng, kinds, c) for c in counts]
        self.requests: list[Request] = []
        mutate_next = False
        for i, s in enumerate(self.sentences):
            mode = "original" if rng.random() < climix.ORIGINAL_MODE_SHARE else "relaxed"
            outcome = s.expected[mode]
            defined = outcome == "defined"
            out = workdir / f"out{i}.json"
            self.requests.append(Request(
                "eval",
                ["eval", "--lexicon", str(lexicon), "--term", s.term, "--mode", mode],
                0 if defined else 1,
                None if defined else outcome,
                i,
                out if defined and mode == "relaxed" else None,
            ))
            if not (defined and mode == "relaxed"):
                continue
            gold = s.gold
            mutated = climix.mutate(rng, gold) if mutate_next else None
            mutate_next = not mutate_next
            path = workdir / f"gold{i}.json"
            path.write_text(amalgam.serialize_graph(mutated or gold), encoding="utf-8")
            self.requests.append(
                Request("iso", ["iso", str(out), str(path)], 1 if mutated else 0, sentence=i)
            )
        self.first_output: dict[int, str] = {}
        self.latencies: dict[str, list[float]] = {"eval": [], "iso": []}
        self.verdict = Verdict()

    def run_pass(self) -> PassResult:
        main = amalgam.cli.main
        durations = []
        for r in self.requests:
            out, err = io.StringIO(), io.StringIO()
            raised = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    code = main(r.argv)
                except (Exception, SystemExit) as exc:  # counted as failed, never fatal
                    code, raised = None, exc
                seconds = clock() - start
            durations.append(seconds)
            self.latencies[r.kind].append(seconds)
            self._check(r, code, raised, out.getvalue(), err.getvalue())
        return PassResult(len(self.requests), durations)

    def _check(self, r: Request, code, raised, stdout: str, stderr: str) -> None:
        v = self.verdict
        v.attempted += 1
        what = f"{r.kind} #{r.sentence}"
        if raised is not None:
            v.fail(1, f"{what}: raised {type(raised).__name__}: {raised}")
            return
        if code != r.code:
            v.fail(1, f"{what}: exit {code}, expected {r.code}: {stderr.strip()[:200]}")
            return
        if r.kind == "iso":
            want = "isomorphic\n" if r.code == 0 else "not isomorphic\n"
            if stdout != want:
                v.fail(1, f"{what}: printed {stdout!r}")
        elif r.rung is not None:
            if f"undefined ({r.rung})" not in stderr:
                v.fail(1, f"{what}: expected {r.rung} on stderr, got {stderr.strip()[:200]}")
        elif r.sentence not in self.first_output:
            self.first_output[r.sentence] = stdout
            if r.output is not None:
                r.output.write_text(stdout, encoding="utf-8")
        elif stdout != self.first_output[r.sentence]:
            v.fail(1, f"{what}: output differs from the first pass's")

    def verify(self) -> Verdict:
        """Parse each defined eval output back and compare it with its gold graph."""
        v = self.verdict
        for i, text in sorted(self.first_output.items()):
            try:
                ok = amalgam.isomorphic(amalgam.parse_graph(text), self.sentences[i].gold)
            except amalgam.GraphError as err:
                v.fail(1, f"eval #{i}: output does not parse or compare: {err}")
                continue
            if not ok:
                v.fail(1, f"eval #{i}: output is not isomorphic to the gold graph")
        return v

    def size(self) -> dict:
        verts = [len(s.gold.base.vertices) for s in self.sentences]
        return {
            "sentences": len(self.sentences),
            "eval_requests_per_pass": sum(r.kind == "eval" for r in self.requests),
            "iso_requests_per_pass": sum(r.kind == "iso" for r in self.requests),
            "max_gold_vertices": max(verts),
            "cases_per_pass": len(self.requests),
        }


WORKLOADS = {w.name: w for w in (Equivalence, Properties, Reduction, CliMix)}
