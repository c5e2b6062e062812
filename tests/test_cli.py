"""End-to-end CLI behavior: artifacts on stdout, diagnostics on stderr, exit codes."""
from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from amalgam import (
    AsGraph,
    EMPTY_TYPE,
    GraphType,
    Slot,
    build_graph,
    graph_to_document,
    parse_graph,
    serialize_lexicon,
)
from amalgam import campaigns, cli
from amalgam.cli import build_parser, main
from conftest import SLOT_RENAME_LEXICONS

REFLEXIVE = "app_s(app_o(wash,self),raven)"
README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


@pytest.fixture
def lexicon_path(fixtures_dir):
    return str(fixtures_dir / "lexicon.json")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_defined_emits_graph_json(capsys, lexicon_path):
    code, out, err = run(
        capsys, "eval", "--lexicon", lexicon_path, "--term", REFLEXIVE
    )
    assert code == 0
    g = parse_graph(out)
    assert len(g.base.vertices) == 2
    assert g.tau == {"rt"}
    assert err == ""


def test_eval_undefined_keeps_stdout_clean(capsys, lexicon_path):
    code, out, err = run(
        capsys,
        "eval", "--lexicon", lexicon_path, "--term", REFLEXIVE, "--mode", "original",
    )
    assert code == 1
    assert out == ""
    assert "condition 2" in err
    assert "app_o(wash,self)" in err


def test_eval_dot_format(capsys, lexicon_path):
    code, out, _ = run(
        capsys,
        "eval", "--lexicon", lexicon_path, "--term", REFLEXIVE, "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph {")
    assert 'label="wash, rt"' in out


def test_eval_strict_root_flag(capsys, lexicon_path):
    code, out, err = run(
        capsys,
        "eval", "--lexicon", lexicon_path,
        "--term", "app_s(wash,self)", "--mode", "relaxed-strict",
    )
    assert code == 1
    assert out == ""
    assert "extra root label of the argument" in err
    # The strict clause is a mode of its own, not a flag on top of one.
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--lexicon", lexicon_path, "--term", "raven", "--strict-root"])
    assert exit_info.value.code == 2


def test_eval_hard_errors_exit_2(capsys, lexicon_path):
    # Same term without the strict clause: the rename collision is a data
    # error, reported as such.
    code, out, err = run(
        capsys, "eval", "--lexicon", lexicon_path, "--term", "app_s(wash,self)"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("doc", SLOT_RENAME_LEXICONS, ids=["rt-key", "rt-value", "empty-value"])
def test_eval_slot_rename_of_the_root_or_empty_label_is_a_data_error(capsys, tmp_path, doc):
    path = tmp_path / "lexicon.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "eval", "--lexicon", str(path), "--term", "app_s(f, a)")
    assert code == 2
    assert out == ""
    assert err == (
        "error: lexicon['f'].type['s']: slot rename map cannot name 'rt' or the empty label\n"
    )


def test_eval_term_syntax_error(capsys, lexicon_path):
    code, _, err = run(
        capsys, "eval", "--lexicon", lexicon_path, "--term", "app_s(wash"
    )
    assert code == 2
    assert "position" in err


def test_eval_missing_lexicon_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "eval", "--lexicon", str(tmp_path / "nope.json"), "--term", "raven"
    )
    assert code == 2
    assert err.startswith("error:")


def _nested(depth: int) -> str:
    term = "raven"
    for _ in range(depth):
        term = f"app_s(tag,{term})"
    return term


def test_eval_term_nesting_limit(capsys, tmp_path):
    # Every level of app_s(tag, ...) is defined, so evaluation recurses the
    # whole depth and adds one vertex per level.
    tag = build_graph([("t", "tag"), "x"], [("t", "x", "ARG0")], {"rt": "t", "s": "x"})
    raven = build_graph([("r", "raven")], [], {"rt": "r"})
    path = tmp_path / "lexicon.json"
    path.write_text(
        serialize_lexicon(
            {
                "tag": AsGraph(tag, GraphType({"s": Slot()})),
                "raven": AsGraph(raven, EMPTY_TYPE),
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "eval", "--lexicon", str(path), "--term", _nested(256))
    assert code == 0
    assert err == ""
    assert len(parse_graph(out).base.vertices) == 257

    for depth in (257, 1500):
        code, out, err = run(capsys, "eval", "--lexicon", str(path), "--term", _nested(depth))
        assert code == 2
        assert out == ""
        assert err.startswith("error: applications nest deeper than 256 levels")
        assert "Traceback" not in err


def _nested_type_document(depth: int) -> dict:
    doc: dict = {}
    for _ in range(depth):
        doc = {"x": {"type": doc}}
    return doc


def test_eval_type_nesting_limit(capsys, tmp_path):
    # f's slot requests a's whole type, so f's type nests one level deeper.
    # No GraphType value nests 65 deep, so the documents are written as JSON.
    arg = graph_to_document(build_graph(["r", "y"], [], {"rt": "r", "x": "y"}))
    fun = graph_to_document(build_graph(["r", "z"], [], {"rt": "r", "s": "z"}))
    path = tmp_path / "lexicon.json"
    for depth, expected in ((64, 0), (65, 2)):
        inner = _nested_type_document(depth - 1)
        lexicon = {
            "a": {"graph": arg, "type": inner},
            "f": {"graph": fun, "type": {"s": {"type": inner}}},
        }
        path.write_text(json.dumps(lexicon), encoding="utf-8")
        code, out, err = run(capsys, "eval", "--lexicon", str(path), "--term", "app_s(f,a)")
        assert code == expected
        if expected:
            assert out == ""
            assert err.startswith("error: lexicon['f'].type['s'].type")
            assert err.rstrip().endswith("types nest deeper than 64 levels")
        else:
            assert parse_graph(out).tau == {"rt", "x"}


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, fixtures_dir):
    def planted(args):
        raise ValueError("planted fault")

    monkeypatch.setattr(cli, "_cmd_dot", planted)
    code, out, err = run(capsys, "dot", str(fixtures_dir / "sentence_reflexive.json"))
    assert code == 4
    assert out == ""
    assert err == "internal error: ValueError: planted fault\n"


def test_compose_files(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "compose",
        str(fixtures_dir / "two_vertices_sources_ab.json"),
        str(fixtures_dir / "one_vertex_sources_ab.json"),
    )
    assert code == 0
    g = parse_graph(out)
    assert len(g.base.vertices) == 1
    assert g.tau == {"A", "B"}


def test_compose_classic_refuses_ms_graph(capsys, fixtures_dir):
    code, out, err = run(
        capsys,
        "compose",
        str(fixtures_dir / "two_vertices_sources_ab.json"),
        str(fixtures_dir / "one_vertex_sources_ab.json"),
        "--classic",
    )
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_compose_dot_output(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "compose",
        str(fixtures_dir / "two_vertices_sources_ab.json"),
        str(fixtures_dir / "one_vertex_sources_ab.json"),
        "--format", "dot",
    )
    assert code == 0
    assert 'label="A, B"' in out


def test_iso_same_file(capsys, fixtures_dir):
    path = str(fixtures_dir / "sentence_reflexive.json")
    code, out, _ = run(capsys, "iso", path, path)
    assert code == 0
    assert out.strip() == "isomorphic"


def test_iso_different_graphs(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "iso",
        str(fixtures_dir / "sentence_reflexive.json"),
        str(fixtures_dir / "sentence_two_place.json"),
    )
    assert code == 1
    assert out.strip() == "not isomorphic"


def test_dot_subcommand(capsys, fixtures_dir):
    code, out, _ = run(capsys, "dot", str(fixtures_dir / "one_vertex_sources_ab.json"))
    assert code == 0
    assert '"u" [label="A, B"];' in out


def test_dot_bad_schema(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [], "edges": [], "sources": {}, "web": 1}')
    code, _, err = run(capsys, "dot", str(bad))
    assert code == 2
    assert "unknown field" in err


def test_dot_non_utf8_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "dot", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "UTF-8" in err


def test_dot_deeply_nested_json(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text('{"vertices": ' + "[" * 2000 + "]" * 2000 + ', "edges": [], "sources": {}}')
    code, out, err = run(capsys, "dot", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: JSON nests too deeply to decode\n"


def test_dot_duplicate_key(capsys, tmp_path):
    bad = tmp_path / "dup.json"
    bad.write_text(
        '{"vertices": [{"id": "a"}, {"id": "b"}], "edges": [], '
        '"sources": {"rt": "a", "rt": "b"}}'
    )
    code, out, err = run(capsys, "dot", str(bad))
    assert code == 2
    assert out == ""
    assert "duplicate key 'rt'" in err


def test_dot_over_long_integer(capsys, tmp_path):
    # json.loads refuses an int past 4,300 digits with a plain ValueError.
    bad = tmp_path / "long.json"
    bad.write_text('{"vertices": [], "edges": [], "sources": {"rt": ' + "7" * 5000 + "}}")
    code, out, err = run(capsys, "dot", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: JSON integer has too many digits to decode")


def entry_point(*argv: str, c_locale: bool = False) -> subprocess.CompletedProcess:
    """Run ``python -m amalgam.cli`` in a fresh process whose stdout encodes UTF-8.

    With ``c_locale`` it runs under ``LC_ALL=C`` and no encoding override, so
    stdout writes with Python's default ``surrogateescape`` handler; the reader
    keeps any byte that is not UTF-8 as a surrogate.  In-process runs cannot
    show an encoding fault: capsys's stdout takes any str.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env.update({"LC_ALL": "C"} if c_locale else {"PYTHONIOENCODING": "utf-8"})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "amalgam.cli", *argv],
        env=env, capture_output=True, encoding="utf-8", errors="surrogateescape", timeout=60,
    )


def test_entry_point_writes_json_and_dot(lexicon_path, fixtures_dir):
    done = entry_point("eval", "--lexicon", lexicon_path, "--term", REFLEXIVE)
    assert (done.returncode, done.stderr) == (0, "")
    assert parse_graph(done.stdout).tau == {"rt"}
    done = entry_point("dot", str(fixtures_dir / "one_vertex_sources_ab.json"))
    assert (done.returncode, done.stderr) == (0, "")
    assert '"u" [label="A, B"];' in done.stdout


def dot_requests(tmp_path: Path, lone: str) -> list[list[str]]:
    """The three commands that write DOT, on inputs whose id or label is ``lone``."""
    graph = {"vertices": [{"id": lone, "label": "x"}], "edges": [], "sources": {"rt": lone}}
    lexeme = {"vertices": [{"id": "v", "label": lone}], "edges": [], "sources": {"rt": "v"}}
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "lexicon.json").write_text(json.dumps({"a": {"graph": lexeme, "type": {}}}))
    g, lexicon = str(tmp_path / "g.json"), str(tmp_path / "lexicon.json")
    return [
        ["dot", g],
        ["compose", "--format", "dot", g, g],
        ["eval", "--lexicon", lexicon, "--term", "a", "--format", "dot"],
    ]


def test_output_stdout_cannot_encode_is_a_data_error(tmp_path):
    # A lone surrogate is valid JSON and a valid id or label; the JSON writer
    # escapes it, but DOT text carries it as is and UTF-8 cannot encode it.
    for argv in dot_requests(tmp_path, "\ud800"):
        done = entry_point(*argv)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith("error: stdout cannot encode the output: ")


@pytest.mark.parametrize("lone", ["\udc80", "\ud800"])
def test_dot_output_under_the_c_locale_is_utf8_or_refused(tmp_path, lone):
    # Under the C locale stdout's surrogateescape handler would write U+DC80
    # as the raw byte 0x80, which is not UTF-8; every lone surrogate exits 2.
    for argv in dot_requests(tmp_path, lone):
        done = entry_point(*argv, c_locale=True)
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr.startswith("error: stdout cannot encode the output: ")


def test_check_equivalence_tiny(capsys):
    code, out, err = run(
        capsys, "check-equivalence", "--max-vertices", "1", "--max-edges", "0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["campaign"] == "composition-equivalence"
    assert "failures" in err  # summary goes to the diagnostic stream


def test_check_reduction_tiny(capsys):
    code, out, _ = run(capsys, "check-reduction", "--trials", "50", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["cases_run"] == 50
    assert report["parameters"]["seed"] == 3


def test_check_properties_tiny(capsys):
    code, out, _ = run(
        capsys,
        "check-properties",
        "--max-vertices", "1", "--max-edges", "0", "--trials", "20",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["findings"] == []


@pytest.mark.parametrize("flag", ["--max-vertices", "--max-edges"])
def test_huge_population_bounds_are_refused_at_once(capsys, flag):
    start = time.perf_counter()
    code, out, err = run(capsys, "check-equivalence", flag, str(10**9))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "ordered pairs, over the budget of 4000000" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--term", "raven"])
    assert err.value.code == 2


def test_check_equivalence_takes_no_sampling_flags(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check-equivalence", "--seed", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-reduction", "--trials", "-5"], "argument --trials: expected a non-negative"),
        (["check-properties", "--trials", "-3"], "argument --trials: expected a non-negative"),
        (
            ["check-equivalence", "--max-vertices", "-2"],
            "argument --max-vertices: expected a non-negative",
        ),
        (
            ["check-equivalence", "--labels", "a,a", "--max-vertices", "1", "--max-edges", "0"],
            "argument --labels: source labels repeat in 'a,a'",
        ),
    ],
    ids=["negative-reduction-trials", "negative-properties-trials", "negative-max-vertices",
         "repeated-labels"],
)
def test_nonsense_counts_and_labels_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_campaign_trial_defaults():
    parser = build_parser()
    assert parser.parse_args(["check-reduction"]).trials == 10_000
    assert parser.parse_args(["check-properties"]).trials == 1_000
    assert parser.parse_args(["check-properties"]).seed == 0


def test_campaign_population_defaults_are_the_campaigns_own():
    for command in ("check-equivalence", "check-properties"):
        args = build_parser().parse_args([command])
        assert cli._bounds_from(args) == campaigns.DEFAULT_EQUIVALENCE_BOUNDS


def _readme_commands() -> list[tuple[str, list[str]]]:
    """Each ``amalgam`` line of the README "Command line" block, as
    (the comment paragraph above it, its arguments)."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands, comment = [], ""
    for line in block.splitlines():
        if line.startswith("#"):
            comment += line + " "
        elif line.startswith("amalgam "):
            commands.append((comment, shlex.split(line)[1:]))
        else:
            comment = ""
    return commands


def test_readme_command_lines(capsys, monkeypatch):
    # The fast commands run and exit as their comment says; the campaigns
    # run at full size, so for those only the command line is checked.
    monkeypatch.chdir(README.parent)
    commands = _readme_commands()
    assert {argv[0] for _, argv in commands} == {
        "eval", "compose", "iso", "dot",
        "check-equivalence", "check-reduction", "check-properties",
    }
    for comment, argv in commands:
        if argv[0].startswith("check-"):
            build_parser().parse_args(argv)
            continue
        stated = re.search(r"\bexit (\d)", comment)
        assert stated, f"the README states no exit code for {argv}"
        assert main(argv) == int(stated.group(1)), argv
        capsys.readouterr()
