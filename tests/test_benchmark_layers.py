"""The layer names the benchmark's tracer wraps still name real functions.

``perfbench/tracer.py`` rebinds each function its ``LAYERS`` lists, in every
``amalgam`` module that holds it.  A renamed function would otherwise only
show in the benchmark's own tests.  The file is read, not imported.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from amalgam import algebra, campaigns, compose, graphs

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no LAYERS")


LAYERS = _layers()


@pytest.mark.parametrize(
    "name", [f"{m}.{f}" for m, functions in LAYERS.items() for f in functions]
)
def test_every_traced_layer_exists(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"amalgam.{module}"), function))


# The tracer and the planted-fault tests rebind these names in campaigns.
@pytest.mark.parametrize(
    "name, home",
    [
        ("isomorphic", graphs),
        ("compose_disjoint", compose),
        ("parallel_compose_classic", compose),
        ("apply", algebra),
    ],
)
def test_campaigns_calls_layers_through_its_globals(name, home):
    assert vars(campaigns)[name] is getattr(home, name)
