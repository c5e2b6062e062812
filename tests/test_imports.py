"""Every name a module of the package, a script or a test file imports is used in that file.

The files are read with ``ast``, not imported.  ``__init__.py`` is left
out: it imports names only to export them.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amalgam"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _imported_and_used(path: Path) -> tuple[dict[str, int], set[str]]:
    """Each name the module's imports bind, with its line; each name it reads."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_the_package_has_modules_to_check():
    names = {p.name for p in MODULES}
    assert names >= {
        "algebra.py", "cli.py", "compose.py", "graphs.py", "regenerate_fixtures.py",
        "conftest.py", "test_imports.py",
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    imported, used = _imported_and_used(path)
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}
