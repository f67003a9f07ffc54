"""Every name a litrag module imports is used in that module.

A module uses a name when the name appears anywhere in its code (an
annotation too) or is listed in its ``__all__``. An import whose first
line carries ``# noqa: F401`` is exempt: it keeps a name that something
outside the module looks up there.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "litrag"


def _imported(tree: ast.Module, lines: list[str]) -> list[tuple[int, str]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            out.append((node.lineno, name))
    return out


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """The (line, name) of each import in ``path`` its module never uses."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used(tree)
    return [(line, name) for line, name in _imported(tree, source.splitlines()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import_and_its_exemption(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import io\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "from math import (  # noqa: F401 - kept for a caller elsewhere\n"
        "    pi,\n"
        ")\n"
        "from pathlib import Path\n"
        "from typing import Any\n"
        "__all__ = ['dumps']\n"
        "def f(x: Path) -> None:\n"
        "    y: Any = os.path.join(x)\n"
        "    return parse(y)\n"
    )
    assert unused_imports(module) == [(2, "io")]
