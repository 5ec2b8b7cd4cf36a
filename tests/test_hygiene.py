"""Source hygiene: no module-level import that a module or demo never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "attnio"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((SRC.parents[1] / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_flags_an_unused_import():
    assert MODULES, f"no modules found under {SRC}"
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_no_unused_imports_in_demos(path):
    assert unused_imports(path.read_text()) == []


def test_demos_found():
    assert DEMOS, f"no demos found under {SRC.parents[1] / 'demos'}"
