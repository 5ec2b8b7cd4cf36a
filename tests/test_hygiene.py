"""Source hygiene: no module-level import that a module or demo never uses,
every demo runs to the end with nothing on stderr, no module-level
function or class, and no method or property of a module-level class,
that nothing references, no module that reaches into another object's
private attributes, one enumeration-cap contract
(``errors.check_enumeration`` alone raises ``EnumerationCapError``, and
``cli.main`` alone turns it or a ``RegimeError`` into an exit code), and
one written copy of each error message in ``memory.py``."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "attnio"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((SRC.parents[1] / "demos").glob("*.py"))
# Every place a definition may be used from; bench looks some up by string.
USERS = [SRC.parents[1] / part for part in ("src", "tests", "demos", "bench")]


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path):
    run = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")


def references(tree: ast.AST) -> Counter:
    """Names, attributes, imported names and string constants in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def definitions(tree: ast.Module):
    """(label, node) for each module-level function and class, and each
    non-dunder method or property of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{stmt.name}.{member.name}", member


def unreferenced_definitions(sources: dict) -> list[str]:
    """Definitions (see ``definitions``) of ``sources`` (name -> text of
    the modules checked) that no text in ``sources`` or in the rest of the
    users refers to outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = Counter()
    for tree in trees.values():
        total += references(tree)
    for root in USERS:
        for path in root.rglob("*.py"):
            if str(path) not in sources:
                total += references(ast.parse(path.read_text()))
    unused = []
    for name, tree in trees.items():
        for label, node in definitions(tree):
            if total[node.name] == references(node)[node.name]:
                unused.append(f"{Path(name).name}:{label}")
    return unused


def test_checker_flags_an_unreferenced_definition():
    source = ("def used():\n    pass\n\n"
              "def orphan_probe(n):\n    return orphan_probe(n - 1)\n\n"
              "KINDS = {'k': 'looked_up'}\n\n"
              "def looked_up():\n    return used()\n\n"
              "class Holder:\n"
              "    def __len__(self):\n        return 0\n\n"
              "    @property\n    def shown(self):\n        return len(self)\n\n"
              "    def dead_probe(self):\n        return self.dead_probe()\n\n"
              "print(Holder().shown)\n")
    assert unreferenced_definitions({"probe.py": source}) == [
        "probe.py:orphan_probe", "probe.py:Holder.dead_probe"]


def test_every_module_level_definition_is_referenced():
    assert unreferenced_definitions({str(p): p.read_text() for p in MODULES}) == []


# Handlers that catch a refusal or a regime error, named or not.
CAUGHT_BY_MAIN = {"EnumerationCapError", "RegimeError", "Exception", "BaseException"}


def _names(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def contract_breaches(name: str, source: str) -> list[str]:
    """Lines of module ``name`` that raise ``EnumerationCapError`` other
    than through ``errors.check_enumeration``, or, in ``cli.py``, catch
    what only ``main`` may catch."""
    tree = ast.parse(source)
    main = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    in_main = {id(n) for fn in main for n in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if (name != "errors.py" and isinstance(node, ast.Call)
                and "EnumerationCapError" in _names(node.func)):
            found.append(node.lineno)
        if (name == "cli.py" and isinstance(node, ast.ExceptHandler)
                and id(node) not in in_main
                and (node.type is None or _names(node.type) & CAUGHT_BY_MAIN)):
            found.append(node.lineno)
    return [f"{name}:{line}" for line in sorted(found)]


def test_checker_flags_a_contract_breach():
    source = ("def f(n):\n    if n > 1:\n        raise errors.EnumerationCapError('x', n, 1)\n\n"
              "def g():\n    try:\n        f(2)\n    except RegimeError:\n        pass\n\n"
              "def main():\n    try:\n        g()\n    except EnumerationCapError:\n"
              "        return 1\n")
    assert contract_breaches("fields.py", source) == ["fields.py:3"]
    assert contract_breaches("cli.py", source) == ["cli.py:3", "cli.py:8"]
    assert contract_breaches("errors.py", source) == []


def test_one_enumeration_cap_contract():
    assert [breach for path in MODULES
            for breach in contract_breaches(path.name, path.read_text())] == []


def foreign_private_attributes(source: str) -> list[int]:
    """Lines that read or write an underscore attribute of an object other
    than ``self``, ``cls`` or an imported name (a module, such as
    ``experiments._KERNELS``).  Dunder attributes are not private."""
    tree = ast.parse(source)
    own = {"self", "cls"} | {alias.asname or alias.name.split(".")[0]
                             for node in ast.walk(tree)
                             if isinstance(node, (ast.Import, ast.ImportFrom))
                             for alias in node.names}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                   and not node.attr.endswith("__")
                   and not (isinstance(node.value, ast.Name) and node.value.id in own)})


def test_checker_flags_a_foreign_private_attribute():
    source = ("from . import experiments\n\n"
              "class A:\n"
              "    def f(self, other):\n"
              "        self._x = other._y\n"
              "        other._z = experiments._KERNELS\n"
              "        return other.__class__, cls._w, self.peer._v\n")
    assert foreign_private_attributes(source) == [5, 6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_foreign_private_attributes(path):
    assert foreign_private_attributes(path.read_text()) == []


def repeated_messages(source: str) -> list[str]:
    """Error-message templates that more than one ``raise`` of ``source``
    writes.  A template is a string constant of a raise, an f-string
    with its fields written as ``{}``."""
    def templates(node: ast.AST):
        if isinstance(node, ast.JoinedStr):
            yield "".join(part.value if isinstance(part, ast.Constant) else "{}"
                          for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        else:
            for child in ast.iter_child_nodes(node):
                yield from templates(child)

    written = Counter(message for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.Raise) and node.exc is not None
                      for message in templates(node.exc))
    return sorted(message for message, count in written.items() if count > 1)


def test_checker_flags_a_repeated_message():
    source = ("def f(n, m):\n"
              "    if n:\n        raise ValueError(f'slot {n} is gone')\n"
              "    if m:\n        raise KeyError(f'slot {m} is gone')\n"
              "    raise ValueError('once')\n")
    assert repeated_messages(source) == ["slot {} is gone"]


def test_memory_writes_each_error_message_once():
    # each check of the simulator has one copy, so its message does too
    assert repeated_messages((SRC / "memory.py").read_text()) == []
