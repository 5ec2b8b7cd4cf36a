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
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "attnio"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The product code a definition may be used from; bench looks some up by
# string.  Tests are no users: a definition only they reach is unused
# unless TEST_ORACLES lists it.
USERS = [ROOT / part for part in ("src", "demos", "bench")]

# Definitions only tests use, kept as the reference a test checks product
# code against; each reason names that test's file.  An entry whose
# definition is gone, or that product code now references, fails.
TEST_ORACLES = {
    "experiments.py:dispatch_matches_argmin":
        "criterion 4 in tests/test_acceptance.py: the dispatcher's choice against the regime argmin",
    "experiments.py:fit_scaling_exponent":
        "the slope windows of tests/test_count_formula.py and tests/test_experiments.py",
    "experiments.py:read_records_csv":
        "tests/test_experiments.py: the round trip and malformed rows of write_records_csv's CSV",
    "pebbling.py:save_calculation":
        "tests/test_pebbling.py pins its bytes in GOLDEN_DIGESTS; "
        "tests/test_cli.py feeds its files to attnio pebble validate",
}


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
    assert DEMOS, f"no demos found under {ROOT / 'demos'}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path):
    run = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")


def references(tree: ast.AST) -> Counter:
    """(kind, text) of each reference in ``tree``: ``"name"`` for a name
    or an imported name, ``"attr"`` for an attribute, ``"str"`` for a
    string constant."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found["name", node.id] += 1
        elif isinstance(node, ast.Attribute):
            found["attr", node.attr] += 1
        elif isinstance(node, ast.alias):
            found["name", node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found["str", node.value] += 1
    return found


def uses(found: Counter, name: str, owner: str | None) -> int:
    """How many of one file's ``references`` use the definition ``name``
    of class ``owner`` (``None`` for a module-level one): any reference
    to a module-level definition; to a method, an attribute, or a
    string constant in a file that also names the class.  A bare name
    or a dict key such as ``"value"`` is no call of a method."""
    if owner is None:
        return found["name", name] + found["attr", name] + found["str", name]
    named = found["name", owner] + found["attr", owner]
    return found["attr", name] + (found["str", name] if named else 0)


def definitions(tree: ast.Module):
    """(label, node, class name) for each module-level function and
    class (class name ``None``), and each non-dunder method or property
    of a module-level class."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt, None
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{stmt.name}.{member.name}", member, stmt.name


def counts_as_use(path: Path) -> bool:
    """Whether the references of the file at ``path`` are uses: it lies
    under ``USERS`` and is no ``__init__.py``, whose re-exports serve
    importers, not product code."""
    return path.name != "__init__.py" and any(path.is_relative_to(root) for root in USERS)


def unreferenced_definitions(sources: dict, others: dict | None = None) -> list[str]:
    """Definitions (see ``definitions``) of ``sources`` (name -> text of
    the modules checked) that no text refers to outside their own
    definition: neither ``sources`` nor a file of ``others`` (path ->
    text, by default every file under ``USERS``) that ``counts_as_use``;
    what counts as a use is ``uses``'s rule."""
    if others is None:
        others = {str(path): path.read_text() for root in USERS for path in root.rglob("*.py")}
    trees = {name: ast.parse(text) for name, text in sources.items()}
    found = {name: references(tree) for name, tree in trees.items()}
    found |= {path: references(ast.parse(text)) for path, text in others.items()
              if path not in sources and counts_as_use(Path(path))}
    unused = []
    for name, tree in trees.items():
        for label, node, owner in definitions(tree):
            # The defining file without the definition itself.
            rest = found[name] - references(node)
            if not uses(rest, node.name, owner) and not any(
                    uses(refs, node.name, owner) for path, refs in found.items() if path != name):
                unused.append(f"{Path(name).name}:{label}")
    return unused


def reference_breaches(sources: dict, oracles: dict, others: dict | None = None) -> list[str]:
    """What the reference check refuses in ``sources`` (see
    ``unreferenced_definitions``): an unreferenced definition that
    ``oracles`` does not list, and an entry of ``oracles`` whose
    definition is gone or is referenced."""
    defined = {f"{Path(name).name}:{label}" for name, text in sources.items()
               for label, _, _ in definitions(ast.parse(text))}
    unused = unreferenced_definitions(sources, others)
    return ([f"{label}: unreferenced" for label in unused if label not in oracles]
            + [f"{label}: no such definition" for label in oracles if label not in defined]
            + [f"{label}: referenced" for label in oracles
               if label in defined and label not in unused])


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


PROBE = "class Probe:\n    def tested_probe(self):\n        return 1\n\nprint(Probe())\n"


def test_checker_flags_a_method_only_tests_call():
    caller = "Probe().tested_probe()\n"
    for path, unused in [(ROOT / "tests" / "test_probe.py", ["probe.py:Probe.tested_probe"]),
                         (ROOT / "demos" / "probe_demo.py", [])]:
        assert unreferenced_definitions({"probe.py": PROBE}, {str(path): caller}) == unused


def test_checker_counts_no_bare_name_or_stray_string_as_a_method_use():
    # bench/run.py writes a "value" JSON key, and other files have a
    # variable ``value``: neither calls a method ``value``
    keyed = "RECORD = {'tested_probe': 1}\n"
    variable = "tested_probe = 1\nprint(tested_probe)\n"
    looked_up = "getattr(Probe(), 'tested_probe')()\n"
    for text, unused in [(keyed, ["probe.py:Probe.tested_probe"]),
                         (variable, ["probe.py:Probe.tested_probe"]), (looked_up, [])]:
        assert unreferenced_definitions({"probe.py": PROBE},
                                        {str(ROOT / "bench" / "probe.py"): text}) == unused


def test_checker_flags_a_definition_only_an_init_exports():
    source = "def exported_probe():\n    return 1\n"
    init = "from .probe import exported_probe\n"
    for path, unused in [(SRC / "__init__.py", ["probe.py:exported_probe"]),
                         (SRC / "cli.py", [])]:
        assert unreferenced_definitions({"probe.py": source}, {str(path): init}) == unused


def test_checker_flags_a_stale_test_oracle():
    tests_only = {str(ROOT / "tests" / "test_probe.py"): "Probe().tested_probe()\n"}
    oracle = {"probe.py:Probe.tested_probe": "tests/test_probe.py"}
    assert reference_breaches({"probe.py": PROBE}, oracle, tests_only) == []
    assert reference_breaches({"probe.py": PROBE}, {}, tests_only) == [
        "probe.py:Probe.tested_probe: unreferenced"]
    gone = PROBE.replace("tested_probe", "renamed_probe")
    assert reference_breaches({"probe.py": gone}, oracle, tests_only) == [
        "probe.py:Probe.renamed_probe: unreferenced",
        "probe.py:Probe.tested_probe: no such definition"]
    product = {str(SRC / "cli.py"): "Probe().tested_probe()\n"}
    assert reference_breaches({"probe.py": PROBE}, oracle, product) == [
        "probe.py:Probe.tested_probe: referenced"]


def test_every_module_level_definition_is_referenced():
    assert reference_breaches({str(p): p.read_text() for p in MODULES}, TEST_ORACLES) == []


@pytest.mark.parametrize("label", sorted(TEST_ORACLES))
def test_each_test_oracle_names_a_test_that_uses_it(label):
    reason = TEST_ORACLES[label]
    named = re.findall(r"tests/test_\w+\.py", reason)
    assert "\n" not in reason and named, reason
    owner, _, name = label.split(":")[1].rpartition(".")
    for test in named:
        assert uses(references(ast.parse((ROOT / test).read_text())), name, owner or None), (
            label, test)


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
