"""The package states its public surface once, in `ivowa/__init__.py`, and
`src/ivowa` holds no code that nothing reaches.

Read statically with `ast`: the gate sees every path, not only those a run
takes, in a few milliseconds.  Three rules:

- no module binds `__all__`;
- every module-level function or class is named somewhere in the package
  outside its own body: as a name in its own module, as an attribute, or in
  an import (which covers the names `ivowa/__init__.py` exports).  A law
  row registered by `@_law(...)` is named by its registration;
- every method or property, dunders aside, of a class the package does not
  export is read as an attribute somewhere in the package outside its own
  body.

A fourth keeps the imports honest, so that importing a name cannot keep it
alive: every name a module imports is read in that module.  The tools in
`tools/` import the package too, so each must still import, and every
package name it reads must still exist.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import SOURCE

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


MODULES = {path.stem: _parse(path) for path in sorted(SOURCE.glob("*.py"))}


def _uses(tree: ast.Module) -> list[tuple[str, object, frozenset[int]]]:
    """``(kind, name, enclosing)`` for each name read (``"name"``), attribute
    read (``"attr"``) and name imported from a package module (``"import"``,
    named ``(module, name)``) in a module, with the ids of the definitions
    whose bodies hold it."""
    found = []

    def visit(node: ast.AST, enclosing: frozenset[int]) -> None:
        if isinstance(node, DEFINITIONS):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append(("name", node.id, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append(("attr", node.attr, enclosing))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found.extend(("import", (node.module, alias.name), enclosing) for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


USES = {module: _uses(tree) for module, tree in MODULES.items()}
EXPORTED = {name for kind, name, _ in USES["__init__"] if kind == "import"}


def _named_outside(definition: ast.AST, module: str, kinds: tuple[str, ...]) -> bool:
    """Whether a use of the definition's name, of one of `kinds`, lies
    outside its body: a name read in its own module, an attribute read or an
    import of it anywhere in the package."""
    wanted = {"name": definition.name, "attr": definition.name, "import": (module, definition.name)}
    return any(kind in kinds and name == wanted[kind] and id(definition) not in enclosing
               and (kind != "name" or user == module)
               for user, uses in USES.items() for kind, name, enclosing in uses)


def _registered(definition: ast.AST) -> bool:
    """A law row: decorated by ``@_law(...)``, which files it in a law table."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_law"
               for d in getattr(definition, "decorator_list", ()))


def test_no_module_binds_all():
    bound = [f"{module}.__all__" for module, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "__all__"
             and not isinstance(node.ctx, ast.Load)]
    assert bound == [], "the names ivowa/__init__.py imports are the one public surface"


def test_every_module_level_definition_is_reached():
    unreached = [f"{module}.{node.name}" for module, tree in MODULES.items()
                 for node in tree.body if isinstance(node, DEFINITIONS)
                 and not _registered(node) and not _named_outside(node, module,
                                                                  ("name", "attr", "import"))]
    assert unreached == [], "nothing in src/ivowa names these"


def test_every_method_of_an_internal_class_is_read():
    unread = [f"{module}.{cls.name}.{node.name}" for module, tree in MODULES.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              and (module, cls.name) not in EXPORTED
              for node in cls.body if isinstance(node, DEFINITIONS)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and not _named_outside(node, module, ("attr",))]
    assert unread == [], "nothing in src/ivowa reads these"


def _bound_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [alias.asname or alias.name for alias in node.names]
    return [alias.asname or alias.name.partition(".")[0] for alias in node.names]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_read(module):
    read = {name for kind, name, _ in USES[module] if kind == "name"}
    unread = [name for node in ast.walk(MODULES[module])
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for name in _bound_names(node) if name not in read]
    assert unread == []


def _package_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` for each name a script imports from a package
    module, and each attribute it reads of a package module it imports."""
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ivowa":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ivowa."):
            reads.update((node.module[6:], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("path", TOOLS, ids=[path.name for path in TOOLS])
def test_each_tool_imports_and_finds_what_it_reads(path, monkeypatch, capsys):
    # Each tool does its work in `main`, so importing one runs nothing.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert callable(tool.main)
    assert capsys.readouterr() == ("", "")
    # The package names it reads, in its own code and in any program it
    # hands a child interpreter.
    programs = [_parse(path)] + [ast.parse(value) for value in vars(tool).values()
                                 if isinstance(value, str) and "from ivowa" in value]
    reads = set().union(*map(_package_reads, programs))
    if path.stem == "verify_rows":
        assert {("checks", "_THEOREM_CHECKS"), ("checks", "_LATTICE_CHECKS"),
                ("checks", "WORKER_ROWS"), ("sampling", "_MEMO")} <= reads
    missing = [f"{module}.{name}" for module, name in sorted(reads)
               if not hasattr(importlib.import_module(f"ivowa.{module}"), name)]
    assert missing == []
