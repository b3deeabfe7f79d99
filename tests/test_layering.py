"""No module of the package reaches into another module's private names,
and none imports a name it never uses.

A name starting with one underscore belongs to the module that defines it.
The check is syntactic: it reads each module with ``ast`` and fails on

* ``from .m import _x`` (any private name imported from the package), and
* an attribute ``obj._x`` whose name the module does not define itself: as a
  function, method, class, assignment target, attribute assignment or
  ``__slots__`` entry.

Dunder names (``__init__``, ``__setattr__``, ...) are public protocol and
exempt.

An imported name is used when the module reads it as a name, or when the
benchmark's traced pass looks it up in that module: ``bench/tracing.py``
wraps some names where a caller finds them, and its ``LAYERS`` table, read
from source, lists them.  ``__init__.py`` imports to re-export and is
exempt.

A private function, class or constant defined at module level has no
reader but its own module, so one that the module never reads as a name
is dead code.

Only ``cli.py`` imports ``gc``: the garbage collector's policy belongs to
the entry point that owns the process, and a library call changes no
process state.
"""

import ast
from pathlib import Path

import pytest

from test_bench_names import LAYERS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fglops"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return names


def foreign_private_uses(source: str) -> list:
    """(line, text) for each private name the module takes from elsewhere."""
    tree = ast.parse(source)
    own = _defined_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fglops")):
            found += [(node.lineno, f"import {a.name}") for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in own:
            found.append((node.lineno, f".{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_foreign_private_names(path):
    assert foreign_private_uses(path.read_text(encoding="utf-8")) == []


def test_checker_flags_foreign_private_names():
    shortcut = "def power_op(f):\n    return f._terms\n"
    assert foreign_private_uses(shortcut) == [(2, "._terms")]
    imported = "from .obstruction import _monomial_label, relation_table\n"
    assert foreign_private_uses(imported) == [(1, "import _monomial_label")]
    owned = (
        "class S:\n    __slots__ = ('_terms',)\n"
        "    def f(self):\n        return self._terms, self._g(), self.__class__\n"
        "    def _g(self):\n        return 0\n"
    )
    assert foreign_private_uses(owned) == []


def unused_imports(source: str, looked_up=()) -> list:
    """(line, name) for each name the module imports and never reads."""
    tree = ast.parse(source)
    read = set(looked_up)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    module = f"fglops.{path.stem}"
    looked_up = {attr.split(".")[0] for _, owner, attr, _ in LAYERS if owner == module}
    assert unused_imports(path.read_text(encoding="utf-8"), looked_up) == []


def test_checker_flags_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, re\n"
        "from .series import Series, SeriesRing\n"
        "def f(x) -> Series:\n    \"\"\"Not a SeriesRing.\"\"\"\n    return re.sub('a', 'b', x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "SeriesRing")]
    assert unused_imports(source, looked_up={"os", "SeriesRing"}) == []


def dead_private_names(source: str) -> list:
    """(line, name) for each private module-level definition the module never reads."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names if _private(name) and name not in read]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == []


def test_checker_flags_dead_private_names():
    source = (
        "_CELL_FORMATS = {1: 'B'}\n"
        "_USED, _LEFT = 1, 2\n"
        "def _prefix_width(rows):\n    return max(rows)\n"
        "def _owners(rows):\n    return _USED\n"
        "def search(rows):\n    _local = 3\n    return _owners(rows), _local\n"
        "class _Helper:\n    def _method(self):\n        return 0\n"
    )
    assert dead_private_names(source) == [
        (1, "_CELL_FORMATS"), (2, "_LEFT"), (3, "_prefix_width"), (10, "_Helper")
    ]


def module_imports(source: str, module: str) -> list:
    """The lines that import ``module`` or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name.split(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == module:
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_imports_gc(path):
    assert bool(module_imports(path.read_text(encoding="utf-8"), "gc")) == (path.name == "cli.py")


def test_checker_flags_gc_imports():
    source = (
        "import os, gc as collector\n"
        "from gc import disable\n"
        "from .gc import helper\n"
        "import gcd\n"
        "def f():\n    import gc\n"
    )
    assert module_imports(source, "gc") == [1, 2, 6]
    assert module_imports("import os\n", "gc") == []
