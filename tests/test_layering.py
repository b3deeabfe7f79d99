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

No module imports ``json`` when it is imported, only inside the functions
that read a file or print a series or a law check: every request pays for
the package's imports, and the ``obstruct`` requests write their JSON
without it.

Only ``cli.py`` calls ``validate_law``, which ``fgl.py`` defines: a law is
proved where it enters, as input or in ``fgl check``, and the built-in laws
are constants that the engine never proves again.

Only ``powerops.py`` and ``fgl.py`` call ``formal_sum``: F(t, z) is built
by the context that fixes the law and the ring, and by the law itself for
[n](x), so no caller can pair a ring with a law too short for it.

``obstruction.py`` names neither ``packed_terms`` nor ``layout``: the
relation table reads the law's terms as exponent pairs, not a series'
packed keys.

Within ``obstruction.py`` only ``_check_mod2`` reads ``.tau``: the
relation tables and the search read tau = 2 only, and one check refuses
every other tau for all of them.

``tests/longhand.py`` imports nothing from ``fglops``: it is the oracle
the engine is checked against, so it shares no code with it.
"""

import ast
from pathlib import Path

import pytest

from test_bench_names import LAYERS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fglops"
LONGHAND = Path(__file__).resolve().parent / "longhand.py"


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


def _import_lines(nodes, module: str) -> list:
    """The lines of those of ``nodes`` that import ``module`` or a name from it."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name.split(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == module:
                found.append(node.lineno)
    return found


def module_imports(source: str, module: str) -> list:
    """The lines that import ``module`` or a name from it."""
    return _import_lines(ast.walk(ast.parse(source)), module)


def import_time_imports(source: str, module: str) -> list:
    """The lines that import ``module`` or a name from it when the source is imported.

    That is every such line outside a function body; a class body runs at
    import too.
    """
    nodes, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes.append(node)
            todo += ast.iter_child_nodes(node)
    return sorted(_import_lines(nodes, module))


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_json_when_imported(path):
    assert import_time_imports(path.read_text(encoding="utf-8"), "json") == []


def test_checker_flags_json_imports_at_import_time():
    source = (
        "import os, json as js\n"
        "from json.encoder import encode_basestring_ascii\n"
        "try:\n    import json\nexcept ImportError:\n    pass\n"
        "class C:\n    from json import dumps\n"
        "    def m(self):\n        import json\n"
        "def f():\n    import json\n    return json\n"
        "async def g():\n    from json import loads\n"
        "from .json import helper\n"
        "import jsonschema\n"
    )
    assert import_time_imports(source, "json") == [1, 2, 4, 8]
    assert sorted(module_imports(source, "json")) == [1, 2, 4, 8, 10, 12, 15]
    assert import_time_imports("import os\n", "json") == []


def calls_of(source: str, name: str) -> list:
    """The lines that call ``name``, bare, as an attribute or under an import alias."""
    tree = ast.parse(source)
    names = {name} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == name and alias.asname
    }
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id in names
            or isinstance(node.func, ast.Attribute) and node.func.attr in names
        )
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_proves_laws(path):
    source = path.read_text(encoding="utf-8")
    defines = [n for n in ast.parse(source).body
               if isinstance(n, ast.FunctionDef) and n.name == "validate_law"]
    assert bool(defines) == (path.name == "fgl.py")
    assert bool(calls_of(source, "validate_law")) == (path.name == "cli.py")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_context_and_the_law_form_sums(path):
    source = path.read_text(encoding="utf-8")
    assert bool(calls_of(source, "formal_sum")) == (path.name in ("powerops.py", "fgl.py"))


def test_checker_flags_law_proofs():
    source = (
        "from .fgl import validate_law as prove\n"
        "import fglops\n"
        "def f(F):\n    return validate_law(F)\n"
        "def g(F):\n    return fglops.fgl.validate_law(F, degree=3)\n"
        "def h(F):\n    return prove(F)\n"
        "check = validate_law\n"
        "def validate_laws(F):\n    return F\n"
        "validate_laws(0)\n"
    )
    assert calls_of(source, "validate_law") == [4, 6, 8]
    assert calls_of("import fglops\n", "validate_law") == []


def identifiers(source: str, names) -> list:
    """(line, name) for each bare name or attribute in ``names`` that the source uses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in names:
            found.append((node.lineno, name))
    return sorted(found)


def test_relation_table_reads_no_packed_keys():
    source = (PACKAGE / "obstruction.py").read_text(encoding="utf-8")
    assert identifiers(source, {"packed_terms", "layout"}) == []


def test_checker_flags_packed_key_names():
    source = (
        "\"\"\"Reads no layout.\"\"\"\n"
        "def f(ctx, layout=None):\n"
        "    keys = ctx.tensor_root.packed_terms\n"
        "    return ctx.ring.layout.unpack, layout, 'packed_terms'\n"
    )
    assert identifiers(source, {"packed_terms", "layout"}) == [
        (3, "packed_terms"), (4, "layout"), (4, "layout")
    ]


def attribute_reads_outside(source: str, attr: str, function: str) -> list:
    """The lines that read ``.attr`` outside every function named ``function``."""
    tree = ast.parse(source)
    inside = {
        line
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == function
        for line in range(node.lineno, node.end_lineno + 1)
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.ctx, ast.Load) and node.lineno not in inside
    )


def test_only_the_mod2_check_reads_tau():
    source = (PACKAGE / "obstruction.py").read_text(encoding="utf-8")
    assert attribute_reads_outside(source, "tau", "_check_mod2") == []


def test_checker_flags_tau_reads():
    source = (
        "\"\"\"Reads ctx.tau only in the check.\"\"\"\n"
        "def _check_mod2(degree, ctx):\n"
        "    if ctx.tau != 2:\n        raise ValueError('tau = 2')\n"
        "def _relation_masks(degree, ctx):\n"
        "    odd = ctx.tau.value % 2\n"
        "    def term(a):\n        return a * ctx.tau\n"
        "    ctx.tau = 2\n"
        "    return getattr(ctx, 'tau'), (lambda c: c.tau)(ctx)\n"
    )
    assert attribute_reads_outside(source, "tau", "_check_mod2") == [6, 8, 10]
    assert attribute_reads_outside(source, "tau", "_relation_masks") == [3]


def test_longhand_imports_nothing_from_fglops():
    assert module_imports(LONGHAND.read_text(encoding="utf-8"), "fglops") == []
