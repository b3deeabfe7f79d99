"""The names the benchmark's traced pass wraps still exist in the package.

``bench/tracing.py`` replaces public functions and methods, looked up by
module and dotted attribute, with timing wrappers.  A refactor that removes
or renames one of them breaks the traced benchmark run, not the package, so
this test resolves every entry of its ``LAYERS`` and ``COEFFICIENT_OPS``
tables.  The tables are read from the source with ``ast``; the benchmark
module itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _table(name: str):
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no {name}")


LAYERS = _table("LAYERS")


def test_tables_are_read():
    assert LAYERS and _table("COEFFICIENT_OPS")


@pytest.mark.parametrize("span, module, attr", [layer[:3] for layer in LAYERS])
def test_traced_layer_resolves(span, module, attr):
    assert module.split(".")[0] == "fglops", span
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), (span, module, attr)


def test_traced_coefficient_ops_resolve():
    coefficient = importlib.import_module("fglops.coefficients").Coefficient
    for name in _table("COEFFICIENT_OPS"):
        assert callable(getattr(coefficient, name)), name
