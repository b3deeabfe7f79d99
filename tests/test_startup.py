"""Importing the CLI, and running a request, load none of the heavy standard-library modules.

Every ``fglops`` command is a fresh process that pays for ``import
fglops.cli``; ``dataclasses`` alone drags in ``inspect``, ``ast``, ``dis``
and ``tokenize``, and ``argparse`` brings ``gettext``, which loads
``locale`` at its first message lookup.  ``json`` is loaded only by the
requests that read a file or print a series or a law check: the
``obstruct`` requests write their JSON themselves.  The checks run in a
child interpreter without ``site`` (whose hooks may load modules of their
own) and read the module table, printed with ``repr`` so that the probe
loads nothing itself; they are counts, not timings.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale")


def _loaded_after(code):
    """The module names loaded once ``code`` has run in a ``-S`` child."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\n{code}\nprint(repr(sorted(sys.modules)), file=sys.stderr)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stderr.splitlines()[-1]))


def test_probe_loads_nothing_itself():
    assert not {"json", "ast", *HEAVY} & _loaded_after("")


def test_cli_import_skips_heavy_modules():
    loaded = _loaded_after("import fglops.cli")
    assert "fglops.cli" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []
    assert "json" not in loaded


def test_search_request_skips_heavy_modules():
    request = ["obstruct", "--search", "--json", "--degree", "4", "--t-trunc", "5", "--z-trunc", "3"]
    loaded = _loaded_after(f"import fglops.cli\nassert fglops.cli.main({request!r}) == 0")
    assert "fglops.obstruction" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []
    assert "json" not in loaded


@pytest.mark.parametrize("request_argv", [
    ["obstruct", "--symbolic", "--json", "--degree", "6", "--t-trunc", "7", "--z-trunc", "4"],
    ["obstruct", "--search", "--json", "--degree", "3", "--t-trunc", "5", "--z-trunc", "1"],
], ids=["symbolic", "search-satisfiable"])
def test_obstruct_json_skips_json(request_argv):
    code = f"import fglops.cli\nassert fglops.cli.main({request_argv!r}) in (0, 1)"
    loaded = _loaded_after(code)
    assert "fglops.obstruction" in loaded
    assert "json" not in loaded
