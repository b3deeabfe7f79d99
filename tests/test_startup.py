"""Importing the CLI, and running a request, load none of the heavy standard-library modules.

Every ``fglops`` command is a fresh process that pays for ``import
fglops.cli``; ``dataclasses`` alone drags in ``inspect``, ``ast``, ``dis``
and ``tokenize``, and ``argparse`` brings ``gettext``, which loads
``locale`` at its first message lookup.  The checks run in a child
interpreter without ``site`` (whose hooks may load modules of their own)
and read the module table, so they are counts, not timings.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale")


def _loaded_after(code):
    """The module names loaded once ``code`` has run in a ``-S`` child."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_cli_import_skips_heavy_modules():
    loaded = _loaded_after("import fglops.cli")
    assert "fglops.cli" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []


def test_search_request_skips_heavy_modules():
    request = ["obstruct", "--search", "--json", "--degree", "4", "--t-trunc", "5", "--z-trunc", "3"]
    loaded = _loaded_after(f"import fglops.cli\nassert fglops.cli.main({request!r}) == 0")
    assert "fglops.obstruction" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []
