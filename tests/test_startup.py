"""Importing the CLI loads none of the heavy standard-library modules.

Every ``fglops`` command is a fresh process that pays for ``import
fglops.cli``; ``dataclasses`` alone drags in ``inspect``, ``ast``, ``dis``
and ``tokenize``.  The check runs the import in a child interpreter without
``site`` (whose hooks may load modules of their own) and reads the module
table, so it is a count, not a timing.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_skips_heavy_modules():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import json, sys; import fglops.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "fglops.cli" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []
