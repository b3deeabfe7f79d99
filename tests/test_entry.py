"""The process entry point against the in-process ``cli.main``.

``python -m fglops`` (and the ``fglops`` script, :func:`fglops.cli.entry`)
runs ``main`` and freezes the heap before exiting, which spares interpreter
shutdown its walk over the objects left alive.  ``main`` itself must not
freeze: tests, the benchmark's tracer and any other in-process caller keep
normal garbage collection.  The process must print the same bytes and exit
with the same code as ``main``.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys

import pytest

from fglops.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# one command for each exit code: 0 done, 1 satisfiable search, 2 refused input
COMMANDS = [
    (0, ("obstruct", "--symbolic", "--json", "--degree", "6", "--t-trunc", "9", "--z-trunc", "5")),
    (1, ("obstruct", "--search", "--degree", "9", "--t-trunc", "17", "--z-trunc", "2")),
    (2, ("fgl", "nseries", "additive", "-3")),
]


def _child(*args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=60)


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("expected_code, argv", COMMANDS, ids=["exit0", "exit1", "exit2"])
def test_module_run_matches_main(expected_code, argv):
    frozen = gc.get_freeze_count()
    code, text = _in_process(argv)
    assert gc.get_freeze_count() == frozen
    assert code == expected_code
    proc = _child("-m", "fglops", *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == text.encode("utf-8")
    assert bool(proc.stderr) == (code == 2)


def test_module_run_freezes_the_heap_at_exit():
    # an exit handler runs after the entry point has raised SystemExit
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['fglops', 'fgl', 'check', 'additive']\n"
        "runpy.run_module('fglops', run_name='__main__')\n"
    )
    proc = _child("-c", probe)
    assert proc.returncode == 0
    assert proc.stdout == b"valid to degree 20\n"
    assert proc.stderr == b"frozen True\n"
