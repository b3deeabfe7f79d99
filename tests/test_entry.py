"""The process entry point against the in-process ``cli.main``.

``python -m fglops`` (and the ``fglops`` script, :func:`fglops.cli.entry`)
turns the cyclic garbage collector off, runs ``main`` and freezes the heap
before exiting, which spares interpreter shutdown its walk over the objects
left alive.  ``main`` itself must touch neither: tests, the benchmark's
tracer and any other in-process caller keep normal garbage collection.
The process must print the same bytes and exit with the same code as
``main``, and keep to exit 0, 1 or 2 without a traceback when its stdout
is closed or its reader has gone.
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


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


def _child(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, env=_env(), timeout=60)


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


def test_module_run_keeps_the_collector_off_for_the_request():
    # fglops.cli is imported first, so the counter sees only the request;
    # the largest relation table of the benchmark makes thousands of
    # containers, enough to start a collection with the collector on
    probe = (
        "import atexit, gc, runpy, sys\n"
        "import fglops.cli\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
        "atexit.register(lambda: print('collecting', gc.isenabled(), 'collections', len(starts),"
        " file=sys.stderr))\n"
        "sys.argv = ['fglops', 'obstruct', '--symbolic', '--degree', '62',"
        " '--t-trunc', '63', '--z-trunc', '31']\n"
        "runpy.run_module('fglops', run_name='__main__')\n"
    )
    proc = _child("-c", probe)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"z*t^2: a1*a2+a3+a1\n")
    assert proc.stderr == b"collecting False collections 0\n"


@pytest.mark.parametrize("argv", [
    ("obstruct", "--search", "--degree", "3"),
    ("obstruct", "--symbolic", "--degree", "6", "--t-trunc", "9", "--z-trunc", "5"),
    ("fgl", "check", "additive"),
], ids=["search", "table", "check"])
def test_closed_stdout_is_refused(argv):
    # file descriptor 1 closed before the interpreter starts: sys.stdout is None
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "fglops", *argv],
                          stderr=subprocess.PIPE, env=_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1, proc.stderr


def test_gone_reader_exits_2_without_traceback():
    # the read end of the pipe is closed before the child starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fglops", "obstruct", "--search", "--json",
             "--degree", "12", "--t-trunc", "5", "--z-trunc", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 32] Broken pipe\n"
