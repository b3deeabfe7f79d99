"""Golden CLI corpus: every recorded command must print byte-identical stdout
and return the same exit code.

The corpus (``golden_cli.json``) holds the input files the commands read and,
per command, its argv, exit code and stdout.  To re-record it after a change
that is meant to alter output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from fglops.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")


def _law(coeff, trunc, terms):
    return {
        "ring": {"coeff": coeff, "vars": [{"name": v, "trunc": trunc} for v in ("x", "y")]},
        "terms": [{"exp": list(e), "coef": c} for e, c in terms],
    }


def _univariate(coeff, terms, name="t"):
    return {
        "ring": {"coeff": coeff, "vars": [{"name": name, "trunc": 5}]},
        "terms": [{"exp": [e], "coef": c} for e, c in terms],
    }


FILES = {
    "law_z7.json": _law("Z/7", 6, [((1, 0), "1"), ((0, 1), "1"), ((1, 1), "3")]),
    "bad_unit.json": _law("Z", 6, [((1, 0), "1"), ((0, 1), "1"), ((2, 0), "1")]),
    "bad_assoc.json": _law("Z", 6, [((1, 0), "1"), ((0, 1), "1"), ((2, 2), "1")]),
    "t.json": _univariate("Z", [(1, "1")]),
    "f.json": _univariate("Z", [(0, "1"), (1, "3"), (2, "-1")]),
    "z6.json": _univariate("Z/6", [(0, "2"), (1, "5"), (3, "1")], name="s"),
    "poly.json": _univariate(
        {"poly": {"base": "Z/4", "vars": ["a", "b"]}},
        [(0, "a"), (1, "a+b"), (2, "3*b"), (3, "a*b+1")],
    ),
}

SEARCH = ("obstruct", "--search")
SYMBOLIC = ("obstruct", "--symbolic")
COMMANDS = [
    ("fgl", "check", "additive"),
    ("fgl", "check", "multiplicative", "--json"),
    ("fgl", "check", "additive", "--degree", "8", "--json"),
    ("fgl", "check", "law_z7.json"),
    ("fgl", "check", "bad_unit.json"),
    ("fgl", "check", "bad_assoc.json", "--json"),
    ("fgl", "check", "additive", "--degree", "64"),
    ("fgl", "check", "multiplicative", "--degree", "64", "--json"),
    ("fgl", "nseries", "additive", "5"),
    ("fgl", "nseries", "multiplicative", "0"),
    ("fgl", "nseries", "multiplicative", "7", "--degree", "10"),
    ("fgl", "nseries", "multiplicative", "64", "--degree", "12", "--json"),
    ("fgl", "nseries", "multiplicative", "1500"),
    ("fgl", "nseries", "multiplicative", "1500", "--degree", "40", "--json"),
    ("fgl", "nseries", "law_z7.json", "9"),
    ("powerop", "t.json"),
    ("powerop", "f.json", "--json"),
    ("powerop", "f.json", "--fgl", "multiplicative", "--tau", "3",
     "--t-trunc", "7", "--z-trunc", "4"),
    ("powerop", "f.json", "--fgl", "multiplicative", "--tau", "3",
     "--t-trunc", "9", "--z-trunc", "4", "--json"),
    ("powerop", "z6.json", "--fgl", "multiplicative", "--tau", "1"),
    ("powerop", "poly.json"),
    ("powerop", "poly.json", "--fgl", "multiplicative", "--json"),
    ("chern", "--coeffs", "1,0,0"),
    ("chern", "--coeffs=-1,2,3", "--t-trunc", "6", "--z-trunc", "4", "--json"),
    ("chern", "--symbolic", "3"),
    ("chern", "--symbolic", "2", "--json"),
    ("chern", "--symbolic", "4", "--t-trunc", "6", "--z-trunc", "4", "--json"),
    SEARCH + ("--degree", "3"),
    SEARCH + ("--degree", "4", "--json"),
    SEARCH + ("--degree", "6", "--t-trunc", "5", "--z-trunc", "3"),
    SEARCH + ("--degree", "6", "--t-trunc", "5", "--z-trunc", "3", "--json"),
    SEARCH + ("--degree", "3", "--z-trunc", "1"),
    SEARCH + ("--degree", "5", "--z-trunc", "1", "--json"),
    SYMBOLIC + ("--degree", "3"),
    SYMBOLIC + ("--degree", "8", "--t-trunc", "9", "--z-trunc", "5"),
    SYMBOLIC + ("--degree", "5", "--t-trunc", "13", "--z-trunc", "7", "--json"),
    ("obstruct", "--degree", "3"),
    ("chern", "--coeffs", "2,1"),
    ("fgl", "nseries", "additive", "-3"),
    ("powerop", "missing.json"),
]


def run(argv):
    """(exit code, stdout) of ``fglops argv`` run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _write_files(directory: Path, files) -> None:
    for name, obj in files.items():
        (directory / name).write_text(json.dumps(obj))


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            _write_files(Path(tmp), FILES)
            cases = []
            for argv in COMMANDS:
                code, stdout = run(argv)
                cases.append({"argv": list(argv), "exit": code, "stdout": stdout})
        finally:
            os.chdir(here)
    CORPUS.write_text(json.dumps({"files": FILES, "cases": cases}, indent=1) + "\n")


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden(argv, corpus, tmp_path, monkeypatch):
    (case,) = [case for case in corpus["cases"] if case["argv"] == list(argv)]
    monkeypatch.delenv("FGLOPS_TRUNC_MAX", raising=False)
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path, corpus["files"])
    assert run(argv) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    os.environ.pop("FGLOPS_TRUNC_MAX", None)
    sys.exit(record())
