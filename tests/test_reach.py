"""Every function of the package runs on some CLI request, or is listed here with its reason.

The golden corpus (``test_golden_cli.COMMANDS``) and the requests of
``MORE`` run in-process under ``sys.setprofile``, which sees each call of a
Python function; ``fglops --help`` runs through the console-script entry
point, :func:`fglops.cli.entry`.  Each function and method defined in
``src/fglops``, found by its qualified name with ``ast``, must be called
by some request, or be listed in ``UNREACHED``.  A listed function is
one of:

* reference: an oracle the tests hold the engine to, or a map it needs;
* library API: documented for library callers, where the text says;
* dunder: Python's protocol, called by the interpreter for callers, or
  a helper only such methods call.

The list can only shrink: a listed function that some request calls fails
the test, and so does an entry that names no function.  A function no
request needs and no entry names gains a reader or leaves the package.
"""

import ast
import contextlib
import gc
import io
import json
import sys
from pathlib import Path

import pytest

import fglops
from fglops import cli
from test_golden_cli import COMMANDS, CORPUS, _write_files

PACKAGE = Path(fglops.__file__).resolve().parent

MORE = [
    ("obstruct", "--symbolic", "--json"),
    ("obstruct", "--search", "--json"),
    ("chern", "--symbolic", "3"),
    ("powerop", "t.json", "--fgl", "multiplicative", "--tau", "1"),
]

REFERENCE = "reference: "
LIBRARY = "library API: "
DUNDER = "dunder"

UNREACHED = {
    ("obstruction.py", "extract_relations"):
        REFERENCE + "the Z[a] twin the relation table is held to",
    ("obstruction.py", "symbolic_twin"): REFERENCE + "the context extract_relations reduces",
    ("obstruction.py", "multilinear_mod2"): REFERENCE + "extract_relations' reduction mod 2",
    ("obstruction.py", "delta"): REFERENCE + "the defect itself, numeric and over Z[a]",
    ("fgl.py", "FormalGroupLaw.map_coefficients"): REFERENCE + "symbolic_twin's law over Z[a]",
    ("powerops.py", "PowerOpContext.map_coefficients"):
        REFERENCE + "symbolic_twin's context over Z[a]",
    ("series.py", "Series.map_coefficients"): REFERENCE + "the law's map to Z[a]",
    ("series.py", "Series.specialize"):
        REFERENCE + "the symbolic defect specialised to a numeric candidate",
    ("series.py", "Series.in_ring"): REFERENCE + "a specialised series compared in its ring",
    ("series.py", "Series.coefficient_of"): REFERENCE + "reads one defect coefficient",
    ("coefficients.py", "PolynomialRing.evaluate"):
        REFERENCE + "a relation evaluated at a candidate",
    ("obstruction.py", "ObstructionReport.to_json"):
        REFERENCE + "the document the CLI's obstruct writer is held to",
    ("obstruction.py", "ObstructionReport.failures"):
        REFERENCE + "each candidate's failure, against the brute-force search",
    ("obstruction.py", "boolean_relations"):
        LIBRARY + "the table as mask sets, in the README's library tour",
    ("coefficients.py", "Ring.one"): LIBRARY + "named in Ring's docstring beside zero",
    ("coefficients.py", "Coefficient.is_unit"):
        LIBRARY + "a Coefficient method over the ring protocol; a Z/n candidate reads it",
    ("coefficients.py", "Coefficient.reduce_mod"):
        LIBRARY + "a Coefficient method over the ring protocol",
    ("coefficients.py", "IntegerModRing.is_unit"):
        LIBRARY + "the ring protocol, which every ring class keeps",
    ("coefficients.py", "IntegerModRing.invert"):
        LIBRARY + "the ring protocol, which every ring class keeps",
    ("chern.py", "ChernSeries.degree"): LIBRARY + "a candidate's degree",
    ("coefficients.py", "Immutable._field_values"):
        DUNDER + ": read only by __eq__, __hash__ and __reduce__ on two distinct values",
    **{
        (file, name): DUNDER
        for file, names in {
            "chern.py": ["ChernSeries.__repr__"],
            "coefficients.py": [
                "Immutable.__setattr__", "Immutable.__delattr__", "Immutable.__hash__",
                "Immutable.__repr__", "Immutable.__reduce__", "IntegerRing.__str__",
                "IntegerModRing.__str__", "PolynomialRing.__str__", "Coefficient.__neg__",
                "Coefficient.__sub__", "Coefficient.__rsub__", "Coefficient.__hash__",
                "Coefficient.__repr__",
            ],
            "series.py": [
                "SeriesRing.__str__", "Series.__rsub__", "Series.__pow__", "Series.__hash__",
                "Series.__repr__",
            ],
        }.items()
        for name in names
    },
}


def defined_functions() -> set:
    """(file name, qualified name) of every function and method in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        names = []

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.append(prefix + child.name)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
        assert len(names) == len(set(names)), f"{path.name} defines a name twice"
        found.update((path.name, name) for name in names)
    return found


def called_functions(files, directory: Path) -> set:
    """(file name, qualified name) of each package function the requests call.

    The last request is ``sys.argv`` run through :func:`fglops.cli.entry`,
    whose collector switches are undone afterwards.
    """
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _write_files(directory, files)
    collecting = gc.isenabled()
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in [*COMMANDS, *MORE]:
                cli.main(list(argv))
            with pytest.raises(SystemExit):
                cli.entry()
    finally:
        sys.setprofile(None)
        gc.unfreeze()
        (gc.enable if collecting else gc.disable)()
    return {
        (path.name, code.co_qualname)
        for code in codes
        if (path := Path(code.co_filename).resolve()).parent == PACKAGE
    }


def test_every_function_runs_or_is_listed(tmp_path, monkeypatch):
    monkeypatch.delenv("FGLOPS_TRUNC_MAX", raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["fglops", "--help"])
    defined = defined_functions()
    files = json.loads(CORPUS.read_text())["files"]
    called = called_functions(files, tmp_path) & defined
    assert sorted(defined - called - set(UNREACHED)) == []  # no reader and no reason
    assert sorted(called & set(UNREACHED)) == []  # reached now: take it off the list
    assert sorted(set(UNREACHED) - defined) == []  # the function is gone
    assert ("cli.py", "entry") in called and ("obstruction.py", "_relation_masks") in called


def test_every_entry_gives_its_reason():
    for (_, name), reason in UNREACHED.items():
        method = name.rsplit(".", 1)[-1]
        assert reason.startswith((REFERENCE, LIBRARY, DUNDER)), name
        assert reason != DUNDER or method[:2] == method[-2:] == "__", name
