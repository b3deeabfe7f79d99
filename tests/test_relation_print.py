"""Printed relation tables against an independent oracle.

``obstruct --symbolic`` prints a relation table straight from the mask-major
rows of the B_D computation, through one printer that walks the distinct
monomial masks in print order; the search report keeps the rows that
printer gives, and ``obstruct --search --json`` prints them.
``test_symbolic_json_matches_json_dumps`` holds the layout of that output to
``json.dumps``, but it runs the same printer on both sides.  Here each
printed row, in ``--json``, in text and in a search report, is held to
``str()`` of the matching :func:`extract_relations` row: the defect over
Z[a1..aD] reduced at the end by ``multilinear_mod2`` and printed by
PolynomialRing(Z/2), with no ``BooleanRing`` involved, under a z^j*t^i
label written out here.
"""

import functools
import gc
import json

import pytest

from fglops import (
    BooleanRing,
    FormalGroupLaw,
    IntegerRing,
    Series,
    boolean_relations,
    exhaustive_search,
    extract_relations,
    standard_context,
)
from fglops.chern import coefficient_names
from fglops.cli import _json_relations, _plain, main
from fglops.obstruction import symbolic_table
from test_obstruction import law_tau_torsion, slice_grid, table_points

Z = IntegerRing()
BENCH_POINTS = [(17, 9, 16), (33, 17, 32), (49, 25, 48), (63, 31, 62)]


def _power(name: str, e: int) -> str:
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def reference_rows(degree, ctx) -> list:
    """(label, polynomial text) of each relation, from the defect over Z[a1..aD]."""
    return [
        ("*".join(p for p in (_power("z", j), _power("t", i)) if p) or "1", str(poly))
        for (i, j), poly in extract_relations(degree, ctx)
    ]


@functools.lru_cache(maxsize=None)
def standard_reference(t, z, degree) -> list:
    return reference_rows(degree, standard_context(Z, t, z))


def _cli_rows(capsys, t, z, degree) -> tuple:
    """The rows ``obstruct --symbolic`` prints, parsed from --json and split from text."""
    argv = ["obstruct", "--symbolic", "--t-trunc", str(t), "--z-trunc", str(z),
            "--degree", str(degree)]
    assert main([*argv, "--json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["truncation"] == {"z": z, "t": t}
    json_rows = [(row["monomial"], row["poly"]) for row in table["relations"]]
    assert main(argv) == 0
    text = capsys.readouterr().out
    text_rows = [tuple(line.split(": ")) for line in text.splitlines()]
    assert text == "".join(f"{label}: {poly}\n" for label, poly in text_rows)
    return json_rows, text_rows


def test_plain_texts_are_what_json_dumps_leaves_alone():
    # the CLI quotes row texts as they are once _plain has passed their
    # characters: json.dumps escapes '"', '\\' and every character outside
    # printable ASCII, and _plain refuses exactly those
    for code in range(0x800):
        char = chr(code)
        assert _plain([char]) == (json.dumps(char) == f'"{char}"'), repr(char)
    assert _plain(["t", "z", *coefficient_names(64), "0123456789^*+"])
    assert not _plain(["a1", 'a"2']) and not _plain(["t", "z\n"])


@pytest.mark.parametrize("law, tau, torsion", law_tau_torsion())
def test_printed_rows_match_extract_relations_on_grid(law, tau, torsion):
    # every law and torsion of the grid, through the printer and the CLI's
    # JSON row writer; both sides refuse tau != 2 and z torsion other than 2
    for t, z, degree, ctx in table_points(law, tau, torsion, symbolic_table, extract_relations):
        expected = reference_rows(degree, ctx)
        rows = symbolic_table(degree, ctx)
        parsed = json.loads(f"[\n{_json_relations(rows)}\n]")
        assert [(row["monomial"], row["poly"]) for row in parsed] == expected, (t, z, degree)
        assert rows == expected, (t, z, degree)


def test_cli_rows_match_extract_relations_on_grid(capsys):
    # the grid points the CLI reaches: additive law, tau = 2, z torsion 2
    for t, z, degree, _ in slice_grid("additive", 2, 2):
        expected = standard_reference(t, z, degree)
        assert _cli_rows(capsys, t, z, degree) == (expected, expected), (t, z, degree)


def test_search_report_rows_match_extract_relations_on_grid():
    # the search keeps its table as printed rows, from the same printer
    for t, z, degree, ctx in slice_grid("additive", 2, 2):
        rows = exhaustive_search(degree, ctx).relations
        assert list(rows) == standard_reference(t, z, degree), (t, z, degree)


@pytest.mark.parametrize("t, z, degree", [(17, 9, 6), (9, 5, 9)])
def test_search_and_symbolic_json_print_the_same_relations(capsys, t, z, degree):
    argv = ["--t-trunc", str(t), "--z-trunc", str(z), "--degree", str(degree), "--json"]
    assert main(["obstruct", "--symbolic", *argv]) == 0
    symbolic = capsys.readouterr().out
    assert main(["obstruct", "--search", *argv]) in (0, 1)
    search = capsys.readouterr().out
    # the symbolic table ends with its relations: the same bytes, then the
    # search's verdict data
    relations = symbolic[symbolic.index('"relations": '):-len("\n}\n")]
    assert relations + ",\n" in search
    assert json.loads(search)["relations"] == json.loads(symbolic)["relations"] != []


@pytest.mark.parametrize("t, z, degree", BENCH_POINTS)
def test_cli_rows_match_extract_relations_at_bench_points(capsys, t, z, degree):
    expected = standard_reference(t, z, degree)
    assert _cli_rows(capsys, t, z, degree) == (expected, expected)


def test_table_shape_at_bench_points():
    counts = [len(boolean_relations(degree, standard_context(Z, t, z)))
              for t, z, degree in BENCH_POINTS]
    assert counts == [103, 447, 1047, 1732]
    rows = boolean_relations(62, standard_context(Z, 63, 31))
    assert sum(len(coef.value) for _, coef in rows) == 15975
    assert len(set().union(*(coef.value for _, coef in rows))) == 1456


def test_symbolic_json_does_not_format_values(monkeypatch, capsys):
    # the CLI prints from the mask-major rows: no B_D value is made or printed
    argv = ["obstruct", "--symbolic", "--json", "--t-trunc", "63", "--z-trunc", "31",
            "--degree", "62"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def refuse(self, value):
        raise AssertionError("BooleanRing.format_value called")

    monkeypatch.setattr(BooleanRing, "format_value", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    rows = json.loads(expected)["relations"]
    assert [(row["monomial"], row["poly"]) for row in rows] == standard_reference(63, 31, 62)


@pytest.mark.parametrize("argv", [
    ["--symbolic", "--json", "--t-trunc", "63", "--z-trunc", "31", "--degree", "62"],
    ["--search", "--json", "--t-trunc", "5", "--z-trunc", "3", "--degree", "12"],
])
def test_obstruct_forms_no_tensor_root(monkeypatch, capsys, argv):
    # the table reads F mod 2 off the law's own terms: no obstruct request
    # substitutes the law or forms F(t, z)
    expected = main(["obstruct", *argv]), capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("F(t, z) formed")

    monkeypatch.setattr(Series, "substitute", refuse)
    monkeypatch.setattr(FormalGroupLaw, "formal_sum", refuse)
    assert (main(["obstruct", *argv]), capsys.readouterr()) == expected


@pytest.mark.parametrize("collecting", [True, False])
def test_symbolic_table_leaves_the_collector_as_it_found_it(collecting):
    # the library never switches the cyclic collector: only the CLI entry
    # point sets its policy, for the process it owns
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert symbolic_table(5, standard_context(Z, 5, 3)) and gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
