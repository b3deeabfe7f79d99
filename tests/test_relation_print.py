"""Printed relation tables against an independent oracle.

``obstruct --symbolic`` prints a relation table straight from the mask-major
rows of the B_D computation, through one printer that walks the distinct
monomial masks in print order.  ``test_symbolic_json_matches_json_dumps``
holds the layout of that output to ``json.dumps``, but it runs the same
printer on both sides.  Here each printed row, in ``--json`` and in text, is
held to ``str()`` of the matching :func:`extract_relations` row: the defect
over Z[a1..aD] reduced at the end by ``multilinear_mod2`` and printed by
PolynomialRing(Z/2), with no ``BooleanRing`` involved, under a z^j*t^i
label written out here.
"""

import functools
import gc
import json

import pytest

from fglops import (
    BooleanRing,
    IntegerRing,
    boolean_relations,
    extract_relations,
    standard_context,
    symbolic_twin,
)
from fglops.cli import _json_relation, _json_text, _text_relation, main
from fglops.obstruction import relation_table, symbolic_table
from test_obstruction import law_tau_torsion, slice_grid

Z = IntegerRing()
BENCH_POINTS = [(17, 9, 16), (33, 17, 32), (49, 25, 48), (63, 31, 62)]


def _power(name: str, e: int) -> str:
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def reference_rows(degree, ctx) -> list:
    """(label, polynomial text) of each relation, from the defect over Z[a1..aD]."""
    sym, sym_ctx = symbolic_twin(ctx, degree)
    return [
        ("*".join(p for p in (_power("z", j), _power("t", i)) if p) or "1", str(poly))
        for (i, j), poly in extract_relations(sym, sym_ctx)
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


@pytest.mark.parametrize("law, tau, torsion", law_tau_torsion())
def test_printed_rows_match_extract_relations_on_grid(law, tau, torsion):
    # every law, tau and torsion of the grid, through the printer with the
    # CLI's row writers; odd tau puts several masks in a row
    for t, z, degree, ctx in slice_grid(law, tau, torsion):
        expected = reference_rows(degree, ctx)
        json_rows = symbolic_table(degree, ctx, _json_relation, _json_text)["relations"]
        parsed = [json.loads(row) for row in json_rows]
        assert [(row["monomial"], row["poly"]) for row in parsed] == expected, (t, z, degree)
        text_rows = symbolic_table(degree, ctx, _text_relation)["relations"]
        assert text_rows == [f"{label}: {poly}\n" for label, poly in expected], (t, z, degree)
        # the adapter over B_D rows prints the same rows
        table = relation_table(ctx.ring, boolean_relations(degree, ctx))
        assert [(row["monomial"], row["poly"]) for row in table["relations"]] == expected


def test_cli_rows_match_extract_relations_on_grid(capsys):
    # the grid points the CLI reaches: additive law, tau = 2, z torsion 2
    for t, z, degree, _ in slice_grid("additive", 2, 2):
        expected = standard_reference(t, z, degree)
        assert _cli_rows(capsys, t, z, degree) == (expected, expected), (t, z, degree)


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


@pytest.mark.parametrize("collecting", [True, False])
def test_symbolic_table_leaves_the_collector_as_it_found_it(collecting):
    # the table is built with the cyclic collector paused
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        table = symbolic_table(5, standard_context(Z, 5, 3))
        assert table["relations"] and gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
