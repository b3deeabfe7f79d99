"""The exhaustive search up to the CLI's degree cap, D = 16.

The engine evaluates every prefix a1..a_w at once on truth tables; these
tests hold its verdict, witness and full failure list to the per-prefix
row loop in :mod:`search_reference`, and on the line z-trunc = 2 to the
closed form :func:`longhand.z2_passes`.  The points include w = 1 (D = 1,
and z-trunc 1, where no relation reads anything) and w = D.
"""

import gc
import itertools
import random

import pytest

from fglops import (
    IntegerRing,
    ObstructionReport,
    boolean_relations,
    exhaustive_search,
    standard_context,
)
from fglops.cli import main
from fglops.obstruction import _owners
from longhand import z2_passes
from search_reference import prefix_search

Z = IntegerRing()
PAIRS = [(5, 3), (9, 5), (17, 9), (2, 3), (3, 2), (17, 2), (33, 2)]
DEGREES = [1, 13, 14, 15, 16]


def _plain_rows(degree, ctx):
    return [(exps, coef.value) for exps, coef in boolean_relations(degree, ctx)]


def _width(rows):
    return max([1] + [m.bit_length() for _, masks in rows for m in masks])


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("t, z", PAIRS + [(5, 1), (9, 1)])
def test_search_matches_prefix_reference(t, z, degree):
    ctx = standard_context(Z, t, z)
    report = exhaustive_search(degree, ctx)
    witness, failures = prefix_search(_plain_rows(degree, ctx), degree)
    assert report.witness == witness
    assert report.failures == failures
    assert report.verdict == ("satisfiable" if witness else "unsatisfiable")


def test_points_reach_both_widths():
    # w = 1 with either verdict, and w = D with either verdict
    seen = set()
    for t, z, degree in [(5, 3, 1), (5, 1, 16), (17, 9, 16), (33, 2, 16), (17, 2, 16)]:
        ctx = standard_context(Z, t, z)
        width = _width(_plain_rows(degree, ctx))
        seen.add((width, exhaustive_search(degree, ctx).verdict))
    assert seen == {
        (1, "unsatisfiable"), (1, "satisfiable"), (16, "unsatisfiable"), (16, "satisfiable")
    }


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("m", [3, 17, 33])
def test_search_on_z2_line_matches_closed_form(m, degree):
    report = exhaustive_search(degree, standard_context(Z, m, 2))
    candidates = ((1, *tail) for tail in itertools.product((0, 1), repeat=degree - 1))
    assert report.witness == next((c for c in candidates if z2_passes(c, m)), None)
    assert report.verdict == ("unsatisfiable" if degree <= (m - 1) // 2 else "satisfiable")


@pytest.mark.parametrize("t, z, degree", [(5, 3, 16), (17, 9, 16), (33, 2, 14), (9, 5, 1)])
def test_failure_blocks_expand_to_failures(t, z, degree):
    # each prefix, in order, followed by every tail, at its block's label
    report = exhaustive_search(degree, standard_context(Z, t, z))
    width, tail, labels = report.failure_blocks()
    assert width + tail == degree and len(labels) == 2 ** (width - 1)
    expanded = [
        ((1, *head, *rest), label)
        for head, label in zip(itertools.product((0, 1), repeat=width - 1), labels)
        for rest in itertools.product((0, 1), repeat=tail)
    ]
    rows = report.to_json()["failures"]
    assert expanded == [(tuple(row["candidate"]), row["monomial"]) for row in rows]


@pytest.mark.parametrize("collecting", [True, False])
def test_search_leaves_the_collector_as_it_found_it(collecting):
    # the library never switches the cyclic collector: a search of either
    # verdict, and reading its failures, must leave it on or off as it was
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        verdicts = set()
        for t, z in ((3, 3), (5, 1)):
            report = exhaustive_search(12, standard_context(Z, t, z))
            assert gc.isenabled() is collecting, (t, z, report.verdict)
            failures = report.failures
            assert gc.isenabled() is collecting, (t, z, report.verdict)
            assert (failures is None) == (report.verdict == "satisfiable")
            verdicts.add(report.verdict)
        assert verdicts == {"satisfiable", "unsatisfiable"}
    finally:
        (gc.enable if was else gc.disable)()


def test_cli_writes_the_search_from_the_prefix_form(monkeypatch, capsys):
    # obstruct --search prints from the per-prefix certificate, so the
    # same bytes come out with the 2^(D-1) failures refused
    argvs = [
        ["obstruct", "--search", "--t-trunc", str(t), "--z-trunc", str(z), "--degree", str(d),
         *json_flag]
        for t, z, d in [(5, 3, 16), (33, 2, 14)]
        for json_flag in ([], ["--json"])
    ]
    expected = []
    for argv in argvs:
        code = main(argv)
        expected.append((code, capsys.readouterr().out))

    def refuse(self):
        raise AssertionError("ObstructionReport.failures read")

    monkeypatch.setattr(ObstructionReport, "failures", property(refuse))
    for argv, (code, out) in zip(argvs, expected):
        assert main(argv) == code == 0
        assert capsys.readouterr().out == out


def test_failure_blocks_refuse_satisfiable_report():
    with pytest.raises(ValueError, match="satisfiable"):
        exhaustive_search(4, standard_context(Z, 5, 1)).failure_blocks()


def test_report_holds_a_witness_or_failures():
    # the verdict is read off whichever of the two a report holds
    ring = standard_context(Z, 5, 3).ring
    assert ObstructionReport(ring, (), witness=(1,)).verdict == "satisfiable"
    failed = ObstructionReport(ring, (), failing=((1, 2),))
    assert failed.verdict == "unsatisfiable"
    assert failed.to_json()["failures"] == [{"candidate": [1], "monomial": "z^2*t"}]
    for witness, failing in (((1,), ((1, 2),)), (None, None), ("satisfiable", None)):
        with pytest.raises(ValueError, match="exactly one"):
            ObstructionReport(ring, (), witness=witness, failing=failing)
    # no failures, a count no prefix set has, a1 = 0 or not 0/1, a monomial off the box
    for witness, failing, fragment in (
        (None, (), "2\\^\\(w-1\\) prefixes, got 0"),
        (None, ((1, 2),) * 3, "got 3"),
        ((0, 1), None, "starting with a1 = 1"),
        ((1, 2), None, "0/1 entries"),
        (None, ((5, 1),), "\\(5, 1\\) name no"),
        (None, ((-1, 1),), "name no"),
        (None, ((1, 0),), "name no"),
        (None, ((1, 1), (1, 3)), "\\(1, 3\\) name no"),
    ):
        with pytest.raises(ValueError, match=fragment):
            ObstructionReport(ring, (), witness=witness, failing=failing)
    # a tail that is no count, and a witness of D = w + tail entries no longer than its tail
    for witness, failing, tail, fragment in (
        (None, ((1, 2),), -1, "non-negative integer, got -1"),
        ((1,), None, -1, "non-negative integer, got -1"),
        (None, ((1, 2),), 1.5, "non-negative integer, got 1.5"),
        ((1, 0), None, 5, "D = w \\+ 5 > 5 entries, got \\(1, 0\\)"),
        ((1, 0, 0, 0, 0), None, 5, "> 5 entries"),
    ):
        with pytest.raises(ValueError, match=fragment):
            ObstructionReport(ring, (), witness=witness, failing=failing, tail=tail)
    assert ObstructionReport(ring, (), witness=(1,) + (0,) * 5, tail=5).verdict == "satisfiable"


@pytest.mark.parametrize("rows", [1, 200, 300])
def test_owners_reads_each_prefix_row(rows):
    # one deciding row, and hundreds, each owning scattered prefixes
    rng = random.Random(rows)
    size = 1024
    owner = [rng.randrange(rows) for _ in range(size)]
    deciding = [
        (("row", i), sum(1 << p for p in range(size) if owner[p] == i)) for i in range(rows)
    ]
    assert list(_owners(deciding, size)) == [("row", i) for i in owner]
