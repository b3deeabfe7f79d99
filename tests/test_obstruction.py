import functools
import itertools
import json
import random

import pytest

from fglops import (
    BooleanRing,
    ChernSeries,
    FormalGroupLaw,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    PowerOpContext,
    RingMismatch,
    SeriesRing,
    SeriesVar,
    boolean_relations,
    builtin_law,
    delta,
    exhaustive_search,
    extract_relations,
    multilinear_mod2,
    standard_context,
    standard_ring,
    symbolic_twin,
    validate_law,
)
from fglops.chern import coefficient_names
from fglops.obstruction import _check_mod2, _relation_masks, _rows, symbolic_table
from conftest import boolean_polynomial, dense_law_terms, lines_never_run, lorentz_terms, to_plain
from longhand import delta_longhand

Z = IntegerRing()
F2 = IntegerModRing(2)


def _torsion_ring(t_max, z_max, torsion):
    """Z[[t,z]]/(torsion z, z^z_max, t^t_max): the standard ring with another z torsion."""
    return SeriesRing(Z, (SeriesVar("t", t_max), SeriesVar("z", z_max, torsion)))


def test_delta_unit_candidate(default_context):
    d = delta(ChernSeries([1, 0, 0]), default_context)
    assert to_plain(d) == {(2, 1): 1, (1, 2): 1}


def test_delta_matches_longhand(default_context):
    for cand in [(1,), (1, 0), (1, 1), (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1),
                 (-1, 0, 0), (-1, 3, -2), (1, 2, 3, 4)]:
        d = delta(ChernSeries(list(cand)), default_context)
        assert to_plain(d) == delta_longhand(cand), cand


def test_delta_vanishes_mod_z(default_context):
    ring = default_context.ring
    for cand in [(1, 0, 0), (1, 1, 1), (-1, 2, -3), (1, 5, 7, -9, 11, 13)]:
        d = delta(ChernSeries(list(cand)), default_context)
        restricted = d.substitute({"z": ring.zero}, target=ring)
        assert restricted == ring.zero


def test_symbolic_delta_vanishes_mod_z(default_context):
    for degree in range(1, 7):
        sym, sym_ctx = symbolic_twin(degree, default_context)
        d = delta(sym, sym_ctx)
        sym_ring = sym_ctx.ring
        assert d.substitute({"z": sym_ring.zero}, target=sym_ring) == sym_ring.zero
        assert all(exps[1] > 0 for exps in d.terms)


def test_delta_ring_mismatch(default_context):
    with pytest.raises(RingMismatch):
        delta(ChernSeries([1], F2), default_context)


def _check_delta_grid(t_max, law, z_maxes=range(1, 6), degrees=range(1, 9), repeats=3):
    # per-monomial truncation and torsion reduction against the longhand oracle;
    # at small t_max, z_max the degrees pass t_max + z_max - 2, where powers of t + z vanish
    rng = random.Random(t_max)
    for z_max in z_maxes:
        ctx = standard_context(Z, t_max, z_max, law=builtin_law(law, Z))
        for degree in degrees:
            for _ in range(repeats):
                cand = [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(degree - 1)]
                d = delta(ChernSeries(cand), ctx)
                want = delta_longhand(cand, t_max, z_max, law)
                assert to_plain(d) == want, (t_max, z_max, cand)


@pytest.mark.parametrize("t_max", range(3, 10))
def test_delta_oracle_grid(t_max):
    _check_delta_grid(t_max, "additive")


@pytest.mark.parametrize("t_max", range(3, 10))
def test_delta_oracle_grid_multiplicative(t_max):
    _check_delta_grid(t_max, "multiplicative")


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
@pytest.mark.parametrize("t_max", range(10, 18))
def test_delta_oracle_grid_large_truncations(t_max, law):
    # degree t_max - 1 gives r(t) a term in every power of t below the truncation,
    # so the power operation's cross sum runs over t_max*(t_max-1)/2 pairs (136 at 17)
    _check_delta_grid(t_max, law, range(6, 10), (4, 8, t_max - 1), repeats=1)


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
@pytest.mark.parametrize("t_max", range(3, 10))
def test_delta_oracle_grid_high_z(t_max, law):
    _check_delta_grid(t_max, law, z_maxes=range(6, 10))


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
@pytest.mark.parametrize("t_max", range(10, 18))
def test_delta_oracle_grid_long_t(t_max, law):
    _check_delta_grid(t_max, law, range(1, 6), (4, 8, t_max - 1))


def test_coefficient_read_off(default_context):
    d = delta(ChernSeries([1, 0, 0]), default_context)
    assert d.coefficient_of((1, 2)) == Z.one


def test_extract_relations(default_context):
    relations = dict(extract_relations(3, default_context))
    poly_ring = PolynomialRing(F2, ("a1", "a2", "a3"))
    a1, a2, a3 = poly_ring.gens()
    assert relations[(1, 2)] == a1 * a2 + a3 + a1
    assert relations[(2, 2)] == a1 * a3 + a1 * a2
    assert (0, 1) not in relations
    assert (0, 2) not in relations


def test_relation_ordering(default_context):
    relations = extract_relations(3, default_context)
    keys = [(exps[1], exps[0]) for exps, _ in relations]
    assert keys == sorted(keys)


def test_relations_predict_numeric_failures(default_context):
    # for every candidate, each relation evaluated at the candidate matches
    # the mod-2 value of the corresponding defect coefficient
    relations = extract_relations(3, default_context)
    for a2 in (0, 1):
        for a3 in (0, 1):
            cand = ChernSeries([1, a2, a3])
            d = delta(cand, default_context)
            values = {"a1": 1, "a2": a2, "a3": a3}
            for exps, poly in relations:
                expected = poly.ring.evaluate(poly.value, values)
                actual = d.terms.get(exps)
                actual_val = actual.value % 2 if actual is not None else 0
                assert actual_val == expected, (exps, values)


def _as_polynomials(relations):
    """Boolean relation rows with each coefficient read into PolynomialRing(Z/2)."""
    return [(exps, boolean_polynomial(coef.ring, coef)) for exps, coef in relations]


@pytest.mark.parametrize("law, tau", [
    ("additive", 2), ("multiplicative", 1), ("multiplicative", 2), ("multiplicative", 3),
])
def test_boolean_relations_match_integer_reduction(law, tau):
    # boolean_relations computes over F2[a]/(a_i^2 + a_i) from the start; it must
    # give the rows, polynomials and order of the defect over Z[a] reduced at the end.
    # Both read tau = 2 only, and refuse any other tau alike.
    rng = random.Random(f"{law}-{tau}")
    points = [(rng.randint(2, 12), rng.randint(1, 7), rng.randint(1, 10)) for _ in range(8)]
    points += [(5, 3, 9), (4, 2, 7), (33, 17, 32)]  # D > t, then the largest point
    for t_max, z_max, degree in points:
        fgl = builtin_law(law, Z, max(t_max, z_max))
        ctx = standard_context(Z, t_max, z_max, law=fgl, tau=tau)
        if tau != 2:
            for read in (boolean_relations, extract_relations):
                with pytest.raises(ValueError, match="tau = 2"):
                    read(degree, ctx)
            continue
        relations = extract_relations(degree, ctx)
        assert _as_polynomials(boolean_relations(degree, ctx)) == relations, (t_max, z_max, degree)
        names = coefficient_names(degree)
        assert all(poly.ring == PolynomialRing(F2, names) for _, poly in relations)
        if (t_max, z_max, degree) == (33, 17, 32):
            assert len(relations) > 400


def _delta_rows(degree, ctx):
    """The relation rows read off the whole defect: delta over B_D, its z-positive terms."""
    boolean = BooleanRing(coefficient_names(degree))
    defect = delta(ChernSeries(boolean.gens(), boolean), ctx.map_coefficients(boolean, boolean.image))
    rows = [(exps, coef) for exps, coef in defect.terms.items() if exps[1]]
    return sorted(rows, key=lambda row: (row[0][1], row[0][0]))


# laws given by their terms below a degree, on small grid points only
TERM_LAWS = {"lorentz": lorentz_terms, "dense": dense_law_terms}


@functools.cache
def _law(name):
    """The built-in law, or the Lorentz or dense law of conftest, validated to degree 10.

    Degree 10 covers every truncation of their grid points.
    """
    if name not in TERM_LAWS:
        return builtin_law(name, Z)
    ring = SeriesRing(Z, (SeriesVar("x", 10), SeriesVar("y", 10)))
    return validate_law(ring.from_terms(TERM_LAWS[name](10)), name=name)


def law_tau_torsion():
    return [
        (law, tau, torsion)
        for law in ("additive", "multiplicative", *TERM_LAWS)
        for tau in (0, 1, 2, 3)
        for torsion in (None, 2, 4)
    ]


def slice_grid(law, tau, torsion) -> list:
    """Seeded (t, z, D, context) points: truncations 1 and 2, D > t, up to (7, 4, 12).

    The laws of ``TERM_LAWS``, with a term at nearly every x^a y^b, get
    points up to (9, 5, 8) only.
    """
    rng = random.Random(f"slices-{law}-{tau}-{torsion}")
    if law in TERM_LAWS:
        points = [(t, z, rng.randint(1, 8)) for t in (1, 2) for z in (1, 2, rng.randint(3, 5))]
        points += [(rng.randint(3, 9), rng.randint(1, 5), rng.randint(1, 8)) for _ in range(4)]
        points += [(3, 3, 8), (9, 5, 8)]
    else:
        points = [(t, z, rng.randint(1, 8)) for t in (1, 2) for z in (1, 2, rng.randint(3, 6))]
        points += [(rng.randint(3, 8), z, rng.randint(1, 8)) for z in (1, 2)]
        points += [(rng.randint(3, 12), rng.randint(3, 8), rng.randint(1, 12)) for _ in range(5)]
        points += [(3, 3, 9), (5, 2, 11), (7, 4, 12)]
    return [
        (t_max, z_max, degree,
         PowerOpContext(_torsion_ring(t_max, z_max, torsion), _law(law), tau))
        for t_max, z_max, degree in points
    ]


def table_points(law, tau, torsion, *reads) -> list:
    """The points of :func:`slice_grid` with a relation table: all at tau = 2 and z torsion 2.

    At any other z torsion or tau each of ``reads`` must refuse each
    point's context, for its torsion first: the torsion is checked before tau.
    """
    points = slice_grid(law, tau, torsion)
    if (tau, torsion) == (2, 2):
        return points
    message = "z torsion 2, got" if torsion != 2 else "relations are read at tau = 2, got"
    for _, _, degree, ctx in points:
        for read in reads:
            with pytest.raises(ValueError, match=message):
                read(degree, ctx)
    return []


@pytest.mark.parametrize("law, tau, torsion", law_tau_torsion())
def test_sliced_rows_match_delta(law, tau, torsion):
    # boolean_relations writes the rows from the powers of F mod 2, without
    # forming the defect; the rows must be the z-positive terms of the
    # defect itself, in (z, t) order.  Truncations 1 and 2 and D > t are
    # included.
    for t_max, z_max, degree, ctx in table_points(law, tau, torsion, boolean_relations):
        assert boolean_relations(degree, ctx) == _delta_rows(degree, ctx), (t_max, z_max, degree)


BENCH_POINTS = [(17, 9, 16), (33, 17, 32), (49, 25, 48), (63, 31, 62)]


@pytest.mark.parametrize("t_max, z_max, degree", BENCH_POINTS)
def test_sliced_rows_match_delta_at_bench_points(t_max, z_max, degree):
    ctx = standard_context(Z, t_max, z_max)
    rows = boolean_relations(degree, ctx)
    assert rows == _delta_rows(degree, ctx)
    assert len(rows) > 100


def _assert_print_order(degree, ctx):
    """The table :func:`_relation_masks` gives iterates in ``BooleanRing.order_key`` order."""
    boolean, table = BooleanRing(coefficient_names(degree)), _relation_masks(degree, ctx)
    for idx, bits in table:
        assert bits and 0 < idx[0] and list(idx) == sorted(set(idx)) and idx[-1] <= degree, idx
    masks = [sum(1 << (i - 1) for i in idx) for idx, _ in table]
    keys = [boolean.order_key(m) for m in masks]
    assert keys == sorted(set(keys))  # ascending, so each mask once
    # the printer writes a mask's text from its indices
    names = coefficient_names(degree)
    assert ["*".join(names[i - 1] for i in idx) for idx, _ in table] == [
        boolean.mask_text(m) for m in masks
    ]


@pytest.mark.parametrize("law, tau, torsion", law_tau_torsion())
def test_relation_table_comes_in_print_order(law, tau, torsion):
    # the table is built in one pass with no sort; the printer takes its
    # order as print order, so it is held here to the order's definition
    for _, _, degree, ctx in table_points(law, tau, torsion, _relation_masks):
        _assert_print_order(degree, ctx)


@pytest.mark.parametrize("t_max, z_max, degree", BENCH_POINTS)
def test_relation_table_comes_in_print_order_at_bench_points(t_max, z_max, degree):
    _assert_print_order(degree, standard_context(Z, t_max, z_max))


ENTRIES = (boolean_relations, symbolic_table, extract_relations, exhaustive_search)


def _report_fields(report) -> tuple:
    """A search report's fields but its ring: what a context over Z/2n shares with Z."""
    return report.verdict, report.witness, report.failing, report.relations, report.tail


def _law_without_unit() -> FormalGroupLaw:
    """x + y + x^2, a law object with F(t, 0) = t + t^2 that validate_law would refuse."""
    ring = SeriesRing(Z, (SeriesVar("x", 6), SeriesVar("y", 6)))
    x, y = ring.gen("x"), ring.gen("y")
    return FormalGroupLaw(x + y + x * x)


def refused_contexts() -> dict:
    """(context, error type, message) for each context outside the obstruction's domain.

    Each breaks one condition of the domain; every entry point of
    ``ENTRIES`` refuses each one through the one check.
    """
    z3 = IntegerModRing(3)
    additive = builtin_law("additive", Z)
    refused = {
        f"z torsion {torsion}": (PowerOpContext(_torsion_ring(5, 3, torsion), additive, 2),
                                 ValueError, f"z torsion 2, got \\[None, {torsion}\\]")
        for torsion in (None, 3, 4)
    }
    t_torsion = SeriesRing(Z, (SeriesVar("t", 5, 2), SeriesVar("z", 3, 2)))
    refused["t torsion 2"] = (PowerOpContext(t_torsion, additive, 2), ValueError,
                              "t torsion-free and z torsion 2, got \\[2, 2\\]")
    refused["Z/3"] = (PowerOpContext(standard_ring(z3, 5, 3), builtin_law("additive", z3), 2),
                      RingMismatch, "no reduction mod 2 from Z/3")
    refused["twin"] = (symbolic_twin(3, standard_context(Z))[1], RingMismatch,
                       "no reduction mod 2 from Z\\[a1,a2,a3\\]")
    refused["law without unit"] = (standard_context(Z, law=_law_without_unit()), ValueError,
                                   "law with F\\(t, 0\\) = t")
    for tau in (0, 1, 3):
        refused[f"tau {tau}"] = (
            standard_context(Z, law=builtin_law("multiplicative", Z), tau=tau), ValueError,
            f"relations are read at tau = 2, got {tau}$",
        )
    return refused


def test_relation_core_runs_every_line(default_context):
    # a line the slice grid and the refusals never run is a branch no context needs
    def drive():
        for grid in law_tau_torsion():
            for _, _, degree, ctx in table_points(*grid, _relation_masks):
                _relation_masks(degree, ctx)
        with pytest.raises(ValueError, match="positive integer"):
            _relation_masks(0, default_context)
        for ctx, error, message in refused_contexts().values():
            with pytest.raises(error, match=message):
                _relation_masks(3, ctx)

    assert lines_never_run((_relation_masks, _check_mod2), drive) == []


def test_relation_table_needs_a_numeric_context():
    # one check states the domain: the three table entry points and the
    # search refuse every context outside it, with the same error and text
    for ctx, error, message in refused_contexts().values():
        for entry in ENTRIES:
            with pytest.raises(error, match=message):
                entry(3, ctx)
    for ring, tau in ((IntegerModRing(2), 0), (IntegerModRing(6), 2)):
        ctx = PowerOpContext(standard_ring(ring, 5, 3), builtin_law("multiplicative", ring), tau)
        assert _as_polynomials(boolean_relations(4, ctx)) == extract_relations(4, ctx)


def test_search_runs_every_line(default_context):
    # both verdicts, the early stop, the witness and each refusal; a line
    # none of them runs is a branch the search does not need
    def drive():
        assert exhaustive_search(3, default_context).verdict == "unsatisfiable"
        assert exhaustive_search(3, standard_context(Z, z_trunc=1)).witness == (1, 0, 0)
        assert exhaustive_search(8, standard_context(Z, 3, 2)).verdict == "satisfiable"
        for ctx, error, message in refused_contexts().values():
            with pytest.raises(error, match=message):
                exhaustive_search(3, ctx)

    assert lines_never_run((exhaustive_search, _rows), drive) == []


def test_extract_relations_checks_its_context(default_context):
    # the checks run in one order: D, the ring's torsion, the coefficients,
    # tau, F(t, 0) = t; a context that breaks two gets the first one's error
    for degree in (0, "3"):
        for entry in ENTRIES:
            with pytest.raises(ValueError, match="positive integer"):
                entry(degree, default_context)
    for ctx, _, _ in refused_contexts().values():
        for entry in ENTRIES:
            with pytest.raises(ValueError, match="positive integer"):
                entry(0, ctx)
    z3 = IntegerModRing(3)
    twice = [
        (PowerOpContext(SeriesRing(z3, (SeriesVar("t", 5), SeriesVar("z", 3, 4))),
                        builtin_law("additive", z3), 1), ValueError, "z torsion 2, got"),
        (PowerOpContext(standard_ring(z3), builtin_law("additive", z3), 1), RingMismatch,
         "no reduction mod 2 from Z/3"),
        (standard_context(Z, law=_law_without_unit(), tau=1), ValueError,
         "relations are read at tau = 2, got"),
    ]
    for ctx, error, message in twice:
        for entry in ENTRIES:
            with pytest.raises(error, match=message):
                entry(3, ctx)


def test_multilinear_mod2():
    ring = PolynomialRing(Z, ("a1", "a2"))
    a1, a2 = ring.gens()
    reduced = multilinear_mod2(a1 ** 3 + a1 * 2 + a2 * a2 * a1)
    target = PolynomialRing(F2, ("a1", "a2"))
    assert reduced == target.gen("a1") + target.gen("a1") * target.gen("a2")
    with pytest.raises(ValueError):
        multilinear_mod2(Z.one)


def test_search_default(default_context):
    report = exhaustive_search(3, default_context)
    assert report.verdict == "unsatisfiable"
    assert len(report.failures) == 4
    failures = dict(report.failures)
    assert failures[(1, 0, 0)] == (2, 1)  # z*t^2


def test_search_monotone_in_degree(default_context):
    for degree in range(1, 7):
        report = exhaustive_search(degree, default_context)
        assert report.verdict == "unsatisfiable"
        assert len(report.failures) == 2 ** (degree - 1)


def test_search_mod_z_is_satisfiable():
    ctx = standard_context(Z, z_trunc=1)
    report = exhaustive_search(3, ctx)
    assert report.verdict == "satisfiable"
    assert report.witness == (1, 0, 0)
    assert report.failures is None


def _brute_force_search(degree, ctx):
    """(witness, failures) from the defect of every candidate, one by one."""
    failures = []
    for tail in itertools.product((0, 1), repeat=degree - 1):
        cand = (1, *tail)
        d = delta(ChernSeries(list(cand), ctx.ring.coeff_ring), ctx)
        if not d:
            return cand, None
        failures.append((cand, min(d.terms, key=lambda e: (e[1], e[0]))))
    return None, tuple(failures)


def _top_power(root):
    i = 0
    while root ** (i + 1) != root.ring.zero:
        i += 1
    return i


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
@pytest.mark.parametrize("t_max, z_max", [(3, 2), (4, 2), (5, 3), (5, 1)])
def test_search_matches_brute_force(t_max, z_max, law):
    # the search gives one verdict per prefix a1..a_w of the relation masks; every
    # candidate's verdict must still equal the one from its own defect, past the reach too
    ctx = standard_context(Z, t_max, z_max, law=builtin_law(law, Z))
    reach = max(_top_power(root) for root in (ctx.t, ctx.z, ctx.tensor_root))
    for degree in range(1, reach + 5):
        report = exhaustive_search(degree, ctx)
        witness, failures = _brute_force_search(degree, ctx)
        assert report.witness == witness, (degree, report.witness)
        assert report.failures == failures, degree
        assert report.verdict == ("satisfiable" if witness else "unsatisfiable")


def test_search_witness_is_first_zero_defect():
    # z_trunc = 1 kills z, so every defect vanishes and the witness is a1 = 1, zeros after;
    # at (3, 2) the first zero defect comes after failures, and zeros follow its prefix
    ctx = standard_context(Z, z_trunc=1)
    assert exhaustive_search(7, ctx).witness == (1, 0, 0, 0, 0, 0, 0)
    ctx = standard_context(Z, 3, 2)
    reach = max(_top_power(root) for root in (ctx.t, ctx.z, ctx.tensor_root))
    report = exhaustive_search(reach + 3, ctx)
    assert report.witness == _brute_force_search(reach + 3, ctx)[0]
    assert report.witness[1:reach] != (0,) * (reach - 1)
    assert report.witness[reach:] == (0, 0, 0)


@pytest.mark.parametrize("tau", [0, 1, 3])
def test_search_refuses_tau_other_than_2(tau):
    # with tau != 2 the z^0 part of the defect is (2 - tau)*t + ...: it reads
    # the a_i beyond mod 2, so {0, 1} candidates no longer cover the integers,
    # and every candidate fails at t before any z-positive row is read.  The
    # search and the three table entry points refuse the context through one
    # check, made in the coefficient ring, where tau = 0 is 2 over Z/2.
    rng = random.Random(tau)
    for law in ("additive", "multiplicative"):
        ctx = standard_context(Z, law=builtin_law(law, Z), tau=tau)
        for tail in itertools.product((0, 1), repeat=2):
            d = delta(ChernSeries([1, *tail]), ctx)
            assert d.coefficient_of((1, 0)) == 2 - tau
            assert min(d.terms, key=lambda e: (e[1], e[0])) == (1, 0)
        cand = [1] + [rng.randint(-3, 3) for _ in range(3)]
        assert delta(ChernSeries(cand), ctx).coefficient_of((1, 0)) == 2 - tau
        for entry in ENTRIES:
            with pytest.raises(ValueError, match="relations are read at tau = 2, got"):
                entry(3, ctx)
    ctx = standard_context(F2, law=builtin_law("multiplicative", F2), tau=0)
    relations = extract_relations(4, ctx)
    assert relations and _as_polynomials(boolean_relations(4, ctx)) == relations
    assert [row for _, row in symbolic_table(4, ctx)] == [str(poly) for _, poly in relations]
    integer = standard_context(Z, law=builtin_law("multiplicative", Z))
    assert _report_fields(exhaustive_search(4, ctx)) == _report_fields(
        exhaustive_search(4, integer))


@pytest.mark.parametrize("torsion", [4, None])
def test_search_refuses_z_torsion_other_than_2(torsion):
    # at torsion 4 or none, candidates equal mod 2 have different defects,
    # so the mod-2 rows would decide neither the table nor the search
    ctx, error, message = refused_contexts()[f"z torsion {torsion}"]
    assert delta(ChernSeries([1, 0, 0]), ctx) != delta(ChernSeries([1, 2, 0]), ctx)
    for entry in ENTRIES:
        with pytest.raises(error, match=message):
            entry(3, ctx)


def test_search_refuses_law_without_unit():
    # x + y + x^2 is no formal group law: F(t, 0) = t + t^2 puts t^2 into the
    # z^0 part of the defect, which the relation rows do not see
    ctx, error, message = refused_contexts()["law without unit"]
    assert delta(ChernSeries([1, 0, 0]), ctx).coefficient_of((2, 0)) == 1
    for entry in ENTRIES:
        with pytest.raises(error, match=message):
            entry(3, ctx)
    # at t_trunc = 1 the series t is zero, and so is F(t, 0), for any law
    for law in (None, ctx.law):
        assert exhaustive_search(3, standard_context(Z, 1, 2, law=law)).verdict == "satisfiable"


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
def test_search_over_z_mod_2n_matches_z(law):
    # with 2z = 0 every z-positive coefficient lies in F2 over Z/2n as over Z,
    # so the a_i mod 2 give the same report; up to D = 6 it is held to each
    # candidate's own defect in that ring (tau = 0 is 2 over Z/2)
    rng = random.Random(f"z-mod-2n-{law}")
    points = [(rng.randint(1, 9), rng.randint(1, 5), rng.randint(1, 9)) for _ in range(6)]
    points += [(5, 3, 6), (3, 2, 5), (7, 2, 9), (9, 5, 7), (6, 1, 4)]
    verdicts = set()
    for t_max, z_max, degree in points:
        integer = standard_context(Z, t_max, z_max, law=builtin_law(law, Z))
        expected = _report_fields(exhaustive_search(degree, integer))
        verdicts.add(expected[0])
        for ring, tau in ((F2, 0), (IntegerModRing(4), 2), (IntegerModRing(6), 2)):
            ctx = standard_context(ring, t_max, z_max, law=builtin_law(law, ring), tau=tau)
            report = exhaustive_search(degree, ctx)
            assert _report_fields(report) == expected, (t_max, z_max, degree, ring)
            if degree <= 6:
                assert (report.witness, report.failures) == _brute_force_search(degree, ctx)
    assert verdicts == {"satisfiable", "unsatisfiable"}


@pytest.mark.parametrize("law", ["additive", "multiplicative"])
@pytest.mark.parametrize("t_max, z_max", [(6, 3), (7, 4), (9, 5), (6, 1)])
def test_search_matches_brute_force_wide_grid(t_max, z_max, law):
    # the relations read a1..a7 at (6, 3) and (7, 4), so D = 8 extends past the
    # prefix width; z_trunc = 1 is satisfiable at every degree
    ctx = standard_context(Z, t_max, z_max, law=builtin_law(law, Z))
    for degree in range(1, 9):
        report = exhaustive_search(degree, ctx)
        witness, failures = _brute_force_search(degree, ctx)
        assert report.witness == witness, (degree, report.witness)
        assert report.failures == failures, degree
        assert report.verdict == ("satisfiable" if witness else "unsatisfiable")
    if z_max == 1:
        assert report.witness == (1,) + (0,) * 7


def test_search_computes_one_defect(monkeypatch):
    # the search reads its rows off one relation table
    import fglops.obstruction

    calls = []
    real_masks = fglops.obstruction._relation_masks

    def counting_masks(degree, ctx):
        calls.append(ctx)
        return real_masks(degree, ctx)

    monkeypatch.setattr(fglops.obstruction, "_relation_masks", counting_masks)
    report = exhaustive_search(8, standard_context(Z, 9, 5))
    assert report.verdict == "unsatisfiable" and len(report.failures) == 2 ** 7
    assert len(calls) == 1


def test_search_bad_degree(default_context):
    with pytest.raises(ValueError):
        exhaustive_search(0, default_context)


@pytest.mark.parametrize("call", [
    lambda ctx: boolean_relations(True, ctx),
    lambda ctx: exhaustive_search(True, ctx),
    lambda ctx: ChernSeries.symbolic(True),
    lambda ctx: ctx.law.n_series(True),
    lambda ctx: ctx.t ** True,
    lambda ctx: ctx.tau ** True,
], ids=["boolean_relations", "exhaustive_search", "symbolic", "n_series", "series_pow",
        "coefficient_pow"])
def test_bool_is_not_an_integer(call, default_context):
    with pytest.raises(ValueError, match="integer"):
        call(default_context)


def test_negative_unit_spot_check(default_context):
    # a1 = -1 gives the same defect as a1 = 1: z-positive parts only depend
    # on the coefficients mod 2, and the z-free part vanishes identically
    plus = delta(ChernSeries([1, 0, 0]), default_context)
    minus = delta(ChernSeries([-1, 0, 0]), default_context)
    assert plus == minus
    assert minus  # still a nonzero obstruction


def test_symbolic_delta_specializes_to_numeric(default_context):
    for degree in range(1, 8):
        sym, sym_ctx = symbolic_twin(degree, default_context)
        sym_delta = delta(sym, sym_ctx)
        for tail in itertools.product((0, 1), repeat=degree - 1):
            cand = (1, *tail)
            values = {f"a{i}": v for i, v in enumerate(cand, start=1)}
            specialized = sym_delta.specialize(values).in_ring(default_context.ring)
            direct = delta(ChernSeries(list(cand)), default_context)
            assert specialized == direct, cand


def test_relation_sum_contradiction(default_context):
    # substituting a1 = 1 into the two relations and adding yields 1
    relations = dict(extract_relations(3, default_context))
    total = relations[(1, 2)] + relations[(2, 2)]
    ring = total.ring
    for a2 in (0, 1):
        for a3 in (0, 1):
            value = ring.evaluate(total.value, {"a1": 1, "a2": a2, "a3": a3})
            assert value == 1


def test_report_json_round_trip(default_context):
    report = exhaustive_search(3, default_context)
    obj = report.to_json()
    assert obj["verdict"] == "unsatisfiable"
    assert obj["truncation"] == {"z": 3, "t": 5}
    monomials = {entry["monomial"]: entry["poly"] for entry in obj["relations"]}
    assert monomials["z^2*t"] == "a1*a2+a3+a1"
    assert monomials["z^2*t^2"] == "a1*a3+a1*a2"
    assert {"candidate": [1, 0, 0], "monomial": "z*t^2"} in obj["failures"]
    assert json.loads(json.dumps(obj)) == obj

    ctx1 = standard_context(Z, z_trunc=1)
    sat = exhaustive_search(3, ctx1)
    sat_obj = sat.to_json()
    assert sat_obj["verdict"] == "satisfiable"
    assert sat_obj["witness"] == [1, 0, 0]
    assert json.loads(json.dumps(sat_obj)) == sat_obj
