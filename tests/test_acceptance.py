"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import random
import time

from fglops import (
    ChernSeries,
    IntegerModRing,
    IntegerRing,
    PolynomialRing,
    SeriesRing,
    SeriesVar,
    additive_law,
    computation_one,
    delta,
    exhaustive_search,
    extract_relations,
    multiplicative_law,
    standard_context,
    standard_ring,
    symbolic_twin,
)
from conftest import to_plain
from longhand import (
    computation_one_unit_candidate,
    delta_longhand,
    naive_convolution,
    naive_normalize,
)

Z = IntegerRing()


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_generator_formula():
    ctx = standard_context(Z)
    t = ctx.ring.gen("t")
    ctx.power_op(t)  # warm-up outside the timed window
    start = time.perf_counter()
    result = ctx.power_op(t)
    elapsed = time.perf_counter() - start
    assert result == ctx.ring.from_terms({(2, 0): 1, (1, 1): 1})
    assert elapsed < 0.010, f"took {elapsed * 1000:.3f} ms"
    _report(1, f"power_op(t) == t^2 + t*z in {elapsed * 1000:.3f} ms")


def test_criterion_2_relation_reproduction():
    ctx = standard_context(Z)
    start = time.perf_counter()
    relations = dict(extract_relations(3, ctx))
    elapsed = time.perf_counter() - start
    poly_ring = PolynomialRing(IntegerModRing(2), ("a1", "a2", "a3"))
    a1, a2, a3 = poly_ring.gens()
    assert relations[(1, 2)] == a1 * a2 + a3 + a1  # monomial z^2*t
    assert relations[(2, 2)] == a1 * a3 + a1 * a2  # monomial z^2*t^2
    assert elapsed < 1.0
    _report(2, f"relations at z^2*t and z^2*t^2 match in {elapsed:.3f} s")


def test_criterion_3_search_certificate():
    ctx = standard_context(Z)
    for degree in (3, 4, 5):
        report = exhaustive_search(degree, ctx)
        assert report.verdict == "unsatisfiable"
        assert len(report.failures) == 2 ** (degree - 1)
    start = time.perf_counter()
    report = exhaustive_search(6, ctx)
    elapsed = time.perf_counter() - start
    assert report.verdict == "unsatisfiable"
    assert len(report.failures) == 32
    assert elapsed < 5.0
    _report(3, f"unsatisfiable for D=3..6; D=6 (32 candidates) in {elapsed:.3f} s")


def test_criterion_4_negative_control():
    ctx = standard_context(Z, z_trunc=1)
    report = exhaustive_search(3, ctx)
    assert report.verdict == "satisfiable"
    assert report.witness == (1, 0, 0)

    # the property behind it: with tau = 2, restricting to z = 0 squares
    full_ctx = standard_context(Z)
    ring = full_ctx.ring
    t = ring.gen("t")
    rng = random.Random(17)
    for _ in range(50):
        f = ring.zero
        for e in range(5):
            f = f + t ** e * rng.randint(-5, 5)
        restricted = full_ctx.power_op(f).substitute({"z": ring.zero}, target=ring)
        assert restricted == f * f
    _report(4, "mod-z search satisfiable with witness a_i = 0; P(f)|_{z=0} = f^2")


def test_criterion_5_computation_one_oracle():
    result = computation_one(ChernSeries([1, 0, 0]), standard_ring(Z))
    oracle = computation_one_unit_candidate()
    assert to_plain(result) == oracle
    assert oracle == {
        (0, 0): 1,
        (1, 0): 2,
        (2, 0): 1,
        (1, 1): 1,
        (2, 1): 1,
        (1, 2): 1,
        (2, 2): 1,
    }
    _report(5, "computation_one(1+t) == 1+2t+t^2+zt+zt^2+z^2t+z^2t^2 == longhand oracle")


def test_criterion_6_fgl_axioms():
    start = time.perf_counter()
    add = additive_law(Z, degree=20)
    mult = multiplicative_law(Z, degree=20)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert add.degree == mult.degree == 20
    for law in (add, mult):
        for m in range(5):
            for n in range(5):
                assert law.n_series(m + n) == law.formal_sum(
                    law.n_series(m), law.n_series(n)
                )
    _report(6, f"built-ins valid to degree 20 in {elapsed:.3f} s; [m+n]=F([m],[n]) for m,n<=4")


def _random_plain(rng, specs, max_terms=8):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randrange(min(trunc + 2, 7)) for trunc, _ in specs)
        terms[exps] = rng.randint(-9, 9)
    return terms


_SHAPES = [
    ((5, None), (3, 2)),
    ((4, None), (4, None)),
    ((3, 2), (3, 3)),
    ((6, None),),
]


def _ring_for(specs):
    return SeriesRing(
        Z,
        tuple(
            SeriesVar(f"v{i}", trunc, torsion)
            for i, (trunc, torsion) in enumerate(specs)
        ),
    )


def test_criterion_7_property_suites():
    rng = random.Random(1234)

    for _ in range(1000):
        specs = rng.choice(_SHAPES)
        ring = _ring_for(specs)
        f_plain = _random_plain(rng, specs)
        g_plain = _random_plain(rng, specs)
        expected = naive_convolution(
            naive_normalize(f_plain, specs), naive_normalize(g_plain, specs), specs
        )
        assert to_plain(ring.from_terms(f_plain) * ring.from_terms(g_plain)) == expected

    for _ in range(1000):
        specs = rng.choice(_SHAPES)
        ring = _ring_for(specs)
        f = ring.from_terms(_random_plain(rng, specs, max_terms=5))
        g = ring.from_terms(_random_plain(rng, specs, max_terms=5))
        assignment = {}
        for v in ring.variables:
            gen = ring.gen(v.name)
            image = ring.zero
            for e in range(1, v.trunc):
                image = image + gen ** e * rng.randint(-3, 3)
            assignment[v.name] = image
        assert (f + g).substitute(assignment) == f.substitute(
            assignment
        ) + g.substitute(assignment)
        assert (f * g).substitute(assignment) == f.substitute(
            assignment
        ) * g.substitute(assignment)

    for _ in range(500):
        specs = rng.choice(_SHAPES)
        ring = _ring_for(specs)
        terms = _random_plain(rng, specs, max_terms=6)
        terms[(0,) * len(specs)] = rng.choice([1, -1])
        f = ring.from_terms(terms)
        assert f * f.invert() == ring.one

    ctx = standard_context(Z)
    for degree in range(1, 5):
        sym, sym_ctx = symbolic_twin(degree, ctx)
        sym_delta = delta(sym, sym_ctx)
        for tail in itertools.product((0, 1), repeat=degree - 1):
            cand = (1, *tail)
            values = {f"a{i}": v for i, v in enumerate(cand, start=1)}
            assert sym_delta.specialize(values).in_ring(ctx.ring) == delta(
                ChernSeries(list(cand)), ctx
            )

    _report(
        7,
        "1000 mul-vs-convolution, 1000 substitution-homomorphism, 500 exact "
        "inversions, symbolic-specialize == numeric delta for D <= 4",
    )


def test_criterion_8_headline_reduction():
    # the headline non-existence claim is not a statement this engine can
    # test directly; its full computational content is criteria 2-4, and the
    # contradiction has an algebraic witness: the two relations, evaluated
    # at a1 = 1, always sum to 1
    ctx = standard_context(Z)
    relations = dict(extract_relations(3, ctx))
    total = relations[(1, 2)] + relations[(2, 2)]
    for a2 in (0, 1):
        for a3 in (0, 1):
            assert total.ring.evaluate(total.value, {"a1": 1, "a2": a2, "a3": a3}) == 1

    # the longhand oracle agrees that every degree-3 candidate fails
    for tail in itertools.product((0, 1), repeat=2):
        assert delta_longhand((1, *tail)) != {}
    _report(8, "relation pair sums to 1 under a1 = 1; certified via criteria 2-4")
